"""Capacity estimators and their exact closed-form oracles.

dcap(B) = -log crad(D \\ B, 0) is sampled through the identity
log crad = E[log |W_exit|] for Brownian motion started at the origin: the
function w -> E_w[log |W_exit|] is harmonic with boundary values log|w|,
and composing with the Riemann map of D \\ B turns its value at 0 into the
circle average of log|f|, which is log|f'(0)| by the mean value property.

hcap(A) is sampled through the exact half-circle identity
hcap(A) = (4R/pi) E[Im W_exit] for walks started at x_c + R e^{i theta}
with theta ~ sin(theta)/2 on [0, pi], where the closed half-disk of radius
R about x_c contains A (Lawler, Conformally Invariant Processes in the
Plane, AMS 2005, ch. 3; Lalley-Lawler-Narayanan, arXiv:0909.0438).  The
only bias is the O(eps_stop) projection at the stopping distance.  Every
estimator here stops at wos.default_eps_stop: 1e-4 on the disk and
1e-4 (max(width, y_max) + 1) on the half-plane.  Only wos.run_walks
takes another stopping distance; every walk stops after at most
wos.STEP_CAP steps.

Transport: crad(H \\ A, iy) = 2 y exp(-dcap(T_y(A))), and dcap of the
pushforward is -E_{iy}[log |T_y(W_exit)|] by conformal invariance of the
exit distribution.  A walk from iy reaches A only through the same
half-circle, and one that first reaches the real axis scores 0, so by the
strong Markov property dcap(T_y(A)) = omega E[-log |T_y(W_exit)|] for
walks started at the first-passage point on the half-circle.  The map
zeta + R^2/zeta (zeta = z - x_c) sends H minus the closed half-disk onto
H and the half-circle onto [-2R, 2R], so that point is a Cauchy law from
w0 = g(iy - x_c) pulled back, and omega is the Cauchy mass of [-2R, 2R].
As y grows the law tends to hcap's start law and y omega -> 4R/pi.

Each estimator is one wos.walk_mean call with its own functional of the
exit point w: -log|w| on obstacle hits, Im w, or -log|T_y(w)|.  dcap_mc and
hcap_mc also pass harmonic control variates, which walk_mean subtracts with
a cross-fitted beta: dcap_mc the 16 functions Re w^k and Im w^k, k = 1..8
(0 at the start), hcap_mc the 12 functions Re q^k and Im q^k, k = 1, 2,
q = -1/(z - x_c + ia) for a = R/2, R, 2R, whose poles lie below the real
axis.  On the benchmark corpora they cut the variance 1.3-3.5x for hcap
and 1.3-6.1x for dcap.  walk_mean applies them from 260 walks for hcap_mc
and 340 for dcap_mc, 10 walks per parity per fitted coefficient; fewer
walks give plain estimates.  dcap_layer_sum stays plain, because its sandwich
holds walk by walk only for the plain values, and dcap_transport, whose
half-circle starts already give it a small variance, stays plain too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import layer_of_radius
from .geom import ArcBox, DiskCompact, HalfDisk, HalfPlaneHull, VSlit, require_obstacle
from .mobius import require_annulus, t_y
from .rng import uniform01
from .wos import START_COUNTER, DiskDomain, Estimate, HalfPlaneDomain, WalkEnsemble, walk_mean

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# canonical families with closed-form maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalHull:
    """Half-plane hulls at the origin whose normalized maps are known in closed form."""

    kind: str  # "halfdisk" | "vslit"
    param: float

    def __post_init__(self):
        if self.kind not in ("halfdisk", "vslit"):
            raise ValueError(f"unknown canonical kind {self.kind!r}")
        if not (math.isfinite(self.param) and self.param > 0):
            raise ValueError("param must be positive and finite")

    def hull(self) -> HalfPlaneHull:
        shape = HalfDisk if self.kind == "halfdisk" else VSlit
        return HalfPlaneHull([shape(0.0, self.param)])


def ring(rho: float) -> DiskCompact:
    """The full ring rho <= |z| < 1, for rho in (1/2, 1)."""
    return DiskCompact([ArcBox(0.0, TWO_PI, rho)])


def hcap_exact(C: CanonicalHull) -> float:
    """HalfDisk(r) -> r^2, VSlit(h) -> h^2/2."""
    return C.param**2 if C.kind == "halfdisk" else 0.5 * C.param**2


def dcap_exact_ring(rho: float) -> float:
    return -math.log(rho)


def g_halfdisk(z, r: float):
    """Hydrodynamic map of H minus the half-disk of radius r at the origin."""
    z = np.asarray(z, dtype=complex)
    return z + (r * r) / z


def g_vslit(z, h: float):
    """Hydrodynamic map of H minus the vertical slit of height h at 0.

    Written as z sqrt(1 + (h/z)^2) so the principal branch cut falls on the
    slit itself.
    """
    z = np.asarray(z, dtype=complex)
    return z * np.sqrt(1.0 + (h / z) ** 2)


def crad_exact_at_i(kind: str, eps: float) -> float:
    """crad(H \\ A, i) for the canonical families of size eps at the origin."""
    return crad_exact_at_iy(kind, eps, 1.0)


def crad_exact_at_iy(kind: str, size: float, y: float) -> float:
    """crad(H \\ A, iy) for HalfDisk(size) or VSlit(size) rooted at 0."""
    if kind == "halfdisk":
        q = (size / y) ** 2
        return 2.0 * y * (1.0 - q) / (1.0 + q)
    if kind == "vslit":
        return 2.0 * (y * y - size * size) / y
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# disk capacity
# ---------------------------------------------------------------------------

_PROJECTION_NOTE = "projection bias O(eps_stop)"


def _re_im_powers(q: np.ndarray, degree: int, out: np.ndarray) -> np.ndarray:
    """Write Re q^k and Im q^k, k = 1..degree, into the 2*degree columns of out.

    Callers pass a column-major out, so every column is written contiguously.
    """
    power = q
    for k in range(degree):
        if k:
            power = power * q
        out[:, 2 * k] = power.real
        out[:, 2 * k + 1] = power.imag
    return out


def _disk_controls(w: np.ndarray) -> np.ndarray:
    """Re w^k and Im w^k for k = 1..8: bounded and harmonic on the closed disk, 0 at 0."""
    return _re_im_powers(w, 8, np.empty((16, w.size)).T)


def _minus_log_modulus(ens: WalkEnsemble) -> np.ndarray:
    """-log|w| on obstacle hits; circle exits contribute -log 1 = 0 exactly."""
    return np.where(ens.labels >= 0, -np.log(np.abs(ens.terminals)), 0.0)


def dcap_mc(
    B,
    n_walks: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of dcap(B) = -E_0[log |W_exit|].

    The walks carry the 16 controls Re w^k and Im w^k, k = 1..8, whose
    exit means are their value 0 at the start.
    """
    est, _ = walk_mean(
        DiskDomain(B),
        0j,
        n_walks,
        _minus_log_modulus,
        seed,
        threads=threads,
        bias_note=_PROJECTION_NOTE,
        controls=_disk_controls,
    )
    return est


@dataclass
class LayerSum:
    """Per-layer hitting frequencies with the deterministic dcap sandwich."""

    estimate: Estimate
    omega: dict[int, float]
    lower: float
    upper: float


def dcap_layer_sum(
    B,
    n_walks: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> LayerSum:
    """dcap estimate plus layer frequencies and the pathwise sandwich.

    B is a DiskCompact or the RectSet of a filled region; omega[n] is the
    fraction of walks from 0 that end on B in layer n, with every depth in
    [1/2, 1) binned to layer 0.  A terminal at depth 1 - |u| in layer n
    contributes a value -log|u| in [2^-(n+1), 2 log 2 * 2^-n), so the
    sandwich holds walk by walk, not just in expectation, as long as
    B.min_abs >= 1/4: layer 0's upper bound 2 log 2 = -log(1/4) holds only
    for depths up to 3/4, so a B reaching below |z| = 1/4 raises ValueError.
    """
    require_obstacle(B, "disk")
    if B.min_abs < 0.25:
        raise ValueError(f"dcap_layer_sum needs B.min_abs >= 1/4, got {B.min_abs:g}")
    est, ens = walk_mean(
        DiskDomain(B), 0j, n_walks, _minus_log_modulus, seed, threads=threads, bias_note=_PROJECTION_NOTE
    )
    hits = ens.labels >= 0
    omega: dict[int, float] = {}
    lower = 0.0
    upper = 0.0
    if np.any(hits):
        depths = 1.0 - np.abs(ens.terminals[hits])
        layers = layer_of_radius(depths)
        for n in np.unique(layers):
            w = float(np.sum(layers == n)) / ens.n_walks
            omega[int(n)] = w
            lower += w * 2.0 ** -(int(n) + 1)
            upper += 2.0 * LN2 * w * 2.0 ** -int(n)
    return LayerSum(est, omega, lower, upper)


# ---------------------------------------------------------------------------
# half-plane capacity
# ---------------------------------------------------------------------------


def _half_circle(A: HalfPlaneHull) -> tuple[float, float]:
    """Center x_c, the midpoint of A.x_bounds, and radius R = sup |z - x_c| over A."""
    x_lo, x_hi = A.x_bounds
    x_c = 0.5 * (x_lo + x_hi)
    return x_c, A.translate(-x_c).sup_abs


def _half_circle_starts(x_c: float, R: float, n_walks: int, seed: int, y: float = math.inf):
    """Walk starts on the half-circle x_c + R e^{i theta} around A, and their weight.

    x_c and R come from _half_circle(A).  Walk i
    draws u_i at START_COUNTER of its own substream and starts at polar
    angle arccos(c_i).  For finite y the starts follow the law of the point
    where Brownian motion from iy first meets the half-circle: with
    w0 = g_halfdisk(iy - x_c, R) = a + ib and [phi_lo, phi_hi] the angles
    atan((-+2R - a)/b), c_i = (a + b tan(phi_lo + (phi_hi - phi_lo) u_i))/(2R),
    and the weight is omega = (phi_hi - phi_lo)/pi, the chance of meeting the
    half-circle before the real axis.  y = inf is the limit hcap uses:
    c_i = 1 - 2 u_i and the weight lim y omega = 4R/pi.
    """
    u = uniform01(seed, np.arange(n_walks, dtype=np.uint64), START_COUNTER)
    if math.isinf(y):
        c = 1.0 - 2.0 * u
        weight = 4.0 * R / math.pi
    else:
        # iy lies outside the half-disk (require_annulus), so b > 0
        w0 = complex(g_halfdisk(1j * y - x_c, R))
        a, b = w0.real, w0.imag
        phi_lo = math.atan((-2.0 * R - a) / b)
        phi_hi = math.atan((2.0 * R - a) / b)
        c = np.clip((a + b * np.tan(phi_lo + (phi_hi - phi_lo) * u)) / (2.0 * R), -1.0, 1.0)
        weight = (phi_hi - phi_lo) / math.pi
    return x_c + R * np.exp(1j * np.arccos(c)), weight


def _halfplane_controls(x_c: float, R: float):
    """Re q^k and Im q^k for k = 1, 2 and q = -1/(z - x_c + ia), a = R/2, R, 2R.

    Each pole x_c - ia lies below the real axis, so |q| <= 1/a on the closed
    half-plane and all 12 functions are bounded and harmonic there.
    """
    poles = [x_c - 1j * a for a in (0.5 * R, R, 2.0 * R)]

    def controls(z: np.ndarray) -> np.ndarray:
        out = np.empty((4 * len(poles), z.size)).T
        for j, pole in enumerate(poles):
            _re_im_powers(-1.0 / (z - pole), 2, out[:, 4 * j : 4 * j + 4])
        return out

    return controls


def _half_circle_mean(
    A: HalfPlaneHull, y: float, n_walks: int, seed: int, threads: int, value, bias_note: str, controls
) -> Estimate:
    """walk_mean of value from _half_circle_starts(x_c, R, n_walks, seed, y), scaled by the starts' weight.

    controls is None or maps (x_c, R) to walk_mean's controls.  An empty
    hull gives 0 without walking.
    """
    if A.is_empty:
        return Estimate(0.0, 0.0, 0, 0.0, seed, "empty hull")
    x_c, R = _half_circle(A)
    starts, weight = _half_circle_starts(x_c, R, n_walks, seed, y)
    controls = None if controls is None else controls(x_c, R)
    est, _ = walk_mean(HalfPlaneDomain(A), starts, n_walks, value, seed, threads, bias_note, controls)
    return replace(est, mean=weight * est.mean, std_error=weight * est.std_error)


def hcap_mc(
    A: HalfPlaneHull,
    n_walks: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Estimate hcap(A) = (4R/pi) E[Im W_exit] from half-circle starts.

    The circle has center x_c, the midpoint of A.x_bounds, and radius R =
    sup |z - x_c| over A.  Walk i starts at polar angle
    arccos(1 - 2u_i), with u_i drawn at START_COUNTER of its own substream.
    The walks carry the 12 controls of _halfplane_controls(x_c, R), each
    compared with its value at the walk's own start.
    """
    require_obstacle(A, "halfplane")
    return _half_circle_mean(
        A, math.inf, n_walks, seed, threads, lambda ens: ens.terminals.imag, _PROJECTION_NOTE, _halfplane_controls
    )


# ---------------------------------------------------------------------------
# transport: dcap of pushforwards, conformal radius in the half-plane
# ---------------------------------------------------------------------------


def dcap_transport(
    A: HalfPlaneHull,
    y: float,
    n_walks: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """dcap(T_y(A)) sampled with half-plane walks from the half-circle around A.

    The exit point of Brownian motion in D \\ T_y(A) from 0 is the image
    under T_y of the exit point in H \\ A from iy, so the disk functional
    -log|w| pulls back to -log|T_y(z)|; real-axis exits contribute exactly 0.
    A walk from iy meets the half-circle x_c + R e^{i theta} of hcap_mc
    before it can reach A, so the walks start at that first-passage point
    and the mean is scaled by the exact chance omega of getting there.  An
    empty hull gives dcap 0 without walking.
    """
    require_obstacle(A, "halfplane")
    require_annulus(A, y)

    def minus_log_t_y(ens):
        # real-axis exits map onto the unit circle: contribution exactly 0
        return np.where(ens.labels >= 0, -np.log(np.abs(t_y(y, ens.terminals))), 0.0)

    return _half_circle_mean(
        A, y, n_walks, seed, threads, minus_log_t_y, "transported log-modulus; O(eps_stop) bias", None
    )


def crad_halfplane(
    A: HalfPlaneHull,
    y: float = 1.0,
    n_walks: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> tuple[float, Estimate]:
    """crad(H \\ A, iy) = 2 y exp(-dcap(T_y(A))); returns (crad, dcap estimate)."""
    d = dcap_transport(A, y, n_walks, seed, threads)
    return 2.0 * y * math.exp(-d.mean), d
