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
only bias is the O(eps_stop) projection at the stopping distance.

Transport: crad(H \\ A, iy) = 2 y exp(-dcap(T_y(A))), and dcap of the
pushforward is sampled with half-plane walks, using conformal invariance
of the exit distribution: -E_{iy}[ log |T_y(W_exit)| ].

Each estimator is one wos.walk_mean call with its own functional of the
exit point w: -log|w| on obstacle hits, Im w, or -log|T_y(w)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import layer_of_radius
from .geom import ArcBox, DiskCompact, HalfDisk, HalfPlaneHull, VSlit
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
    """Obstacles whose normalized maps are known in closed form."""

    kind: str  # "halfdisk" | "vslit" | "ring"
    param: float

    def __post_init__(self):
        if self.kind not in ("halfdisk", "vslit", "ring"):
            raise ValueError(f"unknown canonical kind {self.kind!r}")
        if self.param <= 0:
            raise ValueError("param must be positive")
        if self.kind == "ring" and not (0.5 < self.param < 1.0):
            raise ValueError("ring needs rho in (1/2, 1)")

    def hull(self) -> HalfPlaneHull:
        if self.kind == "halfdisk":
            return HalfPlaneHull([HalfDisk(0.0, self.param)])
        if self.kind == "vslit":
            return HalfPlaneHull([VSlit(0.0, self.param)])
        raise ValueError("ring is a disk-space obstacle")

    def compact(self) -> DiskCompact:
        if self.kind != "ring":
            raise ValueError("only the ring kind lives in the disk")
        return DiskCompact([ArcBox(0.0, TWO_PI, self.param)])


def ring(rho: float) -> DiskCompact:
    return CanonicalHull("ring", rho).compact()


def hcap_exact(C: CanonicalHull) -> float:
    """HalfDisk(r) -> r^2, VSlit(h) -> h^2/2."""
    if C.kind == "halfdisk":
        return C.param**2
    if C.kind == "vslit":
        return 0.5 * C.param**2
    raise ValueError("hcap is undefined for disk obstacles")


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
    if kind == "halfdisk":
        return 2.0 * (1.0 - eps * eps) / (1.0 + eps * eps)
    if kind == "vslit":
        return 2.0 * (1.0 - eps * eps)
    raise ValueError(kind)


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


def _minus_log_modulus(ens: WalkEnsemble) -> np.ndarray:
    """-log|w| on obstacle hits; circle exits contribute -log 1 = 0 exactly."""
    return np.where(ens.labels >= 0, -np.log(np.abs(ens.terminals)), 0.0)


def dcap_mc(
    B,
    n_walks: int = 200_000,
    eps_stop: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of dcap(B) = -E_0[log |W_exit|]."""
    est, _ = walk_mean(DiskDomain(B), 0j, n_walks, _minus_log_modulus, seed, eps_stop, threads, _PROJECTION_NOTE)
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
    eps_stop: float | None = None,
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
    if B.min_abs < 0.25:
        raise ValueError(f"dcap_layer_sum needs B.min_abs >= 1/4, got {B.min_abs:g}")
    est, ens = walk_mean(DiskDomain(B), 0j, n_walks, _minus_log_modulus, seed, eps_stop, threads, _PROJECTION_NOTE)
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


def hcap_mc(
    A: HalfPlaneHull,
    n_walks: int = 200_000,
    eps_stop: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Estimate hcap(A) = (4R/pi) E[Im W_exit] from half-circle starts.

    The circle has center x_c, the midpoint of A.x_bounds, and radius R =
    sup |z - x_c| over A.  Walk i starts at polar angle
    arccos(1 - 2u_i), with u_i drawn at START_COUNTER of its own substream.
    """
    if A.is_empty:
        return Estimate(0.0, 0.0, 0, 0.0, seed, "empty hull")
    x_lo, x_hi = A.x_bounds
    x_c = 0.5 * (x_lo + x_hi)
    R = A.translate(-x_c).sup_abs
    u = uniform01(seed, np.arange(n_walks, dtype=np.uint64), START_COUNTER)
    starts = x_c + R * np.exp(1j * np.arccos(1.0 - 2.0 * u))
    est, _ = walk_mean(
        HalfPlaneDomain(A),
        starts,
        n_walks,
        lambda ens: ens.terminals.imag,
        seed,
        eps_stop,
        threads,
        _PROJECTION_NOTE,
    )
    k = 4.0 * R / math.pi
    return Estimate(k * est.mean, k * est.std_error, est.n_walks, est.eps_stop, seed, est.bias_note)


# ---------------------------------------------------------------------------
# transport: dcap of pushforwards, conformal radius in the half-plane
# ---------------------------------------------------------------------------


def dcap_transport(
    A: HalfPlaneHull,
    y: float,
    n_walks: int = 200_000,
    eps_stop: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """dcap(T_y(A)) sampled with half-plane walks from iy.

    The exit point of Brownian motion in D \\ T_y(A) from 0 is the image
    under T_y of the exit point in H \\ A from iy, so the disk functional
    -log|w| pulls back to -log|T_y(z)|; real-axis exits contribute exactly 0.
    """
    require_annulus(A, y)
    est, _ = walk_mean(
        HalfPlaneDomain(A),
        1j * y,
        n_walks,
        # real-axis exits map onto the unit circle: contribution exactly 0
        lambda ens: np.where(ens.labels >= 0, -np.log(np.abs(t_y(y, ens.terminals))), 0.0),
        seed,
        eps_stop,
        threads,
        "transported log-modulus; O(eps_stop) bias",
    )
    return est


def crad_halfplane(
    A: HalfPlaneHull,
    y: float = 1.0,
    n_walks: int = 200_000,
    eps_stop: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> tuple[float, Estimate]:
    """crad(H \\ A, iy) = 2 y exp(-dcap(T_y(A))); returns (crad, dcap estimate)."""
    d = dcap_transport(A, y, n_walks, eps_stop, seed, threads)
    return 2.0 * y * math.exp(-d.mean), d
