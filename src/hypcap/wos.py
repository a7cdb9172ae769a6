"""Walk-on-spheres sampling of Brownian exit points.

A domain is the half-plane or the unit disk with one walkable
geom.Obstacle of the same space removed: a HalfPlaneHull, or a DiskCompact
or hyperbolic.RectSet.  A walk jumps from z to a uniform point on the
circle of radius dist(z, boundary), the smaller of the obstacle's dist(z)
and the distance to the outer boundary (real axis or unit circle), until
that distance drops below eps_stop, or until STEP_CAP steps, when the
walk is flagged.  Its terminal is then the obstacle's nearest(z) point,
labelled with the index of a nearest part, or, when the outer boundary is
closer, the nearest point there, labelled LABEL_OUTER.  eps_stop is
default_eps_stop(domain) unless a caller of run_walks passes another.
Angles come from counter-based substreams keyed by (seed, global walk
index, step); each walk's stream key is derived once per chunk.
Aggregation uses a fixed-order pairwise tree, so estimates are
bit-identical for any worker count.  run_walks allocates the ensemble
once, and each chunk of _CHUNK walks writes its own slice of it in place.
A finished walk first writes its stop point there, and the chunk resolves
all its stop points with one terminal call after its last step.  Besides
the parts' distances, a step makes a fixed handful of numpy calls on the
walks still running: the walks that stop leave by one index array of those
that go on, taken from each per-walk array and from the bounds below, and
one |z| per step feeds both the bounds' rounding margin and the disk's
outer distance 1 - |z|.

Each walker carries a lower bound on its distance to each part of the
obstacle (Obstacle.parts: a shape union's shapes, or a RectSet as one
part).  A step asks only the parts whose bound is below the running
minimum of the outer distance and the parts asked so far, and sets their
bounds to the exact distances; a part whose bound is not below that minimum
cannot lower it.  So the step distance is exactly min(outer, dist), and the
walks are those of a loop that asks every part at every step.  After a
step of radius d to z' the bounds drop by d plus geom.ROUNDING x M, with
M = obstacle.sup_abs + |z'| + d: each part's dist is 1-Lipschitz, the
computed |z' - z| exceeds d by a few ulps of M, and a part's computed
distance at z' is within ROUNDING x M of the exact one.  The |z'| term
matters: walks from 1e6 + 1j beside VSlit(0, 1e-3) step at |z| ~ 1e6, where
one ulp is 1.2e-10.  Steps where the outer boundary is nearer than every
part's bound ask no part at all.

The walks of a shared start all take the one distance run_walks computes
to check that start as their step-0 distance, and its part distances as
their first bounds, so the start is queried once per call, not once per
walk; walks from per-walk starts query each start once.  Either way the
ensemble is the same.  This matters for a RectSet whose cells are all
nearly equidistant from the start (the origin inside a filled ring),
where one query scans every cell.

walk_mean is the only route from walks to an Estimate: every estimator
passes it a functional of the exit point and gets back the pairwise mean,
its standard error and the ensemble.  An estimator may also pass harmonic
control variates: functions h bounded and harmonic on the domain, for which
optional stopping gives E[h(W_tau)] = h(Z_0) (Muller 1956; Sawhney and
Crane, Monte Carlo Geometry Processing, 2020).  Each walk then subtracts
beta . (h(W_tau) - h(Z_0)), with beta fitted on the walks of the other
parity, and the controls are evaluated block by block, so memory stays at
one block of them.  Below _CONTROL_WALKS_PER_TERM walks per parity per
fitted coefficient the values stay plain.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geom
from .geom import HalfPlaneHull, Obstacle, require_obstacle
from .rng import stream_key, uniform_angle

LABEL_OUTER = -1
STEP_CAP = 100_000
# substream counter for per-walk start draws; step k of a walk draws counter k
START_COUNTER = 1 << 63
MAX_FLAGGED_FRACTION = 1e-3
_CHUNK = 16384
# walk_mean applies p controls only with at least this many walks per parity
# per fitted coefficient (p + 1 with the intercept): below it the error of
# the cross-fitted beta costs more variance than the controls remove
_CONTROL_WALKS_PER_TERM = 10


class EstimatorError(RuntimeError):
    """Raised when too many walks fail to terminate within the step cap."""


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with reproducibility metadata."""

    mean: float
    std_error: float
    n_walks: int
    eps_stop: float
    seed: int
    bias_note: str = ""

    def within(self, value: float, sigmas: float = 3.0, extra: float = 0.0) -> bool:
        return abs(self.mean - value) <= sigmas * self.std_error + extra


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class _Domain:
    """The space of the obstacle with the obstacle removed.

    The two domains differ only in their outer boundary: the real axis or
    the unit circle.  The obstacle is a walkable geom.Obstacle of the same
    space: its parts' dist(z) bound the step radius, and nearest(z) gives
    the terminal and its label at the end of a walk.
    """

    space: str

    def __init__(self, obstacle: Obstacle):
        require_obstacle(obstacle, self.space)
        self.obstacle = obstacle

    def dist_bounded(self, z: np.ndarray, az: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """min(outer distance, obstacle.dist) at z, given |z| and lower bounds on each part's distance.

        lower holds one row per part of the obstacle and one column per
        point; a part is asked only at the points whose bound is below the
        running minimum, and its bound there becomes the exact distance.
        Bounds of -inf ask every part.  lower is updated in place.
        """
        best = self._outer_dist(z, az)
        for part, low in zip(self.obstacle.parts, lower):
            rows = (low < best).nonzero()[0]
            if rows.size:
                dj = part.dist(z.take(rows))
                low[rows] = dj
                sub = best.take(rows)
                best[rows] = np.minimum(sub, dj, out=sub)
        return best

    def terminal(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d_obs, label, point = self.obstacle.nearest(z)
        on_obstacle = d_obs <= self._outer_dist(z, np.abs(z))
        term = np.where(on_obstacle, point, self._outer_point(z))
        return term, np.where(on_obstacle, label, LABEL_OUTER)


class HalfPlaneDomain(_Domain):
    """The region above the real axis with a hull removed."""

    space = "halfplane"

    def __init__(self, hull: HalfPlaneHull):
        super().__init__(hull)
        x_lo, x_hi = hull.x_bounds
        self.scale = max(x_hi - x_lo, hull.y_max) + 1.0

    @staticmethod
    def _outer_dist(z: np.ndarray, az: np.ndarray) -> np.ndarray:
        # a copy: dist_bounded lowers it in place, and z.imag is a view of z
        return z.imag.copy()

    @staticmethod
    def _outer_point(z: np.ndarray) -> np.ndarray:
        return z.real + 0j


class DiskDomain(_Domain):
    """The unit disk with a walkable disk-space obstacle removed.

    The obstacle is a DiskCompact or the RectSet of a filled region.  Its
    dist(z) is the exact distance to the set, so every jump stays in the
    domain; nearest(z) returns (dist(z), label, point).
    """

    space = "disk"
    scale = 1.0

    @staticmethod
    def _outer_dist(z: np.ndarray, az: np.ndarray) -> np.ndarray:
        return 1.0 - az

    @staticmethod
    def _outer_point(z: np.ndarray) -> np.ndarray:
        az = np.abs(z)
        return np.where(az > 0, z / np.where(az == 0, 1.0, az), 1.0 + 0j)


DomainOracle = HalfPlaneDomain | DiskDomain


def default_eps_stop(domain: DomainOracle) -> float:
    """The stopping distance of every capacity estimator: 1e-4 times the domain's scale.

    run_walks is the only entry point that takes another eps_stop;
    walk_mean, and so every estimator in capacity, stops here.
    """
    return 1e-4 * domain.scale


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class WalkEnsemble:
    """Per-walk terminals for one (domain, start, seed) configuration."""

    terminals: np.ndarray
    labels: np.ndarray
    steps: np.ndarray
    stop_dists: np.ndarray
    flagged: np.ndarray
    eps_stop: float

    @property
    def n_walks(self) -> int:
        return int(self.terminals.size)

    def check_flagged(self) -> None:
        frac = float(np.mean(self.flagged)) if self.flagged.size else 0.0
        if frac > MAX_FLAGGED_FRACTION:
            raise EstimatorError(
                f"{frac:.2%} of walks hit the step cap (limit {MAX_FLAGGED_FRACTION:.2%})"
            )


def _simulate_chunk(domain, ens, sl, pos, d, lower, eps, seed):
    """Walk the walks sl of ens from pos, whose boundary distances d are already known.

    lower holds the walks' bounds on their distances to each part (see
    _Domain.dist_bounded).  Every walk of a chunk takes its k-th step at
    loop iteration k, so one step count serves them all.  Each walk's stop
    point, steps, stop distance and flag are written into ens in place, and
    one terminal call turns the stop points into terminals and labels after
    the last step; chunks own disjoint slices, so threads may share ens.

    The walks that stop at a step leave by one index array of the walks that
    go on, taken (ndarray.take) from the positions, distances, keys, walk
    indices and bounds.  After the jump, |z'| is computed once: it feeds the
    bounds' rounding margin, formed in place with the float operations of
    d + ROUNDING x (sup_abs + |z'| + d), and dist_bounded, where the disk's
    outer distance is 1 - |z'|.  The flags start False, so only walks stopped
    by STEP_CAP write theirs.
    """
    local = np.arange(sl.start, sl.stop)
    key = stream_key(seed, local.astype(np.uint64))
    step = 0
    rounding, sup_abs = geom.ROUNDING, domain.obstacle.sup_abs

    while True:
        fin = d <= eps
        if step == STEP_CAP:
            # every walk still running stops here, flagged unless within eps
            ens.flagged[local] = ~fin
            fin[:] = True
        stop = fin.nonzero()[0]
        if stop.size:
            sel = local.take(stop)
            ens.terminals[sel] = pos.take(stop)
            ens.steps[sel] = step
            ens.stop_dists[sel] = d.take(stop)
            if stop.size == local.size:
                break
            keep = (~fin).nonzero()[0]
            pos, d, key, local = pos.take(keep), d.take(keep), key.take(keep), local.take(keep)
            lower = lower.take(keep, axis=1)
        theta = uniform_angle(key, step)
        pos = pos + d * np.exp(1j * theta)
        step += 1
        az = np.abs(pos)
        margin = az + sup_abs
        margin += d
        margin *= rounding
        margin += d
        lower -= margin
        d = domain.dist_bounded(pos, az, lower)

    ens.terminals[sl], ens.labels[sl] = domain.terminal(ens.terminals[sl])


def _stop_distance(domain: DomainOracle, eps_stop: float | None) -> float:
    eps = default_eps_stop(domain) if eps_stop is None else float(eps_stop)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps_stop must be positive and finite")
    return eps


def run_walks(
    domain: DomainOracle,
    start: complex | np.ndarray,
    n_walks: int,
    eps_stop: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> WalkEnsemble:
    """Run n_walks independent walks; reproducible per (seed, index).

    start is one point shared by every walk, or an array of n_walks
    per-walk starts.  A shared start must lie strictly inside the domain.
    Per-walk starts must be finite and inside the closed outer boundary; one
    within eps_stop of the boundary ends at step 0.
    """
    if n_walks <= 0:
        raise ValueError("n_walks must be positive")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    eps = _stop_distance(domain, eps_stop)
    starts = np.asarray(start, dtype=complex)
    n_parts = len(domain.obstacle.parts)
    shared_d = None
    if starts.ndim == 0:
        # every walk of a shared start reuses this distance as its step 0,
        # and these part distances as its first bounds
        shared_lower = np.full((n_parts, 1), -np.inf)
        one = starts.reshape(1)
        shared_d = float(domain.dist_bounded(one, np.abs(one), shared_lower)[0])
        if not shared_d > eps:
            raise ValueError("start point is not strictly inside the domain")
        starts = np.broadcast_to(starts, (n_walks,))
    elif starts.shape != (n_walks,):
        raise ValueError(f"need one start per walk, got shape {starts.shape} for {n_walks} walks")
    elif not np.all(np.isfinite(starts) & (domain._outer_dist(starts, np.abs(starts)) >= 0)):
        raise ValueError("per-walk starts must be finite and inside the outer boundary")

    ens = WalkEnsemble(
        np.empty(n_walks, dtype=complex),
        np.empty(n_walks, dtype=np.int64),
        np.zeros(n_walks, dtype=np.int64),
        np.zeros(n_walks, dtype=float),
        np.zeros(n_walks, dtype=bool),
        eps,
    )

    def work(sl):
        chunk = starts[sl]
        if shared_d is None:
            lower = np.full((n_parts, chunk.size), -np.inf)
            d = domain.dist_bounded(chunk, np.abs(chunk), lower)
        else:
            lower = np.repeat(shared_lower, chunk.size, axis=1)
            d = np.full(chunk.size, shared_d)
        _simulate_chunk(domain, ens, sl, chunk, d, lower, eps, seed)

    chunks = [slice(i, min(i + _CHUNK, n_walks)) for i in range(0, n_walks, _CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for sl in chunks:
            work(sl)
    return ens


# ---------------------------------------------------------------------------
# reduction and estimators
# ---------------------------------------------------------------------------


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise-tree sum, independent of chunking or workers."""
    a = np.asarray(values, dtype=float).copy()
    n = a.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        a[:half] = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if n % 2:
            a[half] = a[n - 1]
            n = half + 1
        else:
            n = half
    return float(a[0])


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Pairwise mean of values and its standard error."""
    n = values.size
    mean = pairwise_sum(values) / n
    var = pairwise_sum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


def _control_blocks(controls, ens: WalkEnsemble, starts: np.ndarray):
    """Yield (walks, c) per parity of each block of at most _CHUNK walks.

    walks indexes the walks of one parity in the block, and c is
    h(W_tau) - h(Z_0) for those walks, formed in place in the array that
    controls returns.  A shared start (a 0-d starts) is evaluated once.
    Blocks start at multiples of _CHUNK, which is even, so a walk's parity
    within its block is its global parity.
    """
    h0 = controls(starts.reshape(1)) if starts.ndim == 0 else None
    for lo in range(0, ens.n_walks, _CHUNK):
        for parity in (0, 1):
            walks = slice(lo + parity, min(lo + _CHUNK, ens.n_walks), 2)
            c = controls(ens.terminals[walks])
            c -= controls(starts[walks]) if h0 is None else h0
            yield walks, c


def _controlled_values(controls, ens: WalkEnsemble, starts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_i - c_i . beta, with beta fitted on the walks of the other parity.

    One pass adds, block by block in walk-index order, the Gram sums of
    [1, c] and their moments against y for each parity; a min-norm least
    squares on each (p + 1) x (p + 1) system gives beta, so a zero or
    collinear column gets weight 0.  A second pass evaluates the controls
    again and applies the even walks' beta to the odd walks and the odd
    walks' to the even ones.  Memory is one block of controls, never the
    (n_walks x p) matrix.
    """
    gram = moment = None
    for walks, c in _control_blocks(controls, ens, starts):
        if gram is None:
            gram = np.zeros((2, c.shape[1] + 1, c.shape[1] + 1))
            moment = np.zeros((2, c.shape[1] + 1))
        g, m, yw = gram[walks.start % 2], moment[walks.start % 2], y[walks]
        g[0, 0] += c.shape[0]
        g[0, 1:] += c.sum(axis=0)
        g[1:, 1:] += c.T @ c
        m[0] += yw.sum()
        m[1:] += c.T @ yw
    gram[:, 1:, 0] = gram[:, 0, 1:]
    # walks of each parity take the coefficients fitted on the other parity
    beta = [np.linalg.lstsq(gram[1 - parity], moment[1 - parity], rcond=None)[0][1:] for parity in (0, 1)]
    z = np.empty(y.size)
    for walks, c in _control_blocks(controls, ens, starts):
        z[walks] = y[walks] - c @ beta[walks.start % 2]
    return z


def walk_mean(
    domain: DomainOracle,
    start: complex | np.ndarray,
    n_walks: int,
    value: Callable[[WalkEnsemble], np.ndarray],
    seed: int = 0,
    threads: int = 1,
    bias_note: str = "",
    controls: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[Estimate, WalkEnsemble]:
    """Mean of the per-walk values value(ensemble) over n_walks walks.

    This is the one route from walks to an Estimate: it runs the walks,
    rejects an ensemble with too many step-capped walks, and reduces the
    values with the fixed-order pairwise sum, so the mean and its standard
    error are bit-identical for any worker count.  It needs at least two
    walks: one walk has no standard error.

    controls, if given, maps an array of m points to a new real (m x p)
    array, which walk_mean overwrites, of p functions h_j that are bounded
    and harmonic on the domain.  By optional stopping c_i = h(W_tau,i) -
    h(Z_0,i) has mean 0, so each walk subtracts c_i . beta from its value,
    with beta fitted by least squares on the walks of the other parity
    (cross-fitting: no walk's beta depends on that walk, so the mean gets no
    in-sample bias).  The mean and standard error are those of the
    controlled values; bias_note then records p, the O(eps_stop sup|h'|)
    bias of the control means from projecting terminals onto the boundary,
    and sigma / sigma_plain.  With fewer than _CONTROL_WALKS_PER_TERM (p + 1)
    walks per parity the fitted beta is too noisy to pay (at 64 walks the
    12 hcap controls gave up to 10x the plain sigma), so the values stay
    plain and bias_note says the controls were not applied.
    """
    if n_walks < 2:
        raise ValueError(f"walk_mean needs at least 2 walks for a standard error, got {n_walks}")
    ens = run_walks(domain, start, n_walks, seed=seed, threads=threads)
    ens.check_flagged()
    values = np.asarray(value(ens), dtype=float)
    mean, se = _mean_and_se(values)
    if controls is not None:
        starts = np.asarray(start, dtype=complex)
        p = controls(starts.reshape(-1)[:1]).shape[1]
        if n_walks // 2 < _CONTROL_WALKS_PER_TERM * (p + 1):
            note = f"{p} harmonic controls not applied: fewer than {_CONTROL_WALKS_PER_TERM}(p + 1) walks per parity"
        else:
            plain_se = se
            values = _controlled_values(controls, ens, starts, values)
            mean, se = _mean_and_se(values)
            ratio = se / plain_se if plain_se > 0 else 1.0
            note = (
                f"{p} harmonic controls, cross-fitted beta (even/odd walks); "
                f"control-mean bias O(eps_stop sup|h'|) from projected terminals; sigma/sigma_plain = {ratio:.3f}"
            )
        bias_note = f"{bias_note}; {note}" if bias_note else note
    return Estimate(mean, se, n_walks, ens.eps_stop, seed, bias_note), ens
