"""The four workloads: their inputs, the ops each round runs, and the check on every op.

Inputs are the corpora of the ``verify`` claims (corpus seed 7, the
``VerifyConfig`` default) moved by a rigid motion drawn from the workload
seed: each disk compact is rotated, each half-plane hull is mirrored or not
and shifted along the real axis.  hcap, dcap and hyperbolic areas are
invariant under these motions, so every seed poses the same problems through
different floating-point inputs, quadtree alignments and walk streams.
Drawing fresh corpora instead would change per-element cost by 3-4x from
seed to seed (radial-slit areas take 0.2-2 s), and a round would need about
a hundred elements before seeds agreed within the benchmark's bounds.

Every op returns (rel_se, failures): rel_se is std_error / |mean| for a
Monte Carlo op and None for a deterministic one.  The library is called only
through arguments that are stable across its planned refactors:
``hcap_mc(A, n_walks=, seed=)``, ``dcap_mc(B, n_walks, seed=)``, the public
``dist``/``nearest`` methods, and ``HcapResult.estimate``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import (
    FLOAT_DUST,
    Z_MAX,
    crad_halfdisk_at_iy,
    crad_vslit_at_iy,
    dcap_bracket,
    filled_ring_dcap,
    hcap_bracket,
    hcap_halfdisk,
    hcap_vslit,
    matches,
    ring_dcap,
    slit_dcap,
    transport_dcap,
    within_bracket,
)

from hypcap import capacity, corpus, dyadic, fixtures, hyperbolic, wos
from hypcap.geom import ArcBox, BoxShape, DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit

CORPUS_SEED = 7
TWO_PI = 2.0 * math.pi

# sizes: one round takes 5-15 s on one core of a 2-core x86 VM
HCAP_ELEMENTS = 12
HCAP_WALKS = 8192  # per height of the default 4-height grid
# closed-form oracles get more walks so that 5 standard errors are a few percent
TRANSPORT_WALKS = 65536
TRANSPORT_YS = (8.0, 16.0, 32.0)
DCAP_ELEMENTS = 12
DCAP_WALKS = 16384
LAYER_SUM_ELEMENTS = 3
SLIT_RHOS = (0.55, 0.7, 0.9)
SLIT_WALKS = 131072
AREA_DISK_ELEMENTS = 4
AREA_HP_ELEMENTS = 12
AREA_TOL = 1e-3
FILL_RADIUS = 1.0
FILL_TOL = 2e-3
# RectSet queries allocate (walkers x rectangles) arrays, so the walks run as
# several ops of one small chunk each, with memory bounded by one chunk.  The
# arcbox's rectangles, whose sides span a 256x range, make a query look at
# many of them, about 0.4 MB per walker, so its chunks set the query
# allocation peak.  Five ring ops of about 0.5 s make the median op of a
# round one of them rather than a single op of its own kind.
# The RectSet walks use the same streams at every workload seed (common
# random numbers): a few hundred walks pin their own variance down only to
# +-10-20%, which would swing mc_s_at_1pct by more than its bound from seed
# to seed.
ARCBOX_WALKS, ARCBOX_WALK_OPS = 64, 2
RING_WALKS, RING_WALK_OPS = 128, 5
FILLED_WALK_SEED = 7000
# points on the segment from 0 into B at which the RectSet check queries
FRONTIER_RAY_POINTS = 33
THREADS_PROBE_WALKS = 4 * 16384
THREADS_PROBE_REPEATS = 2



@dataclass
class Op:
    """One timed call; call and check share a per-round context dict."""

    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], tuple[float | None, list[str]]]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], object]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rotated(shape, phi: float):
    if isinstance(shape, RadialSlit):
        return RadialSlit(shape.theta + phi, shape.rho)
    return ArcBox(shape.theta0 + phi, shape.theta1 + phi, shape.rho)


def _moved(shape, mirror: bool, shift: float):
    s = -1.0 if mirror else 1.0
    if isinstance(shape, VSlit):
        return VSlit(s * shape.x + shift, shape.h)
    if isinstance(shape, HalfDisk):
        return HalfDisk(s * shape.c + shift, shape.r)
    x0, x1 = sorted((s * shape.x0 + shift, s * shape.x1 + shift))
    return BoxShape(x0, x1, shape.y0, shape.y1)


def disk_inputs(count: int, seed: int) -> list[tuple[DiskCompact, list]]:
    """(compact, its shapes) for the leading disk-corpus elements, each rotated."""
    draw = random.Random(f"disk-{seed}")
    out = []
    for B in corpus.mixed_disk_corpus(count, CORPUS_SEED):
        phi = draw.uniform(0.0, TWO_PI)
        shapes = [_rotated(s, phi) for s in B.shapes]
        out.append((DiskCompact(shapes), shapes))
    return out


def halfplane_inputs(count: int, seed: int) -> list[tuple[HalfPlaneHull, list]]:
    """(hull, its shapes) for the leading half-plane-corpus elements, each mirrored or shifted."""
    draw = random.Random(f"halfplane-{seed}")
    out = []
    for A in corpus.mixed_halfplane_corpus(count, CORPUS_SEED):
        width = max(s.x_range[1] for s in A.shapes) - min(s.x_range[0] for s in A.shapes)
        mirror = draw.random() < 0.5
        shift = draw.uniform(-0.1, 0.1) * width
        shapes = [_moved(s, mirror, shift) for s in A.shapes]
        out.append((HalfPlaneHull(shapes), shapes))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _rel(est) -> float:
    return est.std_error / abs(est.mean) if est.mean else math.inf


def _expect(ok: bool, what: str) -> list[str]:
    return [] if ok else [what]


def _estimate_check(exact=None, bracket=None):
    def check(out, ctx):
        est = getattr(out, "estimate", out)
        if exact is not None:
            fails = _expect(
                matches(est.mean, est.std_error, exact),
                f"estimate {est.mean:.6g} +- {est.std_error:.2g} misses closed form {exact:.6g}",
            )
        else:
            lo, hi = bracket
            fails = _expect(
                within_bracket(est.mean, est.std_error, lo, hi),
                f"estimate {est.mean:.6g} +- {est.std_error:.2g} outside certified [{lo:.6g}, {hi:.6g}]",
            )
        return _rel(est), fails

    return check


def _layer_sum_check(bracket):
    inner = _estimate_check(bracket=bracket)

    def check(ls, ctx):
        rel, fails = inner(ls, ctx)
        m = ls.estimate.mean
        dust = FLOAT_DUST * max(1.0, abs(m))
        sandwich = ls.lower - dust <= m <= ls.upper + dust
        fails += _expect(sandwich, f"sandwich {ls.lower:.6g} <= {m:.6g} <= {ls.upper:.6g} broken")
        return rel, fails

    return check


def _area_check(key):
    def check(b, ctx):
        ctx[key] = b
        fails = _expect(b.lower <= b.upper, f"area bracket inverted [{b.lower}, {b.upper}]")
        fails += _expect(b.tolerance_met, f"area tolerance not met, gap {b.gap:.3g}")
        return None, fails

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def hcap_halfplane(seed: int) -> Workload:
    ops = []
    hulls = halfplane_inputs(HCAP_ELEMENTS, seed)
    for i, (A, shapes) in enumerate(hulls):
        ops.append(
            Op(
                f"hcap_mc[{i}]",
                lambda ctx, A=A, s=seed * 1000 + i: capacity.hcap_mc(A, n_walks=HCAP_WALKS, seed=s),
                _estimate_check(bracket=hcap_bracket(shapes)),
            )
        )
    oracles = (("vslit", VSlit(0.0, 1.0), hcap_vslit(1.0), crad_vslit_at_iy),
               ("halfdisk", HalfDisk(0.0, 1.0), hcap_halfdisk(1.0), crad_halfdisk_at_iy))
    for k, (tag, shape, exact, crad) in enumerate(oracles):
        A = HalfPlaneHull([shape])
        ops.append(
            Op(
                f"hcap_mc[{tag}]",
                lambda ctx, A=A, s=seed * 1000 + 100 + k: capacity.hcap_mc(A, n_walks=HCAP_WALKS, seed=s),
                _estimate_check(exact=exact),
            )
        )
        for j, y in enumerate(TRANSPORT_YS):
            ops.append(
                Op(
                    f"dcap_transport[{tag},y={y:g}]",
                    lambda ctx, A=A, y=y, s=seed * 1000 + 200 + 10 * k + j: capacity.dcap_transport(
                        A, y, n_walks=TRANSPORT_WALKS, seed=s
                    ),
                    _estimate_check(exact=transport_dcap(crad(1.0, y), y)),
                )
            )
    A0 = hulls[0][0]
    return Workload(ops, lambda: capacity.hcap_mc(A0, n_walks=256, seed=seed))


def dcap_disk(seed: int) -> Workload:
    ops = []
    compacts = disk_inputs(DCAP_ELEMENTS, seed)
    for i, (B, shapes) in enumerate(compacts):
        ops.append(
            Op(
                f"dcap_mc[{i}]",
                lambda ctx, B=B, s=seed * 1000 + i: capacity.dcap_mc(B, DCAP_WALKS, seed=s),
                _estimate_check(bracket=dcap_bracket(shapes)),
            )
        )
    for i, (B, shapes) in enumerate(compacts[:LAYER_SUM_ELEMENTS]):
        ops.append(
            Op(
                f"dcap_layer_sum[{i}]",
                lambda ctx, B=B, s=seed * 1000 + 100 + i: capacity.dcap_layer_sum(B, DCAP_WALKS, seed=s),
                _layer_sum_check(dcap_bracket(shapes)),
            )
        )
    draw = random.Random(f"slit-{seed}")
    for k, rho in enumerate(SLIT_RHOS):
        B = DiskCompact([RadialSlit(draw.uniform(0.0, TWO_PI), rho)])
        ops.append(
            Op(
                f"dcap_mc[slit,rho={rho:g}]",
                lambda ctx, B=B, s=seed * 1000 + 200 + k: capacity.dcap_mc(B, SLIT_WALKS, seed=s),
                _estimate_check(exact=slit_dcap(rho)),
            )
        )
    B0 = compacts[0][0]
    return Workload(ops, lambda: capacity.dcap_mc(B0, 256, seed=seed))


def _area(S):
    return hyperbolic.neighborhood_area(S, 1.0, AREA_TOL, relative=True)


def area_quadtree(seed: int) -> Workload:
    ops = []
    compacts = disk_inputs(AREA_DISK_ELEMENTS, seed)
    hulls = halfplane_inputs(AREA_HP_ELEMENTS, seed)
    for i, (B, _) in enumerate(compacts):
        key = f"area_disk[{i}]"
        ops.append(Op(key, lambda ctx, B=B: _area(B), _area_check(key)))
    for i, (A, _) in enumerate(hulls):
        key = f"area_hp[{i}]"
        ops.append(Op(key, lambda ctx, A=A: _area(A), _area_check(key)))

    # the covers take well under 1 ms each; one op runs all of them so that
    # op_p50_s stays a latency of the area ops instead of timer noise
    def covers(ctx):
        return (
            [dyadic.dyadic_cover(B)[1].midpoint for B, _ in compacts],
            [dyadic.whitney_cover_area(A).midpoint for A, _ in hulls],
            [dyadic.lipschitz_majorant_area(A) for A, _ in hulls],
        )

    def covers_check(out, ctx):
        qb, whitney, lipschitz = out
        fails = []
        for label, keys, values, bracket in (
            ("|Q(B)|", "area_disk", qb, fixtures.QB_OVER_NB),
            ("whitney", "area_hp", whitney, fixtures.WHITNEY_OVER_N),
            ("lipschitz", "area_hp", lipschitz, fixtures.LIPSCHITZ_OVER_N),
        ):
            for i, value in enumerate(values):
                area = ctx.get(f"{keys}[{i}]")
                if area is None:
                    fails.append(f"no {keys}[{i}] result to compare with")
                    continue
                ratio = value / area.midpoint
                fails += _expect(bracket[0] <= ratio <= bracket[1], f"{label}[{i}]/|N| = {ratio:.4g} outside {bracket}")
        return None, fails

    ops.append(Op("covers", covers, covers_check))
    A0 = hulls[0][0]
    return Workload(ops, lambda: hyperbolic.neighborhood_area(A0, 1.0, 1e-2, relative=True))


def _inner_point(shape: ArcBox) -> complex:
    """A point of the annular sector, halfway out and at its middle angle."""
    r = 0.5 * (shape.rho + 1.0)
    return r * complex(math.cos(0.5 * (shape.theta0 + shape.theta1)), math.sin(0.5 * (shape.theta0 + shape.theta1)))


def _rectset(region):
    return hyperbolic.RectSet(*region.blocked_rects())


def _filled_walks(rects, n_walks: int, seed: int):
    """dcap of the filled set sampled with walks against its frontier rectangles."""
    ens = wos.run_walks(wos.DiskDomain(rects), 0j, n_walks, None, seed)
    vals = np.where(ens.labels >= 0, -np.log(np.abs(ens.terminals)), 0.0)
    flagged = int(np.sum(ens.flagged))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)), flagged


def filled_rectset(seed: int) -> Workload:
    ops = []
    arcbox, ring = ArcBox(0.4, 1.2, 0.75), ArcBox(0.0, TWO_PI, 0.7)
    # (tag, shape, closed-form dcap of B, closed-form dcap of filled B, walks per op, walk ops)
    inputs = (
        ("arcbox", arcbox, None, None, ARCBOX_WALKS, ARCBOX_WALK_OPS),
        ("ring", ring, ring_dcap(0.7), filled_ring_dcap(0.7, FILL_RADIUS), RING_WALKS, RING_WALK_OPS),
    )
    for k, (tag, shape, exact, filled_exact, n_walks, walk_ops) in enumerate(inputs):
        B = DiskCompact([shape])

        def dcap_check(out, ctx, tag=tag, inner=_estimate_check(exact=exact, bracket=dcap_bracket([shape]))):
            ctx[f"dcap[{tag}]"] = out
            return inner(out, ctx)

        def filled_check(region, ctx, tag=tag):
            ctx[f"filled[{tag}]"] = region
            b = region.bounds
            fails = _expect(b.lower <= b.upper, f"filled bracket inverted [{b.lower}, {b.upper}]")
            fails += _expect(b.tolerance_met, f"filled tolerance not met, gap {b.gap:.3g}")
            return None, fails

        def rectset_check(rects, ctx, tag=tag, inside=_inner_point(shape)):
            # the frontier is the set of blocked cells next to the passable
            # cells reached from the origin: it keeps off the origin and
            # meets every path from the origin into B
            ctx[f"rectset[{tag}]"] = rects
            d0 = float(rects.dist(np.zeros(1, dtype=complex))[0])
            fails = _expect(d0 > 0.0, f"origin lies in a frontier rectangle (dist {d0:.3g})")
            ray = inside * np.linspace(0.0, 1.0, FRONTIER_RAY_POINTS)
            gap = float(rects.dist(ray).min())
            half_step = 0.5 * abs(inside) / (FRONTIER_RAY_POINTS - 1)
            fails += _expect(
                gap <= half_step + FLOAT_DUST,
                f"segment from 0 to {inside:.4g} in B misses the frontier by {gap:.3g}",
            )
            return None, fails

        def walks_check(out, ctx, tag=tag, filled_exact=filled_exact):
            d_hat, se, flagged = out
            fails = _expect(flagged == 0, f"{flagged} walks hit the step cap")
            b = ctx.get(f"dcap[{tag}]")
            if b is None:
                return se / d_hat, fails + ["no dcap(B) result to compare with"]
            sigma = math.hypot(se, b.std_error)
            schwarz = b.mean <= d_hat + Z_MAX * sigma
            fails += _expect(schwarz, f"Schwarz: dcap(B) {b.mean:.6g} > dcap(filled) {d_hat:.6g}")
            ratio = d_hat / b.mean
            fails += _expect(ratio <= fixtures.FATTEN_C, f"dcap(filled)/dcap(B) = {ratio:.4g} > FATTEN_C")
            if filled_exact is not None:
                fails += _expect(
                    d_hat >= filled_exact - Z_MAX * se - FLOAT_DUST,
                    f"dcap(filled ring) {d_hat:.6g} below its closed form {filled_exact:.6g}",
                )
            return se / d_hat, fails

        dcap = lambda ctx, B=B, s=seed * 1000 + k: capacity.dcap_mc(B, DCAP_WALKS, seed=s)  # noqa: E731
        filled = lambda ctx, B=B: hyperbolic.filled_region(B, FILL_RADIUS, FILL_TOL)  # noqa: E731
        ops += [
            Op(f"dcap_mc[{tag}]", dcap, dcap_check),
            Op(f"filled_region[{tag}]", filled, filled_check),
            Op(f"rectset[{tag}]", lambda ctx, tag=tag: _rectset(ctx[f"filled[{tag}]"]), rectset_check),
        ]
        for j in range(walk_ops):
            ops.append(
                Op(
                    f"walks[{tag},{j}]",
                    lambda ctx, tag=tag, n=n_walks, s=FILLED_WALK_SEED + 10 * k + j: _filled_walks(
                        ctx[f"rectset[{tag}]"], n, s
                    ),
                    walks_check,
                )
            )
    return Workload(ops, _filled_warmup)


def _filled_warmup():
    region = hyperbolic.filled_region(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), FILL_RADIUS, 5e-2)
    return _filled_walks(_rectset(region), 8, 0)


BUILDERS = {
    "hcap-halfplane": hcap_halfplane,
    "dcap-disk": dcap_disk,
    "area-quadtree": area_quadtree,
    "filled-rectset": filled_rectset,
}


def threads2_speedup(seed: int) -> float | None:
    """Walks/s of run_walks at threads=2 over threads=1 on the first dcap-disk input.

    Returns None when run_walks no longer takes a threads argument.
    """
    import inspect
    import time

    if "threads" not in inspect.signature(wos.run_walks).parameters:
        return None
    B = disk_inputs(1, seed)[0][0]
    domain = wos.DiskDomain(B)
    elapsed = {1: 0.0, 2: 0.0}
    for r in range(THREADS_PROBE_REPEATS):
        for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
            t = time.perf_counter()
            wos.run_walks(domain, 0j, THREADS_PROBE_WALKS, None, seed, threads=threads)
            elapsed[threads] += time.perf_counter() - t
    return elapsed[1] / elapsed[2]
