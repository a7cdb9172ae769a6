import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hypcap.capacity import dcap_layer_sum, dcap_mc, dcap_transport, hcap_mc, ring
from hypcap.corpus import mixed_disk_corpus, mixed_halfplane_corpus
from hypcap.geom import ArcBox, BoxShape, DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit
from hypcap import geom, wos
from hypcap.hyperbolic import RectSet, filled_region
from hypcap.rng import stream_key, uniform_angle
from hypcap.wos import (
    DiskDomain,
    EstimatorError,
    HalfPlaneDomain,
    LABEL_OUTER,
    WalkEnsemble,
    default_eps_stop,
    pairwise_sum,
    run_walks,
    walk_mean,
)


def _log_modulus(ens):
    # circle exits contribute log 1 = 0 exactly
    return np.where(ens.labels >= 0, np.log(np.abs(ens.terminals)), 0.0)


def _height(ens):
    return ens.terminals.imag


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, 12345)
    assert pairwise_sum(v) == pytest.approx(math.fsum(v), abs=1e-9)
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.25])) == 3.25


def test_concentric_ring_terminal_exact():
    # complement of the ring is the disk of radius 0.7: every walk from 0
    # ends exactly on the ring after projection
    d = DiskDomain(ring(0.7))
    ens = run_walks(d, 0j, 500, eps_stop=1e-4, seed=1)
    assert np.allclose(np.abs(ens.terminals), 0.7, atol=1e-12)
    assert np.all(ens.labels == 0)


def test_empty_hull_exits_on_axis():
    d = HalfPlaneDomain(HalfPlaneHull([]))
    ens = run_walks(d, 1j, 2000, seed=2)
    assert np.all(ens.labels == LABEL_OUTER)
    assert np.all(ens.terminals.imag == 0.0)


def test_walk_reproducibility():
    # walk 17 of seed 9 is the same walk whatever the ensemble size
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7)]))
    e18 = run_walks(d, 0j, 18, eps_stop=1e-4, seed=9)
    e19 = run_walks(d, 0j, 19, eps_stop=1e-4, seed=9)
    for field in ("terminals", "labels", "steps", "stop_dists", "flagged"):
        assert getattr(e18, field)[17] == getattr(e19, field)[17]
    assert e19.terminals[18] != e19.terminals[17]
    assert e18.stop_dists[17] <= 1e-4
    assert e18.labels[17] in (LABEL_OUTER, 0)


def test_worker_count_independence():
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7), RadialSlit(2.0, 0.8)]))
    runs = [run_walks(d, 0j, 40_000, seed=5, threads=t) for t in (1, 2, 8)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.terminals, other.terminals)
        assert np.array_equal(base.labels, other.labels)
    ests = [walk_mean(d, 0j, 40_000, _log_modulus, seed=5, threads=t)[0].mean for t in (1, 2, 8)]
    assert ests[0] == ests[1] == ests[2]
    B = d.obstacle
    assert dcap_layer_sum(B, 40_000, seed=5, threads=1) == dcap_layer_sum(B, 40_000, seed=5, threads=2)
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    assert hcap_mc(A, n_walks=40_000, seed=5, threads=1) == hcap_mc(A, n_walks=40_000, seed=5, threads=2)
    assert dcap_transport(A, 8.0, 40_000, seed=5, threads=1) == dcap_transport(A, 8.0, 40_000, seed=5, threads=2)
    # the control-variate fits add their Gram sums in walk-index order
    for estimate in (lambda t: dcap_mc(B, 40_000, seed=5, threads=t), lambda t: hcap_mc(A, 40_000, seed=5, threads=t)):
        first, *others = [estimate(t) for t in (1, 2, 8)]
        assert "cross-fitted beta" in first.bias_note
        assert all(other == first for other in others)


def test_per_walk_starts():
    d = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
    shared = run_walks(d, 2j, 300, seed=3)
    per_walk = run_walks(d, np.full(300, 2j), 300, seed=3)
    assert np.array_equal(shared.terminals, per_walk.terminals)
    # starts on the obstacle boundary end at step 0 on themselves
    on_arc = np.exp(1j * np.linspace(0.5, 2.5, 7))
    ens = run_walks(d, on_arc, 7, seed=3)
    assert np.all(ens.steps == 0)
    assert np.allclose(ens.terminals, on_arc, atol=1e-12)
    with pytest.raises(ValueError):
        run_walks(d, np.full(5, 2j), 6, seed=3)


def _same_ensemble(a, b, n=None):
    """True when the first n walks (all, if None) of a are those of b."""
    return all(
        np.array_equal(getattr(a, f)[:n], getattr(b, f))
        for f in ("terminals", "labels", "steps", "stop_dists", "flagged")
    )


def test_chunking_does_not_change_the_ensemble(monkeypatch):
    # each chunk writes its own slice of the one ensemble, whatever its size
    # and however many threads share the ensemble
    rects = RectSet(*filled_region(ring(0.7), 1.0, 1e-2).blocked_rects())
    for d in (DiskDomain(ring(0.7)), DiskDomain(rects)):
        base = run_walks(d, 0j, 40_000, seed=13)
        for chunk in (1000, 4096):
            monkeypatch.setattr(wos, "_CHUNK", chunk)
            for threads in (1, 2):
                assert _same_ensemble(run_walks(d, 0j, 40_000, seed=13, threads=threads), base)
        monkeypatch.undo()


def test_shared_start_matches_per_walk_starts():
    # a shared start's distance is computed once and reused as every walk's
    # step 0; per-walk starts compute it per walk
    rects = RectSet(*filled_region(ring(0.7), 1.0, 1e-2).blocked_rects())
    cases = [
        (DiskDomain(rects), 0j, 256),
        (DiskDomain(rects), 0.1 - 0.2j, 256),
        (DiskDomain(DiskCompact([ArcBox(0.4, 1.2, 0.75), RadialSlit(3.0, 0.6)])), 0.2j, 17_000),
        (HalfPlaneDomain(HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])), 1 + 1j, 512),
    ]
    for d, z, n in cases:
        shared = run_walks(d, z, n, seed=11, threads=2)
        per_walk = run_walks(d, np.full(n, z), n, seed=11)
        assert _same_ensemble(shared, per_walk)


def test_pruned_walks_match_unpruned(monkeypatch):
    # an infinite rounding margin drops every part bound to -inf after each
    # step, so every step asks every part, and no RectSet query certifies
    # early: the walks of the loop without bounds
    A = mixed_halfplane_corpus(1, 7)[0]
    B = mixed_disk_corpus(3, 7)[2]
    slits = DiskCompact([RadialSlit(2 * np.pi * k / 70, 0.55 + 0.06 * (k % 7)) for k in range(70)])
    cases = [
        (HalfPlaneDomain(A), complex(sum(A.x_bounds) / 2, 2.0 * A.y_max), 3000),
        (DiskDomain(B), 0j, 3000),
        (DiskDomain(slits), 0j, 3000),
        # far from the origin the rounding of a step grows with |z|
        (HalfPlaneDomain(HalfPlaneHull([VSlit(0.0, 1e-3)])), 1e6 + 1j, 3000),
    ]
    assert len(A) == 9 and len(B) == 12
    monkeypatch.setattr(wos, "_CHUNK", 700)
    for d, z, n in cases:
        pruned = [run_walks(d, z, n, seed=17, threads=t) for t in (1, 2)]
        with monkeypatch.context() as m:
            m.setattr(geom, "ROUNDING", math.inf)
            plain = run_walks(d, z, n, seed=17)
        for ens in pruned:
            assert _same_ensemble(ens, plain)
    # Unpruned, each query of the arcbox frontier scans all 6,501 cells:
    # its 1,000 walks take 4.7 s (2-core x86 VM).  So all of them are
    # checked against the walk loop without bounds (the margin is infinite
    # in wos alone, and the RectSet certifies its queries as pruned walks
    # do), and the first 100 against walks with both prunes off: walks are
    # reproducible per index
    d = DiskDomain(RectSet(*filled_region(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), 1.0, 2e-3).blocked_rects()))
    pruned = [run_walks(d, 0j, 1000, seed=17, threads=t) for t in (1, 2)]
    with monkeypatch.context() as m:
        m.setattr(wos, "geom", SimpleNamespace(ROUNDING=math.inf))
        unbounded = run_walks(d, 0j, 1000, seed=17)
        m.setattr(geom, "ROUNDING", math.inf)
        plain = run_walks(d, 0j, 100, seed=17)
    for ens in pruned:
        assert _same_ensemble(ens, unbounded)
        assert _same_ensemble(ens, plain, 100)


def _lockstep_walks(domain, start, n, seed):
    """The walks of run_walks from a loop with no compaction and no part bounds.

    Every walk stays in the arrays to the end.  At iteration k each walk
    still farther than eps from the boundary jumps by its distance d in the
    direction uniform_angle(stream_key(seed, i), k), and d becomes
    min(outer distance, obstacle.dist) at the new point; the stop points end
    with one terminal call.
    """
    eps = default_eps_stop(domain)
    outer = (lambda z: 1.0 - np.abs(z)) if isinstance(domain, DiskDomain) else (lambda z: z.imag)
    key = stream_key(seed, np.arange(n, dtype=np.uint64))
    pos = np.full(n, complex(start))
    d = np.minimum(outer(pos), domain.obstacle.dist(pos))
    steps = np.zeros(n, dtype=np.int64)
    for k in itertools.count():
        moving = d > eps
        if not moving.any():
            break
        pos = np.where(moving, pos + d * np.exp(1j * uniform_angle(key, k)), pos)
        d = np.where(moving, np.minimum(outer(pos), domain.obstacle.dist(pos)), d)
        steps += moving
    terminals, labels = domain.terminal(pos)
    return WalkEnsemble(terminals, labels, steps, d, np.zeros(n, dtype=bool), eps)


def test_walks_match_lockstep_reference(monkeypatch):
    # run_walks drops finished walks from its arrays and asks only the parts
    # its bounds cannot rule out; a walker that does neither must give the
    # same walks, field by field, whatever the chunking and thread count
    A = HalfPlaneHull([VSlit(-1.0, 0.8), BoxShape(0.0, 0.6, 0.0, 0.5), HalfDisk(1.5, 0.4)])
    B = mixed_disk_corpus(3, 7)[2]
    rects = RectSet(*filled_region(ring(0.7), 1.0, 1e-2).blocked_rects())
    cases = [(DiskDomain(B), 0j), (HalfPlaneDomain(A), 0.3 + 1.2j), (DiskDomain(rects), 0j)]
    assert len(B) == 12
    monkeypatch.setattr(wos, "_CHUNK", 700)
    for d, z in cases:
        ref = _lockstep_walks(d, z, 2000, seed=19)
        assert ref.steps.max() > 1
        for threads in (1, 2):
            assert _same_ensemble(run_walks(d, z, 2000, seed=19, threads=threads), ref)


def test_step_cap_inside_a_run(monkeypatch):
    # a cap between the median and the longest walk stops some walks of a
    # chunk and flags them, and leaves the walks that stop before it alone
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7)]))
    free = run_walks(d, 0j, 2000, seed=12)
    cap = 20
    assert np.median(free.steps) < cap < free.steps.max()
    monkeypatch.setattr(wos, "_CHUNK", 700)
    monkeypatch.setattr(wos, "STEP_CAP", cap)
    for threads in (1, 2):
        capped = run_walks(d, 0j, 2000, seed=12, threads=threads)
        before = free.steps <= cap
        for f in ("terminals", "labels", "steps", "stop_dists", "flagged"):
            assert np.array_equal(getattr(capped, f)[before], getattr(free, f)[before])
        assert np.all(capped.steps[~before] == cap)
        assert np.all(capped.flagged[~before])
        assert np.all(capped.stop_dists[~before] > capped.eps_stop)
        assert 0 < np.count_nonzero(~before) < 2000


def test_per_walk_starts_outside_rejected():
    # a NaN start used to walk to the step cap, and one below the axis to
    # end at step 0 as a real-axis exit
    hp = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
    disk = DiskDomain(ring(0.7))
    cases = [(hp, 2j, 0.5 - 1j), (hp, 2j, complex("nan")), (hp, 2j, complex(0.0, math.inf)), (disk, 0j, 1.5 + 0j)]
    for d, good, bad in cases:
        with pytest.raises(ValueError):
            run_walks(d, np.array([good, bad]), 2, seed=3)
    # the closed outer boundary is allowed, as for hcap_mc's starts at theta = 0
    ens = run_walks(hp, np.array([2j, 3 + 0j]), 2, seed=3)
    assert ens.labels[1] == LABEL_OUTER and ens.steps[1] == 0


def test_harmonic_measure_semicircle():
    d = DiskDomain(DiskCompact([]))
    est, _ = walk_mean(d, 0j, 50_000, lambda ens: ens.terminals.imag > 0, seed=3)
    assert est.within(0.5, sigmas=3.0)


def test_walk_mean_controls():
    # P(Im W > 0) from 0 in the empty disk is 1/2; Re w and Im w are
    # harmonic with value 0 at the start and cut the variance
    d = DiskDomain(DiskCompact([]))
    upper = lambda ens: ens.terminals.imag > 0  # noqa: E731
    plain, _ = walk_mean(d, 0j, 20_000, upper, seed=3)
    est, _ = walk_mean(d, 0j, 20_000, upper, seed=3, controls=lambda z: np.column_stack([z.real, z.imag]))
    assert est.within(0.5, sigmas=3.0)
    assert est.std_error < 0.65 * plain.std_error
    assert "2 harmonic controls" in est.bias_note
    # a zero column and a repeated one get no weight of their own
    padded, _ = walk_mean(
        d, 0j, 20_000, upper, seed=3, controls=lambda z: np.column_stack([z.real, z.imag, z.imag, 0 * z.real])
    )
    assert padded.mean == pytest.approx(est.mean, rel=1e-9)
    assert padded.std_error == pytest.approx(est.std_error, rel=1e-9)


def test_harmonic_measure_arc_fraction():
    d = DiskDomain(DiskCompact([]))
    theta0 = 1.2

    def target(ens):
        ang = np.angle(ens.terminals) % (2 * math.pi)
        return ang < theta0

    est, _ = walk_mean(d, 0j, 50_000, target, seed=4)
    assert est.within(theta0 / (2 * math.pi), sigmas=3.0)


def test_harmonic_measure_ring_is_certain():
    d = DiskDomain(ring(0.7))
    est, _ = walk_mean(d, 0j, 2000, lambda ens: ens.labels >= 0, seed=5)
    assert est.mean == 1.0


def test_expected_log_modulus_ring_values():
    for rho in (0.6, 0.7, 0.8):
        d = DiskDomain(ring(rho))
        est, _ = walk_mean(d, 0j, 5000, _log_modulus, seed=6)
        assert abs(est.mean - math.log(rho)) <= 3 * est.std_error + 2e-4


def test_eps_stop_bias_bounded():
    for eps in (1e-3, 1e-4):
        d = DiskDomain(ring(0.7))
        ens = run_walks(d, 0j, 2000, eps_stop=eps, seed=7)
        assert ens.eps_stop == eps
        assert abs(pairwise_sum(_log_modulus(ens)) / ens.n_walks - math.log(0.7)) <= 2 * eps


def test_log_modulus_monotone_in_obstacle():
    B1 = DiskCompact([RadialSlit(0.0, 0.8)])
    B2 = DiskCompact([RadialSlit(0.0, 0.8), RadialSlit(2.0, 0.7)])
    e1, _ = walk_mean(DiskDomain(B1), 0j, 30_000, _log_modulus, seed=8)
    e2, _ = walk_mean(DiskDomain(B2), 0j, 30_000, _log_modulus, seed=8)
    sigma = math.hypot(e1.std_error, e2.std_error)
    assert e2.mean <= e1.mean + 3 * sigma


def test_expected_height_halfdisk():
    for y in (4.0, 8.0):
        d = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
        est, _ = walk_mean(d, 1j * y, 40_000, _height, seed=9)
        assert est.within(1.0 / y, sigmas=3.0, extra=2 * est.eps_stop)


def test_expected_height_vslit_y4():
    d = HalfPlaneDomain(HalfPlaneHull([VSlit(0, 1)]))
    est, _ = walk_mean(d, 4j, 60_000, _height, seed=10)
    assert est.within(4.0 - math.sqrt(15.0), sigmas=3.0, extra=2 * est.eps_stop)


def test_variance_scaling():
    d = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
    e1, _ = walk_mean(d, 8j, 10_000, _height, seed=11)
    e2, _ = walk_mean(d, 8j, 40_000, _height, seed=11)
    ratio = e1.std_error / e2.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_step_cap_flags_and_estimator_error(monkeypatch):
    # a non-concentric obstacle: one jump cannot reach the boundary
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7)]))
    monkeypatch.setattr(wos, "STEP_CAP", 1)
    ens = run_walks(d, 0j, 100, seed=12)
    assert np.all(ens.flagged)
    with pytest.raises(EstimatorError):
        ens.check_flagged()


def test_start_outside_rejected():
    d = DiskDomain(ring(0.7))
    with pytest.raises(ValueError):
        run_walks(d, 0.9 + 0j, 10, seed=0)
