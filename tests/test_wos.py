import math

import numpy as np
import pytest

from hypcap.capacity import hcap_mc, ring
from hypcap.geom import DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit
from hypcap.wos import (
    DiskDomain,
    EstimatorError,
    HalfPlaneDomain,
    LABEL_OUTER,
    expected_height,
    expected_log_modulus,
    harmonic_measure,
    pairwise_sum,
    run_walks,
    wos_walk,
)


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
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7)]))
    w1 = wos_walk(d, 0j, eps_stop=1e-4, seed=9, walk_index=17)
    w2 = wos_walk(d, 0j, eps_stop=1e-4, seed=9, walk_index=17)
    assert w1 == w2
    w3 = wos_walk(d, 0j, eps_stop=1e-4, seed=9, walk_index=18)
    assert w3.terminal != w1.terminal
    assert w1.stop_dist <= 1e-4
    assert w1.label_name("disk") in ("unit-circle", "obstacle-0")


def test_worker_count_independence():
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7), RadialSlit(2.0, 0.8)]))
    runs = [run_walks(d, 0j, 40_000, seed=5, threads=t) for t in (1, 2, 8)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.terminals, other.terminals)
        assert np.array_equal(base.labels, other.labels)
    ests = [
        expected_log_modulus(d, 40_000, seed=5, threads=t)[0].mean for t in (1, 2, 8)
    ]
    assert ests[0] == ests[1] == ests[2]
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    assert hcap_mc(A, n_walks=40_000, seed=5, threads=1) == hcap_mc(A, n_walks=40_000, seed=5, threads=2)


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


def test_harmonic_measure_semicircle():
    d = DiskDomain(DiskCompact([]))
    est = harmonic_measure(
        d, 0j, lambda labels, terms: terms.imag > 0, n_walks=50_000, seed=3
    )
    assert est.within(0.5, sigmas=3.0)


def test_harmonic_measure_arc_fraction():
    d = DiskDomain(DiskCompact([]))
    theta0 = 1.2

    def target(labels, terms):
        ang = np.angle(terms) % (2 * math.pi)
        return ang < theta0

    est = harmonic_measure(d, 0j, target, n_walks=50_000, seed=4)
    assert est.within(theta0 / (2 * math.pi), sigmas=3.0)


def test_harmonic_measure_ring_is_certain():
    d = DiskDomain(ring(0.7))
    est = harmonic_measure(d, 0j, lambda labels, terms: labels >= 0, n_walks=2000, seed=5)
    assert est.mean == 1.0


def test_expected_log_modulus_ring_values():
    for rho in (0.6, 0.7, 0.8):
        d = DiskDomain(ring(rho))
        est, ens = expected_log_modulus(d, 5000, seed=6, eps_stop=1e-4)
        assert abs(est.mean - math.log(rho)) <= 3 * est.std_error + 2e-4


def test_eps_stop_bias_bounded():
    for eps in (1e-3, 1e-4):
        d = DiskDomain(ring(0.7))
        est, _ = expected_log_modulus(d, 2000, seed=7, eps_stop=eps)
        assert abs(est.mean - math.log(0.7)) <= 2 * eps


def test_log_modulus_monotone_in_obstacle():
    B1 = DiskCompact([RadialSlit(0.0, 0.8)])
    B2 = DiskCompact([RadialSlit(0.0, 0.8), RadialSlit(2.0, 0.7)])
    e1, _ = expected_log_modulus(DiskDomain(B1), 30_000, seed=8)
    e2, _ = expected_log_modulus(DiskDomain(B2), 30_000, seed=8)
    sigma = math.hypot(e1.std_error, e2.std_error)
    assert e2.mean <= e1.mean + 3 * sigma


def test_expected_height_halfdisk():
    for y in (4.0, 8.0):
        d = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
        est = expected_height(d, 1j * y, 40_000, seed=9)
        assert est.within(1.0 / y, sigmas=3.0, extra=2 * est.eps_stop)


def test_expected_height_vslit_y4():
    d = HalfPlaneDomain(HalfPlaneHull([VSlit(0, 1)]))
    est = expected_height(d, 4j, 60_000, seed=10)
    assert est.within(4.0 - math.sqrt(15.0), sigmas=3.0, extra=2 * est.eps_stop)


def test_variance_scaling():
    d = HalfPlaneDomain(HalfPlaneHull([HalfDisk(0, 1)]))
    e1 = expected_height(d, 8j, 10_000, seed=11)
    e2 = expected_height(d, 8j, 40_000, seed=11)
    ratio = e1.std_error / e2.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_step_cap_flags_and_estimator_error():
    # a non-concentric obstacle: one jump cannot reach the boundary
    d = DiskDomain(DiskCompact([RadialSlit(0.3, 0.7)]))
    ens = run_walks(d, 0j, 100, seed=12, step_cap=1)
    assert np.all(ens.flagged)
    with pytest.raises(EstimatorError):
        ens.check_flagged()


def test_start_outside_rejected():
    d = DiskDomain(ring(0.7))
    with pytest.raises(ValueError):
        run_walks(d, 0.9 + 0j, 10, seed=0)
