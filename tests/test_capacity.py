import math

import numpy as np
import pytest

from hypcap.capacity import (
    CanonicalHull,
    _disk_controls,
    _half_circle,
    _half_circle_starts,
    _halfplane_controls,
    _minus_log_modulus,
    crad_exact_at_i,
    crad_exact_at_iy,
    crad_halfplane,
    dcap_exact_ring,
    dcap_layer_sum,
    dcap_mc,
    dcap_transport,
    g_halfdisk,
    g_vslit,
    hcap_exact,
    hcap_mc,
    ring,
)
from hypcap.geom import ArcBox, DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit
from hypcap.wos import (
    _CONTROL_WALKS_PER_TERM,
    DiskDomain,
    Estimate,
    HalfPlaneDomain,
    _control_blocks,
    _controlled_values,
    _mean_and_se,
    run_walks,
    walk_mean,
)


def test_hcap_exact_values():
    assert hcap_exact(CanonicalHull("halfdisk", 1.0)) == 1.0
    assert hcap_exact(CanonicalHull("vslit", 1.0)) == 0.5
    with pytest.raises(ValueError):
        hcap_exact(CanonicalHull("ring", 0.7))


def test_closed_form_maps():
    # hydrodynamic normalization: g(z) - z -> 0 and z (g - z) -> hcap
    for z in (100j, 200 + 150j):
        assert abs(complex(g_halfdisk(z, 1.0)) - z) < 0.02
        assert complex(z * (g_halfdisk(z, 1.0) - z)) == pytest.approx(1.0, rel=1e-3)
        assert complex(z * (g_vslit(z, 1.0) - z)) == pytest.approx(0.5, rel=1e-3)
    # boundary behavior: the slit maps onto a real segment
    assert abs(complex(g_vslit(1e-9 + 1j, 1.0)).imag) < 1e-4


def test_crad_exact_values():
    assert crad_exact_at_i("halfdisk", 0.3) == pytest.approx(1.6697247706422018, abs=1e-12)
    assert crad_exact_at_i("vslit", 0.3) == pytest.approx(2 * (1 - 0.09), abs=1e-12)
    assert crad_exact_at_iy("halfdisk", 1.0, 8.0) == pytest.approx(
        2 * 8 * (1 - 1 / 64) / (1 + 1 / 64), abs=1e-12
    )
    # consistency: crad at iy equals the eps = 1/y case rescaled by y
    y = 12.0
    assert crad_exact_at_iy("halfdisk", 1.0, y) == pytest.approx(
        y * crad_exact_at_i("halfdisk", 1.0 / y), abs=1e-12
    )


def test_dcap_ring_oracle():
    for rho in (0.6, 0.7, 0.8):
        est = dcap_mc(ring(rho), n_walks=2000, seed=1)
        assert abs(est.mean - dcap_exact_ring(rho)) <= max(3 * est.std_error, 2e-4)


def test_dcap_empty():
    est = dcap_mc(DiskCompact([]), n_walks=500, seed=2)
    assert est.mean == 0.0


def test_dcap_monotone_nested():
    B1 = DiskCompact([ArcBox(0.2, 0.7, 0.85)])
    B2 = DiskCompact([ArcBox(0.1, 0.8, 0.8)])  # contains B1
    e1 = dcap_mc(B1, 20_000, seed=3)
    e2 = dcap_mc(B2, 20_000, seed=3)
    assert e1.mean <= e2.mean + 3 * math.hypot(e1.std_error, e2.std_error)


def test_layer_sum_ring():
    ls = dcap_layer_sum(ring(0.7), n_walks=2000, seed=4)
    # depth 0.3 lies in [1/4, 1/2): layer 1 takes all the mass
    assert ls.omega == {1: 1.0}
    assert ls.lower == pytest.approx(0.25, abs=1e-12)
    assert ls.upper == pytest.approx(2 * math.log(2) * 0.5, abs=1e-12)
    assert ls.lower <= ls.estimate.mean <= ls.upper


def test_layer_sum_empty():
    ls = dcap_layer_sum(DiskCompact([]), n_walks=500, seed=5)
    assert ls.omega == {}
    assert ls.lower == 0.0 and ls.upper == 0.0


def test_layer_sandwich_pathwise():
    B = DiskCompact([RadialSlit(0.4, 0.62), ArcBox(2.2, 2.6, 0.8)])
    ls = dcap_layer_sum(B, n_walks=10_000, seed=6)
    eps = ls.estimate.eps_stop
    assert ls.lower - 1e-12 <= ls.estimate.mean + 2 * eps
    assert ls.estimate.mean <= ls.upper + 2 * eps + 1e-12


def test_hcap_mc_closed_forms():
    for A, exact in ((HalfPlaneHull([HalfDisk(0.3, 1)]), 1.0), (HalfPlaneHull([VSlit(0, 1)]), 0.5)):
        est = hcap_mc(A, n_walks=30_000, seed=7)
        assert est.std_error <= 1e-2 * exact
        assert est.within(exact, sigmas=3.0, extra=2 * est.eps_stop)


def test_hcap_empty_hull():
    est = hcap_mc(HalfPlaneHull([]), n_walks=200, seed=8)
    assert est.mean == 0.0


def test_hcap_scaling_law():
    A = HalfPlaneHull([VSlit(0, 0.5)])
    r1 = hcap_mc(A, n_walks=20_000, seed=9)
    r2 = hcap_mc(A.scale(2.0), n_walks=20_000, seed=9)
    sigma = math.hypot(4 * r1.std_error, r2.std_error)
    assert abs(r2.mean - 4 * r1.mean) <= 3 * sigma


def test_hcap_translation_and_reflection():
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    base = hcap_mc(A, n_walks=20_000, seed=10)
    trans = hcap_mc(A.translate(3.0), n_walks=20_000, seed=11)
    mirr = hcap_mc(A.mirror(), n_walks=20_000, seed=12)
    for other in (trans, mirr):
        sigma = math.hypot(base.std_error, other.std_error)
        assert abs(base.mean - other.mean) <= 3.5 * sigma


def test_dcap_transport_matches_closed_form():
    A = HalfPlaneHull([HalfDisk(0, 1)])
    y = 16.0
    est = dcap_transport(A, y, n_walks=60_000, seed=13)
    true = -math.log(crad_exact_at_iy("halfdisk", 1.0, y) / (2 * y))
    assert est.within(true, sigmas=3.5, extra=2 * est.eps_stop)


def test_dcap_transport_vslit_far_away():
    # a walk from iy = 32i meets the slit only about once in 25 tries, so
    # walks that start at the first passage through the half-circle carry
    # the precision of the estimate
    A = HalfPlaneHull([VSlit(0, 1)])
    y = 32.0
    est = dcap_transport(A, y, n_walks=20_000, seed=21)
    true = -math.log((y * y - 1.0) / (y * y))
    assert est.std_error < 0.02 * true
    assert est.within(true, sigmas=4.0, extra=2 * est.eps_stop)


def test_dcap_transport_off_centre_halfdisk():
    # every half-circle start lies on HalfDisk(0.5, 1), so this checks the
    # first-passage law about x_c = 0.5 and its weight exactly
    c, r, y = 0.5, 1.0, 6.0
    z = 1j * y
    g = z + r * r / (z - c)
    dg = 1.0 - r * r / (z - c) ** 2
    crad = 2.0 * g.imag / abs(dg)
    true = -math.log(crad / (2 * y))
    est = dcap_transport(HalfPlaneHull([HalfDisk(c, r)]), y, n_walks=20_000, seed=22)
    assert est.std_error < 0.005 * true
    assert est.within(true, sigmas=4.0)


def test_crad_halfplane_empty_and_halfdisk():
    c0, _ = crad_halfplane(HalfPlaneHull([]), 1.0, 100, seed=14)
    assert c0 == 2.0
    c, d = crad_halfplane(HalfPlaneHull([HalfDisk(0, 0.3)]), 1.0, 60_000, seed=15)
    true = crad_exact_at_i("halfdisk", 0.3)
    assert abs(c - true) <= 2 * (3 * d.std_error + 2 * d.eps_stop)


def test_crad_koebe_bracket():
    A = HalfPlaneHull([HalfDisk(0, 0.2), VSlit(-0.28, 0.1)])
    c, _ = crad_halfplane(A, 1.0, 30_000, seed=16)
    dist = min(1.0, float(A.dist(np.asarray([1j]))[0]))
    assert dist <= c * 1.01
    assert c <= 4 * dist * 1.01


def test_transport_annulus_guard():
    A = HalfPlaneHull([HalfDisk(0, 1)])
    from hypcap.mobius import AnnulusError

    with pytest.raises(AnnulusError):
        dcap_transport(A, 1.0, n_walks=100, seed=17)


# ---------------------------------------------------------------------------
# harmonic control variates in hcap_mc and dcap_mc
# ---------------------------------------------------------------------------


def _z_scores(estimates, exact):
    z = np.array([(e.mean - exact) / e.std_error for e in estimates])
    return float(np.mean(z)), float(np.std(z, ddof=1))


def test_controlled_estimates_unbiased_with_honest_sigma():
    # over 20 seeds the z-scores against the closed forms must centre on 0
    # with unit spread: a biased control would shift the mean, an
    # understated sigma would widen the spread
    rho = 0.7
    cases = [
        (lambda s: hcap_mc(HalfPlaneHull([VSlit(0, 1)]), 20_000, seed=s), 0.5),
        (
            lambda s: dcap_mc(DiskCompact([RadialSlit(0.3 * s, rho)]), 20_000, seed=s),
            -math.log(4 * rho / (1 + rho) ** 2),
        ),
    ]
    for estimate, exact in cases:
        ests = [estimate(s) for s in range(20)]
        assert all("cross-fitted beta" in e.bias_note for e in ests)
        mean_z, sd_z = _z_scores(ests, exact)
        assert abs(mean_z) < 0.6
        assert 0.6 <= sd_z <= 1.5


def _control_means_vanish(controls, ens, start):
    # the columns of c = h(W_tau) - h(Z_0) exactly as walk_mean forms them
    c = np.concatenate([c for _, c in _control_blocks(controls, ens, np.asarray(start))])
    mean = c.mean(axis=0)
    se = c.std(axis=0, ddof=1) / math.sqrt(c.shape[0])
    assert np.all(se > 0)
    assert np.all(np.abs(mean) <= 4 * se)


def test_control_means_vanish():
    # each control has mean 0: a wrong sign, a missing start term or a pole
    # inside the domain moves some column off 0
    n = 20_000
    B = DiskCompact([ArcBox(0.4, 1.2, 0.75)])
    _control_means_vanish(_disk_controls, run_walks(DiskDomain(B), 0j, n, seed=31), 0j)
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4), VSlit(-1.0, 0.3)])
    x_c, R = _half_circle(A)
    starts, _ = _half_circle_starts(x_c, R, n, 32)
    ens = run_walks(HalfPlaneDomain(A), starts, n, seed=32)
    _control_means_vanish(_halfplane_controls(x_c, R), ens, starts)


def test_cross_fitted_sigma_not_understated():
    # 10 walks per parity and 13 columns, fitted directly (walk_mean would
    # leave these values plain): an in-sample fit interpolates the values
    # and reports 0.13-0.45 of the plain sigma at these seeds; the
    # cross-fitted beta extrapolates from the other parity instead, and the
    # sigma it reports is not below the plain one
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    x_c, R = _half_circle(A)
    for seed in range(4):
        starts, _ = _half_circle_starts(x_c, R, 20, seed)
        ens = run_walks(HalfPlaneDomain(A), starts, 20, seed=seed)
        y = ens.terminals.imag
        z = _controlled_values(_halfplane_controls(x_c, R), ens, starts, y)
        assert _mean_and_se(z)[1] >= _mean_and_se(y)[1]


def test_controls_skipped_below_walk_threshold():
    # at 64 walks the cross-fitted beta of 12 or 16 controls is noise
    # (sigma up to 10x the plain one), so the estimates stay plain; from
    # _CONTROL_WALKS_PER_TERM (p + 1) walks per parity the controls apply
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    B = DiskCompact([RadialSlit(0.3, 0.7), ArcBox(2.0, 2.5, 0.8)])
    x_c, R = _half_circle(A)
    for seed in range(5):
        starts, k = _half_circle_starts(x_c, R, 64, seed)
        plain_h, _ = walk_mean(HalfPlaneDomain(A), starts, 64, lambda ens: ens.terminals.imag, seed=seed)
        plain_d, _ = walk_mean(DiskDomain(B), 0j, 64, _minus_log_modulus, seed=seed)
        for est, plain_se in (
            (hcap_mc(A, 64, seed=seed), k * plain_h.std_error),
            (dcap_mc(B, 64, seed=seed), plain_d.std_error),
        ):
            assert est.std_error <= plain_se
            assert "controls not applied" in est.bias_note
    for estimate, obstacle, p in ((hcap_mc, A, 12), (dcap_mc, B, 16)):
        n = 2 * _CONTROL_WALKS_PER_TERM * (p + 1)
        assert "controls not applied" in estimate(obstacle, n - 2, seed=1).bias_note
        assert f"{p} harmonic controls, cross-fitted beta" in estimate(obstacle, n, seed=1).bias_note


def test_controls_memory_bounded():
    # the controls are evaluated block by block; the (walks x 16) matrix of
    # 131,072 walks alone would take 16 MB, with its copies about 50 MB
    import tracemalloc

    B = DiskCompact([RadialSlit(1.0, 0.9)])
    n = 131_072
    peaks = []
    for run in (
        lambda: walk_mean(DiskDomain(B), 0j, n, _minus_log_modulus, seed=7),
        lambda: dcap_mc(B, n, seed=7),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    plain, controlled = peaks
    assert controlled <= plain + 8 * 2**20


def test_controls_degenerate_cases():
    # every start lies on the half-disk, so every control is 0 up to rounding
    # and the estimate is the plain one, bit for bit
    A = HalfPlaneHull([HalfDisk(0, 1)])
    est = hcap_mc(A, 4000, seed=3)
    x_c, R = _half_circle(A)
    starts, k = _half_circle_starts(x_c, R, 4000, 3)
    plain, _ = walk_mean(HalfPlaneDomain(A), starts, 4000, lambda ens: ens.terminals.imag, seed=3)
    assert (est.mean, est.std_error) == (k * plain.mean, k * plain.std_error)
    # 2 and 3 walks, fewer per parity than controls, leave the values plain;
    # fitted anyway, the min-norm beta of such walks, also with all-zero
    # values, raises no warning
    A = HalfPlaneHull([VSlit(0.3, 0.8), HalfDisk(2.0, 0.4)])
    B = DiskCompact([RadialSlit(0.3, 0.7), ArcBox(2.0, 2.5, 0.8)])
    for n in (2, 3):
        for e in (hcap_mc(A, n, seed=4), dcap_mc(B, n, seed=4), dcap_mc(DiskCompact([]), n, seed=4)):
            assert e.n_walks == n
            assert math.isfinite(e.mean) and math.isfinite(e.std_error) and e.std_error >= 0
        x_c, R = _half_circle(A)
        starts, _ = _half_circle_starts(x_c, R, n, 4)
        ens_h = run_walks(HalfPlaneDomain(A), starts, n, seed=4)
        ens_d = run_walks(DiskDomain(B), 0j, n, seed=4)
        for controls, ens, start, y in (
            (_halfplane_controls(x_c, R), ens_h, starts, ens_h.terminals.imag),
            (_disk_controls, ens_d, np.asarray(0j), _minus_log_modulus(ens_d)),
            (_disk_controls, ens_d, np.asarray(0j), np.zeros(n)),
        ):
            z = _controlled_values(controls, ens, start, y)
            assert np.all(np.isfinite(z))
    assert dcap_mc(DiskCompact([]), 2, seed=4).mean == 0.0
