import math

import numpy as np
import pytest

from hypcap.capacity import (
    CanonicalHull,
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
from hypcap.wos import Estimate


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
        est = dcap_mc(ring(rho), n_walks=2000, eps_stop=1e-4, seed=1)
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
    ls = dcap_layer_sum(ring(0.7), n_walks=2000, eps_stop=1e-4, seed=4)
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
