"""The benchmark's oracle functions against their closed forms."""

import math

import pytest

from oracles import (
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

from hypcap.capacity import CanonicalHull, crad_exact_at_i, crad_exact_at_iy, hcap_exact
from hypcap.geom import ArcBox, BoxShape, HalfDisk, RadialSlit, VSlit
from hypcap.hyperbolic import hyp_dist_d


@pytest.mark.parametrize("size", [0.1, 0.5, 1.0, 2.0])
def test_hcap_closed_forms(size):
    assert hcap_vslit(size) == pytest.approx(hcap_exact(CanonicalHull("vslit", size)))
    assert hcap_halfdisk(size) == pytest.approx(hcap_exact(CanonicalHull("halfdisk", size)))


@pytest.mark.parametrize("y", [1.5, 8.0, 16.0, 32.0])
def test_crad_closed_forms(y):
    assert crad_vslit_at_iy(1.0, y) == pytest.approx(crad_exact_at_iy("vslit", 1.0, y))
    assert crad_halfdisk_at_iy(1.0, y) == pytest.approx(crad_exact_at_iy("halfdisk", 1.0, y))
    eps = 0.3
    assert crad_vslit_at_iy(eps, 1.0) == pytest.approx(crad_exact_at_i("vslit", eps))
    assert crad_halfdisk_at_iy(eps, 1.0) == pytest.approx(crad_exact_at_i("halfdisk", eps))


@pytest.mark.parametrize("h,y", [(1.0, 8.0), (1.0, 32.0), (0.3, 1.0)])
def test_vslit_transport_is_a_radial_slit(h, y):
    # T_y maps the slit [0, ih] onto the radial slit from (y - h)/(y + h) to -1
    assert transport_dcap(crad_vslit_at_iy(h, y), y) == pytest.approx(slit_dcap((y - h) / (y + h)))


@pytest.mark.parametrize("crad,hcap", [(crad_vslit_at_iy, 0.5), (crad_halfdisk_at_iy, 1.0)])
def test_transport_limit_is_twice_hcap(crad, hcap):
    # y^2 dcap(T_y(A)) -> 2 hcap(A) as y grows
    y = 1e4
    assert y * y * transport_dcap(crad(1.0, y), y) == pytest.approx(2.0 * hcap, rel=1e-6)


def test_slit_and_ring_closed_forms():
    assert slit_dcap(1.0) == pytest.approx(0.0)
    for r in (0.55, 0.7, 0.9):
        assert 0.0 < slit_dcap(r) < ring_dcap(r)
    assert ring_dcap(0.7) == pytest.approx(-math.log(0.7))


def test_filled_ring_is_the_hyperbolic_neighborhood():
    assert filled_ring_dcap(0.7, 0.0) == pytest.approx(ring_dcap(0.7))
    inner = math.exp(-filled_ring_dcap(0.7, 1.0))
    assert hyp_dist_d(inner, 0.7) == pytest.approx(1.0)


def test_brackets_contain_closed_forms():
    lo, hi = hcap_bracket([VSlit(0.0, 1.0)])
    assert lo <= hcap_vslit(1.0) <= hi
    lo, hi = hcap_bracket([HalfDisk(3.0, 1.0)])
    assert lo == pytest.approx(1.0) and hi >= 1.0
    lo, hi = hcap_bracket([VSlit(-1.0, 0.5), BoxShape(0.0, 0.4, 0.0, 0.8)])
    assert lo == pytest.approx(max(hcap_vslit(0.8), hcap_halfdisk(0.2))) and hi > lo
    lo, hi = dcap_bracket([RadialSlit(1.0, 0.7)])
    assert lo == pytest.approx(slit_dcap(0.7)) and hi == pytest.approx(ring_dcap(0.7))
    lo, hi = dcap_bracket([ArcBox(0.0, 2 * math.pi, 0.7)])
    assert lo == pytest.approx(hi) == pytest.approx(ring_dcap(0.7))


def test_pass_rules():
    assert matches(1.0 + 4.9e-3, 1e-3, 1.0)
    assert not matches(1.0 + 5.1e-3, 1e-3, 1.0)
    assert matches(0.5, 0.0, 0.5) and not matches(0.5 + 1e-6, 0.0, 0.5)
    assert within_bracket(2.0, 0.0, 1.0, 2.0)
    assert not within_bracket(2.1, 0.01, 1.0, 2.0)
