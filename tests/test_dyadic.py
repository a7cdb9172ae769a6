import math

import numpy as np
import pytest

from hypcap.dyadic import (
    DyadicSquare,
    dyadic_cover,
    layer_of,
    layer_of_radius,
    lipschitz_majorant_area,
    whitney_cover_area,
    whitney_ranges,
)
from hypcap.geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    RadialSlit,
    VSlit,
)

TWO_PI = 2 * math.pi


def test_layer_of_examples():
    assert layer_of(0.8 + 0j) == 2  # 0.2 in [1/8, 1/4)
    assert layer_of(0.75 + 0j) == 1  # boundary goes to the smaller n
    assert layer_of(0.99 + 0j) == 6  # 0.01 in [1/128, 1/64)
    with pytest.raises(ValueError):
        layer_of(0.3 + 0j)
    with pytest.raises(ValueError):
        layer_of(1.0 + 0j)


def test_layer_of_radius_vector_agrees():
    rng = np.random.default_rng(0)
    u = rng.uniform(1e-6, 0.4999, 300)
    vec = layer_of_radius(u)
    for ui, ni in zip(u, vec):
        assert layer_of((1 - ui) + 0j) == ni


def test_layer_partition_is_exact():
    # the bands 2^-(n+1) <= u < 2^-n tile (0, 1/2): every sample point of a
    # compact belongs to exactly one layer piece
    B = DiskCompact([RadialSlit(1.0, 0.7), ArcBox(2.0, 2.5, 0.8)])
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 1000:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < 1 and bool(B.member(np.asarray([z]))[0]):
            pts.append(z)
    for z in pts:
        n = layer_of(z)
        u = 1 - abs(z)
        assert 0.5 ** (n + 1) <= u < 0.5**n


def test_dyadic_square_geometry():
    q = DyadicSquare(2, 1)
    d = q.depth
    assert q.area == pytest.approx(math.pi * d * (2 * d - d * d), abs=1e-15)
    assert q.area == pytest.approx((math.pi / 4) * (2 ** (-1) - 4 ** (-2)), abs=1e-15)
    ab = q.as_arcbox()
    assert ab.rho == 1 - d
    with pytest.raises(ValueError):
        DyadicSquare(1, 3)


def test_dyadic_cover_empty():
    squares, area = dyadic_cover(DiskCompact([]))
    assert squares == [] and area.upper == 0.0


def test_dyadic_cover_contains_set():
    B = DiskCompact([RadialSlit(1.0, 0.7), ArcBox(2.0, 2.5, 0.8)])
    squares, _ = dyadic_cover(B)
    rng = np.random.default_rng(2)
    hits = 0
    while hits < 1000:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 1 or not bool(B.member(np.asarray([z]))[0]):
            continue
        hits += 1
        assert any(q.contains(z) for q in squares), z


def test_dyadic_cover_single_slit_area():
    # one slit of depth 0.3 populates scale 1 only; the union is one square
    B = DiskCompact([RadialSlit(0.3, 0.7)])
    squares, area = dyadic_cover(B)
    assert [(q.n, q.k) for q in squares] == [(1, 1)]
    assert area.lower == pytest.approx(DyadicSquare(1, 1).area, abs=1e-14)


def test_dyadic_cover_union_not_double_counted():
    # two slits in the same square: union area equals one square
    B = DiskCompact([RadialSlit(0.3, 0.7), RadialSlit(0.6, 0.7)])
    _, area = dyadic_cover(B)
    assert area.lower == pytest.approx(DyadicSquare(1, 1).area, abs=1e-14)


def test_dyadic_cover_rejects_too_deep():
    B = DiskCompact([RadialSlit(0.3, 1 - 2e-8)])
    with pytest.raises(ValueError):
        dyadic_cover(B)


def test_whitney_point_square():
    # degenerate one-point set: the single square [0,1] x [1,2]
    from hypcap.geom import PointProbe

    probe = HalfPlaneHull([PointProbe(0.5, 1.5)], validate=False)
    ab = whitney_cover_area(probe)
    assert ab.lower == pytest.approx(1.0, abs=1e-9)
    assert ab.upper == pytest.approx(1.0, abs=1e-9)


def test_whitney_slit_exact():
    A = HalfPlaneHull([VSlit(0, 1)])
    ab = whitney_cover_area(A)
    assert ab.lower <= 8.0 / 3.0 <= ab.upper
    assert ab.gap < 1e-8
    # level enumeration oracle: at each level the slit at x=0 touches the
    # two squares sharing the grid line
    for k in (0, -1, -2, -3):
        ranges = whitney_ranges(A, k)
        assert ranges == [(-1, 0)]


def test_whitney_empty():
    assert whitney_cover_area(HalfPlaneHull([])).upper == 0.0


def test_whitney_brute_force_oracle():
    # direct enumeration over a generic hull, summing distinct squares
    A = HalfPlaneHull([VSlit(0.37, 0.9), BoxShape(1.1, 1.7, 0, 0.32), HalfDisk(-1.4, 0.45)])
    total = 0.0
    for k in range(1, -22, -1):
        seen = set()
        for lo, hi in whitney_ranges(A, k):
            seen.update(range(lo, hi + 1))
        total += len(seen) * 4.0**k
    ab = whitney_cover_area(A)
    assert ab.lower - 1e-6 <= total <= ab.upper + 1e-6


def test_lipschitz_single_slit():
    assert lipschitz_majorant_area(HalfPlaneHull([VSlit(0, 1)])) == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_two_far_slits():
    A = HalfPlaneHull([VSlit(0, 1), VSlit(10, 1)])
    assert lipschitz_majorant_area(A) == pytest.approx(2.0, abs=1e-12)


def test_lipschitz_empty():
    assert lipschitz_majorant_area(HalfPlaneHull([])) == 0.0


def test_lipschitz_overlapping_tents():
    # two slits closer than their heights: envelope is a single ridge line
    A = HalfPlaneHull([VSlit(0, 1), VSlit(0.5, 1)])
    # numeric oracle
    xs = np.linspace(-1.5, 2.0, 400_001)
    env = np.maximum((1 - np.abs(xs)).clip(0), (1 - np.abs(xs - 0.5)).clip(0))
    oracle = np.trapezoid(env, xs)
    assert lipschitz_majorant_area(A) == pytest.approx(oracle, abs=1e-6)


def test_lipschitz_box_and_halfdisk():
    A = HalfPlaneHull([BoxShape(0, 1, 0, 0.5), HalfDisk(3, 0.6)])
    xs = np.linspace(-1.5, 5.0, 650_001)
    box_prof = np.minimum(0.5, np.maximum(0.5 - np.maximum(0 - xs, 0) - np.maximum(xs - 1, 0), 0))
    # profile of the box: 0.5 on [0,1], slope -1 outside
    box_prof = np.clip(np.minimum(xs - (0 - 0.5), (1 + 0.5) - xs), 0, 0.5)
    r, c = 0.6, 3.0
    t = np.abs(xs - c)
    disk_prof = np.where(
        t <= r / math.sqrt(2),
        np.sqrt(np.maximum(r * r - t * t, 0)),
        np.maximum(r * math.sqrt(2) - t, 0),
    )
    env = np.maximum(box_prof, disk_prof)
    oracle = np.trapezoid(env, xs)
    assert lipschitz_majorant_area(A) == pytest.approx(oracle, abs=1e-5)
