import math

import numpy as np
import pytest

from hypcap.corpus import generate_element, mixed_disk_corpus, mixed_halfplane_corpus
from hypcap.dyadic import (
    DyadicSquare,
    _angle_footprint,
    _merged_count,
    _shape_min_scale,
    _squares_for_footprint,
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


def test_layer_of_radius_scalar_and_array_agree():
    # at each power of two and one ulp either side, where log2 rounds
    for k in range(2, 40):
        u = 2.0**-k
        for v in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            n = layer_of_radius(v)
            assert layer_of_radius(np.array(v)) == n == layer_of_radius(np.array([v]))[0]
            assert 0.5 ** (n + 1) <= v < 0.5**n
        assert layer_of_radius(u) == k - 1


def test_layer_partition_is_exact():
    # the bands 2^-(n+1) <= u < 2^-n tile (0, 1/2): every sample point of a
    # compact belongs to exactly one layer piece
    B = DiskCompact([RadialSlit(1.0, 0.7), ArcBox(2.0, 2.5, 0.8)])
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 1000:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < 1 and B.dist(z) <= 0:
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


def test_nesting_rule_matches_intervals():
    squares = [DyadicSquare(n, k) for n in range(1, 7) for k in range(1, 2**n + 1)]
    for p in squares:
        p0, p1 = p.angle_fraction
        for q in squares:
            q0, q1 = q.angle_fraction
            assert p.lies_in(q) == (q0 <= p0 and p1 <= q1), (p, q)


@pytest.fixture(scope="module")
def disk_sample():
    """420 disk compacts: three corpora of 60 and 40 elements of each kind, at three seeds."""
    out = []
    for seed in (7, 11, 2024):
        out += mixed_disk_corpus(60, seed)
        for kind in ("radial-slit-set", "arcbox-set"):
            out += [generate_element(kind, seed, 100 + i) for i in range(40)]
    return out


def _footprint_squares(B: DiskCompact) -> list[DyadicSquare]:
    """Every square of the cover, nested ones included: each shape's squares at its coarsest scale."""
    out = []
    for s in B.shapes:
        n0 = _shape_min_scale(1.0 - s.rho_min)
        out += [DyadicSquare(n0, k) for k in _squares_for_footprint(n0, *_angle_footprint(s))]
    return out


def _profile_area(squares: list[DyadicSquare]) -> float:
    """Reference area of the union: the depth profile, the deepest square over each arc between breakpoints."""
    events = sorted({f for q in squares for f in q.angle_fraction})
    events.append(events[0] + 1.0)
    area = 0.0
    for lo, hi in zip(events[:-1], events[1:]):
        mid = 0.5 * (lo + hi) % 1.0
        depth = max((q.depth for q in squares if q.angle_fraction[0] <= mid < q.angle_fraction[1]), default=0.0)
        area += math.pi * (hi - lo) * (2.0 * depth - depth * depth)
    return area


def test_dyadic_cover_is_the_disjoint_maximal_squares(disk_sample):
    for B in disk_sample:
        squares, area = dyadic_cover(B)
        for i, p in enumerate(squares):
            for q in squares[i + 1 :]:
                assert not (p.lies_in(q) or q.lies_in(p)), (p, q)
        everything = _footprint_squares(B)
        for p in everything:
            assert sum(p.lies_in(q) for q in squares) == 1, p
        ref = _profile_area(everything)
        assert area.lower == area.upper
        assert abs(area.lower - ref) <= 2 * math.ulp(ref)


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
        if abs(z) >= 1 or B.dist(z) > 0:
            continue
        hits += 1
        assert any(q.contains(z) for q in squares), z


def test_dyadic_cover_footprint_ending_at_the_full_turn():
    # the sector's closed footprint ends at angle 2 pi, which is angle 0:
    # 0.82 lies in B and in the top half of the square (2, 1), since
    # 1/8 < 1 - 0.82 <= 1/4
    B = DiskCompact([ArcBox(1.5 * math.pi, 2 * math.pi, 0.8)])
    squares, area = dyadic_cover(B)
    assert [(q.n, q.k) for q in squares] == [(2, 1), (2, 4)]
    assert area.lower == DyadicSquare(2, 1).area + DyadicSquare(2, 4).area
    z = 0.82 + 0j
    assert B.dist(z) == 0.0 and 1 / 8 < 1 - abs(z) <= 1 / 4
    assert [(q.n, q.k) for q in squares if q.contains(z)] == [(2, 1)]


def test_dyadic_square_contains_points_beside_angle_zero():
    # below the axis atan2 / 2 pi is about -1.8e-18, which % 1.0 rounds up
    # to 1.0: the point lies in the last interval, and above it in the first
    for z, k in ((0.9 - 1e-17j, 8), (0.9 + 1e-17j, 1), (0.9 + 0j, 1)):
        assert [j for j in range(1, 9) if DyadicSquare(3, j).contains(z)] == [k], z


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


def test_whitney_one_square():
    # an unrooted box inside the level-0 square [0, 1] x [1, 2] is covered
    # by that one square
    box = HalfPlaneHull([BoxShape(0.4, 0.6, 1.2, 1.8)], validate=False)
    ab = whitney_cover_area(box)
    assert ab.lower == ab.upper == 1.0


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


def test_whitney_touching_feet_bracket():
    # the feet of the half-disk and the slit share x = 1, so on every level
    # their ranges share squares, which the union counts once
    A = HalfPlaneHull([HalfDisk(0, 1), VSlit(1, 0.5)])
    total = sum(_merged_count(whitney_ranges(A, k)) * 4.0**k for k in range(0, -46, -1))
    ab = whitney_cover_area(A)
    assert ab.lower <= total <= ab.upper
    assert ab.gap < 1e-9


@pytest.mark.parametrize("shape", [VSlit(0.3, 2**-20), BoxShape(0.1, 0.6, 0.0, 2**-18)])
def test_whitney_tail_of_a_low_hull(shape):
    # a hull this low meets only the levels k with 2^k <= its height; the
    # bracket counts them exactly down to K_CUT and bounds the rest, so it
    # holds the sum of the hull's 40 top levels and stays within twice it
    A = HalfPlaneHull([shape])
    top = math.frexp(shape.y_range[1])[1] - 1
    total = sum(_merged_count(whitney_ranges(A, k)) * 4.0**k for k in range(top, top - 40, -1))
    if isinstance(shape, VSlit):
        assert total == pytest.approx(4.0**-20 * 4.0 / 3.0, rel=1e-15)
    ab = whitney_cover_area(A)
    assert ab.lower <= total <= ab.upper
    assert ab.upper <= 2.0 * total


# the half-plane corpus, a box of x-extent 2^12, whose ranges at every
# level reach the most squares the tail bound allows, and the touching feet
WHITNEY_HULLS = mixed_halfplane_corpus(12, 7) + [
    HalfPlaneHull([BoxShape(0.0, 4096.0, 0.0, 1.0)]),
    HalfPlaneHull([HalfDisk(0, 1), VSlit(1, 0.5)]),
]


@pytest.mark.parametrize("A", WHITNEY_HULLS, ids=range(len(WHITNEY_HULLS)))
def test_whitney_one_line_tail_bound(A):
    # below 2^-40 a shape of x-extent w meets at most w/2^k + 2 squares per
    # level, w 2^-40 + (2/3) 4^-40 in all: enumerating 20 more levels lands
    # inside the bracket, and the gap is that sum, up to one rounding
    top = math.frexp(A.y_max)[1] - 1
    deeper = math.fsum(_merged_count(whitney_ranges(A, k)) * 4.0**k for k in range(top, -61, -1))
    ab = whitney_cover_area(A)
    assert ab.lower <= deeper <= ab.upper
    bound = sum((s.x_range[1] - s.x_range[0]) * 2.0**-40 + 2.0 / 3.0 * 4.0**-40 for s in A.shapes)
    assert ab.gap <= bound + math.ulp(ab.upper)


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


def _profile(s, xs):
    """The norm-1 Lipschitz majorant of one VSlit or HalfDisk at xs."""
    if isinstance(s, VSlit):
        return np.maximum(s.h - np.abs(xs - s.x), 0)
    t = np.abs(xs - s.c)
    return np.where(
        t <= s.r / math.sqrt(2),
        np.sqrt(np.maximum(s.r * s.r - t * t, 0)),
        np.maximum(s.r * math.sqrt(2) - t, 0),
    )


@pytest.mark.parametrize(
    "A",
    [
        # a tent crosses a circle cap
        HalfPlaneHull([HalfDisk(0, 1), VSlit(1.2, 1.0)]),
        # two circle caps cross at x = 0.44, inside both arc spans
        HalfPlaneHull([HalfDisk(0, 1), HalfDisk(0.5, 0.9)], validate=False),
    ],
)
def test_lipschitz_envelope_crossings(A):
    xs = np.linspace(-2.0, 3.5, 1_100_001)
    env = np.max([_profile(s, xs) for s in A.shapes], axis=0)
    assert lipschitz_majorant_area(A) == pytest.approx(np.trapezoid(env, xs), abs=1e-8)
