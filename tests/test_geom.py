import math

import numpy as np
import pytest

from hypcap.geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    InvalidHullError,
    RadialSlit,
    VSlit,
    validate_disk_shapes,
    validate_halfplane_shapes,
)


def test_vslit_distances():
    s = VSlit(0, 1)
    assert s.dist(2j) == 1.0
    assert s.dist(1j) == 0.0
    assert s.dist(3 + 0j) == 3.0


def test_halfdisk_distance_radial():
    assert HalfDisk(0, 1).dist(3 + 4j) == pytest.approx(4.0, abs=1e-15)


def test_halfdisk_distance_by_boundary_sampling():
    # dense boundary sampling oracle
    s = HalfDisk(0.5, 2.0)
    t = np.linspace(0, math.pi, 20001)
    arc = 0.5 + 2.0 * np.exp(1j * t)
    diam = np.linspace(0.5 - 2.0, 0.5 + 2.0, 20001) + 0j
    border = np.concatenate([arc, diam])
    for p in (4 + 5j, -3 + 0.5j, 0.5 + 9j):
        oracle = np.min(np.abs(border - p))
        assert s.dist(p) == pytest.approx(oracle, abs=1e-6)


def test_arcbox_distance_from_origin():
    b = ArcBox(0, math.pi / 2, 0.8)
    assert b.dist(0j) == pytest.approx(0.8, abs=1e-15)
    assert not b.dist(0j) <= 0.79
    assert b.dist(0j) <= 0.8


def test_arcbox_distance_by_sampling():
    b = ArcBox(0.3, 1.4, 0.7)
    ss = np.linspace(0.7, 1.0, 401)
    tt = np.linspace(0.3, 1.4, 401)
    pts = (ss[:, None] * np.exp(1j * tt[None, :])).ravel()
    for p in (-0.5 + 0.2j, 0.9j, 0.95 + 0.0j, 0.5 * np.exp(1j * 0.9)):
        oracle = np.min(np.abs(pts - p))
        got = b.dist(p)
        assert got <= oracle + 1e-12
        assert got == pytest.approx(oracle, abs=2e-3)


def test_radial_slit_distance():
    s = RadialSlit(math.pi / 2, 0.6)
    assert s.dist(0.6j) == pytest.approx(0.0, abs=1e-15)
    assert s.dist(0.3j) == pytest.approx(0.3, abs=1e-15)
    assert s.dist(0.0j) == pytest.approx(0.6, abs=1e-15)


def test_intersects_disk_closed():
    s = VSlit(0, 1)
    assert s.dist(2j) <= 1.0
    assert not s.dist(2j) <= 0.5


def test_metric_projection_property():
    # dist is attained: the closed disk of radius dist touches the shape
    shapes = [VSlit(0.3, 0.8), BoxShape(-1, -0.2, 0, 0.5), HalfDisk(1.5, 0.4)]
    rng = np.random.default_rng(5)
    for s in shapes:
        for _ in range(50):
            p = complex(rng.uniform(-3, 3), rng.uniform(0, 3))
            d = s.dist(p)
            if d == 0:
                continue
            assert s.dist(p) <= d * (1 + 1e-12) + 1e-300
            assert not s.dist(p) <= d * (1 - 1e-9)


@pytest.mark.parametrize(
    "s", [VSlit(0.3, 0.8), BoxShape(-0.4, 0.6, 0.0, 0.9), HalfDisk(0.5, 0.7)], ids=lambda s: type(s).__name__
)
def test_translation_equivariance(s):
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = complex(rng.uniform(-2, 2), rng.uniform(0, 2))
        t = rng.uniform(-5, 5)
        d0 = s.dist(p)
        d1 = s.affine(1.0, t).dist(p + t)
        assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)
        # the mirror x -> t - x
        d2 = s.affine(-1.0, t).dist(t - p.real + 1j * p.imag)
        assert d2 == pytest.approx(d0, rel=1e-12, abs=1e-12)


def test_validate_hull_cases():
    assert validate_halfplane_shapes([VSlit(0, 1), VSlit(1, 1)]) is None
    msg = validate_halfplane_shapes([HalfDisk(0, 1), HalfDisk(1, 1)])
    assert msg is not None and "overlap" in msg
    assert validate_halfplane_shapes([]) is None
    # tangent half-disks touch only on the axis: allowed
    assert validate_halfplane_shapes([HalfDisk(0, 1), HalfDisk(2, 1)]) is None
    # box touching a slit shares a vertical segment: rejected
    assert validate_halfplane_shapes([VSlit(0, 1), BoxShape(0, 1, 0, 0.5)]) is not None
    # feet that touch at one point: a half-disk has height 0 at its ends,
    # slits and boxes rise from every point of their feet
    assert validate_halfplane_shapes([HalfDisk(0, 1), VSlit(1, 2)]) is None
    assert validate_halfplane_shapes([BoxShape(-2, -1, 0, 1), HalfDisk(0, 1)]) is None
    assert validate_halfplane_shapes([HalfDisk(0, 1), VSlit(0.999, 0.01)]) is not None
    assert validate_halfplane_shapes([BoxShape(0, 1, 0, 1), BoxShape(1, 2, 0, 0.5)]) is not None
    assert validate_halfplane_shapes([VSlit(0, 1), VSlit(0, 2)]) is not None
    # overlapping feet: the box's corner (0.9, 0.1) lies in the half-disk
    assert validate_halfplane_shapes([BoxShape(0.9, 2, 0, 0.1), HalfDisk(0, 1)]) is not None
    # unrooted box rejected at hull level
    assert validate_halfplane_shapes([BoxShape(0, 1, 0.1, 0.5)]) is not None


def test_validate_disk_cases():
    assert validate_disk_shapes([RadialSlit(0, 0.7), RadialSlit(1, 0.7)]) is None
    assert validate_disk_shapes([RadialSlit(0, 0.7), RadialSlit(0, 0.8)]) is not None
    assert validate_disk_shapes([ArcBox(0, 0.5, 0.8), RadialSlit(0.25, 0.9)]) is not None
    assert validate_disk_shapes([ArcBox(0, 0.5, 0.8), ArcBox(0.6, 1.0, 0.9)]) is None
    # annulus constraint
    with pytest.raises(InvalidHullError):
        DiskCompact([RadialSlit(0, 0.4)])


def test_arcbox_wraparound_overlap():
    a = ArcBox(-0.2, 0.2, 0.8)
    b = RadialSlit(2 * math.pi - 0.1, 0.9)  # angle equivalent to -0.1
    assert validate_disk_shapes([a, b]) is not None


def test_hull_construction_validates():
    with pytest.raises(InvalidHullError):
        HalfPlaneHull([HalfDisk(0, 1), HalfDisk(1, 1)])
    h = HalfPlaneHull([VSlit(0, 1), HalfDisk(3, 0.5)])
    assert len(h) == 2
    assert h.sup_abs == pytest.approx(3.5)
    assert h.y_max == 1.0


def test_union_dist_and_member():
    h = HalfPlaneHull([VSlit(0, 1), VSlit(2, 1)])
    z = np.array([1 + 0.5j, 0 + 0.5j, 5 + 0j])
    d = h.dist(z)
    assert d[0] == pytest.approx(1.0)
    assert d[1] == 0.0
    assert d[2] == pytest.approx(3.0)
    assert list(h.dist(z) <= 0) == [False, True, False]


def test_scale_and_mirror():
    h = HalfPlaneHull([VSlit(1, 1), BoxShape(2, 3, 0, 0.5)])
    h2 = h.scale(2.0)
    assert h2.shapes[0] == VSlit(2, 2)
    assert h2.shapes[1] == BoxShape(4, 6, 0, 1.0)
    m = h.mirror()
    assert m.shapes[0] == VSlit(-1, 1)
    assert m.shapes[1] == BoxShape(-3, -2, 0, 0.5)


def _sampled_containment(shape, cx, cy, half, n=41):
    """True where every point of an n x n grid on the closed square lies in the shape."""
    u = np.linspace(-1.0, 1.0, n)
    pts = (cx[:, None, None] + half * u[None, :, None]) + 1j * (cy[:, None, None] + half * u[None, None, :])
    return np.all(shape.dist(pts) == 0.0, axis=(1, 2))


@pytest.mark.parametrize(
    "shape, lo, hi",
    [
        (BoxShape(-0.3, 0.4, 0.0, 0.8), -0.5 + 0j, 0.6 + 1j),
        (HalfDisk(0.2, 0.7), -0.6 + 0j, 1.0 + 0.8j),
        (ArcBox(0.4, 1.2, 0.75), -1.0 - 1.0j, 1.0 + 1.0j),
        (ArcBox(-2.0, 2.5, 0.6), -1.0 - 1.0j, 1.0 + 1.0j),
        (ArcBox(0.3, 0.3 + 2 * math.pi, 0.7), -1.0 - 1.0j, 1.0 + 1.0j),
        (VSlit(0.1, 0.8), -0.5 + 0j, 0.6 + 1j),
        (RadialSlit(0.4, 0.6), -1.0 - 1.0j, 1.0 + 1.0j),
    ],
)
def test_contains_square_matches_sampling(shape, lo, hi):
    # the predicate is exact: on seeded squares it agrees with a dense grid
    # of each closed square, for those it holds and those it does not
    rng = np.random.default_rng(4)
    half = 0.04
    cx = rng.uniform(lo.real + half, hi.real - half, 4000)
    cy = rng.uniform(lo.imag + half, hi.imag - half, 4000)
    got = shape.contains_square(cx, cy, half)
    assert np.array_equal(got, _sampled_containment(shape, cx, cy, half))
    if isinstance(shape, (VSlit, RadialSlit)):
        assert not got.any()
    else:
        assert 0 < np.count_nonzero(got) < got.size


def test_arcbox_square_across_the_gap_is_not_contained():
    # a sector wider than pi whose gap is narrower than the square: every
    # corner lies in the sector, but the square covers the gap
    gap = 0.004
    shape = ArcBox(0.3, 0.3 + 2 * math.pi - gap, 0.7)
    half = 0.01
    for phi, inside in ((0.3 - gap / 2, False), (0.3 + 1.0, True)):
        c = 0.9 * np.exp(1j * phi)
        corners = c + half * np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
        assert np.all(shape.dist(corners) == 0.0)
        got = shape.contains_square(np.array([c.real]), np.array([c.imag]), half)
        assert got.tolist() == [inside]
    # a union holds a square where one of its shapes does
    assert DiskCompact([shape]).contains_square(np.array([c.real]), np.array([c.imag]), half).tolist() == [True]


# The closed forms every walk and the quadtree classifier read, written as
# they stood with np.clip and a per-call np.exp(-+1j theta): the shapes must
# keep computing exactly these floats, or walks and leaves change.
def _ref_segment_dist(z, theta, rho):
    w = z * np.exp(-1j * theta)
    return np.hypot(w.real - np.clip(w.real, rho, 1.0), w.imag)


def _ref_segment_nearest(z, theta, rho):
    w = z * np.exp(-1j * theta)
    return np.clip(w.real, rho, 1.0) * np.exp(1j * theta) * np.ones_like(z)


def _ref_arc_in(s, z):
    if s.width >= 2 * math.pi:
        return np.ones(z.shape, dtype=bool)
    return np.mod(np.angle(z) - s.theta0, 2 * math.pi) <= s.width


def _ref_dist(s, z):
    if isinstance(s, VSlit):
        return np.hypot(z.real - s.x, z.imag - np.clip(z.imag, 0.0, s.h))
    if isinstance(s, BoxShape):
        dx = np.maximum(np.maximum(s.x0 - z.real, z.real - s.x1), 0.0)
        dy = np.maximum(np.maximum(s.y0 - z.imag, z.imag - s.y1), 0.0)
        return np.hypot(dx, dy)
    if isinstance(s, HalfDisk):
        rad = np.maximum(np.abs(z - s.c) - s.r, 0.0)
        seg = np.hypot(np.maximum(np.abs(z.real - s.c) - s.r, 0.0), np.abs(z.imag))
        return np.where(z.imag >= 0, rad, seg)
    if isinstance(s, RadialSlit):
        return _ref_segment_dist(z, s.theta, s.rho)
    r = np.abs(z)
    d_radial = np.maximum(np.maximum(s.rho - r, r - 1.0), 0.0)
    if s.width >= 2 * math.pi:
        return d_radial
    edges = np.minimum(_ref_segment_dist(z, s.theta0, s.rho), _ref_segment_dist(z, s.theta1, s.rho))
    return np.where(_ref_arc_in(s, z), d_radial, edges)


def _ref_nearest(s, z):
    if isinstance(s, VSlit):
        return s.x + 1j * np.clip(z.imag, 0.0, s.h)
    if isinstance(s, BoxShape):
        return np.clip(z.real, s.x0, s.x1) + 1j * np.clip(z.imag, s.y0, s.y1)
    if isinstance(s, HalfDisk):
        w = z - s.c
        aw = np.abs(w)
        on_arc = s.c + np.where(aw > 0, w / np.where(aw == 0, 1.0, aw), 1.0) * s.r
        out = np.where((aw <= s.r) & (z.imag >= 0), z, on_arc)
        return np.where(z.imag < 0, np.clip(z.real, s.c - s.r, s.c + s.r) + 0j, out)
    if isinstance(s, RadialSlit):
        return _ref_segment_nearest(z, s.theta, s.rho)
    r = np.abs(z)
    radial = np.clip(r, s.rho, 1.0) * (z / np.where(r == 0, 1.0, r))
    radial = np.where(r == 0, s.rho * np.exp(1j * 0.5 * (s.theta0 + s.theta1)), radial)
    if s.width >= 2 * math.pi:
        return radial
    pick0 = _ref_segment_dist(z, s.theta0, s.rho) <= _ref_segment_dist(z, s.theta1, s.rho)
    edge = np.where(pick0, _ref_segment_nearest(z, s.theta0, s.rho), _ref_segment_nearest(z, s.theta1, s.rho))
    return np.where(_ref_arc_in(s, z), radial, edge)


def _on_shape(s, t, u):
    """Points of s (its boundary, and its inside where it has one) from uniform t, u in [0, 1)."""
    if isinstance(s, VSlit):
        return s.x + 1j * s.h * t
    if isinstance(s, BoxShape):
        edge = np.stack([s.x0 + 1j * (s.y1 * t), s.x1 + 1j * (s.y1 * t), s.x0 + (s.x1 - s.x0) * t + 1j * s.y1])
        inner = s.x0 + (s.x1 - s.x0) * t + 1j * (s.y0 + (s.y1 - s.y0) * u)
        return np.where(u < 0.5, edge[(t * 1e6).astype(int) % 3, np.arange(t.size)], inner)
    if isinstance(s, HalfDisk):
        arc = s.c + s.r * np.exp(1j * math.pi * t)
        return np.where(u < 0.3, s.c + s.r * (2 * t - 1) + 0j, np.where(u < 0.7, arc, s.c + u * (arc - s.c)))
    if isinstance(s, RadialSlit):
        return (s.rho + (1 - s.rho) * t) * np.exp(1j * s.theta)
    r = s.rho + (1 - s.rho) * u
    return r * np.exp(1j * np.where(u < 0.3, s.theta0, np.where(u < 0.6, s.theta1, s.theta0 + s.width * t)))


def _bits_equal(a, b):
    """Equal bit for bit, up to the payload of a NaN: values, signs of zero and where the NaNs are."""
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return _bits_equal(a.real, b.real) and _bits_equal(a.imag, b.imag)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "shape",
    [
        VSlit(0.3, 0.8),
        BoxShape(-1.0, -0.2, 0.0, 0.5),
        HalfDisk(1.5, 0.4),
        RadialSlit(2.2, 0.6),
        ArcBox(0.4, 1.2, 0.75),
        ArcBox(-0.5, -0.5 + 2 * math.pi, 0.7),
    ],
)
def test_shape_distances_pinned(shape):
    rng = np.random.default_rng(21)
    t, u = rng.random((2, 3000))
    if isinstance(shape, (VSlit, BoxShape, HalfDisk)):
        space = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-0.5, 3, 4000)
    else:
        space = np.sqrt(rng.random(4000)) * 1.2 * np.exp(2j * math.pi * rng.random(4000))
    far = 1e6 * np.exp(1j * math.pi * rng.uniform(-0.2, 1.2, 1000)) + rng.uniform(-1, 1, 1000)
    nan = complex("nan")
    odd = np.array([0j, nan, complex(nan, 0.5), complex(0.5, nan)])
    z = np.concatenate([space, _on_shape(shape, t, u), far, odd])
    # no errstate here: a warning from the shape's own methods fails the test
    dist, near = shape.dist(z), shape.nearest(z)
    # the reference's divisions warn on the NaN points
    with np.errstate(invalid="ignore"):
        assert _bits_equal(dist, _ref_dist(shape, z))
        assert _bits_equal(near, _ref_nearest(shape, z))
    assert np.all(dist[space.size : space.size + t.size] <= 1e-15)
    assert np.all(np.isnan(dist[-3:]))
