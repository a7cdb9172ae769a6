import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from hypcap import geom, quadtree
from hypcap.capacity import ring
from hypcap.corpus import generate_element, mixed_disk_corpus, mixed_halfplane_corpus
from hypcap.geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    Obstacle,
    RadialSlit,
    VSlit,
    _modulus_range,
)
from hypcap.hyperbolic import (
    SQRT2,
    DomainError,
    RectSet,
    _ball_disk,
    _ball_halfplane,
    _cell_of_origin,
    _disk_rect_areas,
    _flood_masks,
    _indisk_areas,
    _member_mask,
    _refine,
    _root_square,
    circle_rect_area,
    filled_region,
    hyp_dist_d,
    hyp_dist_h,
    neighborhood_area,
    neighborhood_member,
)
from hypcap.mobius import t_y


def _acosh_1p(q: Fraction) -> float:
    """acosh(1 + q) for an exact rational q >= 0, without the cancellation in 1 + q."""
    q = float(q)
    return math.log1p(q + math.sqrt(q * (q + 2.0)))


def test_hyp_dist_h_closed_forms():
    assert hyp_dist_h(1j, 1j) == 0.0
    # vertical geodesic integral of dy/y
    assert hyp_dist_h(1j, 2j) == pytest.approx(math.log(2), abs=1e-12)
    assert hyp_dist_h(1 + 1j, 1j) == pytest.approx(math.acosh(1.5), abs=1e-12)
    # short range, against the exact cosh d = 1 + dx^2 / 2
    for dx in (1e-10, 1e-6):
        assert hyp_dist_h(1j, 1j + dx) == pytest.approx(_acosh_1p(Fraction(dx) ** 2 / 2), rel=1e-14)


def test_hyp_dist_h_domain():
    with pytest.raises(DomainError):
        hyp_dist_h(1j, 1 - 0j)


def test_hyp_dist_d_closed_forms():
    assert hyp_dist_d(0j, 0j) == 0.0
    assert hyp_dist_d(0j, 0.5 + 0j) == pytest.approx(math.log(3), abs=1e-12)
    assert hyp_dist_d(0j, 0.5j) == pytest.approx(hyp_dist_d(0j, 0.5 + 0j), abs=1e-12)
    # near the rim, against the exact cosh d = 1 + 2 (a - b)^2 / ((1 - a^2)(1 - b^2))
    for a, b in ((1 - 2**-53, -0.5), (1 - 1e-8, -(1 - 1e-8))):
        a_, b_ = Fraction(a), Fraction(b)
        cosh_minus_1 = 2 * (a_ - b_) ** 2 / ((1 - a_ * a_) * (1 - b_ * b_))
        assert hyp_dist_d(a, b) == pytest.approx(_acosh_1p(cosh_minus_1), rel=1e-14)
    with pytest.raises(DomainError):
        hyp_dist_d(0j, 1.0 + 0j)


def _ball(ball, center, rho):
    """(euclidean center, euclidean radius) of one closed hyperbolic ball."""
    c, r = ball(np.asarray([complex(center)]), rho)
    return complex(c[0]), float(r[0])


def test_hyp_ball_halfplane():
    c, r = _ball(_ball_halfplane, 1j, 1.0)
    assert c.imag == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert r == pytest.approx(math.sinh(1.0), abs=1e-12)
    c2, r2 = _ball(_ball_halfplane, 2j, 1.0)
    assert c2.imag == pytest.approx(2 * math.cosh(1.0), abs=1e-12)
    assert r2 == pytest.approx(2 * math.sinh(1.0), abs=1e-12)


def test_hyp_ball_disk():
    c, r = _ball(_ball_disk, 0j, 1.0)
    assert c.real == 0.0
    assert r == pytest.approx(math.tanh(0.5), abs=1e-12)
    # points on the euclidean circle are at hyperbolic distance 1
    c, r = _ball(_ball_disk, 0.4 + 0.2j, 1.0)
    for t in np.linspace(0, 2 * math.pi, 7):
        w = c + r * np.exp(1j * t)
        assert hyp_dist_d(0.4 + 0.2j, complex(w)) == pytest.approx(1.0, abs=1e-9)


def test_transport_is_isometry():
    rng = np.random.default_rng(1)
    for y in (1.0, 2.0, 10.0):
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4))
            w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 4))
            dh = hyp_dist_h(z, w)
            dd = hyp_dist_d(complex(t_y(y, z)), complex(t_y(y, w)))
            assert dd == pytest.approx(dh, abs=1e-9)


def test_ball_transport_membership():
    rng = np.random.default_rng(2)
    for _ in range(40):
        y = rng.choice([1.0, 2.0, 10.0])
        c = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        p = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        rho = rng.uniform(0.2, 1.5)
        ch, rh = _ball(_ball_halfplane, c, rho)
        cd, rd = _ball(_ball_disk, t_y(y, c), rho)
        in_h = abs(p - ch) <= rh
        in_d = abs(complex(t_y(y, p)) - cd) <= rd
        if abs(hyp_dist_h(c, p) - rho) > 1e-9:
            assert in_h == in_d


def test_neighborhood_member_slit():
    S = HalfPlaneHull([VSlit(0, 1)])
    assert neighborhood_member(2j, S, 1.0)  # ball reaches down to 2/e < 1
    assert not neighborhood_member(10 + 1j, S, 1.0)
    assert neighborhood_member(0.5j, S, 1.0)  # on the slit
    with pytest.raises(DomainError):
        neighborhood_member(1 - 1j, S, 1.0)


def test_neighborhood_member_monotone_in_set():
    S = HalfPlaneHull([VSlit(0, 1)])
    S2 = HalfPlaneHull([VSlit(0, 1), VSlit(3, 2)])
    rng = np.random.default_rng(3)
    for _ in range(60):
        z = complex(rng.uniform(-2, 6), rng.uniform(0.05, 4))
        if neighborhood_member(z, S, 1.0):
            assert neighborhood_member(z, S2, 1.0)


def test_neighborhood_area_closed_forms():
    # |N_rho| at rho = 1, with sh = sinh rho, ch = cosh rho and the
    # Gudermannian gd = arcsin(tanh rho):
    # - VSlit(x, h): the wedge of points within rho of the geodesic through
    #   the slit, under the circle |z - x| = h, plus the ball about the tip
    #   above that circle: h^2 (sh + sh^2 (pi/2 + gd));
    # - HalfDisk(c, r): its arc is a geodesic, and N is the disk of radius
    #   r ch about c + i r sh, cut by the axis: r^2 (sh + ch^2 (pi/2 + gd));
    # - ring(a) = {a <= |z| < 1}: the annulus tanh(artanh a - rho/2) <= |z| < 1.
    rho = 1.0
    sh, ch, gd = math.sinh(rho), math.cosh(rho), math.asin(math.tanh(rho))
    slit = sh + sh * sh * (math.pi / 2 + gd)
    disk = sh + ch * ch * (math.pi / 2 + gd)
    r_in = math.tanh(math.atanh(0.7) - rho / 2)
    annulus = math.pi * (1.0 - r_in * r_in)
    assert slit == pytest.approx(4.540336984403, abs=1e-12)
    assert disk == pytest.approx(6.976902794438, abs=1e-12)
    assert annulus == pytest.approx(2.753158496664, abs=1e-12)
    cases = [
        (HalfPlaneHull([VSlit(-0.5, 1.5)]), 1.5**2 * slit),
        (HalfPlaneHull([HalfDisk(0.3, 0.8)]), 0.8**2 * disk),
        (ring(0.7), annulus),
    ]
    for S, true in cases:
        ab = neighborhood_area(S, rho, 1e-4, relative=True)
        assert ab.tolerance_met
        assert ab.lower <= true <= ab.upper


def test_neighborhood_area_empty():
    ab = neighborhood_area(HalfPlaneHull([]), 1.0, 1e-3)
    assert ab.lower == ab.upper == 0.0


def test_neighborhood_area_scales():
    A = HalfPlaneHull([VSlit(0, 1)])
    a1 = neighborhood_area(A, 1.0, 1e-3)
    a2 = neighborhood_area(A.scale(2.0), 1.0, 4e-3)
    # half-plane metric is scale invariant: |N(2A)| = 4 |N(A)|
    assert a2.lower <= 4 * a1.upper and 4 * a1.lower <= a2.upper


def test_neighborhood_area_monotone():
    B1 = DiskCompact([RadialSlit(0.0, 0.8)])
    B2 = DiskCompact([RadialSlit(0.0, 0.8), RadialSlit(2.0, 0.7)])
    a1 = neighborhood_area(B1, 1.0, 1e-3)
    a2 = neighborhood_area(B2, 1.0, 1e-3)
    assert a1.lower <= a2.upper


def test_circle_rect_area_closed_forms():
    assert circle_rect_area(-2, 2, -2, 2) == pytest.approx(math.pi, abs=1e-12)
    assert circle_rect_area(0, 1, 0, 1) == pytest.approx(math.pi / 4, abs=1e-12)
    assert circle_rect_area(-1, 1, 0, 3) == pytest.approx(math.pi / 2, abs=1e-12)
    assert circle_rect_area(1, 2, 1, 2) == 0.0
    # Monte Carlo oracle for a generic rectangle
    rng = np.random.default_rng(4)
    a, b, c, d = 0.2, 1.3, -0.4, 0.9
    pts = rng.uniform(0, 1, (200_000, 2)) * [b - a, d - c] + [a, c]
    frac = np.mean(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0)
    mc = frac * (b - a) * (d - c)
    assert circle_rect_area(a, b, c, d) == pytest.approx(mc, abs=3e-3)


# the closed form sums four terms of size up to pi / 2 where the scalar
# reference integrates piece by piece: a few ulps of 1 apart
AREA_ATOL = 16 * np.finfo(float).eps


def test_disk_rect_areas_match_scalar_reference():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.3, 1.3, 4000)
    c = rng.uniform(-1.3, 1.3, 4000)
    b = a + 10.0 ** rng.uniform(-5, 0.5, 4000)
    d = c + 10.0 ** rng.uniform(-5, 0.5, 4000)
    ref = [circle_rect_area(*r) for r in zip(a, b, c, d)]
    assert np.allclose(_disk_rect_areas(a, b, c, d), ref, rtol=0.0, atol=AREA_ATOL)


def _leaf_indisk_areas(leaves, cells):
    """_indisk_areas of the leaves' cells (a mask or indices)."""
    x0, _, y0, _ = leaves.rects(cells)
    return _indisk_areas(x0, y0, np.ldexp(leaves.size, -leaves.depth[cells]))


def test_indisk_areas_match_scalar_reference_on_ring_cells():
    # each area is rounded outward by AREA_ATOL, so the bounds hold the
    # reference and lie within twice that of each other
    leaves = filled_region(ring(0.7), 1.0, 1e-2).leaves
    x0, x1, y0, y1 = leaves.rects(np.arange(leaves.cls.size))
    far = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    near = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))
    crossing = np.flatnonzero((far > 1.0) & (near < 1.0))
    assert crossing.size > 1000
    ref = np.array([circle_rect_area(x0[i], x1[i], y0[i], y1[i]) for i in crossing])
    lo, hi = _leaf_indisk_areas(leaves, crossing)
    assert np.all(lo <= ref) and np.all(ref <= hi)
    assert np.all(hi - lo <= 2 * AREA_ATOL)
    # cells within or outside the closed disk are exact
    side = np.ldexp(leaves.size, -leaves.depth)
    for cells, want in ((far <= 1.0, side * side), (near >= 1.0, 0.0 * side)):
        assert np.any(cells)
        for bound in _leaf_indisk_areas(leaves, cells):
            assert np.array_equal(bound, want[cells])


def _grid_fill_oracle(B, rho, n=600):
    """Plain fine-grid flood-fill reference for filled neighborhoods."""
    from hypcap.hyperbolic import _member_mask
    from scipy.ndimage import label

    xs = (np.arange(n) + 0.5) / n * 2.2 - 1.1
    X, Y = np.meshgrid(xs, xs)
    Z = (X + 1j * Y).ravel()
    inside_disk = np.abs(Z) < 1.0
    in_n = np.zeros(Z.shape, dtype=bool)
    in_n[inside_disk] = _member_mask(B, Z[inside_disk], rho)
    free = (inside_disk & ~in_n).reshape(n, n)
    lab, _ = label(free)
    i0 = n // 2
    keep = lab == lab[i0, i0]
    filled = free & ~keep
    pix = (2.2 / n) ** 2
    return float(np.sum(in_n) * pix), float((np.sum(in_n) + np.sum(filled)) * pix)


def test_filled_equals_plain_for_single_slit():
    B = DiskCompact([RadialSlit(0.5, 0.7)])
    nb = neighborhood_area(B, 1.0, 2e-3)
    fb = filled_region(B, 1.0, 2e-3).bounds
    assert fb.tolerance_met
    assert abs(fb.midpoint - nb.midpoint) <= 2 * 2e-3


def test_filled_empty():
    fb = filled_region(DiskCompact([]), 1.0, 1e-3).bounds
    assert fb.lower == fb.upper == 0.0


def test_filled_nearly_closed_ring_traps_pocket():
    # the angular gap of the ring leaves a trapped channel near the circle;
    # the independent grid oracle must see strictly more filled area
    B = DiskCompact([ArcBox(0, 2 * math.pi - 0.01, 0.9)])
    n_oracle, nhat_oracle = _grid_fill_oracle(B, 1.0, n=900)
    assert nhat_oracle > n_oracle
    fb = filled_region(B, 1.0, 1e-3).bounds
    nb = neighborhood_area(B, 1.0, 1e-3)
    # certified brackets agree with the oracle on both quantities
    assert fb.lower - 3e-2 <= nhat_oracle <= fb.upper + 3e-2
    assert nb.lower - 3e-2 <= n_oracle <= nb.upper + 3e-2
    # true values satisfy |filled| >= |plain|, so the brackets must overlap
    # in that order even though they come from independent refinements
    assert fb.upper >= nb.lower - 1e-12
    assert fb.lower >= nb.lower - 1e-12


def test_filled_region_refines_once(monkeypatch):
    # this region misses its tolerance: it is reported as it stands, without
    # a second refinement from the root
    calls = []
    refine = quadtree.refine

    def counting(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(quadtree, "refine", counting)
    fr = filled_region(generate_element("radial-slit-set", 7, 8), 0.25, 4e-3)
    assert len(calls) == 1
    assert not fr.bounds.tolerance_met
    assert fr.bounds.gap > 4e-3


def test_filled_region_rejects_origin_in_neighborhood():
    # a valid compact keeps hyperbolic distance >= log 3 from the origin,
    # so the precondition can only fail for neighborhood radii above that
    B = DiskCompact([RadialSlit(0.0, 0.55)])
    with pytest.raises(DomainError):
        filled_region(B, 1.3, 1e-2)


def test_filled_region_walk_surface():
    B = DiskCompact([RadialSlit(0.5, 0.7), ArcBox(2.0, 2.8, 0.8)])
    fr = filled_region(B, 1.0, 2e-3)
    assert fr.passable.any()
    x0, x1, y0, y1 = fr.blocked_rects()
    assert x0.size > 0
    rs = RectSet(x0, x1, y0, y1)
    z = np.array([0j, 0.1 + 0.1j])
    d = rs.dist(z)
    assert np.all(d > 0)
    _, _, near = rs.nearest(z)
    assert np.allclose(np.abs(near - z), d)


def test_origin_cell_of_a_root_settled_at_depth_zero():
    # an empty compact settles the root square at once: its one leaf holds 0
    fr = filled_region(DiskCompact([]), 1.0, 1e-2)
    assert fr.leaves.depth.tolist() == [0] and fr.passable.tolist() == [True]
    assert fr.bounds.upper == 0.0 and not fr.frontier.any()


def test_disk_root_square_is_centred_on_origin():
    # the origin-cell lookup of the floods relies on a grid line through 0
    # at every depth, and the root must hold the closed unit disk
    for B in (ring(0.7), RectSet([0.5], [0.6], [0.1], [0.2])):
        gx0, gy0, size = _root_square(B, 1.0)
        assert gx0 + size / 2 == 0.0 == gy0 + size / 2
        assert gx0 < -1.0 and gx0 + size > 1.0
        for d in range(1, quadtree.MAX_DEPTH + 1):
            assert gx0 + 2 ** (d - 1) * (size * math.ldexp(1.0, -d)) == 0.0


# a square frame inside the disk: four rectangles of thickness 0.02 lining
# the square of half-side 0.2 centred at 0.5, whose interior both floods miss
FRAME = RectSet([0.3, 0.3, 0.3, 0.68], [0.7, 0.7, 0.32, 0.7], [-0.2, 0.18, -0.2, -0.2], [-0.18, 0.2, 0.2, 0.2])


@pytest.mark.parametrize(
    "B, rho, generous_misses",
    [(FRAME, 0.05, True), (generate_element("radial-slit-set", 7, 0), 1.0, False)],
    ids=["rectset-frame", "radial-slit-0"],
)
def test_filled_bounds_equal_sums_over_all_leaves(monkeypatch, B, rho, generous_misses):
    # filled_region computes in-disk areas only for the free cells the
    # strict flood misses; its bracket must be the floats the sums over
    # every leaf give
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 8)
    tol = 1e-3
    leaves, nb = _refine(B, rho, lambda lo, up: tol / 2.0)
    reached_strict, reached_gen, _ = _flood_masks(leaves)
    free = leaves.cls == quadtree.OUTSIDE
    lo, hi = _leaf_indisk_areas(leaves, np.ones(free.size, dtype=bool))
    missed_gen = lo[free & ~reached_gen]
    missed_strict = hi[free & ~reached_strict]
    assert np.any(missed_strict > 0)
    assert np.any(missed_gen > 0) == generous_misses
    fb = filled_region(B, rho, tol).bounds
    assert fb.lower == nb.lower + float(np.sum(missed_gen))
    assert fb.upper == nb.upper + float(np.sum(missed_strict))


def test_level_area_sums_match_sums_of_stored_areas():
    # refine sums each level's INSIDE and UNKNOWN areas without a per-cell
    # array; the totals must be the floats np.sum gives over such an array
    rng = np.random.default_rng(12)
    for n in (0, 1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 100_003):
        area = float(rng.uniform(1e-9, 4.0))
        assert quadtree._sum_of(area, n) == float(np.sum(np.full(n, area)))


def _closed_contacts(leaves, rows, cols):
    """(touch, edge) matrices of the closed cells rows x cols, by brute force.

    Leaf interiors are disjoint, so two closed cells meet in a segment or a
    point, and the contact is an edge when that segment has positive length.
    """
    X0, X1, Y0, Y1 = leaves.int_rects()
    ox = np.minimum(X1[rows, None], X1[None, cols]) - np.maximum(X0[rows, None], X0[None, cols])
    oy = np.minimum(Y1[rows, None], Y1[None, cols]) - np.maximum(Y0[rows, None], Y0[None, cols])
    touch = (ox >= 0) & (oy >= 0)
    return touch, touch & ((ox > 0) | (oy > 0))


def test_adjacency_pairs_match_closed_square_contacts(monkeypatch):
    B = DiskCompact([RadialSlit(0.5, 0.7), ArcBox(2.0, 2.8, 0.8)])
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 7)
    leaves, _ = _refine(B, 1.0, lambda lo, up: 0.0)
    assert np.unique(leaves.depth).size > 3
    rng = np.random.default_rng(5)
    for active in (leaves.cls != quadtree.INSIDE, rng.uniform(size=leaves.cls.size) < 0.7):
        pi, pj, edge = quadtree.adjacency_pairs(leaves, active)
        got = {}
        for i, j, e in zip(pi.tolist(), pj.tolist(), edge.tolist()):
            key = (min(i, j), max(i, j))
            # a corner contact may show up twice, always as a point contact
            assert got.setdefault(key, e) == e
        idx = np.flatnonzero(active)
        touch, full = _closed_contacts(leaves, idx, idx)
        a, b = np.nonzero(np.triu(touch, 1))
        want = dict(zip(zip(idx[a].tolist(), idx[b].tolist()), full[a, b].tolist()))
        assert got == want
        assert 0 < sum(want.values()) < len(want)


def test_frontier_matches_brute_force(monkeypatch):
    B = DiskCompact([RadialSlit(0.5, 0.7), ArcBox(2.0, 2.8, 0.8)])
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 8)
    fr = filled_region(B, 1.0, 1e-2)
    passable = np.flatnonzero(fr.passable)
    assert passable.size > 0
    want = np.zeros(fr.passable.size, dtype=bool)
    corner_only = np.zeros(fr.passable.size, dtype=bool)
    for start in range(0, want.size, 512):
        rows = np.arange(start, min(start + 512, want.size))
        touch, edge = _closed_contacts(fr.leaves, rows, passable)
        want[rows] = edge.any(axis=1) & ~fr.passable[rows]
        corner_only[rows] = touch.any(axis=1) & ~edge.any(axis=1) & ~fr.passable[rows]
    # blocked cells that touch a passable one only at a corner, and cells
    # wholly outside the closed disk, stay out of the frontier
    x0, x1, y0, y1 = fr.leaves.rects(np.arange(want.size))
    outside = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1)) > 1.0
    assert np.any(want & outside) and np.any(corner_only & ~outside)
    want &= ~outside
    assert np.array_equal(fr.frontier, want)
    for a, b in zip(fr.blocked_rects(), fr.leaves.rects(np.flatnonzero(want))):
        assert np.array_equal(a, b)


class _OnePart(Obstacle):
    """S as a single part whose dist and contains_square are S's, so the classifier has no part to drop."""

    def __init__(self, S):
        self.S = S

    def __getattr__(self, name):
        return getattr(self.S, name)

    def dist(self, z):
        return self.S.dist(z)

    def contains_square(self, cx, cy, half):
        return self.S.contains_square(cx, cy, half)


def _recorded_refinements(run):
    """run() and the (leaves, bounds) of every quadtree.refine it made."""
    seen = []
    refine = quadtree.refine

    def recording(*args):
        seen.append(refine(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadtree, "refine", recording)
        out = run()
    return out, seen


def _unpruned(run):
    # the obstacle as one part and an infinite rounding margin keep every
    # part and every far flag: the classifier asks S.dist on every cell, as
    # one without a carry would
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geom, "ROUNDING", math.inf)
        return _recorded_refinements(run)


def _assert_same_refinements(got, want):
    assert len(got) == len(want) > 0
    for (leaves, bounds), (ref_leaves, ref_bounds) in zip(got, want):
        assert bounds == ref_bounds
        for f in dataclasses.fields(quadtree.Leaves):
            a, b = getattr(leaves, f.name), getattr(ref_leaves, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def _pruned_area_matches_unpruned(S, tol, relative=True):
    """neighborhood_area's bounds of S, once they and _refine's leaves and bounds at its goal match unpruned ones."""
    goal = (lambda lo, up: tol * up) if relative else (lambda lo, up: tol)

    def run(T):
        # neighborhood_area runs quadtree.refine_bounds; only _refine is recorded
        return neighborhood_area(T, 1.0, tol, relative=relative), _refine(T, 1.0, goal)

    (got, _), seen = _recorded_refinements(lambda: run(S))
    (want, _), ref = _unpruned(lambda: run(_OnePart(S)))
    assert got == want
    _assert_same_refinements(seen, ref)
    return got


@pytest.mark.parametrize(
    "kind, index",
    [
        ("radial-slit-set", 0),
        ("arcbox-set", 1),
        ("radial-slit-set", 2),
        ("slit-forest", 0),
        ("staircase", 1),
        ("halfdisk-mix", 2),
    ],
)
def test_pruned_classifier_matches_unpruned(kind, index):
    S = generate_element(kind, 7, index)
    assert len(S.parts) >= 5
    _pruned_area_matches_unpruned(S, 1e-2)


def test_pruned_classifier_near_the_circle():
    # refinement runs to MAX_DEPTH beside the circle, where _ball_disk
    # divides by as little as 1.3e-7, so its balls may round far above
    # ROUNDING x (sup_abs + corner)
    S = DiskCompact([RadialSlit(0.0, 0.9999), RadialSlit(0.01, 0.9999)])
    assert not _pruned_area_matches_unpruned(S, 1e-3).tolerance_met


def test_pruned_filled_region_matches_unpruned():
    B = DiskCompact([RadialSlit(0.5, 0.7), ArcBox(2.0, 2.8, 0.8), RadialSlit(4.0, 0.6)])
    got, seen = _recorded_refinements(lambda: filled_region(B, 1.0, 1e-2))
    want, ref = _unpruned(lambda: filled_region(_OnePart(B), 1.0, 1e-2))
    _assert_same_refinements(seen, ref)
    assert got.bounds == want.bounds
    assert np.array_equal(got.passable, want.passable)
    assert np.array_equal(got.frontier, want.frontier)


def test_pruned_classifier_past_64_parts(monkeypatch):
    # 70 parts and the far flag need more bits than any numpy integer holds
    B = DiskCompact([RadialSlit(2 * math.pi * i / 70, 0.9) for i in range(70)])
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 6)
    _pruned_area_matches_unpruned(B, 1e-3, relative=False)


def _nests_the_whole_level_bracket(S, tol, relative) -> bool:
    """Whether neighborhood_area classified fewer cells than _refine, once its bracket holds _refine's."""
    goal = (lambda lo, up: tol * up) if relative else (lambda lo, up: tol)
    got, want = neighborhood_area(S, 1.0, tol, relative=relative), _refine(S, 1.0, goal)[1]
    assert got.lower <= want.lower <= want.upper <= got.upper
    assert got.cells_refined <= want.cells_refined
    assert got.tolerance_met or not want.tolerance_met
    if got.cells_refined == want.cells_refined:
        assert got == want
    return got.cells_refined < want.cells_refined


def test_area_bounds_nest_the_whole_level_bracket(monkeypatch):
    # neighborhood_area stops partway through its last level, so its bracket
    # holds the one of the refinement that splits whole levels, from fewer
    # cells, and is that one bit for bit when it classifies as many
    corpus = mixed_disk_corpus(4, 7) + mixed_halfplane_corpus(12, 7)
    fewer = sum(_nests_the_whole_level_bracket(S, 1e-3, True) for S in corpus)
    fewer += _nests_the_whole_level_bracket(generate_element("arcbox-set", 7, 1), 1e-3, False)
    # a silent return to whole levels would classify as many cells everywhere
    assert fewer > 0
    # capped at MAX_DEPTH, the whole-level refinement misses the goal
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 6)
    B = DiskCompact([RadialSlit(2 * math.pi * i / 70, 0.9) for i in range(70)])
    assert not _refine(B, 1.0, lambda lo, up: 1e-3)[1].tolerance_met
    _nests_the_whole_level_bracket(B, 1e-3, False)


NINE_SHAPE_HULL = HalfPlaneHull(
    [
        VSlit(-2.0, 0.6),
        BoxShape(-1.8, -1.5, 0.0, 0.3),
        HalfDisk(-1.0, 0.3),
        VSlit(-0.5, 1.2),
        BoxShape(-0.3, 0.1, 0.0, 0.8),
        HalfDisk(0.6, 0.4),
        VSlit(1.2, 0.2),
        BoxShape(1.4, 1.5, 0.0, 1.5),
        HalfDisk(2.2, 0.5),
    ]
)


def _ball_radius_bound(S, leaves, cells):
    """The classifier's bound rc on the hyperbolic radius of each cell, inf where no ball test applies."""
    x0, x1, y0, y1 = leaves.rects(cells)
    halfdiag = (x1 - x0) / SQRT2
    with np.errstate(divide="ignore"):
        if S.space == "halfplane":
            return np.where(y0 > 0, halfdiag / y0, np.inf)
        far = _modulus_range(x0, x1, y0, y1)[1]
        return np.where(far < 1.0, 2.0 * halfdiag / (1.0 - far * far), np.inf)


@pytest.mark.parametrize(
    "S, n_parts, settled_by",
    [
        (generate_element("radial-slit-set", 7, 0), 9, "reach"),
        (NINE_SHAPE_HULL, 9, "containment"),
        (ring(0.7), 1, "containment"),
        # wider than pi, with a gap of 0.004 rad: a depth-8 cell beside the
        # circle spans about 0.008 rad
        (DiskCompact([ArcBox(0.3, 0.3 + 2 * math.pi - 0.004, 0.7)]), 1, "containment"),
    ],
    ids=["S0", "S1", "S2", "S3"],
)
def test_classified_leaves_are_sound(monkeypatch, S, n_parts, settled_by):
    # every settled leaf is checked against exact membership at its corners,
    # its center and three seeded points: INSIDE leaves lie in N, OUTSIDE
    # leaves miss it
    assert len(S.parts) == n_parts
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 8)
    leaves, _ = _refine(S, 1.0, lambda lo, up: 0.0)
    assert leaves.depth_max == 8
    # some leaves are settled where no ball test can settle them: by the
    # cell reach across the circle, or by containment where rc >= rho
    # (touching the axis, rc is unbounded)
    if settled_by == "reach":
        near, far = _modulus_range(*leaves.rects(leaves.cls == quadtree.OUTSIDE))
        assert np.any((near < 1.0) & (far > 1.0))
    else:
        assert np.any(_ball_radius_bound(S, leaves, leaves.cls == quadtree.INSIDE) >= 1.0)
    u = np.concatenate([[0.0, 1.0, 0.0, 1.0, 0.5], np.random.default_rng(9).uniform(size=3)])
    v = np.concatenate([[0.0, 0.0, 1.0, 1.0, 0.5], np.random.default_rng(10).uniform(size=3)])
    for code, member in ((quadtree.INSIDE, True), (quadtree.OUTSIDE, False)):
        x0, x1, y0, y1 = leaves.rects(leaves.cls == code)
        pts = ((x0[:, None] + u * (x1 - x0)[:, None]) + 1j * (y0[:, None] + v * (y1 - y0)[:, None])).ravel()
        pts = pts[np.abs(pts) < 1.0] if S.space == "disk" else pts[pts.imag > 0]
        assert pts.size > 1000
        assert np.all(_member_mask(S, pts, 1.0) == member)
        for p in pts[:: pts.size // 20]:
            assert neighborhood_member(complex(p), S, 1.0) == member


@pytest.mark.parametrize(
    "S",
    [ring(0.7), generate_element("radial-slit-set", 7, 0), NINE_SHAPE_HULL],
    ids=["ring", "radial-slit-0", "nine-shape-hull"],
)
def test_gap_sums_the_unknown_leaves_inside_the_space(monkeypatch, S):
    # a disk refinement counts each UNKNOWN leaf by its in-disk area rounded
    # up, rim cells below side^2; a half-plane one counts every leaf whole
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 8)
    leaves, bounds = _refine(S, 1.0, lambda lo, up: 0.0)
    unknown = leaves.cls == quadtree.UNKNOWN
    area = math.ldexp(leaves.size, -leaves.depth_max) ** 2
    assert np.all(leaves.depth[unknown] == leaves.depth_max)
    if S.space == "disk":
        hi = _leaf_indisk_areas(leaves, unknown)[1]
        assert np.any((0.0 < hi) & (hi < area)) and np.any(hi == area)
        assert bounds.upper == bounds.lower + float(np.sum(hi))
    else:
        assert bounds.upper == bounds.lower + quadtree._sum_of(area, int(np.count_nonzero(unknown)))


@pytest.mark.parametrize("B", [ring(0.7), DiskCompact([ArcBox(0.4, 1.2, 0.75)])], ids=["ring", "arcbox"])
def test_disk_refinement_settles_cells_outside_the_closed_disk(B):
    # N lies in the open disk, so a cell whose least modulus exceeds 1 is
    # OUTSIDE and never split; some such cells have their centre within a
    # half-diagonal of the circle
    leaves, _ = _refine(B, 1.0, lambda lo, up: 1e-3)
    x0, x1, y0, y1 = leaves.rects(np.arange(leaves.cls.size))
    near = _modulus_range(x0, x1, y0, y1)[0]
    assert not np.any((leaves.cls == quadtree.UNKNOWN) & (near > 1.0))
    centre = np.hypot(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    assert np.any((near > 1.0) & (centre - 0.5 * np.hypot(x1 - x0, y1 - y0) <= 1.0))


def test_ring_annulus_lies_in_its_brackets():
    # N(ring(0.7)) at radius 1 is the annulus from tanh(atanh(0.7) - 1/2) to
    # the circle, and so is its filling
    inner = math.tanh(math.atanh(0.7) - 0.5)
    annulus = math.pi * (1.0 - inner * inner)
    for tol in (1e-2, 1e-3, 1e-4):
        b = neighborhood_area(ring(0.7), 1.0, tol, relative=True)
        assert b.tolerance_met and b.lower <= annulus <= b.upper
    b = filled_region(ring(0.7), 1.0, 2e-3).bounds
    assert b.tolerance_met and b.lower <= annulus <= b.upper


def _segment_reaches_disk(p0x, p0y, p1x, p1y) -> np.ndarray:
    """True where the segment from p0 to p1 has a point with |z| < 1, by projecting 0 onto it.

    The library asks the closed-rectangle rule (geom._modulus_range) of the
    shared edge instead; this reference stays independent of it.
    """
    dx = p1x - p0x
    dy = p1y - p0y
    den = dx * dx + dy * dy
    t = np.zeros_like(p0x)
    nz = den > 0
    t[nz] = np.clip(-(p0x[nz] * dx[nz] + p0y[nz] * dy[nz]) / den[nz], 0.0, 1.0)
    return np.hypot(p0x + t * dx, p0y + t * dy) < 1.0


def _full_graph_flood(leaves):
    """(reached_strict, reached_gen, frontier) over the contacts of every non-INSIDE cell.

    The reference for _flood_masks, whose graph holds only the cells that
    meet the closed disk: here the frontier, the cells with an edge contact
    to a reached one, drops the cells wholly outside it after the flood.
    """
    cls = leaves.cls
    n = cls.size
    free = cls == quadtree.OUTSIDE
    origin = _cell_of_origin(leaves)
    pi, pj, edge = quadtree.adjacency_pairs(leaves, cls != quadtree.INSIDE)
    (xi0, xi1, yi0, yi1), (xj0, xj1, yj0, yj1) = leaves.rects(pi), leaves.rects(pj)
    strict = (
        edge
        & free[pi]
        & free[pj]
        & _segment_reaches_disk(
            np.maximum(xi0, xj0), np.maximum(yi0, yj0), np.minimum(xi1, xj1), np.minimum(yi1, yj1)
        )
    )

    def reached(passable, keep):
        graph = sparse.coo_matrix((np.ones(np.count_nonzero(keep)), (pi[keep], pj[keep])), shape=(n, n))
        labels = connected_components(graph, directed=False)[1]
        return passable & (labels == labels[origin])

    assert free[origin]
    reached_strict = reached(free, strict)
    reached_gen = reached(cls != quadtree.INSIDE, np.ones(pi.size, dtype=bool))
    ei, ej = pi[edge], pj[edge]
    frontier = np.zeros(n, dtype=bool)
    frontier[ej[reached_strict[ei] & ~reached_strict[ej]]] = True
    frontier[ei[reached_strict[ej] & ~reached_strict[ei]]] = True
    frontier &= _modulus_range(*leaves.rects(np.arange(n)))[0] <= 1.0
    return reached_strict, reached_gen, frontier


@pytest.mark.parametrize(
    "B, rho, max_depth, shrinks",
    [
        (FRAME, 0.05, 8, False),
        (generate_element("radial-slit-set", 7, 0), 1.0, 8, True),
        (DiskCompact([ArcBox(0.4, 1.2, 0.75)]), 1.0, quadtree.MAX_DEPTH, True),
    ],
    ids=["rectset-frame", "radial-slit-0", "arcbox"],
)
def test_flood_over_cells_meeting_the_disk_matches_full_graph(monkeypatch, B, rho, max_depth, shrinks):
    # dropping the cells wholly outside the closed disk from the contact
    # graph keeps the passable cells and the frontier, and can only shrink
    # the generous flood, which can only raise the lower bound
    monkeypatch.setattr(quadtree, "MAX_DEPTH", max_depth)
    leaves, nb = _refine(B, rho, lambda lo, up: 1e-3)
    got, want = _flood_masks(leaves), _full_graph_flood(leaves)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert not np.any(got[1] & ~want[1])
    lost = want[1] & ~got[1]
    assert np.any(lost) == shrinks
    free = leaves.cls == quadtree.OUTSIDE
    lo = _leaf_indisk_areas(leaves, np.arange(free.size))[0]
    lower, full_lower = (nb.lower + float(np.sum(lo[free & ~gen])) for gen in (got[1], want[1]))
    assert lower >= full_lower
    # here the flood loses only cells wholly outside the disk, so the
    # bounds stay equal
    assert np.all(_modulus_range(*leaves.rects(lost))[0] > 1.0)
    assert lower == full_lower
