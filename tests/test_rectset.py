"""RectSet distance queries: a brute-force oracle and a memory bound."""

import math
import tracemalloc

import numpy as np
import pytest

from hypcap import geom, hyperbolic, quadtree
from hypcap.capacity import ring
from hypcap.geom import ArcBox, DiskCompact
from hypcap.hyperbolic import RectSet, filled_region
from hypcap.wos import DiskDomain, run_walks


def _rect_dist(S, z, i):
    """Distance from each point of z to the rectangle i of S (i per point, or all of S)."""
    x, y = z.real[:, None], z.imag[:, None]
    dx = np.maximum(np.maximum(S.x0[i] - x, x - S.x1[i]), 0.0)
    dy = np.maximum(np.maximum(S.y0[i] - y, y - S.y1[i]), 0.0)
    return np.hypot(dx, dy)


def _brute(S, z):
    """Exact distance by scanning every rectangle."""
    return _rect_dist(S, z, slice(None)).min(axis=1)


def _at_distance(S, z, label, dist):
    """True where the rectangle label lies at exactly dist from z."""
    return _rect_dist(S, z, label[:, None])[:, 0] == dist


def _mixed_union(seed, t=0j):
    """Random rectangles with sides from 1e-4 to 0.05, a dyadic grid and a ring of cells, moved by t."""
    rng = np.random.default_rng(seed)
    n = 2500
    w = 10.0 ** rng.uniform(-4.0, np.log10(0.05), n)
    h = w * rng.uniform(0.5, 2.0, n)
    cx, cy = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    rects = [np.stack([cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2], axis=1)]
    # 20 x 20 cells sharing edges and corners: exact ties at zero and positive distance
    s = 2.0**-8
    gx, gy = np.meshgrid(np.arange(20) * s + 0.25, np.arange(20) * s - 0.5)
    gx, gy = gx.ravel(), gy.ravel()
    rects.append(np.stack([gx, gx + s, gy, gy + s], axis=1))
    # 400 cells centered on a circle about 1.6 + 1.6j, clear of the others:
    # from its center no k-NN pass can certify, so the octave is scanned
    t_ring = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    rx, ry = 1.6 + 0.4 * np.cos(t_ring), 1.6 + 0.4 * np.sin(t_ring)
    rects.append(np.stack([rx - 1e-3, rx + 1e-3, ry - 1e-3, ry + 1e-3], axis=1))
    rects = np.concatenate(rects)
    # every tenth rectangle again, shuffled: exact ties between identical rectangles
    rects = np.concatenate([rects, rects[::10]])
    rects = rects[rng.permutation(len(rects))]
    rects += [t.real, t.real, t.imag, t.imag]
    return RectSet(*rects.T), rng


@pytest.mark.parametrize(
    "seed, t, atol",
    [
        pytest.param(3, 0j, 1e-12, id="3"),
        pytest.param(17, 0j, 1e-12, id="17"),
        # at 1e6 + 1e6j the centers, center distances and half-diagonals
        # round at 1.2e-10, far above an absolute margin of 1e-12: the
        # certification margin must grow with the coordinates (geom.ROUNDING)
        pytest.param(3, 1e6 + 1e6j, 1e-9, id="translated"),
    ],
)
def test_rectset_matches_brute_force(monkeypatch, seed, t, atol):
    S, rng = _mixed_union(seed, t)
    sides = np.maximum(S.x1 - S.x0, S.y1 - S.y0)
    assert sides.max() / sides.min() >= 256
    # several tree octaves and a brute-force block: the one union that runs
    # more than one k-NN loop per query
    assert len(S._trees) >= 2 and S._small.size > 0
    i = rng.integers(0, S.x0.size, 300)
    u = rng.uniform(0.0, 1.0, 300)
    z = np.concatenate(
        [
            t + rng.uniform(-1.2, 1.2, 1500) + 1j * rng.uniform(-1.2, 1.2, 1500),
            S.x0[i] + u * (S.x1[i] - S.x0[i]) + 1j * (S.y0[i] + u * (S.y1[i] - S.y0[i])),  # inside
            S.x0[i] + 1j * (S.y0[i] + u * (S.y1[i] - S.y0[i])),  # on a left edge
            S.x1[i] + 1j * S.y1[i],  # on a corner
            S.x0[i] - 0.01 + 1j * S.y0[i],  # level with a corner
            np.full(50, t + (1.6 + 1.6j)),  # coincident points at the ring's center
            np.full(50, t + (0.25 - 0.5j)),  # coincident points on the grid's corner
            t + (1.6 + 1.6j) + 1e-3 * (rng.uniform(-1.0, 1.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)),  # near it
        ]
    )
    dist, label, point = S.nearest(z)
    want_dist = _brute(S, z)
    assert np.array_equal(dist, want_dist)
    # duplicated rectangles and shared corners tie: any rectangle at dist will do
    assert np.all(_at_distance(S, z, label, dist))
    assert np.array_equal(S.dist(z), want_dist)
    assert np.allclose(np.abs(point - z), dist, rtol=0.0, atol=atol)
    # an infinite margin certifies nothing early: every octave is scanned
    monkeypatch.setattr(geom, "ROUNDING", math.inf)
    plain_dist, _, plain_point = S.nearest(z)
    assert np.array_equal(plain_dist, dist) and np.array_equal(plain_point, point)


def test_rectset_ring_walk_points_match_brute_force():
    S = RectSet(*filled_region(ring(0.7), 1.0, 1e-2).blocked_rects())
    rng = np.random.default_rng(5)
    z = np.concatenate([[0j], 0.3 * np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 200))])
    dist, label, _ = S.nearest(z)
    assert np.array_equal(dist, _brute(S, z))
    assert np.all(_at_distance(S, z, label, dist))


def test_rectset_tree_matches_brute_force_on_walk_traffic(monkeypatch):
    # near the origin the frontier's inner edge is an almost equidistant arc:
    # the k-NN loop's hardest case, and the walks' first steps
    rects = filled_region(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), 1, 2e-3).blocked_rects()
    S = RectSet(*rects)
    assert len(S._trees) == 1
    rng = np.random.default_rng(11)
    z = 0.3 * np.sqrt(rng.uniform(0.0, 1.0, 500)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 500))
    assert np.array_equal(S.dist(z), _brute(S, z))
    monkeypatch.setattr(hyperbolic, "_TREE_MIN", rects[0].size)
    brute = RectSet(*rects)
    assert not brute._trees
    for threads in (1, 2):
        a = run_walks(DiskDomain(S), 0j, 200, seed=7000, threads=threads)
        b = run_walks(DiskDomain(brute), 0j, 200, seed=7000, threads=threads)
        for field in ("terminals", "steps", "stop_dists", "flagged"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert np.array_equal(a.labels >= 0, b.labels >= 0)


def test_frontier_cells_outside_the_disk_change_no_walk():
    # the frontier keeps no cell wholly outside the closed disk, whose
    # distance from a walk in the disk exceeds the circle's, and no cell
    # that touches a passable one only at a corner, which shares that
    # corner with a frontier cell (FilledRegion).  flood is every blocked
    # cell that touches a passable one
    fr = filled_region(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), 1, 2e-3)
    pi, pj, edge = quadtree.adjacency_pairs(fr.leaves, fr.leaves.cls != quadtree.INSIDE)
    flood = np.zeros(fr.passable.size, dtype=bool)
    by_edge = np.zeros(fr.passable.size, dtype=bool)
    for i, j in ((pi, pj), (pj, pi)):
        flood[j[fr.passable[i]]] = True
        by_edge[j[fr.passable[i] & edge]] = True
    flood &= ~fr.passable
    dropped = flood & ~fr.frontier
    assert not np.any(fr.frontier & ~flood) and np.any(dropped)
    x0, x1, y0, y1 = fr.leaves.rects(dropped)
    outside = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1)) > 1.0
    assert np.any(outside) and np.any(~outside)
    assert not np.any(by_edge[dropped][~outside])
    kept, every = RectSet(*fr.blocked_rects()), RectSet(*fr.leaves.rects(flood))
    for threads in (1, 2):
        a = run_walks(DiskDomain(kept), 0j, 2000, seed=7000, threads=threads)
        b = run_walks(DiskDomain(every), 0j, 2000, seed=7000, threads=threads)
        for field in ("terminals", "steps", "stop_dists", "flagged"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert np.array_equal(a.labels >= 0, b.labels >= 0)


def test_rectset_query_memory_is_bounded():
    # the frontier's inner edge is an arc about 0: 985 of its 6,501 cells
    # lie within the largest cell's half-diagonal of the nearest distance,
    # so a query's memory must not grow with the k it reaches
    S = RectSet(*filled_region(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), 1, 2e-3).blocked_rects())
    z = np.zeros(4096, complex)
    tracemalloc.start()
    try:
        d = S.dist(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert np.all(d == _brute(S, z[:1])[0])
