"""Hyperbolic metric (curvature -1) on the half-plane and the unit disk.

Conventions: density 1/Im z on the half-plane and 2/(1 - |z|^2) on the
disk, so the Moebius transport maps between the two spaces are isometries
and "radius one" means the same thing on both sides.

Hyperbolic balls are euclidean disks with closed-form center and radius,
so z lies in the rho-neighborhood of S exactly when the euclidean distance
from S to the center of the rho-ball about z is at most its radius: one
distance test, and no iterative minimization of the hyperbolic distance
enters the certification chain.  Neighborhood areas are bracketed by an
adaptive quadtree whose cell tests use the exact ball membership at radii
shrunk/grown by a certified bound on the cell's hyperbolic radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import quadtree
from .geom import Obstacle, Point, _as_complex, require_obstacle
from .quadtree import INSIDE, OUTSIDE, UNKNOWN, AreaBounds, Leaves

SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """A point lies outside the space an operation requires."""


# ---------------------------------------------------------------------------
# distances and balls
# ---------------------------------------------------------------------------


def _finite_point(z: Point | complex) -> complex:
    a = z.z if isinstance(z, Point) else complex(z)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise DomainError(f"point must be finite, got {a!r}")
    return a


def hyp_dist_h(z: Point | complex, w: Point | complex) -> float:
    """Hyperbolic distance in the upper half-plane."""
    a, b = _finite_point(z), _finite_point(w)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainError("hyp_dist_h needs points with positive imaginary part")
    q = abs(a - b) ** 2 / (2.0 * a.imag * b.imag)
    return math.acosh(1.0 + q)


def hyp_dist_d(z: Point | complex, w: Point | complex) -> float:
    """Hyperbolic distance in the unit disk."""
    a, b = _finite_point(z), _finite_point(w)
    if abs(a) >= 1 or abs(b) >= 1:
        raise DomainError("hyp_dist_d needs points inside the open unit disk")
    p = abs(a - b) / abs(1.0 - a.conjugate() * b)
    return 2.0 * math.atanh(p)


def _ball_halfplane(z: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    y = z.imag
    c = z.real + 1j * (y * np.cosh(rho))
    return c, y * np.sinh(rho)


def _ball_disk(z: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    t = np.tanh(np.asarray(rho) / 2.0)
    a2 = np.abs(z) ** 2
    den = 1.0 - t * t * a2
    return z * (1.0 - t * t) / den, t * (1.0 - a2) / den


_BALLS = {"halfplane": _ball_halfplane, "disk": _ball_disk}


def _member_mask(S: Obstacle, z: np.ndarray, rho) -> np.ndarray:
    """Exact N-membership for an array of points (rho may be per-point)."""
    c, r = _BALLS[S.space](z, rho)
    return S.dist(c) <= r


def neighborhood_member(z: Point | complex, S: Obstacle, rho: float = 1.0) -> bool:
    """True iff z lies in the closed hyperbolic rho-neighborhood of S."""
    require_obstacle(S)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive and finite")
    a = _finite_point(z)
    if S.space == "halfplane" and a.imag <= 0:
        raise DomainError("point must lie in the open half-plane")
    if S.space == "disk" and abs(a) >= 1:
        raise DomainError("point must lie in the open unit disk")
    return bool(_member_mask(S, np.asarray([a]), rho)[0])


# ---------------------------------------------------------------------------
# certified reach bounds (how far, in euclidean terms, N can extend from S)
# ---------------------------------------------------------------------------


def _reach_halfplane(rho: float, y_max: float) -> float:
    # the farthest euclidean displacement of a radius-rho ball from its
    # hyperbolic center (x, y) is y (e^rho - 1)
    return (math.exp(rho) - 1.0) * y_max


def _reach_disk(rho: float, min_abs: float) -> float:
    # displacement t (1 - s^2) / (1 - t s) at |center| = s, bounded using
    # s >= min_abs in the numerator and s <= 1 in the denominator
    t = math.tanh(rho / 2.0)
    return t * (1.0 - min_abs * min_abs) / (1.0 - t)


# ---------------------------------------------------------------------------
# neighborhood area
# ---------------------------------------------------------------------------


def _settle_halfplane(z, half, halfdiag, out):
    """(cells the ball tests can settle, bound on their hyperbolic radius)."""
    ymin = z.imag - half
    test = (out == UNKNOWN) & (ymin > 0)
    return test, halfdiag[test] / ymin[test]


def _settle_disk(z, half, halfdiag, out):
    # cells fully outside the closed disk cannot meet N
    out[(np.abs(z) - halfdiag) > 1.0] = OUTSIDE
    maxabs = np.hypot(np.abs(z.real) + half, np.abs(z.imag) + half)
    test = (out == UNKNOWN) & (maxabs < 1.0)
    dens = 2.0 / (1.0 - maxabs[test] ** 2)
    return test, halfdiag[test] * dens


def _classifier(S: Obstacle, rho: float):
    """Sound quadtree classifier for the rho-neighborhood of S.

    A cell whose center c has hyperbolic radius at most rc over the cell is
    OUTSIDE when the (rho + rc)-ball about c misses S, and INSIDE when the
    (rho - rc)-ball meets it.
    """
    if S.space == "halfplane":
        reach, settle = _reach_halfplane(rho, S.y_max), _settle_halfplane
    else:
        reach, settle = _reach_disk(rho, S.min_abs), _settle_disk

    def classify(cx, cy, half):
        z = cx + 1j * cy
        halfdiag = half * SQRT2
        out = np.full(cx.shape, UNKNOWN, dtype=np.int8)
        d = S.dist(z)
        out[d - halfdiag > reach] = OUTSIDE
        test, rc = settle(z, half, halfdiag, out)
        if np.any(test):
            zc = z[test]
            sub = np.full(zc.shape, UNKNOWN, dtype=np.int8)
            grown = _member_mask(S, zc, rho + rc)
            sub[~grown] = OUTSIDE
            can_in = (rc < rho) & (sub == UNKNOWN)
            if np.any(can_in):
                shrunk = _member_mask(S, zc[can_in], rho - rc[can_in])
                tmp = sub[can_in]
                tmp[shrunk] = INSIDE
                sub[can_in] = tmp
            out[test] = sub
        return out

    return classify


def _root_square_halfplane(S, rho: float) -> tuple[float, float, float]:
    pad = _reach_halfplane(rho, S.y_max)
    x_lo, x_hi = S.x_bounds
    x_lo -= pad * 1.01
    x_hi += pad * 1.01
    top = S.y_max * math.exp(rho) * 1.01
    size = max(x_hi - x_lo, top)
    return x_lo, 0.0, size


def _check_rho_tol(rho: float, tol: float) -> None:
    if not all(v > 0 and math.isfinite(v) for v in (rho, tol)):
        raise ValueError("rho and tol must be positive and finite")


def neighborhood_area(
    S: Obstacle,
    rho: float = 1.0,
    tol: float = 1e-3,
    relative: bool = False,
    max_depth: int = 24,
) -> AreaBounds:
    """Certified bounds on the euclidean area of the rho-neighborhood of S."""
    require_obstacle(S)
    _check_rho_tol(rho, tol)
    if S.is_empty:
        return AreaBounds(0.0, 0.0, 0, True)
    if S.space == "halfplane":
        gx0, gy0, size = _root_square_halfplane(S, rho)
    else:
        gx0, gy0, size = -1.05, -1.05, 2.10
    goal = (lambda lo, up: tol * up) if relative else (lambda lo, up: tol)
    _, bounds = quadtree.refine(gx0, gy0, size, _classifier(S, rho), goal, max_depth)
    return bounds


# ---------------------------------------------------------------------------
# filled neighborhoods
# ---------------------------------------------------------------------------


@dataclass
class FilledRegion:
    """Quadtree description of the filled neighborhood of a disk compact.

    Cells certified free of N that are grid-connected to the cell holding
    the origin form the *passable* region, a guaranteed subset of the
    complement of the filled neighborhood; everything else is *blocked*.
    """

    leaves: Leaves
    bounds: AreaBounds
    passable: np.ndarray

    def blocked_rects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Geometric rects of blocked cells adjacent to the passable region.

        Only cells meeting the closed bounding box of the passable cells can
        touch one, so the adjacency runs over those alone; the box is taken
        in the exact integer coordinates of the quadtree.
        """
        frontier = np.zeros(self.passable.shape, dtype=bool)
        if self.passable.any():
            X0, X1, Y0, Y1 = self.leaves.int_rects()
            p = self.passable
            near = (X1 >= X0[p].min()) & (X0 <= X1[p].max()) & (Y1 >= Y0[p].min()) & (Y0 <= Y1[p].max())
            pi, pj = quadtree.adjacency_pairs(self.leaves, near, corners=True)
            blocked = ~p
            frontier[pj[p[pi] & blocked[pj]]] = True
            frontier[pi[p[pj] & blocked[pi]]] = True
        x0, x1, y0, y1 = self.leaves.rects()
        return x0[frontier], x1[frontier], y0[frontier], y1[frontier]


def _segment_reaches_disk(p0x, p0y, p1x, p1y) -> np.ndarray:
    """True when the segment has a point with |z| < 1 (vectorized)."""
    dx = p1x - p0x
    dy = p1y - p0y
    den = dx * dx + dy * dy
    t = np.zeros_like(p0x)
    nz = den > 0
    t[nz] = np.clip(-(p0x[nz] * dx[nz] + p0y[nz] * dy[nz]) / den[nz], 0.0, 1.0)
    qx = p0x + t * dx
    qy = p0y + t * dy
    return np.hypot(qx, qy) < 1.0


def _cell_of_origin(leaves: Leaves) -> int:
    x0, x1, y0, y1 = leaves.rects()
    hit = np.flatnonzero((x0 <= 0.0) & (0.0 < x1) & (y0 <= 0.0) & (0.0 < y1))
    if hit.size == 0:
        raise RuntimeError("origin not covered by the refinement root")
    return int(hit[0])


def _flood_masks(leaves: Leaves, cls: np.ndarray):
    """(reached_strict, reached_generous) connectivity to the origin cell."""
    n = cls.size
    free = cls == OUTSIDE
    origin = _cell_of_origin(leaves)

    def components(passable: np.ndarray, corners: bool, check_edges: bool) -> np.ndarray:
        if not passable[origin]:
            return np.zeros(n, dtype=bool)
        pi, pj = quadtree.adjacency_pairs(leaves, passable, corners=corners)
        if check_edges and pi.size:
            x0, x1, y0, y1 = leaves.rects()
            ex0 = np.maximum(x0[pi], x0[pj])
            ex1 = np.minimum(x1[pi], x1[pj])
            ey0 = np.maximum(y0[pi], y0[pj])
            ey1 = np.minimum(y1[pi], y1[pj])
            ok = _segment_reaches_disk(ex0, ey0, ex1, ey1)
            pi, pj = pi[ok], pj[ok]
        graph = sparse.coo_matrix(
            (np.ones(pi.size, dtype=np.int8), (pi, pj)), shape=(n, n)
        )
        _, labels = connected_components(graph, directed=False)
        return passable & (labels == labels[origin])

    reached_strict = components(free, corners=False, check_edges=True)
    # a genuine path in the disk complement only ever crosses free or
    # unknown cells, possibly through corners
    reached_gen = components(free | (cls == UNKNOWN), corners=True, check_edges=False)
    return reached_strict, reached_gen


def _unit_disk_chord_integral(x: float) -> float:
    """Antiderivative of sqrt(1 - x^2) on [-1, 1]."""
    x = max(-1.0, min(1.0, x))
    return 0.5 * (x * math.sqrt(max(1.0 - x * x, 0.0)) + math.asin(x))


def circle_rect_area(a: float, b: float, c: float, d: float) -> float:
    """Exact area of [a, b] x [c, d] intersected with the unit disk."""
    a, b = max(a, -1.0), min(b, 1.0)
    if a >= b or c >= 1.0 or d <= -1.0:
        return 0.0
    cuts = {a, b}
    for yy in (c, d):
        if -1.0 < yy < 1.0:
            t = math.sqrt(1.0 - yy * yy)
            for x in (-t, t):
                if a < x < b:
                    cuts.add(x)
    xs = sorted(cuts)
    total = 0.0
    for lo, hi in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (lo + hi)
        s_mid = math.sqrt(max(1.0 - mid * mid, 0.0))
        top_const = d <= s_mid
        bot_const = c >= -s_mid
        top_mid = d if top_const else s_mid
        bot_mid = c if bot_const else -s_mid
        if top_mid <= bot_mid:
            continue
        seg = _unit_disk_chord_integral(hi) - _unit_disk_chord_integral(lo)
        width = hi - lo
        val = (d * width if top_const else seg) - (c * width if bot_const else -seg)
        total += val
    return total


def _disk_rect_areas(a, b, c, d) -> np.ndarray:
    """Area of [a, b] x [c, d] intersected with the unit disk, elementwise.

    The area is P(b, d) - P(a, d) - P(b, c) + P(a, c), where P(x, y) is the
    integral over u in [-1, x] of clip(y, -s(u), s(u)), s(u) = sqrt(1 - u^2).
    For |y| = h the integrand is h where |u| < t = sqrt(1 - h^2) and s(u)
    beyond, so P splits at -t and t into closed forms.  circle_rect_area is
    the scalar reference.
    """

    def chord(u):
        # antiderivative of s(u)
        return 0.5 * (u * np.sqrt(np.maximum(1.0 - u * u, 0.0)) + np.arcsin(u))

    def P(x, y):
        x = np.clip(x, -1.0, 1.0)
        h = np.minimum(np.abs(y), 1.0)
        t = np.sqrt(1.0 - h * h)
        ends = chord(np.minimum(x, -t)) + math.pi / 4.0 + chord(np.maximum(x, t)) - chord(t)
        return np.sign(y) * (ends + h * (np.clip(x, -t, t) + t))

    return P(b, d) - P(a, d) - P(b, c) + P(a, c)


def _indisk_areas(leaves: Leaves) -> np.ndarray:
    """Exact area of each cell's intersection with the closed unit disk."""
    x0, x1, y0, y1 = leaves.rects()
    areas = leaves.areas()
    far = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    near = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))
    out = np.where(far <= 1.0, areas, 0.0)
    i = np.flatnonzero((far > 1.0) & (near < 1.0))
    out[i] = _disk_rect_areas(x0[i], x1[i], y0[i], y1[i])
    return out


def filled_region(
    B: Obstacle,
    rho: float = 1.0,
    tol: float = 1e-3,
    max_depth: int = 24,
) -> FilledRegion:
    """Refine until the filled-neighborhood area bracket is tol-tight."""
    require_obstacle(B, "disk")
    _check_rho_tol(rho, tol)
    if neighborhood_member(0j, B, rho):
        raise DomainError("the origin lies in the rho-neighborhood; filling undefined")

    classify = _classifier(B, rho)
    goal = tol / 2.0
    prev_gap = math.inf
    while True:
        leaves, n_bounds = quadtree.refine(
            -1.05, -1.05, 2.10, classify, lambda lo, up: goal, max_depth
        )
        reached_strict, reached_gen = _flood_masks(leaves, leaves.cls)
        free = leaves.cls == OUTSIDE
        indisk = _indisk_areas(leaves)
        fill_lo = float(np.sum(indisk[free & ~reached_gen]))
        fill_hi = float(np.sum(indisk[free & ~reached_strict]))
        lower = n_bounds.lower + fill_lo
        upper = n_bounds.upper + fill_hi
        gap = upper - lower
        met = gap <= tol
        # a pinched boundary can leave the trapped-or-not status of a pocket
        # undecidable at any finite depth; stop once refining stops helping
        plateau = gap >= 0.7 * prev_gap
        done = met or not n_bounds.tolerance_met or plateau or goal < tol / 64.0
        if done:
            passable = reached_strict
            bounds = AreaBounds(lower, upper, n_bounds.cells_refined, met)
            return FilledRegion(leaves, bounds, passable)
        prev_gap = gap
        goal /= 4.0


# ---------------------------------------------------------------------------
# distance queries against unions of rectangles (walk support for filled sets)
# ---------------------------------------------------------------------------


# a RectSet query holds at most this many (point, rectangle) entries at once
_QUERY_BLOCK = 1 << 18
# octaves with at most this many rectangles share one brute-force block
_TREE_MIN = 256
# margin on the certification bound: far above the rounding of coordinates
# in [-1.05, 1.05], far below any cell size
_CERT_SLACK = 1e-12


class RectSet(Obstacle):
    """Exact distance to a finite union of axis-aligned rectangles.

    The rectangles are grouped by octave of half-diagonal h.  An octave
    with more than _TREE_MIN rectangles gets a cKDTree on their centers;
    the others share one block that every query scans by brute force.  A
    k-NN pass on an octave's tree is certified for a point once the best
    distance found so far, over all groups, is below d_k - h_max (less
    _CERT_SLACK): d_k is the k-th center distance and h_max the octave's
    largest half-diagonal, so every rectangle past the k-th center is at
    least that far away.  Open points retry with 4k neighbours and scan the
    whole octave once 16k reaches its size.  Like-sized octaves keep k
    small where one global h_max drove it toward the number of rectangles.

    Each pass runs in blocks of at most _QUERY_BLOCK (point, rectangle)
    entries, so a query allocates O(points) plus a constant, whatever the
    number of rectangles and however high k climbs.  dist is the exact
    minimum over all rectangles, bit-identical to a brute-force scan; the
    label of nearest is the lowest index among the rectangles at exactly
    that distance.
    """

    space = "disk"
    is_empty = False

    def __init__(self, x0, x1, y0, y1):
        self.x0 = np.asarray(x0, dtype=float)
        self.x1 = np.asarray(x1, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        self.y1 = np.asarray(y1, dtype=float)
        if self.x0.size == 0:
            raise ValueError("RectSet needs at least one rectangle")
        cx = 0.5 * (self.x0 + self.x1)
        cy = 0.5 * (self.y0 + self.y1)
        half = 0.5 * np.hypot(self.x1 - self.x0, self.y1 - self.y0)
        octave = np.frexp(half)[1]
        # (tree on the centers, rectangle indices, largest half-diagonal)
        self._trees = []
        small = []
        for e in np.unique(octave):
            idx = np.flatnonzero(octave == e)
            if idx.size <= _TREE_MIN:
                small.append(idx)
            else:
                tree = cKDTree(np.column_stack([cx[idx], cy[idx]]))
                self._trees.append((tree, idx, float(half[idx].max())))
        self._small = np.sort(np.concatenate(small)) if small else np.empty(0, dtype=np.int64)
        self.min_abs = float(
            np.min(
                np.hypot(
                    np.clip(0.0, self.x0, self.x1),
                    np.clip(0.0, self.y0, self.y1),
                )
            )
        )

    def _merge(self, z, rows, cand, dist, best) -> None:
        """Fold the exact distances from z[rows] to the rectangles cand into (dist, best).

        cand holds one row of rectangle indices per point, or a single row
        shared by all of them.
        """
        zr = z.real[rows, None]
        zi = z.imag[rows, None]
        dx = np.maximum(np.maximum(self.x0[cand] - zr, zr - self.x1[cand]), 0.0)
        dy = np.maximum(np.maximum(self.y0[cand] - zi, zi - self.y1[cand]), 0.0)
        d = np.hypot(dx, dy)
        m = d.min(axis=1)
        label = np.where(d == m[:, None], cand, self.x0.size).min(axis=1)
        cur = dist[rows]
        better = (m < cur) | ((m == cur) & (label < best[rows]))
        dist[rows[better]] = m[better]
        best[rows[better]] = label[better]

    def _scan(self, z, rows, cols, dist, best) -> None:
        """Brute force from z[rows] over the rectangles cols, block by block."""
        width = min(cols.size, _QUERY_BLOCK)
        height = max(1, _QUERY_BLOCK // width)
        for j in range(0, cols.size, width):
            c = cols[None, j : j + width]
            for i in range(0, rows.size, height):
                self._merge(z, rows[i : i + height], c, dist, best)

    def _query(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distance, index of the nearest rectangle) per point of the 1-D array z."""
        dist = np.full(z.shape, np.inf)
        best = np.zeros(z.shape, dtype=np.int64)
        every = np.arange(z.size)
        if self._small.size:
            self._scan(z, every, self._small, dist, best)
        pts = np.column_stack([z.real, z.imag])
        # (tree group, points it has not certified, k): one pass per group and
        # round, then certify against the best distance over all groups
        state = [(group, every, 8) for group in self._trees]
        while state:
            kth = []
            for (tree, idx, _), rows, k in state:
                d_k = np.empty(rows.size)
                height = max(1, _QUERY_BLOCK // k)
                for i in range(0, rows.size, height):
                    r = rows[i : i + height]
                    d_center, near = tree.query(pts[r], k=k)
                    self._merge(z, r, idx[near.reshape(r.size, k)], dist, best)
                    d_k[i : i + height] = d_center.reshape(r.size, k)[:, -1]
                kth.append(d_k)
            pending = []
            for (group, rows, k), d_k in zip(state, kth):
                _, idx, h_max = group
                rows = rows[~(dist[rows] < d_k - h_max - _CERT_SLACK)]
                if rows.size == 0:
                    continue
                if 16 * k >= idx.size or 4 * k > _QUERY_BLOCK:
                    self._scan(z, rows, idx, dist, best)
                else:
                    pending.append((group, rows, 4 * k))
            state = pending
        return dist, best

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        return self._query(z.ravel())[0].reshape(z.shape)

    def nearest(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = _as_complex(z)
        flat = z.ravel()
        dist, best = self._query(flat)
        nx = np.clip(flat.real, self.x0[best], self.x1[best])
        ny = np.clip(flat.imag, self.y0[best], self.y1[best])
        return dist.reshape(z.shape), best.reshape(z.shape), (nx + 1j * ny).reshape(z.shape)
