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
shrunk/grown by a certified bound on the cell's hyperbolic radius, a
bound on how far N reaches from S within the cell, and exact containment
of the cell in a shape of S.  N lies in the open disk, so in the disk an
unsettled cell across the circle counts only its area inside the disk,
rounded up, and the floods that fill a neighborhood run only over cells
that meet the closed disk.

Only filled_region and RectSet use scipy: _flood_masks imports
scipy.sparse.csgraph for its floods and RectSet imports scipy.spatial for
its k-d trees, each where it is used.  So importing hypcap, the walks, the
capacity estimators, neighborhood_area and the dyadic, Whitney and
Lipschitz covers load no scipy module.  With the three imports at the top
of this module, "import hypcap" took 0.47 s and left a 69 MB max RSS;
without them it takes 0.16 s and 30 MB (Python 3.11, numpy 2.4.6, scipy
1.17.1, 2-core x86 VM, three runs each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom, quadtree
from .geom import Obstacle, _as_complex, _modulus_range, require_obstacle
from .quadtree import INSIDE, OUTSIDE, UNKNOWN, AreaBounds, Leaves

SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """A point lies outside the space an operation requires."""


# ---------------------------------------------------------------------------
# distances and balls
# ---------------------------------------------------------------------------


def _finite_point(z: complex) -> complex:
    a = complex(z)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise DomainError(f"point must be finite, got {a!r}")
    return a


def hyp_dist_h(z: complex, w: complex) -> float:
    """Hyperbolic distance in the upper half-plane."""
    a, b = _finite_point(z), _finite_point(w)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainError("hyp_dist_h needs points with positive imaginary part")
    q = abs(a - b) ** 2 / (2.0 * a.imag * b.imag)
    return math.acosh(1.0 + q)


def hyp_dist_d(z: complex, w: complex) -> float:
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


def neighborhood_member(z: complex, S: Obstacle, rho: float = 1.0) -> bool:
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


# A point z of N lies within its own rho-ball's reach of S, Im z (e^rho - 1)
# or t (1 - |z|^2) / (1 - t), so a cell's points of N lie within the reach at
# its highest point or least modulus.  Each function returns that bound and
# the bound at the lowest point or greatest modulus, below which no
# descendant's bound falls.  Moduli are clipped to 1 (N lies in the disk),
# which keeps both bounds >= 0 and monotone under descent.


def _cell_reach_halfplane(rho, cx, cy, half):
    return _reach_halfplane(rho, cy + half), _reach_halfplane(rho, cy - half)


def _cell_reach_disk(rho, cx, cy, half):
    near, far = _modulus_range(cx - half, cx + half, cy - half, cy + half)
    return _reach_disk(rho, np.minimum(near, 1.0)), _reach_disk(rho, np.minimum(far, 1.0))


# ---------------------------------------------------------------------------
# neighborhood area
# ---------------------------------------------------------------------------


def _settle_halfplane(z, half, halfdiag, out):
    """(cells the ball tests can settle, bound on their hyperbolic radius)."""
    ymin = z.imag - half
    test = (out == UNKNOWN) & (ymin > 0)
    return test, halfdiag / ymin[test]


def _settle_disk(z, half, halfdiag, out):
    # cells wholly outside the closed disk cannot meet N; their centres lie
    # outside it, so only those cells need their least modulus
    c = np.flatnonzero(np.abs(z) > 1.0)
    x, y = z.real[c], z.imag[c]
    out[c[_modulus_range(x - half, x + half, y - half, y + half)[0] > 1.0]] = OUTSIDE
    maxabs = np.hypot(np.abs(z.real) + half, np.abs(z.imag) + half)
    test = (out == UNKNOWN) & (maxabs < 1.0)
    dens = 2.0 / (1.0 - maxabs[test] ** 2)
    return test, halfdiag * dens


def _classifier(S: Obstacle, rho: float):
    """Sound quadtree classifier for the rho-neighborhood of S.

    settle bounds the hyperbolic radius of a cell about its center c by
    rc = halfdiag x (a bound on the density over the cell).  A cell is
    OUTSIDE when the centre test d - halfdiag > reach_c fires (d = dist(c))
    or when the grown (rho + rc)-ball about c misses S, and INSIDE when the
    shrunk (rho - rc)-ball meets S or when a part of S holds the closed
    cell (contains_square).  reach_c = min(reach, the cell's own reach):
    no point of N is farther than reach from S, and none in the cell
    farther than the reach of the rho-ball about its highest point (its
    point of least modulus in the disk; _cell_reach_*).  The last two
    settle the cells no ball test can: those inside a shape where rc >=
    rho, and those beside the axis or the circle, far from S for their
    height but within S's reach.  Both are decisions like d <= r_b and take
    no margin.

    Each cell carries one integer (see quadtree): a bit per part of S, set
    while the part can still decide a cell of the subtree, and a far bit,
    set while the centre test can still fire there.  The tests ask only the
    parts whose bit is set and get the answers all of S would give, so the
    leaves are those of a classifier that asks S.dist and
    S.contains_square on every cell:

    - Invariant 1 (pruning).  The descendants of a cell the ball tests
      apply to are such cells too.  A child's center lies halfdiag / 2 from
      c inside the cell, so within rc / 2 of it, and the child's own bound
      is at most rc / 2.  By induction a descendant m levels down has its
      center within rc (1/2 + ... + 1/2^m) of c and a bound of at most
      rc / 2^m, so its grown and shrunk balls lie in the grown ball about
      c.  (The cruder "centers within rc" needs the (rho + 1.5 rc)-ball.)
      A part farther than r_b + slack from the grown ball's euclidean
      center c_b misses all of them, and its bit is cleared.  A ball test
      asks "is a candidate within r", which has the answer of
      dist(c) <= r.
    - Invariant 2 (centre test).  A descendant's center lies within
      halfdiag - halfdiag' of c, and its reach_c' is at most reach_c and
      at least r_lo = min(reach, the cell reach at the lowest point or
      greatest modulus).  So the test can fire in the subtree only while
      d + halfdiag > r_lo - slack.  Below that the far bit is cleared and
      the subtree skips the centre distance.  While it is set, a part with
      d_part(c) > reach_c + halfdiag + slack passes the test everywhere in
      the subtree.
    - Containment.  A part that holds a descendant has distance 0 from
      its center, which lies in every ball of that descendant and within
      halfdiag of c, so neither invariant clears the part's bit above it.
      Asking the candidate parts of the cells still UNKNOWN therefore gives
      the answer of S.contains_square.

    A part's bit is cleared only when both invariants let it go, and cells
    the ball tests do not apply to keep every part.  slack is geom.ROUNDING
    x M, M = S.sup_abs plus a bound on the moduli of cell centers (in
    _root_square), and a ball test adds B e^(rho + rc) for its ball: B = 2 x
    that bound in the half-plane (a ball about x + iy reaches |x| +
    y e^(rho + rc)), 1 in the disk (_ball_disk divides by 1 - t^2 |z|^2 >=
    e^-(rho + rc), 1.3e-7 at MAX_DEPTH beside the circle).  A descendant's
    rc is smaller, so the term covers the balls of its subtree.
    """
    parts = S.parts
    far_bit = 1 << len(parts)
    # one bit per part and the far bit: the smallest unsigned integer that
    # holds them, or Python ints past 64 bits
    row_type = np.min_scalar_type(2 * far_bit - 1)
    gx0, gy0, size = _root_square(S, rho)
    corner = max(abs(complex(x, y)) for x in (gx0, gx0 + size) for y in (gy0, gy0 + size))
    if S.space == "halfplane":
        reach, cell_reach = _reach_halfplane(rho, S.y_max), _cell_reach_halfplane
        settle, ball = _settle_halfplane, _ball_halfplane
    else:
        reach, cell_reach = _reach_disk(rho, S.min_abs), _cell_reach_disk
        settle, ball = _settle_disk, _ball_disk
    slack = geom.ROUNDING * (S.sup_abs + corner)
    ball_slack = geom.ROUNDING * (2.0 * corner if S.space == "halfplane" else 1.0)

    def nearest(w, cand, limit):
        """(least distance from w to its candidate parts, bits of the candidates within limit)."""
        d = np.full(w.shape, np.inf)
        within = np.zeros(w.shape, dtype=row_type)
        limit = np.broadcast_to(limit, w.shape)
        for j, part in enumerate(parts):
            rows = np.flatnonzero((cand & (1 << j)) != 0)
            if rows.size:
                dj = part.dist(w[rows])
                d[rows] = np.minimum(d[rows], dj)
                within[rows] |= (dj <= limit[rows]).astype(row_type) << j
        return d, within

    def classify(cx, cy, half, carry):
        if carry is None:
            carry = np.full(cx.shape, 2 * far_bit - 1, dtype=row_type)
        z = cx + 1j * cy
        halfdiag = half * SQRT2
        out = np.full(cx.shape, UNKNOWN, dtype=np.int8)
        f = np.flatnonzero((carry & far_bit) != 0)
        if f.size:
            r_c, r_lo = (np.minimum(reach, r) for r in cell_reach(rho, cx[f], cy[f], half))
            d, far_keep = nearest(z[f], carry[f], r_c + halfdiag + slack)
            out[f[d - halfdiag > r_c]] = OUTSIDE
            # the far bit and the parts the centre test still needs, or
            # nothing once the bit is cleared
            on = d + halfdiag > r_lo - slack
            far_keep[on] |= far_bit
            far_keep[~on] = 0
            carry[f[~on]] ^= far_bit
            del d, on, r_c, r_lo
        test, rc = settle(z, half, halfdiag, out)
        t = np.flatnonzero(test)
        if t.size:
            zc = z[t]
            cand = carry[t]
            cb, rb = ball(zc, rho + rc)
            # rc <= 1/sqrt2 in the half-plane; past 40 a disk margin exceeds any distance
            d, keep = nearest(cb, cand, rb + slack + ball_slack * np.exp(rho + np.minimum(rc, 40.0)))
            del cb
            sub = np.full(t.shape, UNKNOWN, dtype=np.int8)
            sub[~(d <= rb)] = OUTSIDE
            can_in = np.flatnonzero((rc < rho) & (sub == UNKNOWN))
            if can_in.size:
                cs, rs = ball(zc[can_in], rho - rc[can_in])
                ds, _ = nearest(cs, cand[can_in], rs)
                sub[can_in[ds <= rs]] = INSIDE
            out[t] = sub
            carry[t] = keep
            if f.size:
                in_t = test[f]
                carry[f[in_t]] |= far_keep[in_t]
        u = np.flatnonzero(out == UNKNOWN)
        for j, part in enumerate(parts):
            rows = u[(carry[u] & (1 << j)) != 0]
            if rows.size:
                out[rows[part.contains_square(cx[rows], cy[rows], half)]] = INSIDE
        return out, carry

    return classify


def _root_square(S: Obstacle, rho: float) -> tuple[float, float, float]:
    """(gx0, gy0, size) of the square every refinement of S's rho-neighborhood starts from."""
    if S.space == "disk":
        # centred on 0: gx0 + ix * side is exactly 0.0 for ix = 2^(d-1) at every depth d
        return -1.05, -1.05, 2.10
    pad = _reach_halfplane(rho, S.y_max) * 1.01
    x_lo, x_hi = S.x_bounds[0] - pad, S.x_bounds[1] + pad
    return x_lo, 0.0, max(x_hi - x_lo, S.y_max * math.exp(rho) * 1.01)


def _refine(S: Obstacle, rho: float, goal) -> tuple[Leaves, AreaBounds]:
    """quadtree.refine of S's rho-neighborhood from its root square until the gap meets goal.

    N lies in the open disk, so a disk cell across the circle adds to the
    gap only its area inside the disk, rounded up (_indisk_areas); the
    half-plane's root square lies in the closed half-plane.
    """
    clip = (lambda x0, y0, side: _indisk_areas(x0, y0, side)[1]) if S.space == "disk" else None
    return quadtree.refine(*_root_square(S, rho), _classifier(S, rho), goal, clip)


def _check_rho_tol(rho: float, tol: float) -> None:
    if not all(v > 0 and math.isfinite(v) for v in (rho, tol)):
        raise ValueError("rho and tol must be positive and finite")


def neighborhood_area(
    S: Obstacle,
    rho: float = 1.0,
    tol: float = 1e-3,
    relative: bool = False,
) -> AreaBounds:
    """Certified bounds on the euclidean area of the rho-neighborhood of S."""
    require_obstacle(S)
    _check_rho_tol(rho, tol)
    if S.is_empty:
        return AreaBounds(0.0, 0.0, 0, True)
    goal = (lambda lo, up: tol * up) if relative else (lambda lo, up: tol)
    return _refine(S, rho, goal)[1]


# ---------------------------------------------------------------------------
# filled neighborhoods
# ---------------------------------------------------------------------------


@dataclass
class FilledRegion:
    """Quadtree description of the filled neighborhood of a disk compact.

    Cells certified free of N that are grid-connected to the cell holding
    the origin form the *passable* region, a guaranteed subset of the
    complement of the filled neighborhood; everything else is *blocked*.
    The *frontier* is the blocked cells that meet the closed unit disk and
    share an edge, a segment of positive length, with a passable cell.

    A walk against the frontier stays in the passable region, and the
    frontier is as near to each of its points w in the open disk as the
    blocked cells that merely touch a passable cell.  Let q be the point
    of such a cell nearest to w.  If |q| > 1, the circle is nearer than q.
    Otherwise the segment from w to q leaves the passable region at some
    q' with |q'| <= 1.  Quadtree cells meet only along edges or at
    vertices, so going round q' each cell shares a segment from q' with
    the next, and one passable cell there shares an edge with a blocked
    one.  That blocked cell holds q', meets the closed disk and touches a
    free cell, so it is not INSIDE (INSIDE and free cells never touch): it
    is in the contact graph and in the frontier, no farther from w than q.
    So the cells that touch the passable region only at a corner, and
    those wholly outside the closed disk, change no step or terminal of a
    walk against the frontier.
    """

    leaves: Leaves
    bounds: AreaBounds
    passable: np.ndarray
    frontier: np.ndarray

    def blocked_rects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Geometric rects of the frontier cells."""
        return self.leaves.rects(self.frontier)


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
    # the disk's root square is centred on 0, so the leaf holding 0 in
    # [x0, x1) x [y0, y1) has ix = iy = 2^(depth - 1), or is the root itself
    at = np.left_shift(1, leaves.depth) >> 1
    return int(np.flatnonzero((leaves.ix == at) & (leaves.iy == at))[0])


def _flood_masks(leaves: Leaves):
    """(reached_strict, reached_generous, frontier) from one contact pass.

    A closed INSIDE cell lies in N and a closed free cell misses it, so the
    two never touch: the contacts among the other cells feed both floods,
    and their edge contacts the frontier of the strict one (FilledRegion).
    Only cells that meet the closed disk (least modulus <= 1) enter the
    contact graph.  A path in the open disk meets only such cells, so the
    generous flood stays sound, and it can only shrink.  The strict flood
    crosses only edges that reach into the open disk, which no cell outside
    the closed disk has, so it and its frontier are those of the graph over
    every non-INSIDE cell, less the cells outside.
    """
    cls = leaves.cls
    n = cls.size
    free = cls == OUTSIDE
    origin = _cell_of_origin(leaves)
    active = cls != INSIDE
    idx = np.flatnonzero(active)
    active[idx[_modulus_range(*leaves.rects(idx))[0] > 1.0]] = False
    pi, pj, edge = quadtree.adjacency_pairs(leaves, active)

    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    def reached(passable: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        if not passable[origin]:
            return np.zeros(n, dtype=bool)
        graph = sparse.coo_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        return passable & (labels == labels[origin])

    def strict_pairs() -> tuple[np.ndarray, np.ndarray]:
        # free cells only, through shared edges that reach into the open
        # disk; the temporaries go before the generous flood builds its graph
        keep = edge & free[pi] & free[pj]
        si, sj = pi[keep], pj[keep]
        (xi0, xi1, yi0, yi1), (xj0, xj1, yj0, yj1) = leaves.rects(si), leaves.rects(sj)
        ok = _segment_reaches_disk(
            np.maximum(xi0, xj0), np.maximum(yi0, yj0), np.minimum(xi1, xj1), np.minimum(yi1, yj1)
        )
        return si[ok], sj[ok]

    reached_strict = reached(free, *strict_pairs())
    # a genuine path in the disk complement only ever crosses free or
    # unknown cells, possibly through corners
    reached_gen = reached(active, pi, pj)
    ei, ej = pi[edge], pj[edge]
    frontier = np.zeros(n, dtype=bool)
    frontier[ej[reached_strict[ei] & ~reached_strict[ej]]] = True
    frontier[ei[reached_strict[ej] & ~reached_strict[ei]]] = True
    return reached_strict, reached_gen, frontier


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


# _disk_rect_areas sums four terms of size up to pi / 2, so it is off by a
# few ulps of 1; each in-disk area is widened by this much, outward
_AREA_PAD = 16 * np.finfo(float).eps


def _indisk_areas(x0, y0, side) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on the area of each cell [x0, x0 + side] x [y0, y0 + side] in the unit disk.

    A cell in the closed disk gets side^2 and one outside it 0, both exact.
    A cell across the circle gets _disk_rect_areas less and plus _AREA_PAD,
    clamped to [0, side^2].  side is a scalar or one side per cell.
    """
    side = np.broadcast_to(side, x0.shape)
    x1, y1 = x0 + side, y0 + side
    near, far = _modulus_range(x0, x1, y0, y1)
    area = side * side
    lo = np.where(far <= 1.0, area, 0.0)
    hi = lo.copy()
    i = np.flatnonzero((far > 1.0) & (near < 1.0))
    exact = _disk_rect_areas(x0[i], x1[i], y0[i], y1[i])
    lo[i] = np.clip(exact - _AREA_PAD, 0.0, area[i])
    hi[i] = np.clip(exact + _AREA_PAD, 0.0, area[i])
    return lo, hi


def filled_region(
    B: Obstacle,
    rho: float = 1.0,
    tol: float = 1e-3,
) -> FilledRegion:
    """Bracket the area of the filled rho-neighborhood of B with one refinement.

    N is refined to an area gap of tol/2 and flooded once.  The pockets the
    floods cannot settle add to the gap, so bounds.tolerance_met says
    whether the bracket is tol-tight; a region that misses it is returned
    as it stands for the caller to report.  Free cells the strict flood
    misses add their in-disk area, rounded up, to the upper bound, and
    those the generous flood misses too add it, rounded down, to the lower
    one (_indisk_areas).
    """
    require_obstacle(B, "disk")
    _check_rho_tol(rho, tol)
    if neighborhood_member(0j, B, rho):
        raise DomainError("the origin lies in the rho-neighborhood; filling undefined")

    leaves, n_bounds = _refine(B, rho, lambda lo, up: tol / 2.0)
    reached_strict, reached_gen, frontier = _flood_masks(leaves)
    # the strict graph is a subgraph of the generous one, so the free cells
    # the generous flood misses are among those the strict one misses
    trapped = np.flatnonzero((leaves.cls == OUTSIDE) & ~reached_strict)
    x0, _, y0, _ = leaves.rects(trapped)
    lo, hi = _indisk_areas(x0, y0, np.ldexp(leaves.size, -leaves.depth[trapped]))
    lower = n_bounds.lower + float(np.sum(lo[~reached_gen[trapped]]))
    upper = n_bounds.upper + float(np.sum(hi))
    bounds = AreaBounds(lower, upper, n_bounds.cells_refined, upper - lower <= tol)
    return FilledRegion(leaves, bounds, reached_strict, frontier)


# ---------------------------------------------------------------------------
# distance queries against unions of rectangles (walk support for filled sets)
# ---------------------------------------------------------------------------


# a RectSet query holds at most this many (point, rectangle) entries at once
_QUERY_BLOCK = 1 << 18
# points per leaf of the cKDTree (see RectSet for how it was chosen)
_TREE_LEAF = 64


class RectSet(Obstacle):
    """Exact distance to a finite union of axis-aligned rectangles.

    The rectangles are grouped by octave of half-diagonal h.  The octave
    that holds the most of them gets a cKDTree on their centers; every
    query scans the rectangles of the other octaves, off the tree's level,
    by brute force first.  Then one k-NN loop runs on the tree: a point z
    is certified once the best distance found so far is below d_k - h_max,
    where d_k is its k-th center distance and h_max the level's largest
    half-diagonal, so every rectangle past the k-th center is at least that
    far away, less geom.ROUNDING x (|z| + sup_abs): the centers, d_k and
    h_max round at the scale of the coordinates.  Open points retry with 4k
    neighbours, starting from k = 8, and the loop scans the whole level
    once 16k reaches its size or 4k exceeds _QUERY_BLOCK, so a level of at
    most 128 rectangles is scanned without a k-NN pass.

    Each frontier of filled_region is one refinement level, and the 18
    sets that the fattening and omega checks build at the default
    VerifyConfig, of 2,038 to 90,957 cells, have no cell off it.  One tree
    over all cells with the global h_max instead let a flood set with 22
    coarse cells beside 9,818 fine ones drive k toward its size.

    The tree is built with compact_nodes=False and _TREE_LEAF = 64 points
    per leaf.  Compacted nodes made the k = 8 queries of walks far from the
    cells slow: 2,000 walks from 0 against the ArcBox(0.4, 1.2, 0.75)
    frontier at (1, 2e-3), then 26,641 cells, took 0.93 s with scipy's
    defaults and 0.27 s without compaction.  The leaf size was chosen on
    three kinds of traffic (2-core x86 VM, one run each, leaf sizes 16,
    32, 64, 128 and 256):
    those arcbox walks (0.26-0.27 s up to leaf 64, 0.37-0.39 s above); the
    single start query from 0 of walks against the ring(0.7) frontier,
    equidistant from all its cells (6.3 ms at leaf 16 without compaction,
    2.9 ms at 64, 3.0 ms with the defaults); and the quadtree classifier on
    the iterated quarter-radius fattenings of verify.fattening_check (0.94,
    0.94 and 2.86 s in this method at 64 against 1.36, 1.68 and 4.58 s with
    the defaults).  dist is exact whatever the tree's shape, so distances,
    walks and filled regions do not depend on these settings.

    Each pass runs in blocks of at most _QUERY_BLOCK (point, rectangle)
    entries, so a query allocates O(points) plus a constant, whatever the
    number of rectangles and however high k climbs.  dist is the exact
    minimum over all rectangles, bit-identical to a brute-force scan; the
    label of nearest names a rectangle at exactly that distance.  A
    non-finite query point raises DomainError.
    """

    space = "disk"
    is_empty = False

    def __init__(self, x0, x1, y0, y1):
        from scipy.spatial import cKDTree

        self.x0 = np.asarray(x0, dtype=float)
        self.x1 = np.asarray(x1, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        self.y1 = np.asarray(y1, dtype=float)
        if not (self.x0.ndim == 1 and self.x0.shape == self.x1.shape == self.y0.shape == self.y1.shape):
            raise ValueError("RectSet needs four 1-D coordinate arrays of one length")
        if self.x0.size == 0:
            raise ValueError("RectSet needs at least one rectangle")
        finite = np.isfinite(self.x0) & np.isfinite(self.x1) & np.isfinite(self.y0) & np.isfinite(self.y1)
        if not np.all(finite & (self.x0 <= self.x1) & (self.y0 <= self.y1)):
            raise ValueError("RectSet needs finite rectangles with x0 <= x1 and y0 <= y1")
        cx = 0.5 * (self.x0 + self.x1)
        cy = 0.5 * (self.y0 + self.y1)
        half = 0.5 * np.hypot(self.x1 - self.x0, self.y1 - self.y0)
        octave = np.frexp(half)[1]
        levels, counts = np.unique(octave, return_counts=True)
        on_level = octave == levels[counts.argmax()]
        self._level = np.flatnonzero(on_level)
        self._off_level = np.flatnonzero(~on_level)
        self._h_max = float(half[self._level].max())
        centers = np.column_stack([cx[self._level], cy[self._level]])
        self._tree = cKDTree(centers, leafsize=_TREE_LEAF, compact_nodes=False)
        near, far = _modulus_range(self.x0, self.x1, self.y0, self.y1)
        self.min_abs = float(np.min(near))
        self.sup_abs = float(np.max(far))

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
        at = np.arange(d.shape[0])
        j = d.argmin(axis=1)
        m = d[at, j]
        better = m < dist[rows]
        dist[rows[better]] = m[better]
        best[rows[better]] = np.broadcast_to(cand, d.shape)[at, j][better]

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
        if not np.all(np.isfinite(z)):
            raise DomainError("RectSet query points must be finite")
        dist = np.full(z.shape, np.inf)
        best = np.zeros(z.shape, dtype=np.int64)
        rows, k = np.arange(z.size), 8
        if self._off_level.size:
            self._scan(z, rows, self._off_level, dist, best)
        pts = np.column_stack([z.real, z.imag])
        level = self._level
        while rows.size:
            if 16 * k >= level.size or 4 * k > _QUERY_BLOCK:
                self._scan(z, rows, level, dist, best)
                break
            d_k = np.empty(rows.size)
            height = max(1, _QUERY_BLOCK // k)
            for i in range(0, rows.size, height):
                r = rows[i : i + height]
                d_center, near = self._tree.query(pts[r], k=k)
                self._merge(z, r, level[near], dist, best)
                d_k[i : i + height] = d_center[:, -1]
            margin = geom.ROUNDING * (np.abs(z[rows]) + self.sup_abs)
            rows = rows[~(dist[rows] < d_k - self._h_max - margin)]
            k *= 4
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
