"""Hyperbolic metric (curvature -1) on the half-plane and the unit disk.

Conventions: density 1/Im z on the half-plane and 2/(1 - |z|^2) on the
disk, so the Moebius transport maps between the two spaces are isometries
and "radius one" means the same thing on both sides.

Hyperbolic balls are euclidean disks with closed-form center and radius,
so z lies in the rho-neighborhood of S exactly when the euclidean distance
from S to the center of the rho-ball about z is at most its radius: one
distance test, and no iterative minimization of the hyperbolic distance
enters the certification chain.

The neighborhood of a shape union is a finite union of atoms,
intersections of closed disks, complements of open disks and closed
half-planes, built from the pieces its shapes name (geom): balls are
disks, and the points within rho of a geodesic lie between the
equidistant lines or circles through its ideal points (Beardon, The
Geometry of Discrete Groups, 1983).  neighborhood_area measures that
union with one vertical sweep in closed form and brackets it by a bound
on the sweep's rounding (_sweep_area).

Obstacles without pieces (RectSet) and filled regions are bracketed by an
adaptive quadtree whose cell tests use the exact ball membership at radii
shrunk/grown by a certified bound on the cell's hyperbolic radius, a
bound on how far N reaches from S within the cell, and exact containment
of the cell in a shape of S; the quadtree also stays the tests' certified
reference for the sweep.  N lies in the open disk, so in the disk an
unsettled cell across the circle counts only its area inside the disk,
rounded up, and the floods that fill a neighborhood run only over cells
that meet the closed disk.

Only filled_region and RectSet use scipy: _flood_masks imports
scipy.sparse.csgraph for its floods and RectSet imports scipy.spatial for
its k-d tree, each where it is used, because loading scipy costs more than
importing the rest of the package.  So importing hypcap, the walks, the
capacity estimators, neighborhood_area and the dyadic, Whitney and
Lipschitz covers load no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom, quadtree
from .geom import Obstacle, _as_complex, _modulus_range, _rect_clip, require_obstacle
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


def _hyp_dist(a: complex, b: complex, h_a: float, h_b: float) -> float:
    """2 asinh(|a - b| / (2 sqrt(h_a h_b))), the distance in the metric |dz| / h.

    h is Im z in the half-plane and (1 - |z|)(1 + |z|)/2 in the disk, so
    cosh d - 1 = |a - b|^2 / (2 h_a h_b) in both; the asinh form stays exact
    where acosh(1 + q) and atanh lose digits, at short range and at the rim.
    """
    return 2.0 * math.asinh(abs(a - b) / (2.0 * math.sqrt(h_a) * math.sqrt(h_b)))


def hyp_dist_h(z: complex, w: complex) -> float:
    """Hyperbolic distance in the upper half-plane."""
    a, b = _finite_point(z), _finite_point(w)
    if a.imag <= 0 or b.imag <= 0:
        raise DomainError("hyp_dist_h needs points with positive imaginary part")
    return _hyp_dist(a, b, a.imag, b.imag)


def hyp_dist_d(z: complex, w: complex) -> float:
    """Hyperbolic distance in the unit disk."""
    a, b = _finite_point(z), _finite_point(w)
    r_a, r_b = abs(a), abs(b)
    if r_a >= 1 or r_b >= 1:
        raise DomainError("hyp_dist_d needs points inside the open unit disk")
    return _hyp_dist(a, b, (1.0 - r_a) * (1.0 + r_a) / 2.0, (1.0 - r_b) * (1.0 + r_b) / 2.0)


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
      the answer of S.contains_square.  A cell the shrunk-ball test reached
      (rc < rho) is not asked: a part that holds it holds its centre, which
      lies in the shrunk ball, so that test already settled it INSIDE.

    A part's bit is cleared only when both invariants let it go, and cells
    the ball tests do not apply to keep every part.  slack is geom.ROUNDING
    x M, M = S.sup_abs plus a bound on the moduli of cell centers (in
    _root_square), and a ball test adds B e^(rho + rc), with the largest
    rc of the cells classified together (a larger margin only keeps more
    parts, and changes no decision): B = 2 x
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
        asked = np.ones(cx.shape, dtype=bool)
        if t.size:
            zc = z[t]
            cand = carry[t]
            cb, rb = ball(zc, rho + rc)
            # rc <= 1/sqrt2 in the half-plane; past 40 a disk margin exceeds any
            # distance.  One margin for all, at the largest rc
            d, keep = nearest(cb, cand, rb + slack + ball_slack * math.exp(rho + min(float(rc.max()), 40.0)))
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
            # a part that holds a cell holds its centre, which lies in the
            # shrunk ball, so the cells that test reached are settled
            asked[t[rc < rho]] = False
        u = np.flatnonzero(asked & (out == UNKNOWN))
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


def _refine_args(S: Obstacle, rho: float, goal) -> tuple:
    """The arguments of quadtree.refine and refine_bounds that refine S's rho-neighborhood until the gap meets goal.

    N lies in the open disk, so a disk cell across the circle adds to the
    gap only its area inside the disk, rounded up (_indisk_areas); the
    half-plane's root square lies in the closed half-plane.
    """
    clip = (lambda x0, y0, side: _indisk_areas(x0, y0, side)[1]) if S.space == "disk" else None
    return (*_root_square(S, rho), _classifier(S, rho), goal, clip)


def _refine(S: Obstacle, rho: float, goal) -> tuple[Leaves, AreaBounds]:
    """quadtree.refine of S's rho-neighborhood from its root square until the gap meets goal."""
    return quadtree.refine(*_refine_args(S, rho, goal))


# ---------------------------------------------------------------------------
# neighborhood atoms and the exact sweep
# ---------------------------------------------------------------------------

# An atom is a tuple (disks, hole, lines, xr): it lies in each closed disk
# (cx, cy, r) of disks (at most 3), outside the open disk hole (or None), in
# each closed half-plane a x + b y <= c of lines (at most 2, each with
# b != 0) and in the closed x-range xr (or None).  Its curves are the upper
# and lower arcs of its circles and its lines, numbered 10 x (atom index) +
# slot: slots 2j and 2j + 1 are the upper and lower arcs of disk j, 6 and 7
# those of the hole, 8 and 9 the lines.
_LOWER_SLOTS = np.array([1, 3, 5, 8, 9])
_UPPER_SLOTS = np.array([0, 2, 4, 8, 9])


def _ball_atom(space: str, z: complex, rho: float) -> tuple:
    c, r = _BALLS[space](np.asarray([z]), rho)
    return (((float(c[0].real), float(c[0].imag), float(r[0])),), None, (), None)


def _angle_lines(t0: float, t1: float) -> list[tuple]:
    """Half-plane pairs whose intersections tile the directions [t0, t1]: one up to pi, two past it, none for a full turn."""
    if t1 - t0 >= geom.TWO_PI:
        return [()]
    cuts = (t0, t1) if t1 - t0 <= math.pi else (t0, t0 + 0.5 * (t1 - t0), t1)
    return [((math.sin(a), -math.cos(a), 0.0), (-math.sin(b), math.cos(b), 0.0)) for a, b in zip(cuts, cuts[1:])]


def _piece_atoms(space: str, piece: tuple, rho: float) -> list[tuple]:
    """Atoms whose union is the rho-neighborhood of a boundary piece, or a solid piece itself.

    - "vseg" (x, y0, y1): the points within rho of the vertical geodesic
      through x form the wedge |Re z - x| <= sinh(rho) Im z, and those
      whose nearest point on it lies at a height in [y0, y1] form
      y0 <= |z - x| <= y1; beyond, the nearest point is an end, so add the
      end balls.
    - "hseg" (x0, x1, y): the balls about its points have equal radii, so
      they sweep the stadium [x0, x1] x [y e^-rho, y e^rho] and the end balls.
    - "halfdisk" (c, r): a hyperbolic half-plane; its neighborhood is cut off
      by the equidistant of its arc, the circle of radius r cosh(rho) about
      c + i r sinh(rho).
    - "rseg" (theta, r0): the points within rho of the diameter through
      e^(i theta) form the lens between the circles of radius coth(rho) about
      +-i e^(i theta) csch(rho); those whose nearest point on it lies at
      modulus >= r0 lie beyond the geodesic perpendicular to it at
      r0 e^(i theta), the disk of radius (1 - r0^2) / (2 r0) about
      e^(i theta) (1 + r0^2) / (2 r0); add the ball about the tip.
    - "arc" (t0, t1, r): the balls about r e^(it) are rotations of the one
      about r, a disk of center cb and radius rb on the real axis, so they
      sweep the annular sector cb - rb <= |z| <= cb + rb over [t0, t1] and
      the end balls.
    - "box" and "sector": the solid itself.
    """
    kind, *p = piece
    if kind == "vseg":
        x, y0, y1 = p
        sh = math.sinh(rho)
        wedge = (((x, 0.0, y1),), (x, 0.0, y0) if y0 > 0 else None, ((1.0, -sh, x), (-1.0, -sh, -x)), None)
        return [wedge] + [_ball_atom(space, complex(x, y), rho) for y in (y1, y0) if y > 0]
    if kind == "hseg":
        x0, x1, y = p
        band = ((0.0, -1.0, -y * math.exp(-rho)), (0.0, 1.0, y * math.exp(rho)))
        return [((), None, band, (x0, x1))] + [_ball_atom(space, complex(x, y), rho) for x in (x0, x1)]
    if kind == "box":
        x0, x1, y0, y1 = p
        return [((), None, ((0.0, -1.0, -y0), (0.0, 1.0, y1)), (x0, x1))]
    if kind == "halfdisk":
        c, r = p
        return [(((c, r * math.sinh(rho), r * math.cosh(rho)),), None, ((0.0, -1.0, 0.0),), None)]
    if kind == "rseg":
        theta, r0 = p
        cos, sin = math.cos(theta), math.sin(theta)
        e, k = 1.0 / math.sinh(rho), 1.0 / math.tanh(rho)
        far, rad = (1.0 + r0 * r0) / (2.0 * r0), (1.0 - r0 * r0) / (2.0 * r0)
        lens = ((-sin * e, cos * e, k), (sin * e, -cos * e, k), (cos * far, sin * far, rad))
        return [(lens, None, (), None), _ball_atom(space, r0 * complex(cos, sin), rho)]
    t0, t1, r = p
    if kind == "sector":
        outer, inner = 1.0, r
    else:
        cb, rb = _BALLS["disk"](np.asarray([complex(r)]), rho)
        outer, inner = float(cb[0].real + rb[0]), float(cb[0].real - rb[0])
    hole = (0.0, 0.0, inner) if inner > 0 else None
    out = [(((0.0, 0.0, outer),), hole, lines, None) for lines in _angle_lines(t0, t1)]
    if kind == "arc" and t1 - t0 < geom.TWO_PI:
        out += [_ball_atom(space, r * complex(math.cos(t), math.sin(t)), rho) for t in (t0, t1)]
    return out


def _neighborhood_atoms(pieces: list[tuple], space: str, rho: float) -> list[tuple]:
    """The distinct atoms of all pieces: a box's corner balls come from its side and from its top."""
    return list(dict.fromkeys(a for piece in pieces for a in _piece_atoms(space, piece, rho)))


def _pack(atoms: list[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(circles (n, 4, 3), lines (n, 2, 3), xr (n, 2)): disks in rows 0-2 of circles, padded with r = inf, the hole in row 3 (r = 0 if none), lines padded with 0 x + y <= inf."""
    n = len(atoms)
    circles = np.zeros((n, 4, 3))
    circles[:, :3, 2] = np.inf
    lines = np.zeros((n, 2, 3))
    lines[:, :, 1:] = (1.0, np.inf)
    xr = np.tile([-np.inf, np.inf], (n, 1))
    for i, (disks, hole, ls, x) in enumerate(atoms):
        if disks:
            circles[i, : len(disks)] = disks
        if hole is not None:
            circles[i, 3] = hole
        if ls:
            lines[i, : len(ls)] = ls
        if x is not None:
            xr[i] = x
    return circles, lines, xr


def _atoms_hold(packed, idx: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Whether atom idx[i] holds (x[i], y[i]), each constraint loosened by tol."""
    circles, lines, xr = (a[idx] for a in packed)
    dist = np.hypot(x[:, None] - circles[:, :, 0], y[:, None] - circles[:, :, 1])
    ok = np.all(dist[:, :3] <= circles[:, :3, 2] + tol, axis=1) & (dist[:, 3] >= circles[:, 3, 2] - tol)
    a, b, c = lines[:, :, 0], lines[:, :, 1], lines[:, :, 2]
    ok &= np.all(a * x[:, None] + b * y[:, None] - c <= tol * np.hypot(a, b), axis=1)
    return ok & (xr[:, 0] - tol <= x) & (x <= xr[:, 1] + tol)


def _atom_boxes(packed) -> np.ndarray:
    """(n, 4) bounding boxes (x0, x1, y0, y1) of the atoms, from their disks, x-ranges and horizontal lines."""
    circles, lines, xr = packed
    cx, cy, r = circles[:, :3, 0], circles[:, :3, 1], circles[:, :3, 2]
    a, b, c = lines[:, :, 0], lines[:, :, 1], lines[:, :, 2]
    flat = a == 0.0
    y_lo = np.where(flat & (b < 0), c / b, -np.inf)
    y_hi = np.where(flat & (b > 0), c / b, np.inf)
    return np.stack(
        [
            np.maximum(xr[:, 0], np.max(cx - r, axis=1)),
            np.minimum(xr[:, 1], np.min(cx + r, axis=1)),
            np.maximum(np.max(cy - r, axis=1), np.max(y_lo, axis=1)),
            np.minimum(np.min(cy + r, axis=1), np.min(y_hi, axis=1)),
        ],
        axis=1,
    )


def _events(packed, boxes: np.ndarray, scale: float) -> np.ndarray:
    """The x of every point where the union's cross-section can change its structure.

    These are the x-range ends, the x-extremes of each circle at a point of
    its own atom, and the crossings of any two curves at a point of both
    their atoms (of one atom, for two of its own curves), each membership
    loosened by tol = ROUNDING x scale.  Elsewhere no curve that bounds a
    cross-section crosses another, starts or ends.  A pair of curves whose
    crossing discriminant h^2 lies within ROUNDING x scale^2 below 0 counts
    as touching at the foot of its chord, so a tangency that rounding
    pushes apart still gives a breakpoint when the point passes the test.
    """
    circles, lines, xr = packed
    tol = geom.ROUNDING * scale
    near = -geom.ROUNDING * scale * scale
    ca, cj = np.nonzero((circles[:, :, 2] > 0) & np.isfinite(circles[:, :, 2]))
    la, lj = np.nonzero(np.isfinite(lines[:, :, 2]))
    C, L = circles[ca, cj], lines[la, lj]
    x0, x1, y0, y1 = boxes.T
    overlap = (
        (x0[:, None] <= x1[None, :] + tol)
        & (x0[None, :] <= x1[:, None] + tol)
        & (y0[:, None] <= y1[None, :] + tol)
        & (y0[None, :] <= y1[:, None] + tol)
    )
    # (x, y, atom of one curve, atom of the other) of each candidate point
    found = [(C[:, 0] + sgn * C[:, 2], C[:, 1], ca, ca) for sgn in (1.0, -1.0)]
    p, q = np.triu_indices(ca.size, 1)
    pair = overlap[ca[p], ca[q]]
    (cx, cy, r), (cx2, cy2, r2) = C[p[pair]].T, C[q[pair]].T
    dx, dy = cx2 - cx, cy2 - cy
    dd = np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (dd * dd + r * r - r2 * r2) / (2.0 * dd)
        ok = (dd > 0) & (r * r - a * a >= near)
    ux, uy, a, h = dx[ok] / dd[ok], dy[ok] / dd[ok], a[ok], np.sqrt(np.maximum(r * r - a * a, 0.0)[ok])
    fx, fy = cx[ok] + a * ux, cy[ok] + a * uy
    found += [(fx - sgn * h * uy, fy + sgn * h * ux, ca[p[pair][ok]], ca[q[pair][ok]]) for sgn in (1.0, -1.0)]
    p, q = np.nonzero(overlap[ca][:, la])
    (cx, cy, r), (a, b, c) = C[p].T, L[q].T
    nrm = np.hypot(a, b)
    off = (a * cx + b * cy - c) / nrm
    ok = r * r - off * off >= near
    h = np.sqrt(np.maximum(r * r - off * off, 0.0)[ok]) / nrm[ok]
    fx, fy = cx[ok] - a[ok] * off[ok] / nrm[ok], cy[ok] - b[ok] * off[ok] / nrm[ok]
    found += [(fx - sgn * h * b[ok], fy + sgn * h * a[ok], ca[p[ok]], la[q[ok]]) for sgn in (1.0, -1.0)]
    p, q = np.triu_indices(la.size, 1)
    pair = overlap[la[p], la[q]]
    (a1, b1, c1), (a2, b2, c2) = L[p[pair]].T, L[q[pair]].T
    det = a1 * b2 - a2 * b1
    ok = det != 0
    found.append(((c1 * b2 - c2 * b1)[ok] / det[ok], (a1 * c2 - a2 * c1)[ok] / det[ok], la[p[pair][ok]], la[q[pair][ok]]))
    px, py, i, j = (np.concatenate(col) for col in zip(*found))
    hit = _atoms_hold(packed, i, px, py, tol) & _atoms_hold(packed, j, px, py, tol)
    return np.unique(np.concatenate([px[hit], xr[np.isfinite(xr)]]))


def _curve_integrals(packed, ids: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(integral of each curve ids[i] over [xa[i], xb[i]], a bound on its rounding).

    An arc y = cy +- sqrt(r^2 - (x - cx)^2) integrates to cy w +- (F(xb) -
    F(xa)), F(x) = (t s + r^2 atan2(t, s)) / 2 with t = x - cx clipped to
    [-r, r] and s = sqrt((r - t)(r + t)): atan2 keeps asin's angle exact
    where t / r nears +-1, so each F is off by a few ulps of r (r + |x| +
    |cx|).  A line integrates to its value at the midpoint times w, off by a
    few ulps of w (|c| + |a m|) / |b|.  The bound charges ROUNDING for each
    ulp, by the rule of geom.ROUNDING.
    """
    circles, lines, _ = packed
    atom, slot = np.divmod(ids, 10)
    w = xb - xa
    out, err = np.empty(ids.size), np.empty(ids.size)
    i = np.flatnonzero(slot < 8)
    cx, cy, r = circles[atom[i], slot[i] // 2].T
    sign = 1.0 - 2.0 * (slot[i] % 2)

    def F(x):
        t = np.clip(x - cx, -r, r)
        s = np.sqrt((r - t) * (r + t))
        return 0.5 * (t * s + r * r * np.arctan2(t, s))

    out[i] = cy * w[i] + sign * (F(xb[i]) - F(xa[i]))
    err[i] = geom.ROUNDING * (r * (r + np.abs(cx) + np.abs(xa[i]) + np.abs(xb[i])) + np.abs(cy) * w[i])
    j = np.flatnonzero(slot >= 8)
    a, b, c = lines[atom[j], slot[j] - 8].T
    m = 0.5 * (xa[j] + xb[j])
    v = (c - a * m) / b
    out[j] = v * w[j]
    err[j] = geom.ROUNDING * w[j] * ((np.abs(c) + np.abs(a * m)) / np.abs(b) + np.abs(v))
    return out, err


def _sweep_area(atoms: list[tuple], goal) -> AreaBounds:
    """[A - E, A + E] about the area A of the union of the atoms, measured by one vertical sweep.

    Between consecutive events (_events) no curve that bounds a
    cross-section crosses another, so each slab's union cross-section is
    the same sequence of intervals between the same curves at every x of
    the slab.  The sweep reads it at the slab's midpoint m, evaluating each
    atom only on the slabs its bounding box covers, and integrates each
    bounding curve over the slab in closed form (_curve_integrals).

    E bounds what rounding can do, by the rule of geom.ROUNDING with M the
    largest coordinate of any atom's bounding box:

    - the closed forms: each integral's bound, and ROUNDING x the sum of
      their moduli for summing them;
    - the events: each lies within ROUNDING x M of the event it computes
      (a transversal crossing, an extreme, a range end).  Between the two
      the sweep may use the structure of the neighboring slab, which is
      off by at most the union's height H, so each event adds
      ROUNDING x M x H.  A crossing of two nearly tangent curves may be
      placed up to about sqrt(ROUNDING) x M off, but there the two differ
      by about ROUNDING x M, so its error is below the same term while
      sqrt(ROUNDING) x M < H.  This also covers the test at m of whether m lies
      in a circle's x-extent, which can err only within ROUNDING x M of
      its extreme, an event, so in a slab that narrow;
    - the decisions at m.  The sweep compares curve values at m: an atom's
      greatest lower and least upper bound, its hole against them, whether
      an interval is empty, and, over the sorted intervals of the slab,
      each interval's ends against its predecessor's and the running top.
      A value cy +- s of an arc is off by at most ROUNDING x (|m| + |cx| +
      r + |cy|) + min(d2 / s, sqrt(d2)), where d2 = ROUNDING x r (|m| +
      |cx| + r) bounds the error of s^2, so the bound grows towards the
      circle's x-extremes, where s shrinks; a line's value v is off by at
      most ROUNDING x ((|c| + |a m|) / |b| + |v|).  A comparison
      whose values lie within the sum of their bounds may have gone either
      way, and then the slab's integrand is off by at most |p - q| at each
      x for its two curves p and q: the union's length moves by at most
      the move of one interval end.  p - q keeps its sign on the slab, so
      such a comparison adds |integral of p - q| over the slab, with both
      integrals' rounding bounds.  This is where the tangencies the pieces
      have by construction land: a tip ball touches its wedge or lens, and
      a stadium's line or an arc's annulus its end balls, at a point that
      another curve crosses there, so their slabs end at the point of
      contact and their curves separate quadratically across the slab.

    The bracket is [max(A - E, 0), A + E]; tolerance_met says whether its
    gap meets goal.  Every formula is homogeneous in the coordinates, so a
    hull scaled by a power of 2 gives the bracket scaled by its square.
    """
    packed = _pack(atoms)
    boxes = _atom_boxes(packed)
    M = float(np.max(np.abs(boxes)))
    height = float(np.max(boxes[:, 3]) - np.min(boxes[:, 2]))
    xs = _events(packed, boxes, M)
    xa, xb = xs[:-1], xs[1:]
    intervals, charges = _cross_sections(packed, boxes, xs)
    (bottoms, tops, k), more = _union(*intervals)
    integral, err = _curve_integrals(packed, np.concatenate([tops, bottoms]), xa[np.tile(k, 2)], xb[np.tile(k, 2)])
    area = float(np.sum(integral[: k.size] - integral[k.size :]))
    p, q, at = (np.concatenate(x) for x in zip(*charges, *more))
    ip, ep = _curve_integrals(packed, p, xa[at], xb[at])
    iq, eq = _curve_integrals(packed, q, xa[at], xb[at])
    rounding = float(np.sum(err)) + geom.ROUNDING * float(np.sum(np.abs(integral)))
    decisions = float(np.sum(np.abs(ip - iq) + ep + eq))
    e = rounding + decisions + xs.size * geom.ROUNDING * M * height
    lower, upper = max(area - e, 0.0), area + e
    return AreaBounds(lower, upper, 0, upper - lower <= goal(lower, upper))


def _cross_sections(packed, boxes: np.ndarray, xs: np.ndarray):
    """Each atom's cross-section at the midpoint of each slab its bounding box covers.

    Returns the intervals as arrays (slab, bottom, top, bottom curve, top
    curve, bottom bound, top bound), the bounds those of the values'
    rounding (see _sweep_area), and the comparisons that rounding could
    flip as (curve, curve, slab) arrays.
    """
    circles, lines, xr = packed
    mid = 0.5 * (xs[:-1] + xs[1:])
    k0 = np.maximum(np.searchsorted(xs, boxes[:, 0], "right") - 1, 0)
    k1 = np.minimum(np.searchsorted(xs, boxes[:, 1], "left"), mid.size)
    cnt = np.maximum(k1 - k0, 0)
    atom = np.repeat(np.arange(len(boxes)), cnt)
    slab = np.arange(atom.size) + np.repeat(k0 - (np.cumsum(cnt) - cnt), cnt)
    m = mid[slab][:, None]
    base = 10 * atom
    rows = np.arange(atom.size)
    charges = []

    def charge(hit, p, q):
        charges.append((p[hit], q[hit], slab[hit]))

    cx, cy, r = (circles[atom, :, k] for k in range(3))
    u = m - cx
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.maximum((r - u) * (r + u), 0.0))
        # s^2 is off by at most d2, so s by d2 / s and by sqrt(d2)
        d2 = geom.ROUNDING * r * (np.abs(m) + np.abs(cx) + r)
        size = np.abs(m) + np.abs(cx) + r + np.abs(cy)
        dc = np.where(np.isfinite(r) & (r > 0), geom.ROUNDING * size + np.minimum(d2 / s, np.sqrt(d2)), 0.0)
    a, b, c = (lines[atom, :, k] for k in range(3))
    v = (c - a * m) / b
    dl = np.where(np.isfinite(c), (np.abs(c) + np.abs(a * m)) / np.abs(b) + np.abs(v), 0.0)
    inside = np.all(np.abs(u[:, :3]) <= r[:, :3], axis=1) & (xr[atom, 0] <= m[:, 0]) & (m[:, 0] <= xr[atom, 1])
    dev = np.concatenate([dc[:, :3], geom.ROUNDING * dl], axis=1)
    lows = np.concatenate([cy[:, :3] - s[:, :3], np.where(b < 0, v, -np.inf)], axis=1)
    ups = np.concatenate([cy[:, :3] + s[:, :3], np.where(b > 0, v, np.inf)], axis=1)
    ends = []
    for vals, pick, slots in ((lows, np.argmax, _LOWER_SLOTS), (ups, np.argmin, _UPPER_SLOTS)):
        j = pick(vals, axis=1)
        best, dbest = vals[rows, j], dev[rows, j]
        close = inside[:, None] & np.isfinite(vals) & (np.abs(vals - best[:, None]) <= dev + dbest[:, None])
        close[rows, j] = False
        hit_row, hit_col = np.nonzero(close)
        charges.append((base[hit_row] + slots[hit_col], base[hit_row] + slots[j[hit_row]], slab[hit_row]))
        ends.append((best, base + slots[j], dbest))
    (lo, lo_id, dlo), (hi, hi_id, dhi) = ends
    # the hole splits [lo, hi] into [lo, min(hi, its lower arc)] and [max(lo, its upper arc), hi]
    hole = inside & (np.abs(u[:, 3]) < r[:, 3])
    h_lo, h_hi, dh = cy[:, 3] - s[:, 3], cy[:, 3] + s[:, 3], dc[:, 3]
    charge(hole & (np.abs(h_lo - hi) <= dh + dhi), base + 7, hi_id)
    charge(hole & (np.abs(h_hi - lo) <= dh + dlo), base + 6, lo_id)
    cut_top, cut_bot = hole & (h_lo < hi), hole & (h_hi > lo)
    top1 = np.where(cut_top, h_lo, hi), np.where(cut_top, base + 7, hi_id), np.where(cut_top, dh, dhi)
    bot2 = np.where(cut_bot, h_hi, lo), np.where(cut_bot, base + 6, lo_id), np.where(cut_bot, dh, dlo)
    parts = []
    for (bv, bid, db), (tv, tid, dt), live in (((lo, lo_id, dlo), top1, inside), (bot2, (hi, hi_id, dhi), hole)):
        charge(live & (np.abs(tv - bv) <= db + dt), tid, bid)
        keep = live & (bv < tv)
        parts.append((slab[keep], bv[keep], tv[keep], bid[keep], tid[keep], db[keep], dt[keep]))
    return [np.concatenate(x) for x in zip(*parts)], charges


def _union(k, bot, top, bid, tid, db, dt):
    """((bottom curves, top curves, slabs) of the intervals of each slab's union, the comparisons rounding could flip).

    The intervals of _cross_sections are sorted by slab and bottom; an
    interval starts a new one of the union when its bottom lies above the
    running top of its slab's earlier ones, a segmented running maximum
    taken over the tops' ranks offset by slab.
    """
    order = np.lexsort((bot, k))
    k, bot, top, bid, tid, db, dt = (x[order] for x in (k, bot, top, bid, tid, db, dt))
    count = k.size
    by_top = np.argsort(top, kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[by_top] = np.arange(count)
    # run[i]: the interval holding the running top of its slab up to i
    run = by_top[np.maximum.accumulate(k * count + rank) - k * count]
    later = np.r_[False, k[1:] == k[:-1]]
    prev = np.r_[0, run[:-1]]
    before = np.r_[0, np.arange(count - 1)]
    charges = [
        (p[hit], q[hit], k[hit])
        for hit, p, q in (
            (later & (np.abs(bot - bot[before]) <= db + db[before]), bid, bid[before]),
            (later & (np.abs(bot - top[prev]) <= db + dt[prev]), bid, tid[prev]),
            (later & (np.abs(top - top[prev]) <= dt + dt[prev]), tid, tid[prev]),
        )
    ]
    start = np.flatnonzero(~later | (bot > top[prev]))
    last = np.r_[start[1:] - 1, count - 1]
    return (bid[start], tid[run[last]], k[start]), charges


def _check_rho_tol(rho: float, tol: float) -> None:
    if not all(v > 0 and math.isfinite(v) for v in (rho, tol)):
        raise ValueError("rho and tol must be positive and finite")


def neighborhood_area(
    S: Obstacle,
    rho: float = 1.0,
    tol: float = 1e-3,
    relative: bool = False,
) -> AreaBounds:
    """Certified bounds on the euclidean area of the rho-neighborhood of S.

    For a shape union, the sweep over the atoms of its pieces
    (_sweep_area) gives the area in closed form, in a bracket whose width
    is set by rounding alone, and classifies no cell: cells_refined is 0.  For an obstacle without pieces (a RectSet)
    a quadtree refinement keeps no leaves and stops partway through its
    last level once the gap meets the tolerance (quadtree.refine_bounds),
    so the bracket holds the one of a refinement that splits whole levels,
    _refine(S, rho, goal)[1], and equals it whenever both classify as many
    cells.
    """
    require_obstacle(S)
    _check_rho_tol(rho, tol)
    if S.is_empty:
        return AreaBounds(0.0, 0.0, 0, True)
    goal = (lambda lo, up: tol * up) if relative else (lambda lo, up: tol)
    pieces = S.pieces()
    if pieces is None:
        return quadtree.refine_bounds(*_refine_args(S, rho, goal))
    return _sweep_area(_neighborhood_atoms(pieces, S.space, rho), goal)


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
    share an edge, a segment of positive length, with a passable cell: the
    by_edge mask of quadtree.contact_masks, the one contact function, over
    the contacts among those cells (quadtree.touching reads it over every
    non-INSIDE cell).

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
        # disk: an edge is a closed rectangle of zero width or height; the
        # temporaries go before the generous flood builds its graph
        keep = edge & free[pi] & free[pj]
        si, sj = pi[keep], pj[keep]
        (xi0, xi1, yi0, yi1), (xj0, xj1, yj0, yj1) = leaves.rects(si), leaves.rects(sj)
        shared = np.maximum(xi0, xj0), np.minimum(xi1, xj1), np.maximum(yi0, yj0), np.minimum(yi1, yj1)
        ok = _modulus_range(*shared)[0] < 1.0
        return si[ok], sj[ok]

    reached_strict = reached(free, *strict_pairs())
    # a genuine path in the disk complement only ever crosses free or
    # unknown cells, possibly through corners
    reached_gen = reached(active, pi, pj)
    frontier = quadtree.contact_masks(pi, pj, edge, reached_strict)[1]
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

    The tree holds one octave because each frontier of filled_region is
    one refinement level, so nearly every query is answered there.  One
    tree over all cells, with the global h_max, let a few coarse cells
    beside many fine ones drive k toward the size of the set.

    The tree is built with compact_nodes=False and _TREE_LEAF = 64 points
    per leaf.  Compacted nodes made the k = 8 queries of walks far from the
    cells slow, and leaf 64 was the best measured on the walks from 0, the
    start query of walks equidistant from all cells and the quadtree
    classifier of the iterated fattenings.  dist is exact whatever the
    tree's shape, so distances, walks and filled regions do not depend on
    these settings.

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
        nx, ny = _rect_clip(zr, zi, self.x0[cand], self.x1[cand], self.y0[cand], self.y1[cand])
        d = np.hypot(zr - nx, zi - ny)
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
        nx, ny = _rect_clip(flat.real, flat.imag, self.x0[best], self.x1[best], self.y0[best], self.y1[best])
        return dist.reshape(z.shape), best.reshape(z.shape), (nx + 1j * ny).reshape(z.shape)
