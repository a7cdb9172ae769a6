"""Dyadic squares in the disk, Whitney squares and the Lipschitz majorant.

A dyadic "square" Q at scale n over the angular interval
J = [(k-1)/2^n, k/2^n) is the tombstone {z : z/|z| in e^{2 pi i J},
1 - |z| <= 2^-n}; its top half is the inner part 1 - |z| > 2^-(n+1).  The
cover of a disk compact collects every square whose top half meets the
set.  Dyadic intervals are nested or disjoint, and each square reaches the
unit circle, so two squares are nested or disjoint too: the maximal squares
of the cover are pairwise disjoint, their union is the cover's union and its
area is the sum of their areas.

The Whitney square (j, k) of the half-plane is [j 2^k, (j+1) 2^k] x
[2^k, 2^(k+1)].  The area of those that meet a hull is counted level by
level, exactly, down to 2^K_CUT.  On a lower level k a shape of x-extent w
meets at most w/2^k + 2 of them, so all lower levels hold at most
w 2^K_CUT + (2/3) 4^K_CUT per shape reaching below 2^K_CUT: one line bounds
the rest.

The covers read shapes only through the protocol that ``geom`` states:
``angle_interval()`` and ``rho_min`` of a disk family, ``x_range``,
``y_range``, ``section(y)`` and ``majorant_pieces()`` of a half-plane
family.  A new family needs no change here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import ArcBox, DiskCompact, HalfPlaneHull
from .quadtree import AreaBounds

TWO_PI = 2.0 * math.pi
# the finest dyadic scale a cover may reach: deeper sets are rejected
N_MAX = 20
# the finest Whitney level counted exactly; the levels below are bounded in one line
K_CUT = -40


@dataclass(frozen=True)
class DyadicSquare:
    """Scale/position index of one dyadic square."""

    n: int
    k: int

    def __post_init__(self):
        integral = all(isinstance(v, (int, np.integer)) for v in (self.n, self.k))
        if not (integral and self.n >= 1 and 1 <= self.k <= 2**self.n):
            raise ValueError("need integers n >= 1 and 1 <= k <= 2^n")

    @property
    def depth(self) -> float:
        return 2.0 ** (-self.n)

    @property
    def angle_fraction(self) -> tuple[float, float]:
        """Half-open angular interval as a fraction of the full turn."""
        return ((self.k - 1) * self.depth, self.k * self.depth)

    @property
    def area(self) -> float:
        d = self.depth
        return math.pi * d * (2.0 * d - d * d)

    def as_arcbox(self) -> ArcBox:
        lo, hi = self.angle_fraction
        return ArcBox(TWO_PI * lo, TWO_PI * hi, 1.0 - self.depth)

    def lies_in(self, q: DyadicSquare) -> bool:
        """True iff this square is q or a descendant of q (q's interval holds ours)."""
        return q.n <= self.n and (self.k - 1) >> (self.n - q.n) == q.k - 1

    def contains(self, z: complex) -> bool:
        u = 1.0 - abs(z)
        if not (0.0 <= u <= 0.5**self.n):
            return False
        frac = (math.atan2(z.imag, z.real) / TWO_PI) % 1.0
        lo, hi = self.angle_fraction
        # a fraction just below 0 can round up to 1.0; it lies in the last interval
        return lo <= frac < hi or frac == hi == 1.0


def layer_of(z: complex) -> int:
    """Index n of the dyadic layer 2^-(n+1) <= 1 - |z| < 2^-n."""
    u = 1.0 - abs(complex(z))
    if not (0.0 < u < 0.5):
        raise ValueError("layer_of needs 1/2 < |z| < 1")
    return int(layer_of_radius(u))


def layer_of_radius(u):
    """Vectorized layer index for depths u = 1 - |z| in (0, 1); [1/2, 1) is layer 0.

    A scalar or 0-d u gives a numpy integer scalar, an array u an array.
    """
    # u = m 2^e with 1/2 <= m < 1 puts u in [2^(e-1), 2^e), layer -e
    return -np.frexp(np.asarray(u, dtype=float))[1].astype(np.int64)


def _shape_min_scale(max_depth_from_circle: float) -> int:
    """Smallest n whose top-half band (2^-(n+1), 2^-n] meets (0, u]."""
    # u = m 2^e: 2^-(n+1) < u iff n >= -e, or n > -e when u = 2^(e-1)
    m, e = math.frexp(max_depth_from_circle)
    n = max(1, -e + (m == 0.5))
    if n > N_MAX:
        raise ValueError(f"set reaches deeper than scale N_MAX={N_MAX}; cover would be incomplete")
    return n


def _angle_footprint(s) -> tuple[float, float]:
    """Closed angular footprint (start, width) as fractions of the turn."""
    a, w = s.angle_interval()
    return (a / TWO_PI) % 1.0, w / TWO_PI


def _squares_for_footprint(n: int, start: float, width: float) -> list[int]:
    """All k whose half-open dyadic interval meets the closed footprint.

    Past the full turn the intervals repeat, so the k of [j/2^n, (j+1)/2^n)
    is j mod 2^n + 1: a footprint that ends at 1.0 ends at angle 0, in k = 1.
    """
    scale = 2**n
    if width >= 1.0:
        return list(range(1, scale + 1))
    j_lo, j_hi = math.floor(start * scale), math.floor((start + width) * scale)
    return sorted({j % scale + 1 for j in range(j_lo, j_hi + 1)})


def _require_shapes(S, kind: type) -> None:
    # a cover reads S.shapes, which a RectSet, a disk obstacle too, lacks
    if not isinstance(S, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(S).__name__}")


def dyadic_cover(B: DiskCompact) -> tuple[list[DyadicSquare], AreaBounds]:
    """Maximal squares of the cover Q(B), in angular order, and the area of their union.

    The maximal squares are pairwise disjoint, so the area of the union is
    the sum of their areas.
    """
    _require_shapes(B, DiskCompact)
    if B.is_empty:
        return [], AreaBounds(0.0, 0.0, 0, True)
    squares: set[DyadicSquare] = set()
    for s in B.shapes:
        n0 = _shape_min_scale(1.0 - s.rho_min)
        start, width = _angle_footprint(s)
        squares.update(DyadicSquare(n0, k) for k in _squares_for_footprint(n0, start, width))
    # by left end, coarser first: a square nested in a kept one follows it
    # before any square outside it, so it lies in the last kept square
    maximal: list[DyadicSquare] = []
    for q in sorted(squares, key=lambda q: (q.angle_fraction[0], q.n)):
        if not (maximal and q.lies_in(maximal[-1])):
            maximal.append(q)
    area = math.fsum(q.area for q in maximal)
    return maximal, AreaBounds(area, area, 0, True)


# ---------------------------------------------------------------------------
# Whitney covers in the half-plane
# ---------------------------------------------------------------------------


def _merged_count(ranges: list[tuple[int, int]]) -> int:
    if not ranges:
        return 0
    ranges.sort()
    total = 0
    cur_lo, cur_hi = ranges[0]
    for lo, hi in ranges[1:]:
        if lo > cur_hi + 1:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo + 1
    return total


def whitney_ranges(A: HalfPlaneHull, k: int) -> list[tuple[int, int]]:
    """Inclusive j-ranges of the level-k Whitney squares meeting A.

    A shape meets the band [2^k, 2^(k+1)] in the x-interval of its section at
    its lowest height there, where every family is widest; the squares of
    side 2^k meeting the closed [lo, hi] are j = ceil(lo/2^k) - 1 ... floor(hi/2^k).
    """
    side = 2.0**k
    ranges = []
    for s in A.shapes:
        y0, y1 = s.y_range
        if y0 <= 2.0 * side and side <= y1:
            lo, hi = s.section(max(side, y0))
            ranges.append((math.ceil(lo / side) - 1, math.floor(hi / side)))
    return ranges


def _fsum_toward(terms: list[float], down: bool) -> float:
    """The exact sum of terms rounded down (or up): math.fsum, moved one float where the sign of its residual says so.

    fsum rounds the exact sum to nearest, and fsum(terms + [-s]) is the
    exact residual rounded, so it has the residual's sign.
    """
    s = math.fsum(terms)
    r = math.fsum(terms + [-s])
    if (r < 0) if down else (r > 0):
        return math.nextafter(s, -math.inf if down else math.inf)
    return s


def whitney_cover_area(A: HalfPlaneHull) -> AreaBounds:
    """Total area of the distinct Whitney squares meeting A.

    Every level from the top down to K_CUT is counted exactly through
    integer ranges.  A shape meets a level k < K_CUT only if its foot
    y0 <= 2^(k+1) <= 2^K_CUT, and then, with x-extent w, in at most
    w/2^k + 2 squares, whose areas sum over k < K_CUT to at most
    w 2^K_CUT + (2/3) 4^K_CUT.  The bracket is [area, area + that sum over
    such shapes], of width about 2^K_CUT times the hull's x-extent, rounded
    outward: its lower end is the exact sum of the level areas rounded
    down, and its upper end the exact sum of those and the tail terms
    rounded up, with 2/3 rounded up too.  While the x-extent is at most
    2^12 each count is below 2^53, so every term count 4^k is exact.
    """
    _require_shapes(A, HalfPlaneHull)
    if A.is_empty:
        return AreaBounds(0.0, 0.0, 0, True)
    # the top level k has 2^k <= y_max < 2^(k+1)
    levels = range(math.frexp(A.y_max)[1] - 1, K_CUT - 1, -1)
    terms = [_merged_count(whitney_ranges(A, k)) * 4.0**k for k in levels]
    tail = [
        t
        for s in A.shapes
        if s.y_range[0] <= 2.0**K_CUT
        for t in ((s.x_range[1] - s.x_range[0]) * 2.0**K_CUT, math.nextafter(2.0 / 3.0, 1.0) * 4.0**K_CUT)
    ]
    return AreaBounds(_fsum_toward(terms, True), _fsum_toward(terms + tail, False), len(levels), True)


# ---------------------------------------------------------------------------
# Lipschitz majorant
# ---------------------------------------------------------------------------


def _piece_value(piece, x: float) -> float:
    _, _, kind, params = piece
    if kind == "lin":
        a, b = params
        return a + b * x
    c, r = params
    return math.sqrt(max(r * r - (x - c) ** 2, 0.0))


def _piece_integral(piece, lo: float, hi: float) -> float:
    _, _, kind, params = piece
    if kind == "lin":
        a, b = params
        return (a + b * 0.5 * (lo + hi)) * (hi - lo)
    c, r = params

    def anti(t: float) -> float:
        t = max(min(t, r), -r)
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r))

    return anti(hi - c) - anti(lo - c)


def _crossings(p1, p2) -> list[float]:
    k1, k2 = p1[2], p2[2]
    if k1 == "lin" and k2 == "lin":
        (a1, b1), (a2, b2) = p1[3], p2[3]
        if b1 == b2:
            return []
        return [(a2 - a1) / (b1 - b2)]
    if k1 == "arc" and k2 == "arc":
        (c1, r1), (c2, r2) = p1[3], p2[3]
        if c1 == c2:
            return []
        x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
        return [x]
    if k1 == "arc":
        p1, p2 = p2, p1
    (a, b), (c, r) = p1[3], p2[3]
    # (a + b x)^2 = r^2 - (x - c)^2
    A = b * b + 1.0
    Bq = 2.0 * (a * b - c)
    Cq = a * a + c * c - r * r
    disc = Bq * Bq - 4.0 * A * Cq
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    return [(-Bq - sq) / (2.0 * A), (-Bq + sq) / (2.0 * A)]


def lipschitz_majorant_area(A: HalfPlaneHull) -> float:
    """Integral of the minimal norm-1 Lipschitz function lying above A.

    The majorant is the upper envelope of per-shape profiles (tents, flat
    tents and circle caps); the envelope is integrated exactly between
    breakpoints where the winning piece can change.
    """
    _require_shapes(A, HalfPlaneHull)
    # a slit's flat top has zero width and adds nothing to the envelope
    pieces = [p for s in A.shapes for p in s.majorant_pieces() if p[0] < p[1]]
    if not pieces:
        return 0.0
    xs: set[float] = set()
    for p in pieces:
        xs.add(p[0])
        xs.add(p[1])
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            lo = max(pieces[i][0], pieces[j][0])
            hi = min(pieces[i][1], pieces[j][1])
            if lo >= hi:
                continue
            for x in _crossings(pieces[i], pieces[j]):
                if lo < x < hi:
                    xs.add(x)
    grid = sorted(xs)
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        best = None
        best_v = 0.0
        for p in pieces:
            if p[0] <= mid <= p[1]:
                v = _piece_value(p, mid)
                if v > best_v:
                    best_v = v
                    best = p
        if best is not None and best_v > 0.0:
            total += _piece_integral(best, lo, hi)
    return total
