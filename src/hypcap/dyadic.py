"""Dyadic squares in the disk, Whitney squares and the Lipschitz majorant.

A dyadic "square" Q at scale n over the angular interval
J = [(k-1)/2^n, k/2^n) is the tombstone {z : z/|z| in e^{2 pi i J},
1 - |z| <= 2^-n}; its top half is the inner part 1 - |z| > 2^-(n+1).  The
cover of a disk compact collects every square whose top half meets the
set.  Because all primitive disk shapes are products of an angle set and
a radial range reaching the unit circle, any square of the cover at a
deeper scale is contained in its in-cover ancestor at the shape's coarsest
populated scale, so the cover's union is a finite union of maximal squares
and its area is an exact breakpoint sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    Point,
    PointProbe,
    RadialSlit,
    VSlit,
)
from .quadtree import AreaBounds

TWO_PI = 2.0 * math.pi
# the finest dyadic scale a cover may reach: deeper sets are rejected
N_MAX = 20
# the finest Whitney level enumerated exactly; the tail below is bracketed
K_CUT = -16


@dataclass(frozen=True)
class DyadicSquare:
    """Scale/position index of one dyadic square."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or not (1 <= self.k <= 2**self.n):
            raise ValueError("need n >= 1 and 1 <= k <= 2^n")

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

    def contains(self, z: complex) -> bool:
        u = 1.0 - abs(z)
        if not (0.0 <= u <= 0.5**self.n):
            return False
        frac = (math.atan2(z.imag, z.real) / TWO_PI) % 1.0
        lo, hi = self.angle_fraction
        return lo <= frac < hi


def layer_of(z: Point | complex) -> int:
    """Index n of the dyadic layer 2^-(n+1) <= 1 - |z| < 2^-n."""
    a = z.z if isinstance(z, Point) else complex(z)
    u = 1.0 - abs(a)
    if not (0.0 < u < 0.5):
        raise ValueError("layer_of needs 1/2 < |z| < 1")
    n = int(math.floor(-math.log2(u)))
    while 0.5**n <= u:
        n -= 1
    while u < 0.5 ** (n + 1):
        n += 1
    return n


def layer_of_radius(u: np.ndarray) -> np.ndarray:
    """Vectorized layer index for depths u = 1 - |z| in (0, 1); [1/2, 1) is layer 0."""
    u = np.asarray(u, dtype=float)
    n = np.floor(-np.log2(u)).astype(np.int64)
    too_deep = np.ldexp(1.0, -n) <= u
    n[too_deep] -= 1
    too_shallow = u < np.ldexp(1.0, -(n + 1))
    n[too_shallow] += 1
    return n


def _shape_min_scale(max_depth_from_circle: float) -> int:
    """Smallest n whose top-half band (2^-(n+1), 2^-n] meets (0, u]."""
    u = max_depth_from_circle
    n = 1
    while 0.5 ** (n + 1) >= u:
        n += 1
        if n > N_MAX:
            raise ValueError(
                f"set reaches deeper than scale N_MAX={N_MAX}; cover would be incomplete"
            )
    return n


def _angle_footprint(s) -> tuple[float, float]:
    """Closed angular footprint (start, width) as fractions of the turn."""
    a, w = s.angle_interval()
    return (a / TWO_PI) % 1.0, w / TWO_PI


def _squares_for_footprint(n: int, start: float, width: float) -> list[int]:
    """All k whose half-open dyadic interval meets the closed footprint."""
    scale = 2**n
    if width >= 1.0:
        return list(range(1, scale + 1))
    ks: set[int] = set()
    segments = []
    end = start + width
    if end <= 1.0:
        segments.append((start, end))
    else:
        segments.append((start, 1.0))
        segments.append((0.0, end - 1.0))
    for a, b in segments:
        k_lo = int(math.floor(a * scale)) + 1
        k_hi = int(math.floor(b * scale)) + 1
        for k in range(k_lo, k_hi + 1):
            if 1 <= k <= scale:
                ks.add(k)
    return sorted(ks)


def dyadic_cover(B: DiskCompact) -> tuple[list[DyadicSquare], AreaBounds]:
    """Maximal squares of the cover Q(B) and the exact area of their union.

    The union is {1 - |z| <= f(angle)} for a piecewise-constant dyadic depth
    profile f, so the area is an exact sum over angular breakpoints.
    """
    if B.is_empty:
        return [], AreaBounds(0.0, 0.0, 0, True)
    squares: list[DyadicSquare] = []
    for s in B.shapes:
        u = 1.0 - s.rho_min
        n0 = _shape_min_scale(u)
        start, width = _angle_footprint(s)
        for k in _squares_for_footprint(n0, start, width):
            squares.append(DyadicSquare(n0, k))
    squares = sorted(set(squares), key=lambda q: (q.n, q.k))

    # breakpoint sweep: depth profile is the max square depth per arc
    events = sorted({frac for q in squares for frac in q.angle_fraction})
    events.append(events[0] + 1.0)
    area = 0.0
    for lo, hi in zip(events[:-1], events[1:]):
        mid = 0.5 * (lo + hi) % 1.0
        depth = 0.0
        for q in squares:
            qlo, qhi = q.angle_fraction
            if qlo <= mid < qhi:
                depth = max(depth, q.depth)
        if depth > 0.0:
            area += math.pi * (hi - lo) * (2.0 * depth - depth * depth)
    return squares, AreaBounds(area, area, 0, True)


# ---------------------------------------------------------------------------
# Whitney covers in the half-plane
# ---------------------------------------------------------------------------


def _band_cross_section(s, k: int) -> tuple[float, float] | None:
    """x-interval of points of s with height in [2^k, 2^{k+1}], or None."""
    lo_y = 2.0**k
    hi_y = 2.0 ** (k + 1)
    y0, y1 = s.y_range
    if lo_y > y1 or hi_y < y0:
        return None
    if isinstance(s, (VSlit, BoxShape, PointProbe)):
        return s.x_range
    if isinstance(s, HalfDisk):
        y_at = max(lo_y, y0)
        halfw = math.sqrt(max(s.r * s.r - y_at * y_at, 0.0))
        return (s.c - halfw, s.c + halfw)
    raise TypeError(type(s).__name__)


def _range_for_interval(lo: float, hi: float, k: int) -> tuple[int, int]:
    """Inclusive j-range of level-k squares meeting the closed [lo, hi]."""
    side = 2.0**k
    return (int(math.ceil(lo / side)) - 1, int(math.floor(hi / side)))


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
    """Inclusive j-ranges of the level-k Whitney squares meeting A."""
    ranges = []
    for s in A.shapes:
        sect = _band_cross_section(s, k)
        if sect is not None:
            ranges.append(_range_for_interval(sect[0], sect[1], k))
    return ranges


def whitney_cover_area(A: HalfPlaneHull) -> AreaBounds:
    """Total area of the distinct Whitney squares meeting A.

    Levels down to K_CUT are enumerated exactly through integer ranges; the
    geometric tail below K_CUT is bracketed analytically, so the returned
    gap is of order 4^K_CUT.
    """
    if A.is_empty:
        return AreaBounds(0.0, 0.0, 0, True)
    y_max = A.y_max
    k_top = int(math.floor(math.log2(y_max)))
    while 2.0**k_top > y_max:
        k_top -= 1
    while 2.0 ** (k_top + 1) <= y_max:
        k_top += 1

    area = 0.0
    levels = 0
    for k in range(k_top, K_CUT - 1, -1):
        ranges = whitney_ranges(A, k)
        area += _merged_count(ranges) * 4.0**k
        levels += 1

    # tail bracket for levels below K_CUT
    tail_lo = 0.0
    tail_hi = 0.0
    s4 = 4.0**K_CUT / 3.0  # sum of 4^k over k < K_CUT
    s2 = 2.0**K_CUT  # sum of 2^k over k < K_CUT
    rooted = [s for s in A.shapes if s.y_range[0] == 0.0]
    for s in rooted:
        if isinstance(s, VSlit):
            tail_lo += s4
            tail_hi += 2.0 * s4
        elif isinstance(s, BoxShape):
            w = s.x1 - s.x0
            tail_lo += w * s2
            tail_hi += w * s2 + 2.0 * s4
        elif isinstance(s, HalfDisk):
            w_lo = 2.0 * math.sqrt(max(s.r * s.r - 4.0**K_CUT, 0.0))
            tail_lo += w_lo * s2
            tail_hi += 2.0 * s.r * s2 + 2.0 * s4
    # squares shared between touching feet are double counted in tail_lo
    n_touch = 0
    for i in range(len(rooted)):
        for j in range(i + 1, len(rooted)):
            xi, xj = rooted[i].x_range, rooted[j].x_range
            if max(xi[0], xj[0]) <= min(xi[1], xj[1]):
                n_touch += 1
    tail_lo = max(0.0, tail_lo - n_touch * 2.0 * s4)

    return AreaBounds(area + tail_lo, area + tail_hi, levels, True)


# ---------------------------------------------------------------------------
# Lipschitz majorant
# ---------------------------------------------------------------------------


def _pieces_for_shape(s) -> list[tuple]:
    """Profile pieces (x_lo, x_hi, kind, params) of the shape's majorant.

    kind 'lin': value a + b x on the span; kind 'arc': sqrt(r^2 - (x-c)^2).
    """
    if isinstance(s, VSlit):
        return [
            (s.x - s.h, s.x, "lin", (s.h - s.x, 1.0)),
            (s.x, s.x + s.h, "lin", (s.h + s.x, -1.0)),
        ]
    if isinstance(s, PointProbe):
        return [
            (s.x - s.y, s.x, "lin", (s.y - s.x, 1.0)),
            (s.x, s.x + s.y, "lin", (s.y + s.x, -1.0)),
        ]
    if isinstance(s, BoxShape):
        top = s.y1
        return [
            (s.x0 - top, s.x0, "lin", (top - s.x0, 1.0)),
            (s.x0, s.x1, "lin", (top, 0.0)),
            (s.x1, s.x1 + top, "lin", (top + s.x1, -1.0)),
        ]
    if isinstance(s, HalfDisk):
        r, c = s.r, s.c
        q = r / math.sqrt(2.0)
        return [
            (c - r * math.sqrt(2.0), c - q, "lin", (r * math.sqrt(2.0) - c, 1.0)),
            (c - q, c + q, "arc", (c, r)),
            (c + q, c + r * math.sqrt(2.0), "lin", (r * math.sqrt(2.0) + c, -1.0)),
        ]
    raise TypeError(type(s).__name__)


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
    pieces = [p for s in A.shapes for p in _pieces_for_shape(s)]
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
