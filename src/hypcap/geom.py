"""Primitive planar shapes, hulls in the half-plane and compacts in the disk.

Shapes come in five parametric families.  Three live in the upper
half-plane and are rooted on the real axis (vertical slits, axis-aligned
boxes, half-disks centered on the axis); two live in the unit disk and are
rooted on the unit circle (radial slits, annular sectors).  A hull is a
finite disjoint union of rooted half-plane shapes whose complement in the
half-plane stays simply connected; a disk compact is the analogous union
inside the disk.  Disjointness is checked with exact pairwise predicates,
contact along the rooting boundary (real axis / unit circle) is allowed.

All distance queries are exact closed forms, vectorized over numpy arrays
of points encoded as complex numbers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi
# the one rounding rule of every pruned distance bound: a distance computed
# from points of modulus at most M is off by at most ROUNDING x M (about
# 4500 ulps of M: far above the rounding of the closed forms here and of
# RectSet, far below any distance a test resolves).  Each site that prunes
# widens its bounds by ROUNDING x its own M, reading the constant at call
# time, so setting it to inf turns every prune off.
ROUNDING = 1e-12


class InvalidShapeError(ValueError):
    """Raised when shape parameters violate the family's invariants."""


class InvalidHullError(ValueError):
    """Raised when a shape list cannot form a valid hull / disk compact."""


def _as_complex(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


def _rect_clip(x, y, x0, x1, y0, y1) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point of the closed rectangle [x0, x1] x [y0, y1] to (x, y); its distance is hypot(x - nx, y - ny)."""
    return np.minimum(np.maximum(x, x0), x1), np.minimum(np.maximum(y, y0), y1)


def _modulus_range(x0, x1, y0, y1) -> tuple[np.ndarray, np.ndarray]:
    """(least, greatest) |z| over each closed rectangle [x0, x1] x [y0, y1]."""
    near = np.hypot(*_rect_clip(0.0, 0.0, x0, x1, y0, y1))
    far = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    return near, far


def _never(cx) -> np.ndarray:
    return np.zeros(np.shape(cx), dtype=bool)


# ---------------------------------------------------------------------------
# shape families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VSlit:
    """Vertical slit {x} x [0, h] rooted on the real axis."""

    x: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.h)) or self.h <= 0:
            raise InvalidShapeError("VSlit needs finite x and h > 0")

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        dy = z.imag - np.minimum(np.maximum(z.imag, 0.0), self.h)
        return np.hypot(z.real - self.x, dy)

    def nearest(self, z) -> np.ndarray:
        z = _as_complex(z)
        return self.x + 1j * np.clip(z.imag, 0.0, self.h)

    def contains_square(self, cx, cy, half) -> np.ndarray:
        return _never(cx)

    @property
    def sup_abs(self) -> float:
        return math.hypot(self.x, self.h)

    @property
    def y_range(self) -> tuple[float, float]:
        return (0.0, self.h)

    @property
    def x_range(self) -> tuple[float, float]:
        return (self.x, self.x)


@dataclass(frozen=True)
class BoxShape:
    """Axis-aligned solid box [x0, x1] x [y0, y1]; rooted iff y0 == 0."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        vals = (self.x0, self.x1, self.y0, self.y1)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidShapeError("BoxShape needs finite corners")
        if not (self.x0 < self.x1 and 0 <= self.y0 < self.y1):
            raise InvalidShapeError("BoxShape needs x0 < x1 and 0 <= y0 < y1")

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        nx, ny = _rect_clip(z.real, z.imag, self.x0, self.x1, self.y0, self.y1)
        return np.hypot(z.real - nx, z.imag - ny)

    def nearest(self, z) -> np.ndarray:
        z = _as_complex(z)
        nx, ny = _rect_clip(z.real, z.imag, self.x0, self.x1, self.y0, self.y1)
        return nx + 1j * ny

    def contains_square(self, cx, cy, half) -> np.ndarray:
        return (cx - half >= self.x0) & (cx + half <= self.x1) & (cy - half >= self.y0) & (cy + half <= self.y1)

    @property
    def sup_abs(self) -> float:
        return max(math.hypot(x, y) for x in (self.x0, self.x1) for y in (self.y0, self.y1))

    @property
    def y_range(self) -> tuple[float, float]:
        return (self.y0, self.y1)

    @property
    def x_range(self) -> tuple[float, float]:
        return (self.x0, self.x1)


@dataclass(frozen=True)
class HalfDisk:
    """Solid half-disk |z - c| <= r in the closed upper half-plane."""

    c: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.r)) or self.r <= 0:
            raise InvalidShapeError("HalfDisk needs finite c and r > 0")

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        above = z.imag >= 0
        rad = np.maximum(np.abs(z - self.c) - self.r, 0.0)
        # below the axis the nearest set point is on the diameter segment
        seg = np.hypot(np.maximum(np.abs(z.real - self.c) - self.r, 0.0), np.abs(z.imag))
        return np.where(above, rad, seg)

    def nearest(self, z) -> np.ndarray:
        z = _as_complex(z)
        w = z - self.c
        aw = np.abs(w)
        # a NaN point divides NaN by NaN, which numpy's complex division
        # reports; the answer is NaN, given quietly as dist gives it
        with np.errstate(invalid="ignore"):
            unit = w / np.where(aw == 0, 1.0, aw)
        on_arc = self.c + np.where(aw > 0, unit, 1.0) * self.r
        inside = (aw <= self.r) & (z.imag >= 0)
        out = np.where(inside, z, on_arc)
        below = z.imag < 0
        if np.any(below):
            seg = np.clip(z.real, self.c - self.r, self.c + self.r) + 0j
            out = np.where(below, seg, out)
        return out

    def contains_square(self, cx, cy, half) -> np.ndarray:
        # above the axis, the corner farthest from c decides
        return (cy - half >= 0.0) & (np.hypot(np.abs(cx - self.c) + half, cy + half) <= self.r)

    @property
    def sup_abs(self) -> float:
        return abs(self.c) + self.r

    @property
    def y_range(self) -> tuple[float, float]:
        return (0.0, self.r)

    @property
    def x_range(self) -> tuple[float, float]:
        return (self.c - self.r, self.c + self.r)


def _norm_angle(a) -> np.ndarray:
    """Reduce angles to [0, 2*pi)."""
    return np.mod(a, TWO_PI)


def _turn_pair(theta: float) -> tuple[complex, complex]:
    """(e^{-i theta}, e^{i theta}), which shapes cache once per angle for the segment queries."""
    return np.exp(-1j * theta), np.exp(1j * theta)


def _segment_dist(z: np.ndarray, turn: tuple[complex, complex], rho: float) -> np.ndarray:
    """Distance to the radial segment from rho e^{i theta} to e^{i theta}, with turn = _turn_pair(theta)."""
    w = z * turn[0]
    dr = w.real - np.minimum(np.maximum(w.real, rho), 1.0)
    return np.hypot(dr, w.imag)


def _segment_nearest(z: np.ndarray, turn: tuple[complex, complex], rho: float) -> np.ndarray:
    w = z * turn[0]
    s = np.clip(w.real, rho, 1.0)
    return s * turn[1] * np.ones_like(z)


@dataclass(frozen=True)
class RadialSlit:
    """Radial segment from rho*e^{i theta} out to the unit circle."""

    theta: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.rho)):
            raise InvalidShapeError("RadialSlit needs finite parameters")
        if not (0.0 < self.rho < 1.0):
            raise InvalidShapeError("RadialSlit needs rho in (0, 1)")

    @cached_property
    def _turn(self) -> tuple[complex, complex]:
        return _turn_pair(self.theta)

    def dist(self, z) -> np.ndarray:
        return _segment_dist(_as_complex(z), self._turn, self.rho)

    def nearest(self, z) -> np.ndarray:
        return _segment_nearest(_as_complex(z), self._turn, self.rho)

    def contains_square(self, cx, cy, half) -> np.ndarray:
        return _never(cx)

    @property
    def rho_min(self) -> float:
        return self.rho

    def angle_interval(self) -> tuple[float, float]:
        a = float(_norm_angle(self.theta))
        return (a, 0.0)


@dataclass(frozen=True)
class ArcBox:
    """Annular sector {rho <= |z| < 1, arg z in [theta0, theta1]}.

    theta1 - theta0 == 2*pi gives the full ring.  The annulus constraint
    rho > 1/2 is enforced at the DiskCompact level, not here, so that
    dyadic cover squares (rho = 1 - 2^-n) remain representable.
    """

    theta0: float
    theta1: float
    rho: float

    def __post_init__(self):
        ok = (
            math.isfinite(self.theta0)
            and math.isfinite(self.theta1)
            and math.isfinite(self.rho)
            and self.theta0 < self.theta1
            and (self.theta1 - self.theta0) <= TWO_PI
            and 0.0 < self.rho < 1.0
        )
        if not ok:
            raise InvalidShapeError("ArcBox needs theta0 < theta1 <= theta0 + 2*pi, rho in (0,1)")

    @property
    def width(self) -> float:
        return self.theta1 - self.theta0

    @cached_property
    def _turns(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        return _turn_pair(self.theta0), _turn_pair(self.theta1)

    def _angle_in(self, z: np.ndarray) -> np.ndarray:
        if self.width >= TWO_PI:
            return np.ones(z.shape, dtype=bool)
        d = _norm_angle(np.angle(z) - self.theta0)
        return d <= self.width

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        r = np.abs(z)
        inside_ang = self._angle_in(z)
        d_radial = np.maximum(np.maximum(self.rho - r, r - 1.0), 0.0)
        if self.width >= TWO_PI:
            return d_radial
        t0, t1 = self._turns
        e0 = _segment_dist(z, t0, self.rho)
        e1 = _segment_dist(z, t1, self.rho)
        return np.where(inside_ang, d_radial, np.minimum(e0, e1))

    def nearest(self, z) -> np.ndarray:
        z = _as_complex(z)
        r = np.abs(z)
        # NaN quietly on a NaN point, as in HalfDisk.nearest
        with np.errstate(invalid="ignore"):
            unit = z / np.where(r == 0, 1.0, r)
        radial = np.clip(r, self.rho, 1.0) * unit
        radial = np.where(r == 0, self.rho * np.exp(1j * 0.5 * (self.theta0 + self.theta1)), radial)
        if self.width >= TWO_PI:
            return radial
        inside_ang = self._angle_in(z)
        t0, t1 = self._turns
        pick0 = _segment_dist(z, t0, self.rho) <= _segment_dist(z, t1, self.rho)
        edge = np.where(pick0, _segment_nearest(z, t0, self.rho), _segment_nearest(z, t1, self.rho))
        return np.where(inside_ang, radial, edge)

    def contains_square(self, cx, cy, half) -> np.ndarray:
        """The square's moduli lie in [rho, 1] and its directions in [theta0, theta1].

        A square off the origin sees its directions as an arc shorter than
        pi, spanned by its corners.  Measured from theta0, corner angles
        spanning less than pi do not wrap past theta0, so the arc is their
        range; a square across a gap narrower than itself has corners on
        both sides of theta0 and spans more.
        """
        x0, x1, y0, y1 = cx - half, cx + half, cy - half, cy + half
        near, far = _modulus_range(x0, x1, y0, y1)
        ok = (near >= self.rho) & (far <= 1.0)
        if self.width >= TWO_PI:
            return ok
        corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x0 + 1j * y1, x1 + 1j * y1])
        d = _norm_angle(np.angle(corners) - self.theta0)
        lo, hi = d.min(axis=0), d.max(axis=0)
        return ok & (hi - lo < math.pi) & (hi <= self.width)

    @property
    def rho_min(self) -> float:
        return self.rho

    @property
    def area(self) -> float:
        return 0.5 * self.width * (1.0 - self.rho * self.rho)

    def angle_interval(self) -> tuple[float, float]:
        return (float(_norm_angle(self.theta0)), float(self.width))


HalfPlaneShape = Union[VSlit, BoxShape, HalfDisk]
DiskShape = Union[RadialSlit, ArcBox]


# ---------------------------------------------------------------------------
# exact pairwise disjointness predicates
# ---------------------------------------------------------------------------


def _overlap_off_axis(a: HalfPlaneShape, b: HalfPlaneShape) -> bool:
    """True iff the closures of rooted shapes a and b share a point strictly above the axis.

    Each rises from its foot x_range, so they do iff their feet share a point
    over which both rise: a half-disk has height 0 at the ends of its foot.
    """
    lo = max(a.x_range[0], b.x_range[0])
    hi = min(a.x_range[1], b.x_range[1])
    return lo < hi or (
        lo == hi and all(s.x_range[0] < lo < s.x_range[1] for s in (a, b) if isinstance(s, HalfDisk))
    )


def _arc_intervals_touch(i0: tuple[float, float], i1: tuple[float, float]) -> bool:
    """Closed circular-interval intersection; intervals are (start, width)."""
    a0, w0 = i0
    a1, w1 = i1
    if w0 >= TWO_PI or w1 >= TWO_PI:
        return True
    d01 = (a1 - a0) % TWO_PI
    d10 = (a0 - a1) % TWO_PI
    return d01 <= w0 or d10 <= w1


def _overlap_in_disk(a: DiskShape, b: DiskShape) -> bool:
    """True iff the closures of a and b meet strictly inside the unit disk."""
    return _arc_intervals_touch(a.angle_interval(), b.angle_interval())


# ---------------------------------------------------------------------------
# hulls and disk compacts
# ---------------------------------------------------------------------------


def validate_halfplane_shapes(shapes: Sequence[HalfPlaneShape]) -> str | None:
    """Return None when the list forms a valid hull, else a description."""
    for i, s in enumerate(shapes):
        if not isinstance(s, (VSlit, BoxShape, HalfDisk)):
            return f"shape {i}: {type(s).__name__} is not a half-plane hull family"
        if isinstance(s, BoxShape) and s.y0 != 0.0:
            return f"shape {i}: box is not rooted on the real axis (y0 = {s.y0})"
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            if _overlap_off_axis(shapes[i], shapes[j]):
                return f"shapes {i} and {j} overlap off the real axis"
    return None


def validate_disk_shapes(shapes: Sequence[DiskShape]) -> str | None:
    for i, s in enumerate(shapes):
        if not isinstance(s, (RadialSlit, ArcBox)):
            return f"shape {i}: {type(s).__name__} is not a disk family"
        if not (s.rho_min > 0.5):
            return f"shape {i}: not contained in the annulus 1/2 < |z| < 1 (rho = {s.rho_min})"
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            if _overlap_in_disk(shapes[i], shapes[j]):
                return f"shapes {i} and {j} overlap inside the disk"
    return None


class Obstacle(ABC):
    """A closed set that walks and quadtree classifiers query.

    Every obstacle has:

    - ``space``: "halfplane" or "disk", the space it lives in;
    - ``is_empty``;
    - ``dist(z)``: the exact euclidean distance to the set, 0 on it and inf
      on an empty set.  The closed disk of center c and radius r meets the
      set iff ``dist(c) <= r``.
    - ``parts``: pieces with an exact ``dist`` each, whose minimum is the
      obstacle's ``dist``.  The quadtree classifier asks only the parts
      that can still decide a cell, and a walk step only the parts that
      can still be nearer than the rest of the boundary.  A
      ``_ShapeUnion``'s parts are its shapes; any other obstacle is its
      own single part.
    - ``contains_square(cx, cy, half)``: True where the closed square
      [cx - half, cx + half] x [cy - half, cy + half] lies in the set, an
      exact predicate per shape family that the quadtree classifier asks
      of a cell's candidate parts.  Boxes, half-disks and annular sectors
      can hold a square; slits have no area, and the other obstacles
      (``RectSet``) answer False everywhere.

    Disk-space obstacles also have ``min_abs``, a lower bound on |z| over
    the set.  The walkable ones (HalfPlaneHull, DiskCompact and RectSet)
    have ``sup_abs``, a bound on |z| over the set (0 when empty, 1 for a
    DiskCompact, a RectSet's largest corner modulus), and ``nearest(z) ->
    (dist, label, point)``: ``dist(z)`` itself, the index of a nearest
    shape (of a nearest rectangle for a RectSet), and a nearest point.
    """

    space: str
    is_empty: bool

    @abstractmethod
    def dist(self, z) -> np.ndarray:
        """Exact euclidean distance to the set."""

    @property
    def parts(self) -> tuple:
        return (self,)

    def contains_square(self, cx, cy, half) -> np.ndarray:
        return _never(cx)


def require_obstacle(S, space: str | None = None) -> None:
    """Raise TypeError unless S is an Obstacle living in space (any, if None)."""
    if not isinstance(S, Obstacle) or space not in (None, S.space):
        want = f"a {space} obstacle" if space else "an Obstacle"
        raise TypeError(f"expected {want}, got {type(S).__name__}")


class _ShapeUnion(Obstacle):
    """Finite union of parametric shapes, checked by the subclass's _validate unless validate=False."""

    shapes: tuple

    def __init__(self, shapes: Iterable = (), validate: bool = True):
        self.shapes = tuple(shapes)
        if validate:
            msg = self._validate(self.shapes)
            if msg is not None:
                raise InvalidHullError(msg)

    def dist(self, z) -> np.ndarray:
        z = _as_complex(z)
        if not self.shapes:
            return np.full(z.shape, np.inf)
        d = self.shapes[0].dist(z)
        for s in self.shapes[1:]:
            d = np.minimum(d, s.dist(z))
        return d

    def nearest(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = _as_complex(z)
        if not self.shapes:
            no_point = np.full(z.shape, complex(np.nan, np.nan))
            return np.full(z.shape, np.inf), np.full(z.shape, -1, dtype=np.int64), no_point
        ds = np.stack([s.dist(z) for s in self.shapes])
        label = np.argmin(ds, axis=0)
        point = np.empty_like(z)
        for k, s in enumerate(self.shapes):
            m = label == k
            if np.any(m):
                point[m] = s.nearest(z[m])
        return np.min(ds, axis=0), label, point

    @property
    def parts(self) -> tuple:
        return self.shapes

    def contains_square(self, cx, cy, half) -> np.ndarray:
        out = _never(cx)
        for s in self.shapes:
            out |= s.contains_square(cx, cy, half)
        return out

    @property
    def is_empty(self) -> bool:
        return len(self.shapes) == 0

    def __len__(self) -> int:
        return len(self.shapes)


class HalfPlaneHull(_ShapeUnion):
    """Bounded union of rooted shapes with simply connected complement in H."""

    space = "halfplane"
    _validate = staticmethod(validate_halfplane_shapes)

    @property
    def sup_abs(self) -> float:
        return max((s.sup_abs for s in self.shapes), default=0.0)

    @property
    def y_max(self) -> float:
        return max((s.y_range[1] for s in self.shapes), default=0.0)

    @property
    def x_bounds(self) -> tuple[float, float]:
        lo = min((s.x_range[0] for s in self.shapes), default=0.0)
        return lo, max((s.x_range[1] for s in self.shapes), default=0.0)

    def translate(self, t: float) -> "HalfPlaneHull":
        return HalfPlaneHull([_affine(s, 1.0, t) for s in self.shapes], validate=False)

    def scale(self, s: float) -> "HalfPlaneHull":
        if not s > 0:
            raise ValueError("scale factor must be positive")
        return HalfPlaneHull([_affine(sh, s, 0.0) for sh in self.shapes], validate=False)

    def mirror(self) -> "HalfPlaneHull":
        return HalfPlaneHull([_affine(s, -1.0, 0.0) for s in self.shapes], validate=False)


class DiskCompact(_ShapeUnion):
    """Union of circle-rooted shapes inside the annulus 1/2 < |z| < 1."""

    space = "disk"
    _validate = staticmethod(validate_disk_shapes)

    @property
    def min_abs(self) -> float:
        return min((s.rho_min for s in self.shapes), default=1.0)

    @property
    def sup_abs(self) -> float:
        return 0.0 if self.is_empty else 1.0


def _affine(s: HalfPlaneShape, a: float, b: float) -> HalfPlaneShape:
    """Image of s under x -> a x + b (a != 0); heights scale by |a|."""
    k = abs(a)
    if isinstance(s, VSlit):
        return VSlit(a * s.x + b, k * s.h)
    if isinstance(s, BoxShape):
        x0, x1 = sorted((a * s.x0 + b, a * s.x1 + b))
        return BoxShape(x0, x1, k * s.y0, k * s.y1)
    if isinstance(s, HalfDisk):
        return HalfDisk(a * s.c + b, k * s.r)
    raise TypeError(type(s).__name__)
