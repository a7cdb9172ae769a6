"""Transport maps T_y(z) = (z - iy)/(z + iy) between half-plane and disk.

T_y is a conformal bijection from the upper half-plane onto the unit disk
sending iy to 0 and the real axis to the unit circle.  Its local area
factor is |T_y'(z)|^2 = 4 y^2 / |z + iy|^4, which tends to 4/y^2 on any
bounded set as y grows; image areas are bracketed by certified quadrature
of that factor over the source set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import BoxShape, HalfDisk, HalfPlaneHull, Obstacle, VSlit, _as_complex
from .quadtree import AreaBounds, _split4

SQRT2 = math.sqrt(2.0)


class AnnulusError(ValueError):
    """The transported set leaves the annulus 1/2 < |w| < 1."""


def t_y(y: float, z) -> np.ndarray | complex:
    """Apply T_y; accepts scalars or arrays, defined on the closed half-plane."""
    if y <= 0:
        raise ValueError("y must be positive")
    zz = _as_complex(z)
    out = (zz - 1j * y) / (zz + 1j * y)
    return complex(out[()]) if out.shape == () else out


def t_y_inv(y: float, w) -> np.ndarray | complex:
    """Inverse transport iy (1 + w)/(1 - w)."""
    if y <= 0:
        raise ValueError("y must be positive")
    ww = _as_complex(w)
    out = 1j * y * (1.0 + ww) / (1.0 - ww)
    return complex(out[()]) if out.shape == () else out


def t_y_jacobian(y: float, z) -> np.ndarray | float:
    """Area factor |T_y'(z)|^2 = 4 y^2 / |z + iy|^4."""
    if y <= 0:
        raise ValueError("y must be positive")
    zz = _as_complex(z)
    out = 4.0 * y * y / np.abs(zz + 1j * y) ** 4
    return float(out[()]) if out.shape == () else out


def map_disk_inverse(y: float, c, r):
    """Euclidean disk image of the disk C(c, r) under the inverse transport.

    Standard Moebius circle image: the image center is the image of the
    point symmetric to the pole (w = 1) with respect to the source circle.
    """
    c = _as_complex(c)
    r = np.asarray(r, dtype=float)
    sym = c + (r * r) / np.conj(1.0 - c)
    m = t_y_inv(y, sym)
    # boundary point nearest the pole gives the worst-case radius exactly
    u = (1.0 - c) / np.abs(1.0 - c)
    q = t_y_inv(y, c + r * u)
    return m, np.abs(q - m)


# ---------------------------------------------------------------------------
# certified image area
# ---------------------------------------------------------------------------


def _cell_inside_shape(s, x0, x1, y0, y1) -> np.ndarray:
    if isinstance(s, BoxShape):
        return (x0 >= s.x0) & (x1 <= s.x1) & (y0 >= s.y0) & (y1 <= s.y1)
    if isinstance(s, HalfDisk):
        far_x = np.maximum(np.abs(x0 - s.c), np.abs(x1 - s.c))
        far_y = np.maximum(np.abs(y0), np.abs(y1))
        return (np.hypot(far_x, far_y) <= s.r) & (y0 >= 0.0)
    if isinstance(s, VSlit):
        return np.zeros(x0.shape, dtype=bool)
    raise TypeError(type(s).__name__)


def image_area(
    S,
    y: float,
    tol: float = 1e-3,
    tol_is_relative: bool = True,
    max_depth: int = 24,
) -> AreaBounds:
    """Certified bounds on |T_y(S)| for a box or a half-plane hull."""
    if not all(v > 0 and math.isfinite(v) for v in (y, tol)):
        raise ValueError("y and tol must be positive and finite")
    shapes = S.shapes if isinstance(S, HalfPlaneHull) else (S,)
    if not shapes:
        return AreaBounds(0.0, 0.0, 0, True)
    x_lo = min(s.x_range[0] for s in shapes)
    x_hi = max(s.x_range[1] for s in shapes)
    y_lo = min(s.y_range[0] for s in shapes)
    y_hi = max(s.y_range[1] for s in shapes)
    size = max(x_hi - x_lo, y_hi - y_lo)
    if size <= 0:
        return AreaBounds(0.0, 0.0, 0, True)

    ix = np.zeros(1, dtype=np.int64)
    iy_ = np.zeros(1, dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)
    lower = 0.0
    retired_gap = 0.0
    cells = 0
    met = False

    def jac_upper(cx, cy, half):
        # |z + iy| is the distance to the point -iy; min over the cell
        dx = np.maximum(np.abs(cx) - half, 0.0)
        dyv = np.maximum(np.abs(cy + y) - half, 0.0)
        dmin = np.hypot(dx, dyv)
        with np.errstate(divide="ignore"):
            return 4.0 * y * y / dmin**4

    def midpoint_with_remainder(cx, cy, half):
        # midpoint rule with a certified Taylor remainder: the Hessian of
        # 4 y^2 r^-4 is bounded by 256 y^2 / rmin^6 in operator norm, and
        # the integral of |x - center|^2 over the cell is side^4 / 6
        side = 2.0 * half
        mid = t_y_jacobian(y, cx + 1j * cy) * side * side
        dx = np.maximum(np.abs(cx) - half, 0.0)
        dyv = np.maximum(np.abs(cy + y) - half, 0.0)
        rmin = np.hypot(dx, dyv)
        with np.errstate(divide="ignore"):
            err = (256.0 / 12.0) * y * y * side**4 / rmin**6
        return mid, err

    while True:
        side = size * np.ldexp(1.0, -depth.astype(np.int64))
        half = 0.5 * side
        cx = x_lo + (ix + 0.5) * side
        cy = y_lo + (iy_ + 0.5) * side
        cells += ix.size
        x0c, x1c = cx - half, cx + half
        y0c, y1c = cy - half, cy + half
        halfdiag = half * SQRT2

        inside = np.zeros(cx.shape, dtype=bool)
        for s in shapes:
            inside |= _cell_inside_shape(s, x0c, x1c, y0c, y1c)
        dist = S.dist(cx + 1j * cy)
        outside = (~inside) & (dist > halfdiag)
        boundary = ~(inside | outside)

        area = side * side
        mid, err = midpoint_with_remainder(cx, cy, half)
        contrib_lo = np.where(inside, np.maximum(mid - err, 0.0), 0.0)
        gap_cell = np.where(inside, np.minimum(2.0 * err, mid + err), area * jac_upper(cx, cy, half))
        gap_cell[outside] = 0.0

        live = inside | boundary
        total_gap = retired_gap + float(np.sum(gap_cell[live]))
        lower_est = lower + float(np.sum(contrib_lo[inside]))
        upper_est = lower_est + total_gap
        target = tol * upper_est if tol_is_relative else tol
        if total_gap <= target or not np.any(live) or int(depth.max()) >= max_depth:
            met = total_gap <= target
            lower = lower_est
            retired_gap = total_gap
            break

        # retire interior cells that already meet the equidistributed budget
        density = target / (size * size)
        retire = inside & (gap_cell <= density * area)
        lower += float(np.sum(contrib_lo[retire]))
        retired_gap += float(np.sum(gap_cell[retire]))
        keep = live & ~retire
        if not np.any(keep):
            lower = lower_est
            retired_gap = total_gap
            met = True
            break
        ix, iy_, depth = _split4(ix[keep], iy_[keep], depth[keep])

    return AreaBounds(lower, lower + retired_gap, cells, met)


# ---------------------------------------------------------------------------
# pushforward sets
# ---------------------------------------------------------------------------


@dataclass
class PushforwardSet(Obstacle):
    """Membership oracle for B_y = T_y(A), living in the unit disk.

    Exact queries go through preimages: a point is in B_y iff its inverse
    image is in A, and a disk meets B_y iff its inverse-image disk meets A.
    The euclidean distance is only bounded from below (conservatively), via
    |T(a) - T(b)| = 2 y |a - b| / (|a + iy| |b + iy|).
    """

    hull: HalfPlaneHull
    y: float
    space = "disk"

    def __post_init__(self):
        self.sup_abs_src = self.hull.sup_abs

    @property
    def is_empty(self) -> bool:
        return self.hull.is_empty

    @property
    def min_abs(self) -> float:
        r = self.sup_abs_src
        return max((self.y - r) / (self.y + r), 0.0)

    @property
    def annulus_ok(self) -> bool:
        """Sufficient check that T_y(A) stays inside 1/2 < |w| < 1."""
        if self.hull.is_empty:
            return True
        return self.min_abs > 0.5

    def require_annulus(self) -> None:
        if not self.annulus_ok:
            raise AnnulusError(
                f"T_y(A) may leave the annulus at y={self.y}; "
                f"need y > 3 sup|z| = {3 * self.sup_abs_src}"
            )

    def member(self, w) -> np.ndarray:
        w = _as_complex(w)
        return self.hull.member(t_y_inv(self.y, w))

    def ball_intersects(self, centers, radii) -> np.ndarray:
        """Exact test: does the euclidean disk meet B_y?"""
        if self.hull.is_empty:
            centers = _as_complex(centers)
            return np.zeros(centers.shape, dtype=bool)
        m, r = map_disk_inverse(self.y, centers, radii)
        return self.hull.dist(m) <= r

    def dist(self, w) -> np.ndarray:
        """Conservative lower bound on the distance to B_y (0 on the set)."""
        w = _as_complex(w)
        if self.hull.is_empty:
            return np.full(w.shape, np.inf)
        zeta = t_y_inv(self.y, w)
        d = self.hull.dist(zeta)
        denom = np.abs(zeta + 1j * self.y) * (self.sup_abs_src + self.y)
        return 2.0 * self.y * d / denom


def pushforward_set(A: HalfPlaneHull, y: float) -> PushforwardSet:
    """The image set T_y(A) as a disk-space membership oracle."""
    if y <= 0:
        raise ValueError("y must be positive")
    return PushforwardSet(A, y)
