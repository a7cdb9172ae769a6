"""Transport map T_y(z) = (z - iy)/(z + iy) from half-plane to disk.

T_y is a conformal bijection from the upper half-plane onto the unit disk
sending iy to 0 and the real axis to the unit circle.  A hull A with
sup|A| = r lies in the disk |z| <= r, whose image is at distance at least
(y - r)/(y + r) from 0; for y > 3 r that is above 1/2, so T_y(A) stays in
the annulus 1/2 < |w| < 1 where disk capacities are compared.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import HalfPlaneHull, _as_complex


class AnnulusError(ValueError):
    """The transported set leaves the annulus 1/2 < |w| < 1."""


def _require_height(y: float) -> None:
    if not (math.isfinite(y) and y > 0):
        raise ValueError("y must be positive and finite")


def t_y(y: float, z) -> np.ndarray | complex:
    """Apply T_y; accepts scalars or arrays, defined on the closed half-plane."""
    _require_height(y)
    zz = _as_complex(z)
    out = (zz - 1j * y) / (zz + 1j * y)
    return complex(out[()]) if out.shape == () else out


def require_annulus(A: HalfPlaneHull, y: float) -> None:
    """Raise AnnulusError unless T_y(A) surely lies in 1/2 < |w| < 1."""
    _require_height(y)
    if A.is_empty:
        return
    r = A.sup_abs
    if not (y - r) / (y + r) > 0.5:
        raise AnnulusError(f"T_y(A) may leave the annulus at y={y}; need y > 3 sup|z| = {3 * r}")
