"""Closed forms, certified brackets and the pass rules the benchmark checks.

These are the benchmark's own formulas, written from the definitions and
kept independent of the library's oracle code so that a library change
cannot move both sides of a check.

Two-sided Monte Carlo checks use Z_MAX = 5 standard errors.  A run makes
tens of such checks and the benchmark is run hundreds of times, so a 3-sigma
rule (0.27% false alarms per check) would fail healthy code; at 5 sigma the
false-alarm rate is 6e-7 per check.
"""

from __future__ import annotations

import math

Z_MAX = 5.0
# absolute slack for float dust in exact-equality checks
FLOAT_DUST = 1e-9


def hcap_vslit(h: float) -> float:
    """hcap of the vertical slit [0, ih]."""
    return 0.5 * h * h


def hcap_halfdisk(r: float) -> float:
    """hcap of the half-disk of radius r."""
    return r * r


def crad_vslit_at_iy(h: float, y: float) -> float:
    """crad(H minus the slit [0, ih], iy) = 2 (y^2 - h^2) / y."""
    return 2.0 * (y * y - h * h) / y


def crad_halfdisk_at_iy(r: float, y: float) -> float:
    """crad(H minus the half-disk of radius r, iy) = 2 y (1 - q) / (1 + q), q = (r/y)^2."""
    q = (r / y) ** 2
    return 2.0 * y * (1.0 - q) / (1.0 + q)


def transport_dcap(crad: float, y: float) -> float:
    """dcap(T_y(A)) from crad(H minus A, iy) = 2 y exp(-dcap)."""
    return -math.log(crad / (2.0 * y))


def slit_dcap(rho: float) -> float:
    """dcap of the radial slit from rho to the unit circle: -log(4 rho / (1 + rho)^2)."""
    return -math.log(4.0 * rho / (1.0 + rho) ** 2)


def ring_dcap(rho: float) -> float:
    """dcap of the closed annulus rho <= |z| <= 1."""
    return -math.log(rho)


def filled_ring_dcap(rho: float, radius: float) -> float:
    """dcap of the filled hyperbolic radius-neighborhood of the annulus rho <= |z| < 1.

    The neighborhood is again an annulus; its inner radius r' satisfies
    2 artanh(rho) - 2 artanh(r') = radius (curvature -1 disk metric).
    """
    return ring_dcap(math.tanh(math.atanh(rho) - 0.5 * radius))


# ---------------------------------------------------------------------------
# certified brackets from monotonicity of hcap and dcap
# ---------------------------------------------------------------------------


def _hcap_shape_lower(s) -> float:
    kind = type(s).__name__
    if kind == "VSlit":
        return hcap_vslit(s.h)
    if kind == "HalfDisk":
        return hcap_halfdisk(s.r)
    if kind == "BoxShape":
        # a rooted box contains its left edge and an inscribed half-disk
        h = s.y1 - s.y0
        if s.y0 > 0.0:
            return 0.0
        return max(hcap_vslit(h), hcap_halfdisk(min(0.5 * (s.x1 - s.x0), h)))
    raise TypeError(f"no hcap lower bound for {kind}")


def hcap_bracket(shapes) -> tuple[float, float]:
    """[max over shapes of an inscribed closed form, hcap of an enclosing half-disk].

    hcap is monotone under inclusion and translation invariant.  The upper
    half-disk is centred at the midpoint of the hull's x-range and reaches
    the farthest top corner of the shapes' bounding boxes.
    """
    lower = max(_hcap_shape_lower(s) for s in shapes)
    x_lo = min(s.x_range[0] for s in shapes)
    x_hi = max(s.x_range[1] for s in shapes)
    mid = 0.5 * (x_lo + x_hi)
    reach = 0.0
    for s in shapes:
        for x in s.x_range:
            reach = max(reach, math.hypot(x - mid, s.y_range[1]))
    return lower, hcap_halfdisk(reach)


def _dcap_shape_lower(s) -> float:
    kind = type(s).__name__
    if kind == "RadialSlit":
        return slit_dcap(s.rho)
    if kind == "ArcBox":
        if s.theta1 - s.theta0 >= 2.0 * math.pi:
            return ring_dcap(s.rho)
        # an arcbox contains its radial edges
        return slit_dcap(s.rho)
    raise TypeError(f"no dcap lower bound for {kind}")


def dcap_bracket(shapes) -> tuple[float, float]:
    """[max over shapes of an inscribed slit or ring, dcap of the annulus rho_min <= |z| < 1]."""
    lower = max(_dcap_shape_lower(s) for s in shapes)
    rho_min = min(s.rho for s in shapes)
    return lower, ring_dcap(rho_min)


# ---------------------------------------------------------------------------
# pass rules
# ---------------------------------------------------------------------------


def matches(estimate: float, std_error: float, exact: float) -> bool:
    """|estimate - exact| within Z_MAX standard errors (plus float dust)."""
    return abs(estimate - exact) <= Z_MAX * std_error + FLOAT_DUST


def within_bracket(estimate: float, std_error: float, lo: float, hi: float) -> bool:
    """A Monte Carlo estimate of a quantity certified to lie in [lo, hi]."""
    slack = Z_MAX * std_error + FLOAT_DUST
    return lo - slack <= estimate <= hi + slack
