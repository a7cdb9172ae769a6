"""Capacity and conformal-radius computations for planar hulls.

The package computes half-plane capacity, disk capacity (minus log of the
conformal radius at the origin) and the geometric quantities they are
comparable to: euclidean areas of hyperbolic neighborhoods, dyadic and
Whitney covers, and the minimal Lipschitz majorant.  Capacities are
estimated with a reproducible walk-on-spheres Monte Carlo engine and
cross-checked against exact closed forms for canonical obstacle families.
"""

from .geom import (
    VSlit,
    BoxShape,
    HalfDisk,
    RadialSlit,
    ArcBox,
    HalfPlaneHull,
    DiskCompact,
)
from .hyperbolic import (
    hyp_dist_h,
    hyp_dist_d,
    neighborhood_member,
    neighborhood_area,
)
from .quadtree import AreaBounds
from .dyadic import (
    DyadicSquare,
    layer_of,
    dyadic_cover,
    whitney_cover_area,
    lipschitz_majorant_area,
)
from .mobius import t_y
from .wos import DomainOracle, Estimate, walk_mean
from .capacity import dcap_mc, hcap_mc, hcap_exact, crad_halfplane, dcap_layer_sum

__version__ = "0.1.0"

__all__ = [
    "VSlit",
    "BoxShape",
    "HalfDisk",
    "RadialSlit",
    "ArcBox",
    "HalfPlaneHull",
    "DiskCompact",
    "hyp_dist_h",
    "hyp_dist_d",
    "neighborhood_member",
    "neighborhood_area",
    "AreaBounds",
    "DyadicSquare",
    "layer_of",
    "dyadic_cover",
    "whitney_cover_area",
    "lipschitz_majorant_area",
    "t_y",
    "DomainOracle",
    "Estimate",
    "walk_mean",
    "dcap_mc",
    "hcap_mc",
    "hcap_exact",
    "crad_halfplane",
    "dcap_layer_sum",
]
