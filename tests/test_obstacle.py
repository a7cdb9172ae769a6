"""The obstacle protocol shared by walks and quadtree classifiers, and input checks."""

import math

import numpy as np
import pytest

from hypcap.capacity import dcap_layer_sum, dcap_transport, ring
from hypcap.geom import ArcBox, BoxShape, DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit
from hypcap.hyperbolic import RectSet, filled_region, hyp_dist_d, hyp_dist_h, neighborhood_area, neighborhood_member
from hypcap.wos import DiskDomain, run_walks

NAN = float("nan")
SLIT_HULL = HalfPlaneHull([VSlit(0, 1)])
SLIT_DISK = DiskCompact([RadialSlit(0.0, 0.7)])

OBSTACLES = {
    "hull": lambda: HalfPlaneHull([VSlit(-1.0, 0.8), BoxShape(-0.5, 0.3, 0.0, 0.4), HalfDisk(1.2, 0.5)]),
    # the sector [5.5, 7.0] wraps past 2 pi
    "wrapping-arcbox": lambda: DiskCompact([ArcBox(5.5, 7.0, 0.7), RadialSlit(2.0, 0.6)]),
    "full-ring": lambda: ring(0.7),
    "rectset": lambda: RectSet(*filled_region(ring(0.7), 1.0, 1e-2).blocked_rects()),
}


def _part_dists(S, z):
    """(parts x points) distances, one row per shape or rectangle."""
    if isinstance(S, RectSet):
        x, y = z.real[None, :], z.imag[None, :]
        dx = np.maximum(np.maximum(S.x0[:, None] - x, x - S.x1[:, None]), 0.0)
        dy = np.maximum(np.maximum(S.y0[:, None] - y, y - S.y1[:, None]), 0.0)
        return np.hypot(dx, dy)
    return np.stack([s.dist(z) for s in S.shapes])


@pytest.mark.parametrize("name", sorted(OBSTACLES))
def test_nearest_agrees_with_dist(name):
    S = OBSTACLES[name]()
    rng = np.random.default_rng(13)
    if S.space == "halfplane":
        z = rng.uniform(-2.5, 2.5, 400) + 1j * rng.uniform(0.0, 2.0, 400)
    else:
        z = np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 400))
    d, label, point = S.nearest(z)
    assert np.array_equal(d, S.dist(z))
    assert np.array_equal(label, np.argmin(_part_dists(S, z), axis=0))
    assert np.allclose(np.abs(point - z), d, rtol=0.0, atol=1e-12)


def test_non_obstacles_rejected():
    with pytest.raises(TypeError):
        neighborhood_area(object())
    with pytest.raises(TypeError):
        DiskDomain(object())
    with pytest.raises(TypeError):
        DiskDomain(SLIT_HULL)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_walks(DiskDomain(SLIT_DISK), 0j, 4, eps_stop=NAN, step_cap=50),
        lambda: neighborhood_area(SLIT_HULL, tol=NAN, max_depth=6),
        lambda: neighborhood_area(SLIT_HULL, rho=NAN, max_depth=6),
        lambda: filled_region(SLIT_DISK, tol=NAN, max_depth=6),
        lambda: filled_region(SLIT_DISK, rho=NAN, max_depth=6),
        lambda: neighborhood_member(2j, SLIT_HULL, NAN),
        lambda: neighborhood_member(2j, SLIT_HULL, math.inf),
        lambda: neighborhood_member(2j, SLIT_HULL, -1.0),
        lambda: dcap_transport(SLIT_HULL, NAN, n_walks=4),
        lambda: dcap_transport(SLIT_HULL, 0.0, n_walks=4),
        lambda: run_walks(DiskDomain(SLIT_DISK), 2 + 0j, 4),
        # the pathwise layer sandwich needs min_abs >= 1/4
        lambda: dcap_layer_sum(DiskCompact([ArcBox(0.0, 2 * math.pi, 0.2)], validate=False), 4000, seed=1),
        lambda: neighborhood_member(complex(0, math.inf), SLIT_HULL),
        lambda: neighborhood_member(complex(NAN, 1), SLIT_HULL),
        lambda: hyp_dist_h(complex(NAN, 1), 1j),
        lambda: hyp_dist_d(complex(NAN, 0), 0j),
    ],
    ids=[
        "eps_stop-nan",
        "area-tol-nan",
        "area-rho-nan",
        "filled-tol-nan",
        "filled-rho-nan",
        "member-rho-nan",
        "member-rho-inf",
        "member-rho-negative",
        "transport-y-nan",
        "transport-y-zero",
        "start-outside",
        "layer-sum-min-abs",
        "member-point-inf",
        "member-point-nan",
        "dist-h-nan",
        "dist-d-nan",
    ],
)
def test_invalid_inputs_raise(call):
    with pytest.raises(ValueError):
        call()
