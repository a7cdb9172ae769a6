"""The obstacle protocol shared by walks and quadtree classifiers, and input checks."""

import math

import numpy as np
import pytest

from hypcap.capacity import (
    CanonicalHull,
    crad_exact_at_iy,
    crad_halfplane,
    dcap_layer_sum,
    dcap_mc,
    dcap_transport,
    hcap_mc,
    ring,
)
from hypcap.corpus import generate_element
from hypcap.dyadic import DyadicSquare, dyadic_cover, lipschitz_majorant_area, whitney_cover_area
from hypcap.geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    InvalidHullError,
    InvalidShapeError,
    RadialSlit,
    VSlit,
)
from hypcap.hyperbolic import (
    DomainError,
    RectSet,
    filled_region,
    hyp_dist_d,
    hyp_dist_h,
    neighborhood_area,
    neighborhood_member,
)
from hypcap.rng import CounterRNG
from hypcap.verify import VerifyConfig, prop1_check, prop1_induction_check
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


def _tree_row():
    """Equal square cells in a row along the real axis, too many to scan without a k-NN query."""
    # RectSet scans its level outright while 16 k >= its size, so more than
    # 16 x 8 cells make the first pass a k = 8 query
    n = 129
    x = np.arange(n) * 2e-3
    return RectSet(x, x + 1e-3, np.zeros(n), np.full(n, 1e-3))


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
        lambda: run_walks(DiskDomain(SLIT_DISK), 0j, 4, eps_stop=NAN),
        lambda: neighborhood_area(SLIT_HULL, tol=NAN),
        lambda: neighborhood_area(SLIT_HULL, rho=NAN),
        lambda: filled_region(SLIT_DISK, tol=NAN),
        lambda: filled_region(SLIT_DISK, rho=NAN),
        lambda: neighborhood_member(2j, SLIT_HULL, NAN),
        lambda: neighborhood_member(2j, SLIT_HULL, math.inf),
        lambda: neighborhood_member(2j, SLIT_HULL, -1.0),
        lambda: dcap_transport(SLIT_HULL, NAN, n_walks=4),
        lambda: dcap_transport(SLIT_HULL, 0.0, n_walks=4),
        lambda: run_walks(DiskDomain(SLIT_DISK), 2 + 0j, 4),
        lambda: dcap_mc(SLIT_DISK, 4, seed=1, threads=0),
        lambda: dcap_mc(SLIT_DISK, 4, seed=1, threads=-3),
        # one walk has no standard error, so its Estimate would claim to be exact
        lambda: hcap_mc(SLIT_HULL, n_walks=1, seed=1),
        # the pathwise layer sandwich needs min_abs >= 1/4
        lambda: dcap_layer_sum(DiskCompact([ArcBox(0.0, 2 * math.pi, 0.2)], validate=False), 4000, seed=1),
        lambda: neighborhood_member(complex(0, math.inf), SLIT_HULL),
        lambda: neighborhood_member(complex(NAN, 1), SLIT_HULL),
        lambda: hyp_dist_h(complex(NAN, 1), 1j),
        lambda: hyp_dist_d(complex(NAN, 0), 0j),
        lambda: RectSet([0.1, 0.3], [0.2], [0.5], [0.6]),
        lambda: RectSet([0.1], [NAN], [0.5], [0.6]),
        lambda: RectSet([0.2], [0.1], [0.5], [0.6]),
        lambda: CanonicalHull("halfdisk", NAN),
        lambda: CanonicalHull("vslit", math.inf),
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
        "threads-zero",
        "threads-negative",
        "n_walks-one",
        "layer-sum-min-abs",
        "member-point-inf",
        "member-point-nan",
        "dist-h-nan",
        "dist-d-nan",
        "rectset-lengths",
        "rectset-nan",
        "rectset-x0-above-x1",
        "canonical-param-nan",
        "canonical-param-inf",
    ],
)
def test_invalid_inputs_raise(call):
    with pytest.raises(ValueError):
        call()


# each case pins the message of the check it means to reach
@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: VSlit(0, 0), InvalidShapeError, "h > 0"),
        (lambda: VSlit(NAN, 1), InvalidShapeError, "finite x"),
        (lambda: BoxShape(0, 1, 0, math.inf), InvalidShapeError, "finite corners"),
        (lambda: BoxShape(1, 0, 0, 1), InvalidShapeError, "x0 < x1"),
        (lambda: HalfDisk(0, -1), InvalidShapeError, "r > 0"),
        (lambda: RadialSlit(NAN, 0.7), InvalidShapeError, "finite parameters"),
        (lambda: RadialSlit(0, 1.0), InvalidShapeError, r"rho in \(0, 1\)"),
        (lambda: ArcBox(1, 0, 0.7), InvalidShapeError, "theta0 < theta1"),
        (lambda: HalfPlaneHull([RadialSlit(0, 0.7)]), InvalidHullError, "not a half-plane hull family"),
        (lambda: DiskCompact([VSlit(0, 1)]), InvalidHullError, "not a disk family"),
        (lambda: SLIT_HULL.scale(0), ValueError, "scale factor"),
        (lambda: RectSet([], [], [], []), ValueError, "at least one rectangle"),
        (lambda: run_walks(DiskDomain(SLIT_DISK), 0j, 0), ValueError, "n_walks must be positive"),
        (lambda: CounterRNG(1).randint(3, 2), ValueError, "empty range"),
        (lambda: generate_element("nope", 7, 0), ValueError, "unknown corpus kind"),
        (lambda: crad_exact_at_iy("box", 0.1, 1.0), ValueError, "box"),
        # a radial slit has no area for the Prop. 1 constant
        (lambda: prop1_check(SLIT_DISK, VerifyConfig()), ValueError, "positive area"),
        (lambda: prop1_induction_check([], VerifyConfig()), ValueError, "between 1 and 8"),
        (
            lambda: prop1_induction_check([DyadicSquare(4, k) for k in range(1, 10)], VerifyConfig()),
            ValueError,
            "between 1 and 8",
        ),
        (lambda: neighborhood_member(1.5 + 0j, SLIT_DISK), DomainError, "open unit disk"),
        # one rectangle: scanned by brute force, no k-NN query
        (lambda: RectSet([0.5], [0.6], [0.1], [0.2]).dist([NAN]), DomainError, "query points must be finite"),
        (lambda: _tree_row().nearest([complex(0.1, NAN)]), DomainError, "query points must be finite"),
        (lambda: DyadicSquare(1.5, 1), ValueError, "integers"),
        (lambda: DyadicSquare(2, 1.0), ValueError, "integers"),
        # an obstacle of the other space is rejected before any of its
        # attributes is read
        (lambda: hcap_mc(SLIT_DISK, 100, 1), TypeError, "halfplane obstacle, got DiskCompact"),
        (lambda: dcap_transport(SLIT_DISK, 10.0, 100), TypeError, "halfplane obstacle, got DiskCompact"),
        (lambda: crad_halfplane(SLIT_DISK, 10.0, 100), TypeError, "halfplane obstacle, got DiskCompact"),
        (lambda: dcap_mc(SLIT_HULL, 100, 1), TypeError, "disk obstacle, got HalfPlaneHull"),
        (lambda: dcap_layer_sum(SLIT_HULL, 100, 1), TypeError, "disk obstacle, got HalfPlaneHull"),
        # the covers read shapes, which a RectSet lacks
        (lambda: dyadic_cover(SLIT_HULL), TypeError, "DiskCompact, got HalfPlaneHull"),
        (lambda: dyadic_cover([RadialSlit(0.0, 0.7)]), TypeError, "DiskCompact, got list"),
        (lambda: dyadic_cover(_tree_row()), TypeError, "DiskCompact, got RectSet"),
        (lambda: whitney_cover_area(SLIT_DISK), TypeError, "HalfPlaneHull, got DiskCompact"),
        (lambda: lipschitz_majorant_area(SLIT_DISK), TypeError, "HalfPlaneHull, got DiskCompact"),
    ],
    ids=[
        "vslit-zero-height",
        "vslit-nan",
        "box-inf",
        "box-x0-above-x1",
        "halfdisk-negative-radius",
        "radial-slit-nan",
        "radial-slit-rho-one",
        "arcbox-reversed",
        "hull-of-disk-shape",
        "compact-of-halfplane-shape",
        "hull-scale-zero",
        "rectset-empty",
        "n_walks-zero",
        "randint-empty-range",
        "unknown-corpus-kind",
        "unknown-crad-kind",
        "prop1-no-area",
        "induction-no-squares",
        "induction-nine-squares",
        "member-outside-disk",
        "rectset-block-query-nan",
        "rectset-tree-query-nan",
        "dyadic-square-fractional-scale",
        "dyadic-square-float-position",
        "hcap-of-compact",
        "transport-of-compact",
        "crad-of-compact",
        "dcap-of-hull",
        "layer-sum-of-hull",
        "dyadic-cover-of-hull",
        "dyadic-cover-of-list",
        "dyadic-cover-of-rectset",
        "whitney-of-compact",
        "lipschitz-of-compact",
    ],
)
def test_typed_errors_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
