"""Print one "name sha256" line per deterministic output of hypcap.

Two checkouts give the same lines exactly when their neighborhood-area
brackets (the sweep's, and the quadtree's of quadtree.refine_bounds),
whole-level refinements (leaves and brackets), dyadic, Whitney
and Lipschitz covers (of corpus hulls and of their mirror, half-size and
translated images), filled regions, walk ensembles and claim rows are
bit-identical, so a refactor is checked with one diff.  The rectset lines
query RectSet.nearest where its k-NN loop has the least room, at points
almost equidistant from many cells, so a change to the loop or a margin
below the rounding shows up there:

    PYTHONPATH=src python tools/fingerprint.py > new.txt
    PYTHONPATH=../parent/src python tools/fingerprint.py > old.txt
    diff old.txt new.txt

On a 2-core x86 VM the default run takes about 5 s, and --all, which
adds the "fattening" and "omega" claims, about 10 s at 211 MB max RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib

import numpy as np

from hypcap import quadtree
from hypcap.capacity import ring
from hypcap.corpus import generate_element, mixed_disk_corpus, mixed_halfplane_corpus
from hypcap.dyadic import dyadic_cover, lipschitz_majorant_area, whitney_cover_area
from hypcap.geom import ArcBox, DiskCompact, HalfPlaneHull, RadialSlit, VSlit
from hypcap.hyperbolic import RectSet, _refine, _refine_args, filled_region, neighborhood_area
from hypcap.verify import VerifyConfig, run_claim
from hypcap.wos import DiskDomain, HalfPlaneDomain, run_walks

# the smoke config of tests/test_verify.py; hcap-crad runs at 100,000 walks there
SMOKE = VerifyConfig(n_walks=2000, tol_area=1e-2, corpus_size=3, hp_corpus_size=3, omega_corpus_size=1)
LIGHT_CLAIMS = ("t1", "t2", "prop1", "prop1-induction", "hcap-crad", "corollary", "remark")
HEAVY_CLAIMS = ("fattening", "omega")
WALKS = 4000
# three chunks of run_walks, so threads=2 runs two of them at once
THREADED_WALKS = 40_000


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and the repr of everything else."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def leaves_digest(leaves) -> str:
    return digest(leaves.gx0, leaves.gy0, leaves.size, leaves.depth_max, leaves.ix, leaves.iy, leaves.depth, leaves.cls)


def region_digest(region) -> str:
    return digest(leaves_digest(region.leaves), region.bounds, region.passable, region.frontier, *region.blocked_rects())


def ensemble_digest(ens) -> str:
    return digest(*(getattr(ens, f.name) for f in dataclasses.fields(ens)))


def translated_union() -> RectSet:
    """Squares about 1e6 + 1e6j: 2,500 with sides from 1e-4 to 0.05, and 400 on a circle.

    The circle's squares and the random ones of their octave are the tree's
    level; the other random squares are off it and scanned for every point.
    From near the circle's centre, 1e6 + 1e6j + 1.6 + 1.6j, no k-NN pass can
    certify, so a margin that lets one do so changes the answers there.
    """
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    w = np.concatenate([10.0 ** rng.uniform(-4.0, np.log10(0.05), 2500), np.full(400, 2e-3)])
    cx = 1e6 + np.concatenate([rng.uniform(-1.0, 1.0, 2500), 1.6 + 0.4 * np.cos(t)])
    cy = 1e6 + np.concatenate([rng.uniform(-1.0, 1.0, 2500), 1.6 + 0.4 * np.sin(t)])
    return RectSet(cx - w / 2, cx + w / 2, cy - w / 2, cy + w / 2)


def flood_cells(region) -> RectSet:
    """Every blocked cell of region that touches a passable one, at a corner or beyond the circle too.

    For the arcbox these are 9,818 cells of the final depth and 22 coarse
    ones beyond the circle, off the tree's level.
    """
    return RectSet(*region.leaves.rects(quadtree.touching(region.leaves, region.passable)[0]))


def fingerprints(claims):
    """(name, sha256) pairs, in a fixed order."""
    disks, hulls = mixed_disk_corpus(4, 7), mixed_halfplane_corpus(12, 7)
    areas = [(f"disk-{i}", B) for i, B in enumerate(disks)] + [(f"halfplane-{i}", A) for i, A in enumerate(hulls)]
    for name, S in areas:
        yield f"area/{name}", digest(neighborhood_area(S, 1.0, 1e-3, relative=True))
    # the quadtree's bracket at neighborhood_area's goal, and the refinement
    # that splits whole levels there: its leaves and bounds
    for name, S in areas:
        yield f"bounds/{name}", digest(quadtree.refine_bounds(*_refine_args(S, 1.0, lambda lo, up: 1e-3 * up)))
    for name, S in areas:
        leaves, bounds = _refine(S, 1.0, lambda lo, up: 1e-3 * up)
        yield f"refine/{name}", digest(leaves_digest(leaves), bounds)
    for i, B in enumerate(disks):
        yield f"covers/disk-{i}", digest(*dyadic_cover(B))
    # disk-1 and disk-3 are both the two scale-1 squares; this cover's five
    # maximal squares reach scale 4
    yield "covers/arcbox-set-2", digest(*dyadic_cover(generate_element("arcbox-set", 7, 2)))
    for i, A in enumerate(hulls):
        yield f"covers/halfplane-{i}", digest(whitney_cover_area(A), lipschitz_majorant_area(A))
    # the affine images of mixed_halfplane_corpus(3, 7): slits, a box staircase
    # (mirrored, its boxes swap their ends) and a mix
    moved = [B for A in hulls[:3] for B in (A.mirror(), A.scale(0.5), A.translate(0.375))]
    yield "covers/halfplane-affine", digest(*((whitney_cover_area(B), lipschitz_majorant_area(B)) for B in moved))

    regions = {"ring(0.7)": ring(0.7), "arcbox(0.4,1.2,0.75)": DiskCompact([ArcBox(0.4, 1.2, 0.75)])}
    filled = {}
    for name, B in regions.items():
        filled[name] = filled_region(B, 1.0, 2e-3)
        yield f"filled/{name}", region_digest(filled[name])
    frontiers = {name: RectSet(*region.blocked_rects()) for name, region in filled.items()}

    # walk traffic, where the frontier's inner edge is almost equidistant
    # from the points near 0, and points near the translated circle's centre
    rng = np.random.default_rng(5)
    near = 1e-3 * (rng.uniform(-1.0, 1.0, 500) + 1j * rng.uniform(-1.0, 1.0, 500))
    walk = 0.3 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    disk_points = np.concatenate([near, walk])
    square = rng.uniform(-1.2, 1.2, 2000) + 1j * rng.uniform(-1.2, 1.2, 2000)
    square_points = 1e6 + 1e6j + np.concatenate([square, 1.6 + 1.6j + near])
    # where walks end on the circle, some nearest flood cells are off the tree's level
    rim_points = np.concatenate([disk_points, np.exp(2j * np.pi * rng.uniform(size=500))])
    queries = (
        ("arcbox-frontier", frontiers["arcbox(0.4,1.2,0.75)"], disk_points),
        ("translated-union", translated_union(), square_points),
        ("flood-cells", flood_cells(filled["arcbox(0.4,1.2,0.75)"]), rim_points),
    )
    for name, S, z in queries:
        yield f"rectset/{name}", digest(*S.nearest(z))

    A = mixed_halfplane_corpus(1, 7)[0]
    B = mixed_disk_corpus(1, 7)[0]
    slits = DiskCompact([RadialSlit(2 * np.pi * k / 70, 0.55 + 0.06 * (k % 7)) for k in range(70)])
    # (name, domain, start, walks, threads); the far start keeps its walks at
    # |z| ~ 1e6, where rounding is far above the domain's scale times 1e-12
    walks = (
        ("compact", DiskDomain(B), 0j, WALKS, 1),
        ("hull", HalfPlaneDomain(A), complex(sum(A.x_bounds) / 2, 2.0 * A.y_max), WALKS, 1),
        ("filled-ring-rectset", DiskDomain(frontiers["ring(0.7)"]), 0j, WALKS, 1),
        ("compact-threads2", DiskDomain(B), 0.1j, THREADED_WALKS, 2),
        ("far-vslit", HalfPlaneDomain(HalfPlaneHull([VSlit(0.0, 1e-3)])), 1e6 + 1j, WALKS, 1),
        ("70-slits", DiskDomain(slits), 0j, WALKS, 1),
    )
    for k, (name, domain, start, n, threads) in enumerate(walks):
        yield f"walks/{name}", ensemble_digest(run_walks(domain, start, n, None, 11 + k, threads))

    for claim in claims:
        cfg = dataclasses.replace(SMOKE, n_walks=100_000) if claim == "hcap-crad" else SMOKE
        yield f"claim/{claim}", digest([repr(r) for r in run_claim(claim, cfg)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="also run the fattening and omega claims")
    args = parser.parse_args()
    for name, sha in fingerprints(LIGHT_CLAIMS + (HEAVY_CLAIMS if args.all else ())):
        print(name, sha, flush=True)


if __name__ == "__main__":
    main()
