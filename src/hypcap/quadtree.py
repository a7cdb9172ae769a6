"""Adaptive quadtree refinement with certified area bounds.

Cells are classified INSIDE / OUTSIDE / UNKNOWN by a caller-supplied
vectorized predicate that must be *sound*: INSIDE means the whole cell is
certainly in the target set, OUTSIDE means certainly disjoint.  UNKNOWN
cells are split until the residual unknown area meets the requested gap or
the depth cap MAX_DEPTH is reached, so [lower, upper] always brackets the
true area.

Refinement is level-synchronous and purely array-ordered, which makes the
result independent of thread counts and platform scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

UNKNOWN, INSIDE, OUTSIDE = 0, 1, 2
# refine splits no cell deeper than this; it reads the value at call time
MAX_DEPTH = 24


@dataclass
class AreaBounds:
    """Certified euclidean-area bracket."""

    lower: float
    upper: float
    cells_refined: int
    tolerance_met: bool

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass
class Leaves:
    """Final cells of a refinement pass, in root-relative integer coordinates.

    A cell at refinement depth d has index (ix, iy) on the 2^d x 2^d grid
    over the root square [gx0, gx0+size] x [gy0, gy0+size].
    """

    gx0: float
    gy0: float
    size: float
    depth_max: int
    ix: np.ndarray
    iy: np.ndarray
    depth: np.ndarray
    cls: np.ndarray

    def cell_side(self) -> np.ndarray:
        return self.size * np.ldexp(1.0, -self.depth.astype(np.int64))

    def areas(self) -> np.ndarray:
        side = self.cell_side()
        return side * side

    def int_rects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(X0, X1, Y0, Y1) at the finest integer resolution 2^depth_max."""
        shift = (self.depth_max - self.depth).astype(np.int64)
        s = np.left_shift(np.int64(1), shift)
        x0 = self.ix.astype(np.int64) * s
        y0 = self.iy.astype(np.int64) * s
        return x0, x0 + s, y0, y0 + s

    def rects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Geometric (x0, x1, y0, y1) per cell."""
        side = self.cell_side()
        x0 = self.gx0 + self.ix * side
        y0 = self.gy0 + self.iy * side
        return x0, x0 + side, y0, y0 + side


Classifier = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _split4(ix: np.ndarray, iy: np.ndarray, depth: np.ndarray):
    n = ix.size
    nix = np.empty(4 * n, dtype=np.int64)
    niy = np.empty(4 * n, dtype=np.int64)
    for k, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        nix[k::4] = 2 * ix + dx
        niy[k::4] = 2 * iy + dy
    ndepth = np.repeat(depth, 4) + 1
    return nix, niy, ndepth


def refine(
    gx0: float,
    gy0: float,
    size: float,
    classify: Classifier,
    gap_goal: Callable[[float, float], float],
) -> tuple[Leaves, AreaBounds]:
    """Refine the root square until upper - lower <= gap_goal(lower, upper).

    classify(cx, cy, half) returns one code per cell.  gap_goal is
    re-evaluated as the bracket tightens, so relative tolerances work.
    """
    ix = np.zeros(1, dtype=np.int64)
    iy = np.zeros(1, dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)

    acc_ix, acc_iy, acc_depth, acc_cls = [], [], [], []
    lower = 0.0
    cells_refined = 0
    met = False

    while True:
        side = size * np.ldexp(1.0, -depth.astype(np.int64))
        cx = gx0 + (ix + 0.5) * side
        cy = gy0 + (iy + 0.5) * side
        cls = np.asarray(classify(cx, cy, 0.5 * side), dtype=np.int8)
        cells_refined += ix.size

        areas = side * side
        inside = cls == INSIDE
        unknown = cls == UNKNOWN
        settled = ~unknown
        lower += float(np.sum(areas[inside]))
        gap = float(np.sum(areas[unknown]))

        if np.any(settled):
            acc_ix.append(ix[settled])
            acc_iy.append(iy[settled])
            acc_depth.append(depth[settled])
            acc_cls.append(cls[settled])

        target = gap_goal(lower, lower + gap)
        at_cap = unknown.any() and int(depth.max()) >= MAX_DEPTH
        if gap <= target or not unknown.any() or at_cap:
            met = gap <= target
            if unknown.any():
                acc_ix.append(ix[unknown])
                acc_iy.append(iy[unknown])
                acc_depth.append(depth[unknown])
                acc_cls.append(cls[unknown])
            break
        ix, iy, depth = _split4(ix[unknown], iy[unknown], depth[unknown])

    ixs = np.concatenate(acc_ix) if acc_ix else np.empty(0, dtype=np.int64)
    iys = np.concatenate(acc_iy) if acc_iy else np.empty(0, dtype=np.int64)
    depths = np.concatenate(acc_depth) if acc_depth else np.empty(0, dtype=np.int64)
    clss = np.concatenate(acc_cls) if acc_cls else np.empty(0, dtype=np.int8)
    dmax = int(depths.max()) if depths.size else 0

    # the unknown leaves are the last level's unknown cells, whose area the
    # loop summed into gap
    leaves = Leaves(gx0, gy0, size, dmax, ixs, iys, depths, clss)
    return leaves, AreaBounds(lower, lower + gap, cells_refined, met)


def adjacency_pairs(leaves: Leaves, active: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undirected contact pairs (i, j, edge) among cells flagged active.

    Two closed cells are in contact when they share a point; edge is True
    where the shared segment has positive length and False at a point
    contact.  Pairs may repeat (a corner contact shows up in both passes);
    callers using them for connectivity do not care.
    """
    idx = np.flatnonzero(active)
    X0, X1, Y0, Y1 = leaves.int_rects()
    X0, X1, Y0, Y1 = X0[idx], X1[idx], Y0[idx], Y1[idx]
    # interval coordinates fit well below this stride, so (key, coord) pairs
    # can be packed into one sortable integer
    stride = np.int64(1) << np.int64(leaves.depth_max + 2)

    pairs_i: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    pairs_j: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    edges: list[np.ndarray] = [np.empty(0, dtype=bool)]

    def match(lo_a, hi_a, key_a, lo_b, hi_b, key_b):
        # cells tile, so within a key group the b intervals are disjoint and
        # sorted; packing key and coordinate keeps groups separated
        order = np.argsort(key_b * stride + lo_b, kind="stable")
        b_key_lo = (key_b * stride + lo_b)[order]
        b_key_hi = (key_b * stride + hi_b)[order]
        a_key_lo = key_a * stride + lo_a
        a_key_hi = key_a * stride + hi_a
        # the run of b intervals meeting the closed a interval
        starts = np.searchsorted(b_key_hi, a_key_lo, side="left")
        ends = np.searchsorted(b_key_lo, a_key_hi, side="right")
        counts = np.maximum(ends - starts, 0)
        total = int(counts.sum())
        if total == 0:
            return
        cum = np.cumsum(counts) - counts
        brep = order[np.repeat(starts - cum, counts) + np.arange(total)]
        # disjoint sorted b intervals: only the first and the last of a run
        # can meet a at a single point
        edge = np.ones(total, dtype=bool)
        run = counts > 0
        first, last = cum[run], cum[run] + counts[run] - 1
        edge[first[b_key_hi[starts[run]] == a_key_lo[run]]] = False
        edge[last[b_key_lo[ends[run] - 1] == a_key_hi[run]]] = False
        pairs_i.append(np.repeat(idx, counts))
        pairs_j.append(idx[brep])
        edges.append(edge)

    match(Y0, Y1, X1, Y0, Y1, X0)  # right edge of a meets left edge of b
    match(X0, X1, Y1, X0, X1, Y0)  # top edge of a meets bottom edge of b

    return np.concatenate(pairs_i), np.concatenate(pairs_j), np.concatenate(edges)
