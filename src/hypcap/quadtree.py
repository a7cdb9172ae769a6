"""Adaptive quadtree refinement with certified area bounds.

Cells are classified INSIDE / OUTSIDE / UNKNOWN by a caller-supplied
vectorized predicate that must be *sound*: INSIDE means the whole cell is
certainly in the target set, OUTSIDE means certainly disjoint.  UNKNOWN
cells are split until the residual unknown area meets the requested gap or
the depth cap MAX_DEPTH is reached, so [lower, upper] always brackets the
true area.

Refinement is level-synchronous and purely array-ordered, which makes the
result independent of thread counts and platform scheduling.  Every cell of
a level has the same side, so the side, half side and area are scalars of
the level, not arrays of its cells.  The one exception is the rim term:
where the root square reaches outside the space (the disk's root holds the
whole closed unit disk), the target set lies in the space, so an UNKNOWN
cell adds to the gap only its area inside the space, which the caller's
clip measures cell by cell.

The classifier carries state down the tree: classify(cx, cy, half, carry)
returns (codes, carry), where carry is an array with one row per cell.  At
the root refine passes None.  refine keeps the rows of the UNKNOWN cells
and repeats each one 4 times, in the order _split4 lays out their
children, so each child receives its parent's row.  What a row holds is
the classifier's business; hyperbolic._classifier keeps in it the parts of
the obstacle that can still decide the cell's subtree.
"""

from __future__ import annotations

import math
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

    def int_rects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(X0, X1, Y0, Y1) at the finest integer resolution 2^depth_max."""
        shift = (self.depth_max - self.depth).astype(np.int64)
        s = np.left_shift(np.int64(1), shift)
        x0 = self.ix.astype(np.int64) * s
        y0 = self.iy.astype(np.int64) * s
        return x0, x0 + s, y0, y0 + s

    def rects(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Geometric (x0, x1, y0, y1) of the cells (a mask or indices)."""
        side = np.ldexp(self.size, -self.depth[cells])
        x0 = self.gx0 + self.ix[cells] * side
        y0 = self.gy0 + self.iy[cells] * side
        return x0, x0 + side, y0, y0 + side


Classifier = Callable[[np.ndarray, np.ndarray, float, np.ndarray | None], tuple[np.ndarray, np.ndarray]]
# clip(x0, y0, side): area of each cell [x0, x0 + side] x [y0, y0 + side]
# inside the space, rounded up and at most side^2
Clip = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def _split4(ix: np.ndarray, iy: np.ndarray):
    n = ix.size
    nix = np.empty(4 * n, dtype=np.int64)
    niy = np.empty(4 * n, dtype=np.int64)
    for k, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        nix[k::4] = 2 * ix + dx
        niy[k::4] = 2 * iy + dy
    return nix, niy


def _sum_of(value: float, count: int) -> float:
    """np.sum over count cells of equal area value, without an array of them.

    The broadcast array is summed in the same pairwise order as a stored
    one, so the total is the same float.
    """
    return float(np.sum(np.broadcast_to(value, (count,))))


def refine(
    gx0: float,
    gy0: float,
    size: float,
    classify: Classifier,
    gap_goal: Callable[[float, float], float],
    clip: Clip | None,
) -> tuple[Leaves, AreaBounds]:
    """Refine the root square until upper - lower <= gap_goal(lower, upper).

    classify(cx, cy, half, carry) returns (one code per cell, carry rows);
    see the module docstring.  gap_goal is re-evaluated as the bracket
    tightens, so relative tolerances work.  clip measures the UNKNOWN
    cells' areas inside the space (the rim term of the module docstring);
    None counts each whole, for a root square that lies in the closed
    space.  The cell rectangles it gets are those Leaves.rects gives.
    """
    ix = np.zeros(1, dtype=np.int64)
    iy = np.zeros(1, dtype=np.int64)
    carry = None
    level = 0

    acc_ix, acc_iy, acc_cls, acc_levels, acc_counts = [], [], [], [], []
    lower = 0.0
    cells_refined = 0

    def add_leaves(mask: np.ndarray) -> None:
        acc_ix.append(ix[mask])
        acc_iy.append(iy[mask])
        acc_cls.append(cls[mask])
        acc_levels.append(level)
        acc_counts.append(acc_ix[-1].size)

    while True:
        side = size * math.ldexp(1.0, -level)
        cx = gx0 + (ix + 0.5) * side
        cy = gy0 + (iy + 0.5) * side
        cls, carry = classify(cx, cy, 0.5 * side, carry)
        cls = np.asarray(cls, dtype=np.int8)
        del cx, cy
        cells_refined += ix.size

        area = side * side
        unknown = cls == UNKNOWN
        n_unknown = int(np.count_nonzero(unknown))
        lower += _sum_of(area, int(np.count_nonzero(cls == INSIDE)))
        if clip is None:
            gap = _sum_of(area, n_unknown)
        else:
            gap = float(np.sum(clip(gx0 + ix[unknown] * side, gy0 + iy[unknown] * side, side)))

        if n_unknown < ix.size:
            add_leaves(~unknown)

        target = gap_goal(lower, lower + gap)
        if gap <= target or n_unknown == 0 or level >= MAX_DEPTH:
            met = gap <= target
            if n_unknown:
                add_leaves(unknown)
            break
        ix, iy = _split4(ix[unknown], iy[unknown])
        carry = np.repeat(carry[unknown], 4, axis=0)
        level += 1

    ixs = np.concatenate(acc_ix)
    iys = np.concatenate(acc_iy)
    clss = np.concatenate(acc_cls)
    depths = np.repeat(np.asarray(acc_levels, dtype=np.int64), acc_counts)

    # the unknown leaves are the last level's unknown cells, whose area the
    # loop summed into gap
    leaves = Leaves(gx0, gy0, size, acc_levels[-1], ixs, iys, depths, clss)
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


def contact_masks(pi, pj, edge, passable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(touch, by_edge) from the contact pairs (pi, pj, edge) that adjacency_pairs gives.

    touch flags the cells off passable that touch a passable one, and
    by_edge those of them that share an edge with one.  This is the one
    scatter of contacts: touching and the filled region's frontier
    (hyperbolic._flood_masks) both read it.
    """
    touch = np.zeros(passable.size, dtype=bool)
    by_edge = np.zeros(passable.size, dtype=bool)
    for i, j in ((pi, pj), (pj, pi)):
        hit = passable[i]
        touch[j[hit]] = True
        by_edge[j[hit & edge]] = True
    return touch & ~passable, by_edge & ~passable


def touching(leaves: Leaves, passable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """contact_masks over the contacts among the non-INSIDE cells of leaves.

    A closed INSIDE cell never touches a closed OUTSIDE one, and passable
    cells are OUTSIDE, so only the contacts among the other cells are read.
    """
    return contact_masks(*adjacency_pairs(leaves, leaves.cls != INSIDE), passable)
