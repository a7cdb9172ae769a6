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

refine returns the leaves with the bounds; refine_bounds, for callers that
keep only the bounds, gathers no leaves and stops partway through the
level it predicts last.  A level whose gap is at most twice the goal is
predicted last, and its UNKNOWN cells are split in SLICES contiguous
slices in array order.  After each slice the gap is the unknown area of
the children so far plus the area of the parents not yet split, and the
lower bound gains the INSIDE children so far; the refinement stops as soon
as the gap meets the goal.  A split parent's children hold no more of
the bracket than the parent did (up to the clip's outward rounding), so
the bracket holds refine's, which splits every slice and often goes on.
A level whose slices all run sums its bounds exactly as a whole level
does, so refine_bounds returns refine's bounds bit for bit whenever it
classifies as many cells.  Both run one loop, _descend.

The classifier carries state down the tree: classify(cx, cy, half, carry)
returns (codes, carry), where carry is an array with one row per cell.  At
the root _descend passes None.  It keeps the rows of the UNKNOWN cells
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
# refine_bounds splits the level it predicts last in this many slices; it
# reads the value at call time
SLICES = 8


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
    Every level is split whole, and every leaf is returned.
    """
    settled = []
    bounds = _descend(gx0, gy0, size, classify, gap_goal, clip, 1, lambda *cells: settled.append(cells))
    levels, ixs, iys, clss = zip(*settled)
    depths = np.repeat(np.asarray(levels, dtype=np.int64), [a.size for a in ixs])
    leaves = Leaves(gx0, gy0, size, levels[-1], np.concatenate(ixs), np.concatenate(iys), depths, np.concatenate(clss))
    return leaves, bounds


def refine_bounds(
    gx0: float,
    gy0: float,
    size: float,
    classify: Classifier,
    gap_goal: Callable[[float, float], float],
    clip: Clip | None,
) -> AreaBounds:
    """The bounds of refine with the same arguments, or a bracket that holds them, with no leaves.

    The level predicted last is split in SLICES slices, and the refinement
    stops after the first slice at which the gap meets the goal (see the
    module docstring).  The bracket is refine's, bit for bit, whenever every
    slice runs, and otherwise holds refine's bracket with fewer cells
    classified.
    """
    return _descend(gx0, gy0, size, classify, gap_goal, clip, SLICES, None)


def _descend(gx0, gy0, size, classify, gap_goal, clip, slices, add_leaves) -> AreaBounds:
    """The one refinement loop of refine and refine_bounds.

    Each pass classifies one level: the root, then the children of the
    previous level's UNKNOWN cells, in _split4 order.  A level is split in
    min(slices, its UNKNOWN cells) contiguous slices when its gap is at
    most twice the goal, and whole otherwise.  add_leaves(level, ix, iy,
    cls), when given, receives each slice's settled cells and, at the end,
    the last level's UNKNOWN cells.
    """
    ix = iy = np.zeros(1, dtype=np.int64)
    carry = gaps = None
    level, pieces = 0, 1
    lower = 0.0
    cells_refined = 0

    def gap_areas(ix: np.ndarray, iy: np.ndarray, side: float) -> np.ndarray:
        if clip is None:
            return np.broadcast_to(side * side, ix.shape)
        return clip(gx0 + ix * side, gy0 + iy * side, side)

    while True:
        side = size * math.ldexp(1.0, -level)
        cuts = np.arange(pieces + 1) * ix.size // pieces
        if pieces > 1:
            # rest[k]: the gap of the parents from slice k on, still unsplit
            rest = np.cumsum(np.add.reduceat(gaps, cuts[:-1])[::-1])[::-1]
        n_inside, unknown_so_far, kept = 0, 0.0, []
        for k in range(pieces):
            a, b = cuts[k], cuts[k + 1]
            if level:
                cix, ciy = _split4(ix[a:b], iy[a:b])
                ccarry = np.repeat(carry[a:b], 4, axis=0)
            else:
                cix, ciy, ccarry = ix, iy, None
            cls, ccarry = classify(gx0 + (cix + 0.5) * side, gy0 + (ciy + 0.5) * side, 0.5 * side, ccarry)
            cls = np.asarray(cls, dtype=np.int8)
            cells_refined += cix.size
            unknown = cls == UNKNOWN
            n_inside += int(np.count_nonzero(cls == INSIDE))
            if add_leaves is not None:
                add_leaves(level, cix[~unknown], ciy[~unknown], cls[~unknown])
            cix, ciy = cix[unknown], ciy[unknown]
            kept.append((cix, ciy, ccarry[unknown], gap_areas(cix, ciy, side)))
            if k + 1 < pieces:
                unknown_so_far += float(np.sum(kept[-1][3]))
                lo = lower + _sum_of(side * side, n_inside)
                gap = unknown_so_far + float(rest[k + 1])
                if gap <= gap_goal(lo, lo + gap):
                    return AreaBounds(lo, lo + gap, cells_refined, True)
            del cls, ccarry, unknown

        lower += _sum_of(side * side, n_inside)
        ix, iy, carry, gaps = kept[0] if pieces == 1 else (np.concatenate(a) for a in zip(*kept))
        del kept
        gap = float(np.sum(gaps))
        target = gap_goal(lower, lower + gap)
        if gap <= target or ix.size == 0 or level >= MAX_DEPTH:
            if add_leaves is not None:
                add_leaves(level, ix, iy, np.full(ix.size, UNKNOWN, dtype=np.int8))
            return AreaBounds(lower, lower + gap, cells_refined, gap <= target)
        pieces = min(slices, ix.size) if gap <= 2.0 * target else 1
        level += 1


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
