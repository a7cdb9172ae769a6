"""Seeded random families of hulls and disk compacts.

Generation is rejection-based against the exact disjointness predicates,
keyed entirely by (seed, element index), so a corpus is reproducible from
its kind, size and seed.  Element sizes are drawn log-uniformly over
three octaves so the corpus spans several dyadic scales of hull diameter.
"""

from __future__ import annotations

import math

from .geom import (
    ArcBox,
    BoxShape,
    DiskCompact,
    HalfDisk,
    HalfPlaneHull,
    RadialSlit,
    VSlit,
    validate_disk_shapes,
    validate_halfplane_shapes,
)
from .rng import CounterRNG

TWO_PI = 2.0 * math.pi

_RETRY_CAP = 400
_SCALE_OCTAVES = 3.0


class CorpusError(RuntimeError):
    """Rejection sampling failed to produce a valid element."""


def _log_uniform(r: CounterRNG, lo: float, hi: float) -> float:
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _element_scale(r: CounterRNG) -> float:
    return 2.0 ** r.uniform(-_SCALE_OCTAVES / 2.0, _SCALE_OCTAVES / 2.0)


def _slit_forest(r: CounterRNG, scale: float) -> HalfPlaneHull:
    k = r.randint(3, 12)
    for _ in range(_RETRY_CAP):
        xs = sorted(r.uniform(-1.5, 1.5) for _ in range(k))
        if all(b - a >= 0.06 for a, b in zip(xs[:-1], xs[1:])):
            shapes = [VSlit(x * scale, _log_uniform(r, 0.1, 1.0) * scale) for x in xs]
            return HalfPlaneHull(shapes)
    raise CorpusError("slit-forest rejection cap reached")


def _staircase(r: CounterRNG, scale: float) -> HalfPlaneHull:
    k = r.randint(3, 8)
    boxes = []
    x = r.uniform(-1.5, -1.0)
    for _ in range(k):
        w = r.uniform(0.1, 0.45)
        h = _log_uniform(r, 0.08, 0.9)
        boxes.append(BoxShape(x * scale, (x + w) * scale, 0.0, h * scale))
        x += w + r.uniform(0.05, 0.3)
    return HalfPlaneHull(boxes)


def _halfdisk_mix(r: CounterRNG, scale: float) -> HalfPlaneHull:
    k = r.randint(3, 8)
    shapes: list = []
    for _ in range(_RETRY_CAP):
        if len(shapes) == k:
            break
        pick = r.randint(0, 2)
        x = r.uniform(-1.8, 1.8) * scale
        if pick == 0:
            cand = VSlit(x, _log_uniform(r, 0.1, 0.8) * scale)
        elif pick == 1:
            w = r.uniform(0.08, 0.35) * scale
            cand = BoxShape(x, x + w, 0.0, _log_uniform(r, 0.08, 0.5) * scale)
        else:
            cand = HalfDisk(x, r.uniform(0.08, 0.4) * scale)
        if validate_halfplane_shapes(shapes + [cand]) is None:
            shapes.append(cand)
    if len(shapes) < 3:
        raise CorpusError("halfdisk-mix rejection cap reached")
    return HalfPlaneHull(shapes)


def _radial_slit_set(r: CounterRNG) -> DiskCompact:
    k = r.randint(3, 12)
    for _ in range(_RETRY_CAP):
        th = sorted(r.uniform(0.0, TWO_PI) for _ in range(k))
        gaps = [b - a for a, b in zip(th[:-1], th[1:])] + [TWO_PI - (th[-1] - th[0])]
        if all(g >= 0.08 for g in gaps):
            shapes = [RadialSlit(t, r.uniform(0.55, 0.95)) for t in th]
            return DiskCompact(shapes)
    raise CorpusError("radial-slit-set rejection cap reached")


def _arcbox_set(r: CounterRNG) -> DiskCompact:
    k = r.randint(2, 5)
    shapes: list = []
    for _ in range(_RETRY_CAP):
        if len(shapes) == k:
            break
        t0 = r.uniform(0.0, TWO_PI)
        width = r.uniform(0.05, 0.6)
        cand = ArcBox(t0, t0 + width, r.uniform(0.6, 0.95))
        if validate_disk_shapes(shapes + [cand]) is None:
            shapes.append(cand)
    if len(shapes) < 2:
        raise CorpusError("arcbox-set rejection cap reached")
    return DiskCompact(shapes)


def generate_element(kind: str, seed: int, index: int):
    """One deterministic corpus element, keyed by (seed, index)."""
    r = CounterRNG(seed, stream=index)
    scale = _element_scale(r)
    if kind == "slit-forest":
        return _slit_forest(r, scale)
    if kind == "staircase":
        return _staircase(r, scale)
    if kind == "halfdisk-mix":
        return _halfdisk_mix(r, scale)
    if kind == "radial-slit-set":
        return _radial_slit_set(r)
    if kind == "arcbox-set":
        return _arcbox_set(r)
    raise ValueError(f"unknown corpus kind {kind!r}")


def mixed_disk_corpus(count: int, seed: int) -> list[DiskCompact]:
    """Alternating radial-slit and arcbox elements."""
    out = []
    for i in range(count):
        kind = "radial-slit-set" if i % 2 == 0 else "arcbox-set"
        out.append(generate_element(kind, seed, i))
    return out


def mixed_halfplane_corpus(count: int, seed: int) -> list[HalfPlaneHull]:
    kinds = ("slit-forest", "staircase", "halfdisk-mix")
    return [generate_element(kinds[i % 3], seed, i) for i in range(count)]
