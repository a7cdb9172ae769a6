"""Spans and counts recorded around the library's public functions.

The tracer replaces module attributes and class methods of ``hypcap`` with
wrappers for the length of a traced run and restores them afterwards.  Each
wrapper records one span (name, start, end, parent span, op id) and the
counts read from its arguments and result.  A call made while a span of the
same name is open (``nearest`` calling ``dist_argmin``, both recorded as
``geom.terminal``) is not recorded again, so busy times and counts never
include a layer twice.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from stats import median, percentile


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from the wrappers it installs; uninstall() restores the originals."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs, count=None, alloc=False):
        if self._open.get(name):
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._open[name] = self._open.get(name, 0) + 1
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        out, done = None, False
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            end = time.perf_counter()
            counts = {}
            if alloc:
                counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
            self._open[name] -= 1
            if count is not None and done:
                counts.update(count(args, kwargs, out))
            self.spans[sid] = Span(name, start, end, parent, self.op, counts)

    def wrap(self, owner, attr: str, name: str, count=None, alloc=False, adapt=None):
        """Replace owner.attr by a recording wrapper; adapt may rewrite the arguments."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            return tracer.call(name, orig, args, kwargs, count, alloc)

        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, home, attr: str, name: str, count=None, adapt=None):
        """Wrap home.attr in home and in every loaded module of its package that imported it."""
        orig = getattr(home, attr, None)
        if orig is None:
            return
        package = home.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            in_package = mod_name == package or mod_name.startswith(package + ".")
            if in_package and mod is not None and mod.__dict__.get(attr) is orig:
                self.wrap(mod, attr, name, count, adapt=adapt)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()


_MISSING = object()


# ---------------------------------------------------------------------------
# what is wrapped, and the counts read at each boundary
# ---------------------------------------------------------------------------


def _n(z) -> int:
    return int(np.size(z))


def _rel_se(out) -> dict:
    est = getattr(out, "estimate", out)
    return {"rel_se": est.std_error / abs(est.mean) if est.mean else float("inf")}


def _hcap_counts(args, kwargs, out) -> dict:
    counts = _rel_se(out)
    fit_ok = getattr(out, "fit_ok", None)
    if fit_ok is not None:
        counts["fit_rejected"] = int(not fit_ok)
    return counts


def _walk_counts(args, kwargs, ens) -> dict:
    return {
        "walks": _n(ens.steps),
        "steps": int(np.sum(ens.steps)),
        "flagged": int(np.sum(ens.flagged)),
        "steps_arr": np.asarray(ens.steps),
    }


def _refine_counts(args, kwargs, out) -> dict:
    leaves, _ = out
    return {"leaves": _n(leaves.ix), "depth_max": int(leaves.depth_max)}


def _rectset_build_counts(args, kwargs, out) -> dict:
    x0, x1, y0, y1 = (np.asarray(a, dtype=float) for a in args[1:5])
    sides = np.maximum(x1 - x0, y1 - y0)
    return {"rects": _n(x0), "side_ratio": float(sides.max() / sides.min())}


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of every hypcap layer the workloads reach."""
    from hypcap import capacity, corpus, dyadic, geom, hyperbolic, mobius, quadtree, rng, wos

    t = tracer
    t.wrap_everywhere(rng, "uniform_angle", "rng", lambda a, k, out: {"variates": _n(out)})
    for cls in (geom.HalfPlaneHull, geom.DiskCompact):
        t.wrap(cls, "dist", "geom.dist", lambda a, k, out: {"points": _n(a[1]), "evals": _n(a[1]) * len(a[0])})
        t.wrap(cls, "dist_argmin", "geom.terminal")
        t.wrap(cls, "nearest", "geom.terminal", lambda a, k, out: {"points": _n(a[1])})
    t.wrap_everywhere(wos, "run_walks", "wos", _walk_counts)
    t.wrap_everywhere(capacity, "hcap_mc", "capacity.hcap", _hcap_counts)
    t.wrap_everywhere(capacity, "dcap_mc", "capacity.dcap", lambda a, k, out: _rel_se(out))
    t.wrap_everywhere(capacity, "dcap_layer_sum", "capacity.dcap", lambda a, k, out: _rel_se(out))
    t.wrap_everywhere(capacity, "dcap_transport", "capacity.transport", lambda a, k, out: _rel_se(out))
    t.wrap_everywhere(mobius, "t_y", "mobius", lambda a, k, out: {"points": _n(a[1])})

    def traced_classify(args, kwargs):
        def wrap_classify(fn):
            def classify(*a):
                return t.call("quadtree.classify", fn, a, {}, lambda a, k, out: {"cells": _n(a[0])})

            return classify

        if len(args) > 3:
            args = args[:3] + (wrap_classify(args[3]),) + args[4:]
        elif "classify" in kwargs:
            kwargs = dict(kwargs, classify=wrap_classify(kwargs["classify"]))
        return args, kwargs

    t.wrap_everywhere(quadtree, "refine", "quadtree.refine", _refine_counts, adapt=traced_classify)
    t.wrap_everywhere(quadtree, "adjacency_pairs", "quadtree.adjacency", lambda a, k, out: {"pairs": _n(out[0])})
    t.wrap_everywhere(
        hyperbolic, "neighborhood_area", "hyperbolic.area", lambda a, k, out: {"rel_gap": out.gap / out.midpoint}
    )
    t.wrap_everywhere(
        hyperbolic, "filled_region", "hyperbolic.filled", lambda a, k, out: {"met": int(out.bounds.tolerance_met)}
    )
    t.wrap(hyperbolic.RectSet, "__init__", "hyperbolic.rectset_build", _rectset_build_counts)
    for method in ("dist", "nearest"):
        t.wrap(hyperbolic.RectSet, method, "hyperbolic.rectset", lambda a, k, out: {"queries": _n(a[1])}, alloc=True)
    for fn in ("dyadic_cover", "whitney_cover_area", "lipschitz_majorant_area"):
        t.wrap_everywhere(dyadic, fn, "dyadic")
    for fn in ("mixed_disk_corpus", "mixed_halfplane_corpus"):
        t.wrap_everywhere(corpus, fn, "corpus")


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanIndex:
    """Spans of one traced run, grouped by name, with their children."""

    def __init__(self, spans: list[Span], ops=None):
        self.spans = spans
        self.keep = [i for i, s in enumerate(spans) if ops is None or s.op in ops]
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s.parent, []).append(i)

    def named(self, name: str) -> list[int]:
        return [i for i in self.keep if self.spans[i].name == name]

    def busy(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.named(name))

    def total(self, name: str, key: str) -> float:
        return sum(self.spans[i].counts.get(key, 0) for i in self.named(name))

    def values(self, name: str, key: str) -> list:
        return [self.spans[i].counts[key] for i in self.named(name) if key in self.spans[i].counts]

    def self_s(self, name: str) -> float:
        """Summed duration of the spans of name minus that of their child spans.

        The tracer is single-threaded and stack-based, so child spans run one
        after another inside their parent.
        """
        return sum(
            self.spans[i].duration - sum(self.spans[c].duration for c in self.children.get(i, []))
            for i in self.named(name)
        )

    def _has_ancestor(self, i: int, ancestor: str) -> bool:
        p = self.spans[i].parent
        while p >= 0 and self.spans[p].name != ancestor:
            p = self.spans[p].parent
        return p >= 0

    def under(self, name: str, ancestor: str) -> list[int]:
        """Spans of name that ran inside a span named ancestor."""
        return [i for i in self.named(name) if self._has_ancestor(i, ancestor)]


def layer_metrics(spans: list[Span], ops, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round counts and busy times of every layer, with their rates.

    ops are the op ids of the traced rounds; every traced round runs the same
    ops with the same seeds, so per-round counts are exact.
    """
    ix = SpanIndex(spans, ops)
    per = 1.0 / rounds
    m: dict[str, tuple[float, str]] = {}

    variates, rng_busy = ix.total("rng", "variates"), ix.busy("rng")
    m["rng.variates"] = (variates * per, "count")
    m["rng.busy_s"] = (rng_busy * per, "s")
    m["rng.variates_per_s"] = (_ratio(variates, rng_busy), "1/s")

    evals, dist_busy = ix.total("geom.dist", "evals"), ix.busy("geom.dist")
    m["geom.dist_points"] = (ix.total("geom.dist", "points") * per, "count")
    m["geom.shape_evals"] = (evals * per, "count")
    m["geom.dist_busy_s"] = (dist_busy * per, "s")
    m["geom.shape_evals_per_s"] = (_ratio(evals, dist_busy), "1/s")
    m["geom.terminal_points"] = (ix.total("geom.terminal", "points") * per, "count")
    m["geom.terminal_busy_s"] = (ix.busy("geom.terminal") * per, "s")

    walks, steps, wos_busy = ix.total("wos", "walks"), ix.total("wos", "steps"), ix.busy("wos")
    steps_all = ix.values("wos", "steps_arr")
    steps_all = np.concatenate(steps_all) if steps_all else np.zeros(1, dtype=np.int64)
    m["wos.walks"] = (walks * per, "count")
    m["wos.steps"] = (steps * per, "count")
    m["wos.steps_mean"] = (_ratio(steps, walks), "count")
    m["wos.steps_p99"] = (percentile(steps_all.tolist(), 99.0), "count")
    m["wos.steps_max"] = (float(steps_all.max()), "count")
    m["wos.flagged_frac"] = (_ratio(ix.total("wos", "flagged"), walks), "ratio")
    m["wos.busy_s"] = (wos_busy * per, "s")
    m["wos.self_s"] = (ix.self_s("wos") * per, "s")
    m["wos.steps_per_s"] = (_ratio(steps, wos_busy), "1/s")
    m["wos.walks_per_s"] = (_ratio(walks, wos_busy), "1/s")

    def p50(name, key):
        vals = ix.values(name, key)
        return median(vals) if vals else 0.0

    hcap_ops = len(ix.named("capacity.hcap"))
    m["capacity.hcap_busy_s"] = (ix.busy("capacity.hcap") * per, "s")
    hcap_walks = sum(ix.spans[i].counts["walks"] for i in ix.under("wos", "capacity.hcap"))
    m["capacity.hcap_walks_per_op"] = (_ratio(hcap_walks, hcap_ops), "count")
    m["capacity.hcap_rel_se_p50"] = (p50("capacity.hcap", "rel_se"), "ratio")
    m["capacity.hcap_fit_rejected"] = (ix.total("capacity.hcap", "fit_rejected") * per, "count")
    m["capacity.dcap_busy_s"] = (ix.busy("capacity.dcap") * per, "s")
    m["capacity.dcap_rel_se_p50"] = (p50("capacity.dcap", "rel_se"), "ratio")
    m["capacity.transport_busy_s"] = (ix.busy("capacity.transport") * per, "s")
    m["capacity.transport_rel_se_p50"] = (p50("capacity.transport", "rel_se"), "ratio")

    m["mobius.t_y_points"] = (ix.total("mobius", "points") * per, "count")
    m["mobius.busy_s"] = (ix.busy("mobius") * per, "s")

    cells, refine_busy = ix.total("quadtree.classify", "cells"), ix.busy("quadtree.refine")
    depths = ix.values("quadtree.refine", "depth_max")
    m["quadtree.refine_calls"] = (len(ix.named("quadtree.refine")) * per, "count")
    m["quadtree.cells"] = (cells * per, "count")
    m["quadtree.leaves"] = (ix.total("quadtree.refine", "leaves") * per, "count")
    m["quadtree.depth_max"] = (float(max(depths, default=0)), "count")
    m["quadtree.busy_s"] = (refine_busy * per, "s")
    m["quadtree.classify_busy_s"] = (ix.busy("quadtree.classify") * per, "s")
    m["quadtree.self_s"] = (ix.self_s("quadtree.refine") * per, "s")
    m["quadtree.cells_per_s"] = (_ratio(cells, refine_busy), "1/s")
    m["quadtree.adjacency_pairs"] = (ix.total("quadtree.adjacency", "pairs") * per, "count")
    m["quadtree.adjacency_busy_s"] = (ix.busy("quadtree.adjacency") * per, "s")

    filled = len(ix.named("hyperbolic.filled"))
    queries, rs_busy = ix.total("hyperbolic.rectset", "queries"), ix.busy("hyperbolic.rectset")
    m["hyperbolic.area_busy_s"] = (ix.busy("hyperbolic.area") * per, "s")
    m["hyperbolic.area_rel_gap_p50"] = (p50("hyperbolic.area", "rel_gap"), "ratio")
    m["hyperbolic.filled_busy_s"] = (ix.busy("hyperbolic.filled") * per, "s")
    m["hyperbolic.filled_refines"] = (len(ix.under("quadtree.refine", "hyperbolic.filled")) * per, "count")
    m["hyperbolic.filled_self_s"] = (ix.self_s("hyperbolic.filled") * per, "s")
    m["hyperbolic.filled_tolerance_met_frac"] = (_ratio(ix.total("hyperbolic.filled", "met"), filled), "ratio")
    m["hyperbolic.rectset_rects"] = (ix.total("hyperbolic.rectset_build", "rects") * per, "count")
    side_ratio = max(ix.values("hyperbolic.rectset_build", "side_ratio"), default=0.0)
    m["hyperbolic.rectset_side_ratio"] = (side_ratio, "ratio")
    m["hyperbolic.rectset_queries"] = (queries * per, "count")
    m["hyperbolic.rectset_busy_s"] = (rs_busy * per, "s")
    m["hyperbolic.rectset_queries_per_s"] = (_ratio(queries, rs_busy), "1/s")
    peak = max(ix.values("hyperbolic.rectset", "peak_alloc"), default=0)
    m["hyperbolic.rectset_peak_alloc_mb"] = (peak / 2**20, "MB")

    m["dyadic.calls"] = (len(ix.named("dyadic")) * per, "count")
    m["dyadic.busy_s"] = (ix.busy("dyadic") * per, "s")
    return m
