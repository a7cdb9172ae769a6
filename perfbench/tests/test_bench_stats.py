"""The benchmark's own arithmetic: percentiles, spreads, time to accuracy, normalised time, self time."""

import math

import pytest

import reference
from stats import normalised, percentile, quartile_spread, seconds_at_target, tail_percentile
from tracing import Span, SpanIndex, Tracer


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(36) is None
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile([3.0], 99) == 3.0


def test_quartile_spread_matches_statistics_quantiles():
    # quantiles(range(1..9), n=4) exclusive method: 2.5, 5, 7.5
    assert quartile_spread(range(1, 10)) == pytest.approx((7.5 - 2.5) / 5.0)


def test_seconds_at_one_percent():
    assert seconds_at_target(2.0, 0.02) == pytest.approx(8.0)
    assert seconds_at_target(2.0, 0.005) == pytest.approx(0.5)
    assert seconds_at_target(2.0, None) == 2.0
    # halving the standard error at equal time is a 4x gain, like 4x faster walks
    assert seconds_at_target(1.0, 0.01) == pytest.approx(4 * seconds_at_target(1.0, 0.005))


def test_normalised_time_scales_by_reference_speed():
    nominal = reference.REF_NOMINAL_S
    # kernel at its nominal time: raw seconds are kept
    assert normalised(3.0, nominal, nominal) == pytest.approx(3.0)
    # host 30% slow around the op: the op counts 1/1.3 of its raw time
    assert normalised(1.3, 1.3 * nominal, 1.3 * nominal) == pytest.approx(1.0)
    # the two kernel times around the op are averaged
    assert normalised(1.5, nominal, 2.0 * nominal) == pytest.approx(1.0)


def test_reference_kernel_is_deterministic():
    assert reference.kernel() == reference.kernel()


def test_span_tree_self_time_never_exceeds_parent():
    spans = [
        Span("wos", 0.0, 10.0, -1, "0:a"),
        Span("rng", 1.0, 2.0, 0, "0:a"),
        Span("geom.dist", 2.0, 5.0, 0, "0:a"),
        Span("geom.terminal", 9.0, 9.5, 0, "0:a"),
        Span("wos", 20.0, 21.0, -1, "1:a"),
        Span("rng", 20.2, 20.4, 4, "1:a"),
    ]
    ix = SpanIndex(spans, {"0:a"})
    assert ix.busy("wos") == pytest.approx(10.0)
    assert ix.self_s("wos") == pytest.approx(10.0 - 4.5)
    assert ix.self_s("wos") <= ix.busy("wos")
    both = SpanIndex(spans, {"0:a", "1:a"})
    assert both.self_s("wos") == pytest.approx(5.5 + 0.8)
    assert both.under("rng", "wos") == [1, 5]


class _Lib:
    @staticmethod
    def outer(n):
        return _Lib.inner(n) + 1

    @staticmethod
    def inner(n):
        if n < 0:
            raise ValueError("negative")
        return n


def test_tracer_records_nesting_once_and_restores():
    t = Tracer()
    orig_outer, orig_inner = _Lib.__dict__["outer"], _Lib.__dict__["inner"]
    t.wrap(_Lib, "outer", "layer.a", lambda a, k, out: {"n": a[0]})
    t.wrap(_Lib, "inner", "layer.b")
    t.op = "0:x"
    assert _Lib.outer(3) == 4
    with pytest.raises(ValueError):
        _Lib.inner(-1)
    t.uninstall()
    assert _Lib.__dict__["outer"] is orig_outer and _Lib.__dict__["inner"] is orig_inner
    names = [(s.name, s.parent, s.counts) for s in t.spans]
    assert names == [("layer.a", -1, {"n": 3}), ("layer.b", 0, {}), ("layer.b", -1, {})]
    assert all(s.end >= s.start and s.op == "0:x" for s in t.spans)


def test_tracer_skips_reentry_of_the_same_name():
    t = Tracer()
    t.wrap(_Lib, "outer", "same")
    t.wrap(_Lib, "inner", "same")
    _Lib.outer(1)
    t.uninstall()
    assert [s.name for s in t.spans] == ["same"]
    assert math.isfinite(t.spans[0].duration)
