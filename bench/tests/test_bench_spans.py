"""Span self time and the percentile sample rule."""

import pytest

import workloads as W
from spans import Tracer, median, percentile, self_times


def span(name, start, end, parent):
    return (name, start, end, parent, 0, False)


def test_self_time_subtracts_children():
    spans = [span("request", 0.0, 10.0, -1),
             span("formula.parse", 1.0, 3.0, 0),
             span("decide.decide_LC", 3.0, 9.0, 0)]
    assert self_times(spans) == [2.0, 2.0, 6.0]


def test_self_time_merges_overlaps_and_clips_to_parent():
    spans = [span("a", 0.0, 4.0, -1), span("b", 1.0, 3.0, 0), span("c", 2.0, 6.0, 0)]
    # the children cover [1, 4] of the parent's [0, 4]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_counts_only_direct_children():
    spans = [span("a", 0.0, 10.0, -1), span("b", 2.0, 8.0, 0), span("c", 3.0, 5.0, 1)]
    assert self_times(spans) == [4.0, 4.0, 2.0]


def test_tracer_records_parents_and_failures():
    tracer = Tracer()
    double = tracer.wrap("formula.parse", lambda x: 2 * x)

    def boom():
        raise ValueError("typed rejection")
    fail = tracer.wrap("transforms.prenex_crisp_report", boom)
    counted = []
    after = tracer.wrap("formula.parse", lambda x: x, counted.append)
    tracer.request = 7
    with tracer.span("request"):
        assert double(2) == 4
        with pytest.raises(ValueError):
            fail()
        after(3)
    names = [s[0] for s in tracer.spans]
    assert names == ["request", "formula.parse", "transforms.prenex_crisp_report",
                     "formula.parse"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert [s[5] for s in tracer.spans] == [False, False, True, False]
    assert {s[4] for s in tracer.spans} == {7}
    assert counted == [3]
    selfs = self_times(tracer.spans)
    assert all(t >= 0 for t in selfs)
    request = tracer.spans[0]
    assert sum(selfs) == pytest.approx(request[2] - request[1])


def test_p90_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.5) == 50
    with pytest.raises(ValueError, match="at least 10"):
        percentile(samples[:99], 0.9)


def test_every_workload_has_enough_items_for_p90():
    # percentiles are over items (each item's least latency), so every
    # workload needs at least 100 of them for ten to lie beyond p90
    for name in W.NAMES:
        assert len(W.generate(name, W.DEFAULT_SEED)) >= 100, name


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
