"""Span wrappers: self times, counters, and names that no longer exist."""

import time

import spans
from run import LAYER_METRICS, layer_metrics


def test_self_time_excludes_children():
    tr = spans.Tracer()

    def inner():
        time.sleep(0.01)

    inner_w = tr.wrap("inner", inner)

    def outer():
        inner_w()
        inner_w()
        time.sleep(0.005)

    tr.wrap("outer", outer)()
    calls, total, self_t, top = tr.stats["outer"]
    assert calls == 1 and tr.stats["inner"][0] == 2
    assert abs(self_t + tr.stats["inner"][1] - total) < 1e-9
    assert 0.004 < self_t < total
    assert top == total
    assert {(p, c) for (p, c) in tr.edges} == {("", "outer"), ("outer", "inner")}


def test_counter_failure_is_reported_not_raised():
    tr = spans.Tracer()

    def broken(tracer, args, kwargs, result):
        raise KeyError("gone")

    f = tr.wrap("f", lambda x: x + 1, broken)
    assert f(1) == 2 and f(2) == 3
    assert tr.missing == ["f (counters: KeyError)"]


def test_missing_targets_are_reported_and_skipped():
    tr = spans.Tracer()
    tr.install([
        ("gone.method", "gkmhess.linalg", "NoSuchReducer.reduce", None),
        ("gone.module", "gkmhess.no_such_module", "f", None),
        ("gone.function", "gkmhess.maps", "_no_such_rank", None),
    ])
    try:
        assert tr.missing == ["gone.method", "gone.module", "gone.function"]
    finally:
        tr.uninstall()


def test_real_targets_record_and_uninstall():
    from gkmhess import cohomology, graphs, linalg, maps
    from gkmhess.hessenberg import from_string

    originals = (cohomology.solve_graph, maps.solve_graph,
                 linalg.ColumnReducer.reduce, maps.TripleContext.build)
    tr = spans.Tracer()
    tr.install(spans.TARGETS)
    try:
        assert tr.missing == []
        with tr.span("op"):
            space = cohomology.solve_graph(graphs.build_GX(from_string("2,3,3")))
            cohomology.graded_character(space, "dot", cross_check=True)
    finally:
        tr.uninstall()
    assert (cohomology.solve_graph, maps.solve_graph,
            linalg.ColumnReducer.reduce, maps.TripleContext.build) == originals
    summary = tr.summary()
    m = layer_metrics(summary, (0, 0))
    assert set(m) == set(LAYER_METRICS) - {"trace.overhead_s"}
    assert m["linalg.kernel_calls"] == space.max_degree + 1
    assert m["cohomology.solve_calls"] == 1
    assert m["cohomology.solve_graphs"] == 1
    assert m["cohomology.solve_useful"] == 1.0
    assert m["cohomology.character_calls"] == 1
    assert m["linalg.kernel_dim"] == sum(space.dim(k)
                                         for k in range(space.max_degree + 1))
    assert m["linalg.reduce_s"] > 0 and m["cohomology.quotient_s"] > 0
    assert m["graphs.build_s"] > 0
    assert summary["stats"]["op"][0] == 1


def test_missing_span_gives_zero_metric():
    summary = {"stats": {}, "counters": {}, "missing": ["linalg.kernel_of_rows"]}
    m = layer_metrics(summary, (0, 0))
    assert m["linalg.kernel_s"] == 0 and m["linalg.kernel_calls"] == 0
    assert m["cohomology.solve_useful"] == 0.0
