"""Tests of the benchmark itself: tracer coverage, span accounting, failure
accounting and verdict digests.  Run with ``python -m pytest bench/tests``."""
import itertools
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hotspots
import hotspots.continuation
import hotspots.mesh
import workloads as wl
from tracer import (TARGETS, Span, Tracer, check_accounting, check_nesting, layer_metrics,
                    self_times)


def _bindings(obj):
    return [(name, attr) for name, mod in list(sys.modules.items())
            for attr, value in list(getattr(mod, "__dict__", {}).items()) if value is obj]


def test_tracer_patches_every_binding_and_restores_them():
    orig_tri = hotspots.mesh.triangulate
    orig_eval = hotspots.eigensolver.P2Space.eval
    assert ("hotspots.continuation", "triangulate") in _bindings(orig_tri)
    with Tracer() as tracer:
        assert len(tracer.originals) == len(TARGETS)
        for key, orig in tracer.originals.items():
            assert _bindings(orig) == [], f"{key} still bound somewhere"
        assert hotspots.continuation.triangulate is hotspots.mesh.triangulate
        assert hotspots.continuation.triangulate.__traced__ is orig_tri
        assert hotspots.eigensolver.P2Space.eval.__traced__ is orig_eval
    assert hotspots.continuation.triangulate is orig_tri
    assert hotspots.triangulate is orig_tri
    assert hotspots.eigensolver.P2Space.eval is orig_eval


def _fake_layers():
    """Two fake modules: outer() calls inner() twice, on a clock that ticks
    once per reading, so every duration is exact."""
    ticks = itertools.count()
    inner_mod = types.ModuleType("fake_inner")
    outer_mod = types.ModuleType("fake_outer")
    inner_mod.inner = lambda: None
    outer_mod.inner = inner_mod.inner

    def outer():
        outer_mod.inner()
        outer_mod.inner()

    outer_mod.outer = outer
    sys.modules.update(fake_inner=inner_mod, fake_outer=outer_mod)
    targets = [("fake_outer", "outer", "a", None), ("fake_inner", "inner", "b", None)]
    return Tracer(targets, clock=lambda: float(next(ticks))), outer_mod


def test_self_time_is_span_minus_children():
    tracer, outer_mod = _fake_layers()
    try:
        with tracer:
            outer_mod.outer()
    finally:
        del sys.modules["fake_inner"], sys.modules["fake_outer"]
    spans = tracer.spans
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    # outer: ticks 0..5; inner: 1..2 and 3..4
    assert [s.duration for s in spans] == [5.0, 1.0, 1.0]
    assert self_times(spans) == [3.0, 1.0, 1.0]
    assert check_nesting(spans) == []


def test_check_nesting_reports_bad_spans():
    spans = [Span(0, None, "a", "p", 0.0, 10.0), Span(1, 0, "b", "c", 5.0, 12.0),
             Span(2, None, "a", "q", 9.0, 11.0), Span(3, None, "a", "r", 20.0)]
    problems = check_nesting(spans)
    assert any("outside parent" in p for p in problems)
    assert any("overlaps" in p for p in problems)
    assert any("not closed" in p for p in problems)


def test_check_accounting_reports_spans_that_do_not_add_up():
    good = [Span(0, None, "a", "p", 1.0, 5.0), Span(1, 0, "b", "c", 2.0, 3.0)]
    assert check_accounting(good, 0.0, 6.0) == []
    assert any("outside the traced pass" in p for p in check_accounting(good, 1.5, 6.0))
    assert any("outside the traced pass" in p for p in check_accounting(good, 0.0, 4.0))
    # overlapping children that together outlast their parent
    crowded = good + [Span(2, 0, "b", "c", 1.5, 4.5), Span(3, 0, "b", "c", 2.0, 4.0)]
    assert any("self time" in p for p in check_accounting(crowded, 0.0, 6.0))


def test_corpus_counts_and_accounting():
    items = wl.build("corpus", 0)[:2]
    with Tracer() as tracer:
        t0 = time.perf_counter()
        results = wl.run_items(items, time.perf_counter)
        t1 = time.perf_counter()
    assert not any(r.failed for r in results)
    assert check_nesting(tracer.spans) == []
    assert check_accounting(tracer.spans, t0, t1) == []
    wall = t1 - t0
    layer = layer_metrics(tracer.spans, wall)
    assert wl.coverage_problems("corpus", layer, results) == []
    assert layer["mesh.calls"] == layer["nodal.trace_calls"] == 2
    assert layer["eigensolver.eval_calls"] > 0 and layer["bessel.fit_calls"] > 0
    assert layer["continuation.attempted"] == 0
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(wall, rel=1e-9)
    assert 0 <= layer["bench.self_s"] < wall


def test_breaking_counts_match_the_report():
    items = wl.build("breaking", 0)
    with Tracer() as tracer:
        results = wl.run_items(items, time.perf_counter)
    assert not results[0].failed, results[0].problems
    layer = layer_metrics(tracer.spans, 0.0)
    assert wl.coverage_problems("breaking", layer, results) == []
    assert layer["continuation.attempted"] == layer["mesh.calls"] > 0
    assert layer["continuation.accepted"] == len(results[0].verdict["t"])
    assert 0 < layer["continuation.accept_ratio"] <= 1
    assert layer["nodal.arc_verdict_calls"] > 0


def _raise(exc):
    raise exc


def test_failures_are_counted_and_the_run_goes_on():
    items = [wl.Item("mesh", lambda: _raise(hotspots.MeshingError("no mesh"))),
             wl.Item("solver", lambda: _raise(hotspots.SolverError("no pair"))),
             wl.Item("fit", lambda: _raise(hotspots.FitError("thin annulus"))),
             wl.Item("geometry", lambda: _raise(hotspots.GeometryError("bad polygon"))),
             wl.Item("check", lambda: ({"S": 3}, ["S != 2"])),
             wl.Item("good", lambda: ({"S": 2}, []))]
    results = wl.run_items(items, time.perf_counter)
    assert [r.failed for r in results] == [True] * 5 + [False]
    assert results[0].verdict == {"error": "MeshingError"}
    assert results[4].problems == ["S != 2"]


def test_other_exceptions_propagate():
    with pytest.raises(ZeroDivisionError):
        wl.run_items([wl.Item("bug", lambda: 1 / 0)], time.perf_counter)


def test_digest_repeats_and_depends_on_the_verdicts():
    item = wl.build("corpus", 3)[0]
    a = wl.run_items([item], time.perf_counter)
    b = wl.run_items([item], time.perf_counter)
    assert wl.digest(a) == wl.digest(b)
    assert a[0].verdict["mu"] == float(f"{a[0].verdict['mu']:.9e}")
    other = wl.ItemResult("x", 0.0, dict(a[0].verdict, S=a[0].verdict["S"] + 1), [])
    assert wl.digest([other]) != wl.digest(a)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    def inputs(seed):
        return [item.inputs for item in wl.build(name, seed)]
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        wl.build("nope", 1)


def test_run_fails_without_the_library(tmp_path):
    bench = Path(wl.__file__).parent
    shutil.copytree(bench, tmp_path / "bench")
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
