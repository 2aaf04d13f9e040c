"""Tracing: every binding is wrapped, self times add up, names match BENCHMARK.json."""

import json

import pytest

import run
import trace_child
import workloads
from unital_otto import analysis, cli, trajectory

GRID = dict(beta=0.9, nu1=1.0, nu2=2.3, start=0.0, stop=0.5, steps=3, start2=0.0, stop2=1.0, steps2=4)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def traced_grid(tmp_path):
    inv = workloads._classify(GRID, 12)
    tracer = trace_child.Tracer()
    tracer.install(cli)
    try:
        _, results = trace_child.run_pass(cli, [inv.argv], tracer, 0)
    finally:
        tracer.uninstall()
    tracer.save(tmp_path / "spans.npz")
    return inv, results[0], run.SpanTable(tmp_path / "spans.npz", 1)


def test_wrappers_are_removed_after_the_pass(traced_grid):
    for fn in (cli.main, analysis.enumerate_paths, analysis.closed_form_first_second, trajectory.enumerate_paths):
        assert not hasattr(fn, "__wrapped__")


def test_calls_through_imported_names_are_counted(traced_grid):
    inv, (code, out, _), spans = traced_grid
    assert code == 0
    metrics = run.per_layer_metrics(spans, [inv], [out], [{"untraced_s": 1.0, "traced_s": 2.0}])
    assert metrics["trajectory.enumerate_paths.calls"][0] == 12
    # efficiency once and verify_bounds twice, through analysis' own binding
    assert metrics["cumulants.closed_form_first_second.calls"][0] == 36
    assert metrics["analysis.useful_ratio"][0] == 0.0
    assert metrics["cli.rows"][0] == 12
    assert metrics["trace.overhead_ratio"][0] == 2.0
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}


def test_self_times_partition_the_root_span(traced_grid):
    _, _, spans = traced_grid
    roots = spans.parent < 0
    assert int(roots.sum()) == 1 and spans.name[roots][0] == spans.names.index("cli.main")
    assert float(spans.self_s.sum()) == pytest.approx(float(spans.duration[roots][0]), rel=1e-9)
    assert spans.self_s.min() > -1e-9


def test_untraced_run_reports_declared_metrics(tmp_path):
    result = run.run_untraced("bounds-campaign", 1, 0.1, tmp_path)
    assert result["correct"]
    assert result["attempted"] == len(workloads.make_pass("bounds-campaign", 1)) == 1
    assert result["notes"]["reference_runs"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())
