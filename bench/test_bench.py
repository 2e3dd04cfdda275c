"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The module fixture makes one short traced run of every workload (one
untraced and one traced pass each, about a minute and a half in all).
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import oracle
import run
import workloads
from tracer import LAYERS, Tracer

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in CONFIG["end_to_end"]]
PER_LAYER = [m["name"] for m in CONFIG["per_layer"]]


@pytest.fixture(scope="module")
def results():
    return {w["name"]: run.measure(w["name"], seed=7, seconds=0, trace=True) for w in CONFIG["workloads"]}


def test_config_names_the_workloads_the_runner_has():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in END_TO_END


def test_short_run_emits_every_metric_without_errors(results):
    for name, result in results.items():
        assert result["failed"] == 0, (name, result["report"]["failures"])
        assert result["report"]["error_rate"] == 0
        assert result["report"]["op_p50_ms"] > 0
        for metric in END_TO_END:
            assert result["end_to_end"][metric] > 0, (name, metric)
        for metric in PER_LAYER:
            assert metric in result["per_layer"], (name, metric)
        for trace in (0, 1):
            line = run.result_line(result, CONFIG, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            assert list(line["metrics"]) == (PER_LAYER if trace else END_TO_END)


def test_certified_lower_bound_has_the_largest_self_time_on_certify(results):
    layer = results["certify"]["per_layer"]
    self_times = {k: v for k, v in layer.items()
                  if k.endswith(".self_s") and k.count(".") >= 2 and not k.startswith("setup.")}
    assert max(self_times, key=self_times.get) == "certificate.certified_lower_bound.self_s"


def test_exhaustive_never_reaches_certificate_or_exact(results):
    layer = results["exhaustive"]["per_layer"]
    touched = {k: v for k, v in layer.items()
               if k.split(".")[0] in ("certificate", "exact") and v != 0}
    assert touched == {}
    assert layer["search.candidates_tested"] > 0


def test_audit_certificates_are_traced_in_setup_only(results):
    layer = results["audit"]["per_layer"]
    assert layer["certificate.certified_lower_bound.calls"] == 0
    assert layer["setup.certificate.certified_lower_bound.calls"] == 2
    assert layer["setup.certificate.k_edges_verified"] == (
        oracle.edge_count((6,) * 3, (3,) * 3, 2, "K") + oracle.edge_count((4,) * 4, (2,) * 4, 3, "K")
    )


def test_layer_self_times_add_up_to_the_traced_wall_time(results):
    for name, result in results.items():
        layer = result["per_layer"]
        attributed = sum(layer[f"{x}.self_s"] for x in LAYERS)
        assert layer["trace.unattributed_s"] == pytest.approx(layer["trace.wall_s"] - attributed)
        assert 0 <= layer["trace.unattributed_s"] < 0.01 * layer["trace.wall_s"], name


def test_runs_leave_no_wrapper_behind(results):
    import gridperc

    for module in [gridperc] + [getattr(gridperc, name) for name in LAYERS]:
        for attr, value in vars(module).items():
            assert not hasattr(value, "__wrapped__"), f"{module.__name__}.{attr}"
    assert not hasattr(gridperc.EliminationBasis.insert, "__wrapped__")


def _namespaces(package):
    modules = [package] + [getattr(package, name) for name in LAYERS]
    classes = [v for m in modules for v in vars(m).values()
               if inspect.isclass(v) and v.__module__.startswith("gridperc")]
    return modules + classes


def test_tracer_restores_every_attribute_it_rebinds():
    package = run.import_gridperc()
    before = [(ns, dict(vars(ns))) for ns in _namespaces(package)]
    tracer = Tracer()
    tracer.install(package)
    try:
        assert hasattr(package.certificate.closure, "__wrapped__")
        assert hasattr(package.search.percolates, "__wrapped__")
        assert hasattr(package.EliminationBasis.insert, "__wrapped__")
        result = workloads.run_cli(package, "minperc --d 2 --n 3 --t 2 --r 2 --family P --exhaustive".split())
        assert result.rc == 0
    finally:
        tracer.uninstall()
    for ns, attrs in before:
        now = dict(vars(ns))
        assert now.keys() == attrs.keys(), ns
        assert all(now[k] is attrs[k] for k in attrs), ns
    metrics = tracer.metrics(1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["search.candidates_tested"] == json.loads(result.out)["tested"]
    assert metrics["percolation.closure.calls"] == metrics["search.candidates_tested"]


def test_tracer_fails_on_a_missing_name_and_leaves_nothing_patched(monkeypatch):
    package = run.import_gridperc()
    before = [(ns, dict(vars(ns))) for ns in _namespaces(package)]
    monkeypatch.delattr(package.exact, "dependency_coeffs")
    with pytest.raises(AttributeError, match="dependency_coeffs"):
        Tracer().install(package)
    monkeypatch.undo()
    for ns, attrs in before:
        now = dict(vars(ns))
        assert now.keys() == attrs.keys(), ns
        assert all(now[k] is attrs[k] for k in attrs), ns


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_formula_matches_known_minima():
    assert oracle.extremal_size((5, 5, 5), (3, 3, 3), 2) == 44
    assert oracle.extremal_size((3, 3), (2, 2), 2) == 5
    for command, minimum in workloads.EXHAUSTIVE_LADDER:
        if command.startswith("minperc"):
            assert oracle.extremal_size(*workloads._spec_of(command.split())) == minimum


def test_checks_reject_wrong_outputs():
    command = "certify --d 3 --n 5 --t 3 --r 2"
    good = {"spec": {"dims": [5, 5, 5], "thick": [3, 3, 3], "r": 2}, "lowerBound": 44,
            "uSize": 44, "verifiedSpan": True, "verifiedDependencies": True}
    check = workloads._check_certificate(command)
    assert check(workloads.CliResult(0, json.dumps(good), "")) is None
    assert check(workloads.CliResult(0, json.dumps({**good, "lowerBound": 43}), "")) is not None

    op = workloads._cli_op(None, {command: oracle.stdout_digest("x")}, command, lambda res: None)
    assert op.check(workloads.CliResult(0, "x", "")) is None
    assert op.check(workloads.CliResult(0, "y", "")) == "stdout differs from the recorded digest"
    assert op.check(workloads.CliResult(1, "x", "")) == "exit code 1, expected 0"

    budget = "error: search budget exhausted after 50000 candidate sets (budget 50000)\n"
    assert workloads._check_budget(workloads.CliResult(3, "", budget)) is None
    assert workloads._check_budget(workloads.CliResult(3, "", "")) is not None

    report = SimpleNamespace(initial_size=55, u_size=56, ok=False, percolated=True,
                             seed_rank=55, all_steps_in_span=True)
    assert workloads._check_audit(55, 56, expect_ok=False)(report) is not None


def test_sweep_digest_ignores_runtime_only():
    a = "d,r,runtime_ms\n1,1,3\n2,1,40\n"
    b = "d,r,runtime_ms\n1,1,7\n2,1,0\n"
    assert oracle.stdout_digest(a, mask_runtime=True) == oracle.stdout_digest(b, mask_runtime=True)
    assert oracle.stdout_digest(a, mask_runtime=True) != oracle.stdout_digest(
        "d,r,runtime_ms\n1,2,3\n2,1,40\n", mask_runtime=True)
