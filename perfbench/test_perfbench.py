"""Tests of the benchmark harness, on a few-second size of each workload.

    PYTHONPATH=src python -m pytest perfbench -q

The statistical Monte Carlo checks (medians within the acceptance bounds,
blow-ups from noisy initials) need the full replication counts, so at the
tiny size only the checks that hold for any sample are asserted.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
STATISTICAL = ("median", "blow-ups")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_declared_metrics_and_passes_checks(name, trace):
    record = run.run(name, 7, 0, trace, tiny=True)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {key: metric["unit"] for key, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["errors"] == []
    assert record["checks"]
    for check in record["checks"]:
        if not any(word in check["name"] for word in STATISTICAL):
            assert check["passed"], check
    if trace:
        assert record["checks"][-1]["name"] == "every exercised layer reads non-zero"
    else:
        assert result["metrics"]["wall_s"]["value"] > 0.0


def test_coverage_names_a_layer_that_reads_zero():
    metrics = {key: 1 for key in run.COVERAGE["yearly-search"]}
    assert run.coverage_gaps("yearly-search", metrics) == []
    metrics["ode.rk4_steps"] = 0
    assert run.coverage_gaps("yearly-search", metrics) == ["ode.rk4_steps"]


def test_output_check_fails_on_a_wrong_exponent(tmp_path):
    run.import_greymatch()
    workload = workloads.build("yearly-search", 0, tmp_path, tiny=True)
    _, _, failed, errors = run.measure(workload, 0, {}, cycles=1)
    assert failed == 0 and errors == []
    assert all(check["passed"] for check in workload.check())
    fit_json = tmp_path / "sewage-fit" / "fit.json"
    doc = json.loads(fit_json.read_text())
    doc["gamma_search"]["gamma_star"] = 0.95
    fit_json.write_text(json.dumps(doc))
    failing = [check["name"] for check in workload.check() if not check["passed"]]
    assert failing == ["sewage gamma* = 1.0"]


def test_unexpected_outcome_and_changed_outputs_count_as_failed():
    outputs = iter(["a", "b", "b"])
    calls = [
        workloads.Call("drifts", lambda: 0, 2, lambda r: None, lambda r: next(outputs)),
        workloads.Call("wrong exit", lambda: 1, 3,
                       lambda r: None if r == 0 else f"exit {r}", lambda r: "x"),
    ]
    workload = workloads.Workload("synthetic", calls, lambda: [])
    samples, attempted, failed, errors = run.measure(workload, 0, {}, cycles=2)
    assert [len(s) for s in samples] == [2, 2]
    assert attempted == 10
    assert failed == 2 + 3 + 3
    assert any("differ" in e for e in errors)


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yearly-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
