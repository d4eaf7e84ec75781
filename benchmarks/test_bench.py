"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/test_bench.py

They run short benchmark runs in subprocesses, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import chshd  # noqa: E402
import chshd.cli  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["seesaw", "exact"])
def test_exact_counts_repeat_across_processes(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")) for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.EXACT_COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    if workload == "seesaw":
        assert runs[0]["metrics"]["seesaw.iterations"]["value"] > 0
        assert runs[0]["metrics"]["seesaw.eigh_calls"]["value"] > 0
    if workload == "exact":
        assert runs[0]["metrics"]["classical.strategies_scanned"]["value"] > 0
        assert runs[0]["metrics"]["classical.argmax_entries"]["value"] >= 12800


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result = result_of(bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    summary = ROOT / ".bench_work" / "jobs-exact-seed1-trace0.jsonl"
    records = [json.loads(line) for line in summary.read_text().splitlines()]
    assert len(records) == result["attempted"]
    assert all(r["norm_latency_s"] > 0 for r in records)


def test_same_seed_gives_the_same_job_results(tmp_path):
    summary = ROOT / ".bench_work" / "jobs-seesaw-seed5-trace0.jsonl"
    result_of(bench("--workload", "seesaw", "--seed", "5", "--seconds", "1", "--trace", "0"))
    shutil.copy(summary, tmp_path / "first.jsonl")
    result_of(bench("--workload", "seesaw", "--seed", "5", "--seconds", "1", "--trace", "0"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "first.jsonl"), str(summary)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert " 0 differences" in proc.stdout and not proc.stdout.startswith("0 jobs")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_patched_attribute():
    import numpy as np

    cli = sys.modules["chshd.cli"]
    before = (cli.main, cli.seesaw, np.linalg.eigh, chshd.evaluate)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.seesaw is not before[1] and np.linalg.eigh is not before[2]
    tracer.remove()
    assert (cli.main, cli.seesaw, np.linalg.eigh, chshd.evaluate) == before


def test_missing_target_is_reported_absent_not_zero(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "classical", (("chshd.classical", "no_longer_exists"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        chshd.evaluate(chshd.build_maxent(3, 0.1), chshd.ideal_maxent_correlation(3))
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics([tracer], 0)
    assert metrics["classical.busy_s"] is None and metrics["classical.strategies_scanned"] is None
    assert metrics["functionals.evaluate_s"] > 0 and metrics["selftest.busy_s"] == 0


def test_self_time_excludes_child_spans():
    f = chshd.build_maxent(4, 0.1)
    p = chshd.ideal_maxent_correlation(4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        chshd.verify_selftest(p, f)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics([tracer], 0)
    children = metrics["functionals.evaluate_s"] + metrics["functionals.cross_value_s"] + metrics["ideal.busy_s"]
    assert metrics["selftest.calls"] == 1
    assert metrics["selftest.self_s"] == pytest.approx(metrics["selftest.busy_s"] - children, abs=1e-4)
