"""Self-tests of the benchmark at a tiny scale (a few clips per workload).

Run from the repository root: python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
import run
import tracer

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--scale", "0.01",
         "--seed", "3", "--seconds", "0.1", *args],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def declared(kind: str) -> list[str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, stdout = bench("--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio" in stdout


@pytest.mark.parametrize("workload", ["refined-125k", "fuse-125k"])
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result, _ = bench("--workload", workload, "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    assert list(result["metrics"]) == declared("per_layer")
    assert list(result["metrics"]) == list(tracer.metric_units())
    calls = result["metrics"]["fusion.score_window.calls"]["value"]
    assert (calls > 0) == (workload == "fuse-125k")


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """A real evaluate report on a tiny fixture, with its checker."""
    work = tmp_path_factory.mktemp("tiny")
    workload = run.WORKLOADS["refined-125k"]
    fx = gen.build(work / "inputs", workload.shape, seed=3, scale=0.01)
    check = run.Checker(workload, fx, seed=3, scale=0.01)
    inv = run.invoke(workload, fx, check, work)
    assert inv.problems == []
    return inv.output, workload, fx


def failures(output: bytes, workload, fx) -> int:
    """How many failed invocations one output counts as."""
    check = run.Checker(workload, fx, seed=3, scale=0.01)
    inv = run.Invocation(1.0, 1.0, 1.0, output, check(output))
    return run.finish([inv], {})["failed"]


def test_clean_report_passes(tiny_report):
    assert failures(*tiny_report) == 0


def test_corrupted_tp_counts_as_failure(tiny_report):
    output, workload, fx = tiny_report
    report = json.loads(output)
    report["event_metrics"]["tau_eer"]["per_tiou"][0]["tp"] += 1
    corrupted = (json.dumps(report, indent=2) + "\n").encode()
    assert failures(corrupted, workload, fx) == 1


def test_non_strict_json_counts_as_failure(tiny_report):
    output, workload, fx = tiny_report
    report = json.loads(output)
    tau = report["frame_metrics"]["tau_eer"]
    text = output.decode().replace(f'"tau_eer": {tau!r}',
                                   '"tau_eer": -Infinity', 1)
    assert "-Infinity" in text
    assert failures(text.encode(), workload, fx) == 1
    with pytest.raises(ValueError):
        checks.strict_json(b'{"eer": NaN}')


def test_changed_bytes_count_as_failure(tiny_report):
    output, workload, fx = tiny_report
    check = run.Checker(workload, fx, seed=3, scale=0.01)
    assert check(output) == []
    assert check(output.replace(b"\n", b"\r\n")) != []


def test_reference_comparison_tolerates_last_ulp_only():
    want = {"n": 3, "x": 0.1, "rows": [{"tp": 5, "f1": 0.5}]}
    assert checks.diff_reference(
        {"n": 3, "x": 0.1 * (1 + 1e-12), "rows": [{"tp": 5, "f1": 0.5}]},
        want) == []
    assert checks.diff_reference(
        {"n": 3, "x": 0.1, "rows": [{"tp": 6, "f1": 0.5}]}, want) != []
    assert checks.diff_reference(
        {"n": 3, "x": 0.1 * (1 + 1e-6), "rows": [{"tp": 5, "f1": 0.5}]},
        want) != []


def test_rank_sum_auc_averages_ties():
    scores = np.array([0.1, 0.5, 0.5, 0.9])
    labels = np.array([0, 0, 1, 1])
    # pairs (pos, neg): (0.5,0.1)=1 (0.5,0.5)=0.5 (0.9,0.1)=1 (0.9,0.5)=1
    assert checks.rank_sum_auc(scores, labels) == pytest.approx(3.5 / 4)


def test_fixture_is_a_function_of_the_seed(tmp_path):
    a = gen.build(tmp_path / "a", gen.SHORT_CLIPS, seed=5, fuse=True,
                  scale=0.005)
    b = gen.build(tmp_path / "b", gen.SHORT_CLIPS, seed=5, fuse=True,
                  scale=0.005)
    c = gen.build(tmp_path / "c", gen.SHORT_CLIPS, seed=6, fuse=True,
                  scale=0.005)
    assert a.digest == b.digest != c.digest
    assert (a.frames, a.clips, a.gt_events) == (b.frames, b.clips,
                                                b.gt_events)


def test_reference_reports_exist_for_every_evaluate_workload():
    for name, workload in run.WORKLOADS.items():
        path = run.BENCH_DIR / "reference" / f"{name}.json"
        assert path.is_file() != workload.fuse
