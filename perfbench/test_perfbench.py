"""Smoke tests for the benchmark: every workload at its smallest size.

Run with ``python -m pytest perfbench``.
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Recorder, Span  # noqa: E402

WORKLOADS = ["hom_pbw_fresh", "oracle_deep", "cli_chain"]

# Spans each workload must produce in a traced run.
WORKLOAD_SPANS = {
    "hom_pbw_fresh": [
        "spaces.make_sudbery",
        "homs.derive_relations_general",
        "homs.derive_relations_sudbery",
        "homs.spans_equal",
        "rewrite.build_rewrite_system",
        "rewrite.confluence_check",
        "pbw.pbw_criterion",
    ],
    "oracle_deep": ["spaces.make_sudbery", "homs.hom_algebra", "pbw.oracle.d2", "pbw.oracle.d3"],
    "cli_chain": run.CLI_SPANS,
}


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    metrics = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return done, metrics


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--smoke", *extra)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_metric(workload):
    done, metrics = smoke(workload, 0)
    assert done.returncode == 0, done.stderr
    assert metrics.pop("failed_share") == (0.0, "share")
    assert {n: u for n, (_, u) in metrics.items()} == run.END_TO_END
    assert all(v > 0 for v, _ in metrics.values())
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {n: (m["value"], m["unit"]) for n, m in result["metrics"].items()} == metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_repeats_its_counts(workload):
    runs = [smoke(workload, 1) for _ in range(2)]
    for done, metrics in runs:
        assert done.returncode == 0, done.stderr
        assert metrics.pop("failed_share") == (0.0, "share")
        assert {n: u for n, (_, u) in metrics.items()} == run.per_layer_units()
        for span in WORKLOAD_SPANS[workload]:
            assert metrics[f"{span}.calls"][0] > 0, span
    (first, m1), (second, m2) = runs
    assert {n: m1[n] for n in run.COUNTS} == {n: m2[n] for n in run.COUNTS}
    digests = [
        [line for line in done.stdout.splitlines() if "_sha256 " in line]
        for done in (first, second)
    ]
    assert digests[0] == digests[1]
    assert len(digests[0]) == (2 if workload == "cli_chain" else 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_fails(workload):
    done, metrics = smoke(workload, 0, "--negative-control")
    assert done.returncode == 1
    assert metrics["failed_share"][0] > 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = bench("--workload", "hom_pbw_fresh", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""


def test_self_time_excludes_children():
    rec = Recorder()
    rec.spans = [
        Span(0, None, 0, "case", 0, 100),
        Span(1, 0, 0, "a", 10, 40),
        Span(2, 0, 0, "b", 50, 60),
        Span(3, 1, 0, "c", 20, 30),
    ]
    assert rec.self_ns() == {0: 60, 1: 20, 2: 10, 3: 10}
    summary = rec.summary(["case", "a", "missing"], ["a"])
    assert summary["a.calls"] == 1 and summary["a.self_ms"] == 20 / 1e6
    assert summary["missing.calls"] == 0 and summary["missing.self_ms"] == 0.0
    assert summary["a.p50_ms"] == 30 / 1e6
    scaled = rec.summary(["a"], ["a"], scale={0: 2.0})
    assert scaled["a.self_ms"] == 40 / 1e6 and scaled["a.p50_ms"] == 60 / 1e6
