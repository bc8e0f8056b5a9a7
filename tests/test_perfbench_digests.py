"""The benchmark's count and CLI output digests at seed 1 equal the ones
recorded under ``determinism`` in perfbench/baseline.json, so a change that
must not alter output cannot alter what the benchmark measures either."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = json.loads((ROOT / "perfbench" / "baseline.json").read_text())


@pytest.mark.parametrize("workload", ["hom_pbw_fresh", "oracle_deep", "cli_chain"])
def test_benchmark_digests_match_baseline(workload):
    expected = {
        key: value
        for key, value in BASELINE["determinism"][workload].items()
        if key.endswith("_sha256")
    }
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = (line.partition(" ") for line in done.stdout.splitlines())
    assert {key: value for key, _, value in lines if key in expected} == expected
