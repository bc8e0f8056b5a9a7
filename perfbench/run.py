"""qlincat benchmark: seeded known-answer workloads, timed end to end, with
a traced mode that gives per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload hom_pbw_fresh --seed 1 --seconds 30 --trace 0

Workloads are ``hom_pbw_fresh``, ``oracle_deep`` and ``cli_chain`` (see
workloads.py).  Each is a closed loop with one caller, in one process and
one thread: the next case is sent when the last one has returned.  The run
goes on in whole rounds until ``--seconds`` have passed.

Times are reported in reference milliseconds.  On a shared 2-vCPU Xeon
container the same code ran up to a third slower from one minute to the
next, which moved whole runs far more than any change of seed did (the
quartile spread of ten runs was 0.3 to 0.45 of the median).  So a fixed
stdlib Fraction loop (``calibration_ns``) is timed before the first case of
each round and after every case, and the times of a round's cases are
multiplied by ``CAL_REF_NS`` over the mean of the round's loop times: a
case reads as it would on a machine where that loop takes 10 ms.  The raw
values are printed too, on lines starting with ``raw``.

Every metric is printed as ``metric <name> <value> <unit>``, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones:
even rounds are traced and odd rounds are not, so the run also reports
what tracing costs.  Spans are written as JSON Lines, with raw times,
under ``.perfbench_out/``.

``--smoke`` runs small sizes (for the benchmark's own tests), and
``--negative-control`` inverts one known answer so the run must fail.
Exit codes: 0 every case matched its known answer, 1 some case did not,
2 the program could not be loaded from ``src/`` or bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import workloads
from spans import NullRecorder, Recorder

ROOT = Path(__file__).resolve().parent.parent

OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
CAL_REF_NS = 10_000_000

END_TO_END = {
    "verdicts_per_s": "1/s",
    "small_p50_ms": "ms",
    "large_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPANS = [
    "spaces.make_sudbery",
    "homs.derive_relations_general",
    "homs.derive_relations_sudbery",
    "homs.spans_equal",
    "rewrite.build_rewrite_system",
    "rewrite.confluence_check",
    "pbw.pbw_criterion",
    "homs.hom_algebra",
    *[f"pbw.oracle.d{d}" for d in range(2, 8)],
]
CLI_SPANS = [f"cli.{c}" for c in ("object", "hom", "pbw", "yb", "bialgebra", "det")]

COUNTS = {
    "homs.general.rows": "count",
    "homs.general.cols": "count",
    "homs.general.nnz": "count",
    "homs.sudbery.rows": "count",
    "homs.sudbery.nnz": "count",
    "homs.span_rank": "count",
    "homs.coeff_bits_max": "bits",
    "rewrite.overlaps": "count",
    "rewrite.overlaps_resolved_ratio": "ratio",
    **{
        f"pbw.oracle.d{d}.{field}": unit
        for d in range(2, 8)
        for field, unit in (
            ("rows", "count"),
            ("cols", "count"),
            ("rank", "count"),
            ("useful_row_ratio", "ratio"),
        )
    },
    "cli.stdout_bytes": "bytes",
}

TRACE = {
    "trace.verdicts_per_s": "1/s",
    "trace.untraced_verdicts_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in output order."""
    units = {}
    for name in SPANS + CLI_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in CLI_SPANS:
        units[f"{name}.p50_ms"] = "ms"
    return {**units, **COUNTS, **TRACE}


def load_program():
    """Import qlincat from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qlincat
    import qlincat.cli

    if Path(qlincat.__file__).resolve().parent != src / "qlincat":
        raise ImportError(f"qlincat was found at {qlincat.__file__}, not under {src}")
    return qlincat, qlincat.cli


def calibration_ns() -> int:
    """Time of a fixed stdlib Fraction loop (5 to 15 ms on a shared 2-vCPU
    Xeon container): how fast the machine runs this kind of code now."""
    start = perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i % 97 + 1)
    return perf_counter_ns() - start


def make_workload(args, program, workdir):
    profile = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](*program, args.seed, profile, workdir)
    return wl, wl.prepare(0)


def setup_probe(args) -> tuple[float, int]:
    """One set-up, timed: import the program and make the first round.
    Also returns the calibration time right after it."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        start = perf_counter()
        make_workload(args, load_program(), workdir)
        elapsed = perf_counter() - start
    return elapsed, calibration_ns()


def setup_seconds(args) -> tuple[float, float]:
    """Median of several set-ups, each in a fresh interpreter: in reference
    seconds and raw."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    ref, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        seconds, cal = done.stdout.split()[-2:]
        raw.append(float(seconds))
        ref.append(float(seconds) * CAL_REF_NS / int(cal))
    return statistics.median(ref), statistics.median(raw)


class Sample(NamedTuple):
    round: int
    size: str
    raw_ns: int
    ns: float  # raw_ns in reference nanoseconds
    ok: bool
    traced: bool


def measure(args, wl, first_round, recorder):
    """The closed loop.  Returns per-case samples and the round-0 counts."""
    counts = workloads.Counts(COUNTS)
    null = NullRecorder()
    samples: list[Sample] = []
    min_rounds = 2 if recorder else 1
    deadline = perf_counter() + args.seconds
    r = 0
    while r < min_rounds or perf_counter() < deadline:
        cases = first_round if r == 0 else wl.prepare(r)
        if r == 0 and args.negative_control:
            cases = [wl.invert(cases[0])] + cases[1:]
        traced = recorder is not None and r % 2 == 0
        rec = recorder if traced else null
        cals = [calibration_ns()]
        timed = []
        for case in cases:
            rec.start_case(len(samples) + len(timed))
            out = None
            start = perf_counter_ns()
            try:
                with rec.span("case"):
                    out = wl.run(case, rec)
            except Exception:
                traceback.print_exc()
            elapsed = perf_counter_ns() - start
            cals.append(calibration_ns())
            ok = False
            if out is not None:
                try:
                    ok = wl.check(case, out)
                    if r == 0:
                        wl.count(case, out, counts)
                except Exception:
                    traceback.print_exc()
            if not ok:
                print(f"case {len(samples) + len(timed)} ({case.size}) failed its known answer",
                      file=sys.stderr)
            timed.append((case.size, elapsed, ok))
        scale = CAL_REF_NS / statistics.fmean(cals)
        samples += [Sample(r, size, ns, ns * scale, ok, traced) for size, ns, ok in timed]
        wl.finish(r)
        r += 1
    return samples, counts


def rate(samples, field="ns") -> float:
    """Cases that matched their known answer per second spent in cases."""
    busy = sum(getattr(s, field) for s in samples)
    return sum(s.ok for s in samples) / (busy / 1e9) if busy else 0.0


def p50_ms(samples, size, field="ns") -> float:
    """Median over rounds of the mean time of the round's cases of a class.

    A class mixes shapes and verdicts whose costs differ, so the median of
    single cases falls between cost groups and jumps from run to run; the
    mean over one round's fixed mix has a single mode.
    """
    per_round: dict[int, list[int]] = {}
    for s in samples:
        if s.size == size:
            per_round.setdefault(s.round, []).append(getattr(s, field))
    return statistics.median(statistics.fmean(v) for v in per_round.values()) / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--negative-control", action="store_true",
                        help="invert the known answer of the first case")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print("{:.9f} {}".format(*setup_probe(args)))
            return 0
        program = load_program()
    except ImportError as exc:
        print(f"cannot load qlincat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    recorder = Recorder() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl, first_round = make_workload(args, program, workdir)
        samples, counts = measure(args, wl, first_round, recorder)

    failed = sum(not s.ok for s in samples)
    if args.trace:
        traced = [s for s in samples if s.traced]
        untraced = [s for s in samples if not s.traced]
        count_values = counts.final()
        metrics = {
            **recorder.summary(
                SPANS + CLI_SPANS, CLI_SPANS, {i: s.ns / s.raw_ns for i, s in enumerate(samples)}
            ),
            **count_values,
            "trace.verdicts_per_s": rate(traced),
            "trace.untraced_verdicts_per_s": rate(untraced),
        }
        metrics["trace.overhead_ratio"] = (
            metrics["trace.untraced_verdicts_per_s"] / metrics["trace.verdicts_per_s"]
            if metrics["trace.verdicts_per_s"] else 0.0
        )
        units = per_layer_units()
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"spans written to {path}", file=sys.stderr)
        counts_text = json.dumps(count_values, sort_keys=True).encode()
        print(f"counts_sha256 {hashlib.sha256(counts_text).hexdigest()}")
        if isinstance(wl, workloads.CliChain):
            print(f"cli_stdout_sha256 {wl.digest.hexdigest()}")
    else:
        setup_ref, setup_raw = setup_seconds(args)
        metrics = {
            "verdicts_per_s": rate(samples),
            "small_p50_ms": p50_ms(samples, "small"),
            "large_p50_ms": p50_ms(samples, "large"),
            "setup_s": setup_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"raw verdicts_per_s {rate(samples, 'raw_ns')} 1/s")
        print(f"raw small_p50_ms {p50_ms(samples, 'small', 'raw_ns')} ms")
        print(f"raw large_p50_ms {p50_ms(samples, 'large', 'raw_ns')} ms")
        print(f"raw setup_s {setup_raw} s")

    print(f"metric failed_share {failed / len(samples)} share")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
