"""The three benchmark workloads: seeded cases, the timed calls into the
program, the known-answer checks and the elimination-size counts.

A workload hands out its cases one round at a time.  Every round holds
both size classes in one fixed composition (each shape of a class with
both PBW verdicts), so rates and per-round means do not depend on where a
time-bounded run stops.  Inputs for round r come from their own generator
seeded with (workload, seed, r): the same seed gives the same cases
however many rounds a run reaches.

The program modules are passed in (``q`` is the ``qlincat`` package,
``cli`` its command-line module), so importing this file imports no part
of the program and set-up can time that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import gen


@dataclass(frozen=True)
class Case:
    """One closed-loop request: a size class, its inputs, its known answer.

    For a pair, ``expected`` is the PBW verdict.  For a chain it is the
    tuple of link verdicts.  ``extra`` is the top degree of an oracle case.
    """

    size: str
    inputs: object
    expected: object
    extra: object = None


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _pair_cases(rng, size, shapes, extra=None):
    """A YES pair and a NO pair on every shape."""
    return [
        Case(size, gen.pair(rng, shape, shape, pbw), pbw, extra)
        for shape in shapes
        for pbw in (True, False)
    ]


class Counts:
    """Elimination sizes summed over the cases of the first round."""

    def __init__(self, names):
        self.values = {n: 0 for n in names}
        self.resolved = 0

    def add(self, name, value):
        self.values[name] += value

    def maximum(self, name, value):
        self.values[name] = max(self.values[name], value)

    def relations(self, prefix, rels, cols=True):
        self.add(f"{prefix}.rows", rels.matrix.rows)
        if cols:
            self.add(f"{prefix}.cols", rels.matrix.cols)
        self.add(f"{prefix}.nnz", sum(1 for row in rels.matrix.data for x in row if x))
        for poly in rels.polys:
            for c in poly.terms.values():
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                self.maximum("homs.coeff_bits_max", bits)

    def final(self) -> dict:
        out = dict(self.values)
        if "rewrite.overlaps" in out:
            total = out["rewrite.overlaps"]
            out["rewrite.overlaps_resolved_ratio"] = self.resolved / total if total else 0.0
        for name in out:
            if name.endswith(".useful_row_ratio"):
                base = name[: -len(".useful_row_ratio")]
                rows = out[f"{base}.rows"]
                out[name] = out[f"{base}.rank"] / rows if rows else 0.0
        return out


def _make(q, rec, spec: gen.ObjectSpec):
    with rec.span("spaces.make_sudbery"):
        return q.make_sudbery(q.space_of(spec.parities), spec.q, spec.p)


class HomPbwFresh:
    """Fresh pair per case: derive both ways, compare spans, build and check
    the rewrite system, and take the criterion without the oracle."""

    name = "hom_pbw_fresh"
    PROFILES = {
        "full": {
            "small": [(0, 0, 0), (0, 0, 1), (0, 1, 1)],
            "large": [(0, 0, 0, 1), (0, 0, 1, 1)],
        },
        "smoke": {"small": [(0, 0), (0, 1)], "large": [(0, 0, 1)]},
    }

    def __init__(self, q, cli, seed, profile, workdir):
        self.q = q
        self.seed = seed
        self.shapes = self.PROFILES[profile]

    def prepare(self, r):
        rng = _rng(self.name, self.seed, r)
        return _pair_cases(rng, "small", self.shapes["small"]) + _pair_cases(
            rng, "large", self.shapes["large"]
        )

    def finish(self, r):
        pass

    def run(self, case, rec):
        q = self.q
        pair = case.inputs
        a = _make(q, rec, pair.src)
        b = _make(q, rec, pair.tgt)
        with rec.span("homs.derive_relations_general"):
            general = q.derive_relations_general(a, b)
        with rec.span("homs.derive_relations_sudbery"):
            closed = q.derive_relations_sudbery(a, b)
        with rec.span("homs.spans_equal"):
            equal = q.spans_equal(general, closed)
        with rec.span("rewrite.build_rewrite_system"):
            system = q.build_rewrite_system(general)
        with rec.span("rewrite.confluence_check"):
            overlaps = q.confluence_check(system)
        with rec.span("pbw.pbw_criterion"):
            verdict = q.pbw_criterion(a, b, oracle_degree=None)
        return general, closed, equal, system, overlaps, verdict

    def check(self, case, out) -> bool:
        _, _, equal, _, overlaps, verdict = out
        confluent = not self.q.failed_overlaps(overlaps)
        return (
            equal is True
            and verdict.criterion_holds == case.expected
            and confluent == case.expected
        )

    def count(self, case, out, counts: Counts):
        general, closed, _, system, overlaps, _ = out
        counts.relations("homs.general", general)
        counts.relations("homs.sudbery", closed, cols=False)
        counts.add("homs.span_rank", len(system.rules))
        counts.add("rewrite.overlaps", len(overlaps))
        counts.resolved += sum(1 for o in overlaps if o.resolved)

    def invert(self, case):
        return replace(case, expected=not case.expected)


class OracleDeep:
    """Fresh pair per case: the hom algebra, then the exact dimension oracle
    at every degree from 2 up to the class's top degree."""

    name = "oracle_deep"
    PROFILES = {
        "full": {
            "small": ([(0, 0, 0), (0, 0, 1), (0, 1, 1)], 4),
            "large": ([(0, 0), (0, 1)], 7),
        },
        "smoke": {"small": ([(0, 0), (0, 1)], 3), "large": ([(0, 0, 1)], 3)},
    }

    def __init__(self, q, cli, seed, profile, workdir):
        self.q = q
        self.seed = seed
        self.classes = self.PROFILES[profile]

    def prepare(self, r):
        rng = _rng(self.name, self.seed, r)
        return _pair_cases(rng, "small", *self.classes["small"]) + _pair_cases(
            rng, "large", *self.classes["large"]
        )

    def finish(self, r):
        pass

    def run(self, case, rec):
        q = self.q
        a = _make(q, rec, case.inputs.src)
        b = _make(q, rec, case.inputs.tgt)
        with rec.span("homs.hom_algebra"):
            hom = q.hom_algebra(a, b)
        dims = []
        for d in range(2, case.extra + 1):
            with rec.span(f"pbw.oracle.d{d}"):
                dims.append(q.dimension_oracle(hom, d))
        return hom, dims

    def check(self, case, out) -> bool:
        _, dims = out
        parities = gen.letter_parities(case.inputs.src, case.inputs.tgt)
        classical = [gen.classical_dimension(parities, d) for d in range(2, case.extra + 1)]
        return (dims == classical) == case.expected

    def count(self, case, out, counts: Counts):
        hom, dims = out
        counts.relations("homs.general", hom.relations)
        n = hom.alphabet.size
        nrel = len(hom.relations.polys)
        for d, dim in enumerate(dims, start=2):
            counts.add(f"pbw.oracle.d{d}.rows", (d - 1) * n ** (d - 2) * nrel)
            counts.add(f"pbw.oracle.d{d}.cols", n**d)
            counts.add(f"pbw.oracle.d{d}.rank", n**d - dim)

    def invert(self, case):
        return replace(case, expected=not case.expected)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, the link or object it concerns, argv."""

    command: str
    index: int
    argv: tuple[str, ...]


class CliChain:
    """Chains of four objects through the command line, in process.

    Every call reads object files of its own, written before the round
    starts, so no file is read twice.  Exactly one link per chain pairs two
    different constants; its ``pbw`` must exit 1.
    """

    name = "cli_chain"
    LENGTH = 4
    PROFILES = {
        "full": {"small": [(0, 0)] * 4, "large": [(0, 0, 1), (0, 1, 1)]},
        "smoke": {"small": [(0, 0)], "large": [(0, 1)]},
    }

    def __init__(self, q, cli, seed, profile, workdir):
        self.cli = cli
        self.seed = seed
        self.classes = self.PROFILES[profile]
        self.workdir = Path(workdir)
        self.digest = hashlib.sha256()

    def _file(self, folder: Path, spec, label: str) -> str:
        path = folder / f"{label}.json"
        path.write_text(json.dumps(gen.object_json(spec, label)), encoding="utf-8")
        return str(path)

    def prepare(self, r):
        rng = _rng(self.name, self.seed, r)
        cases = []
        for size in ("small", "large"):
            for shape in self.classes[size]:
                folder = self.workdir / f"r{r}" / f"c{len(cases)}"
                folder.mkdir(parents=True)
                # the mismatched link follows the chain's slot in the round,
                # so every round has the same mix
                bad = len(cases) % (self.LENGTH - 1)
                objs = gen.chain(rng, shape, self.LENGTH, bad)
                every, links = range(self.LENGTH), range(self.LENGTH - 1)
                serial = itertools.count()

                def f(i):
                    return self._file(folder, objs[i], f"f{next(serial)}_o{i}")

                calls = [Call("object", i, ("object", f(i))) for i in every]
                calls += [
                    Call("hom", i, ("hom", f(i), f(i + 1), "--form", "both")) for i in links
                ]
                calls += [
                    Call("pbw", i, ("pbw", f(i), f(i + 1), "--oracle", "--degree", "3"))
                    for i in links
                ]
                calls += [Call("yb", i, ("yb", f(i))) for i in every]
                calls.append(Call("bialgebra", 0, ("bialgebra", *[f(i) for i in every])))
                if len(shape) == 2 and not any(shape):
                    calls.append(Call("det", 0, ("det", *[f(i) for i in every])))
                expected = tuple(i != bad for i in links)
                cases.append(Case(size, tuple(calls), expected))
        return cases

    def finish(self, r):
        shutil.rmtree(self.workdir / f"r{r}", ignore_errors=True)

    def run(self, case, rec):
        results = []
        for call in case.inputs:
            out, err = io.StringIO(), io.StringIO()
            with rec.span(f"cli.{call.command}"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main([*call.argv, "--json"])
            results.append((call, code, out.getvalue()))
        return results

    def check(self, case, out) -> bool:
        for call, code, stdout in out:
            doc = json.loads(stdout)
            if call.command == "object":
                ok = code == 0 and doc["valid"] is True
            elif call.command == "hom":
                ok = code == 0 and doc["spans_equal"] is True
            elif call.command == "pbw":
                yes = case.expected[call.index]
                classical = all(d["dim"] == d["classical"] for d in doc["oracle"])
                ok = (
                    code == (0 if yes else 1)
                    and doc["criterion_holds"] == yes
                    and (doc["overlaps_failed"] == 0) == yes
                    and classical == yes
                )
            elif call.command == "det":
                ok = code == 0 and all(m["passes"] for m in doc["multiplicativity"])
            else:
                ok = code == 0 and all(c["passes"] for c in doc["checks"])
            if not ok:
                return False
        return True

    def count(self, case, out, counts: Counts):
        for _, _, stdout in out:
            data = stdout.encode("utf-8")
            counts.add("cli.stdout_bytes", len(data))
            self.digest.update(data)

    def invert(self, case):
        flipped = (not case.expected[0],) + case.expected[1:]
        return replace(case, expected=flipped)


WORKLOADS = {w.name: w for w in (HomPbwFresh, OracleDeep, CliChain)}
