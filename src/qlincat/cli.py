"""Command-line front end: object definition files in, relation listings,
criterion verdicts and reports out.

Objects are JSON documents with rationals written as strings ("5/9") so
round-trips stay exact.  Exit codes: 0 all checks passed, 1 checks ran and
failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .bialgebra import (
    ComposableTriple,
    WrongShape,
    coassociativity_check,
    comultiplication_check,
    counit_check,
    determinant_2x2,
    determinant_multiplicativity,
)
from .homs import (
    ComponentCountMismatch,
    derive_relations_general,
    derive_relations_sudbery,
    hom_algebra,
    spans_equal,
)
from .linalg import NotComplementary
from .pbw import TooLarge, oracle_dims, pbw_criterion, pbw_extract_constant
from .rewrite import build_rewrite_system, confluence_check, failed_overlaps, format_poly
from .rmatrix import RepeatedCoefficient, normalized_B, yang_baxter_check
from .graded import space_of
from .spaces import (
    BadParameters,
    QuantumObject,
    make_classical,
    make_general,
    make_normalized,
    make_sudbery,
)

FORMAT = "quantum-object/1"
# `qlincat object` on a dense random general file of this dim takes about
# 0.2 s, interpreter start included (2-vCPU Xeon, CPython 3.11)
MAX_DIM = 8
# `qlincat yb` on a dim-8 two-parameter object with 56 candidate coefficients
# takes 0.35-0.51 s with 100-digit integer entries and 1.2-1.6 s with 100-digit
# numerators and denominators (in process, 2-vCPU Xeon); 4000-digit integers
# took 390 s when B was still read through dense Fractions
MAX_DIGITS = 100
# characters of an object file; the bounds above admit 64 spans of 64 vectors of
# 64 rationals of <= 203 characters (dim 8), about 54e6 with quotes and commas
MAX_CHARS = 2**26
# a decimal with an exponent, in every form ``Fraction`` accepts
_EXPONENT = re.compile(r"\s*[-+]?(?:\d[\d_]*(?:\.[\d_]*)?|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")


class ObjectSpecError(Exception):
    """Input file does not describe a valid object; message carries the
    offending field path and the violated condition."""


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans and floats are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


class _LongInteger:
    """A JSON integer literal of more than MAX_DIGITS digits, left
    unconverted so that ``_rat`` refuses it with its field path."""


def _json_int(text: str):
    return _LongInteger() if len(text.lstrip("-")) > MAX_DIGITS else int(text)


def _rat(value, path: str) -> Fraction:
    too_long = f"{path}: numerator and denominator may have at most {MAX_DIGITS} digits each"
    if isinstance(value, _LongInteger):
        raise ObjectSpecError(too_long)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ObjectSpecError(f"{path}: expected a rational string, got {value!r}")
    # Fraction expands "1e1000000" to a million digits; refuse exponents
    if isinstance(value, str) and _EXPONENT.fullmatch(value):
        raise ObjectSpecError(f"{path}: exponent notation is not accepted: {value!r}")
    text = str(value)
    # no rational within the limit is written longer: refuse before parsing
    if len(text.strip()) > 2 * MAX_DIGITS + 3:
        raise ObjectSpecError(too_long)
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ObjectSpecError(f"{path}: not a rational: {value!r} ({exc})") from exc
    if len(str(abs(r.numerator))) > MAX_DIGITS or len(str(r.denominator)) > MAX_DIGITS:
        raise ObjectSpecError(too_long)
    return r


def _rat_matrix(value, path: str, n: int):
    if not isinstance(value, list) or len(value) != n:
        raise ObjectSpecError(f"{path}: expected {n} rows")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ObjectSpecError(f"{path}[{i}]: expected {n} entries")
        out.append(tuple(_rat(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


def load_object(path: str) -> QuantumObject:
    try:
        with open(path, encoding="utf-8") as fh:
            # a read of the limit's size would allocate that much per file
            text = fh.read(2**16)
            if len(text) == 2**16:
                text += fh.read(MAX_CHARS + 1 - len(text))
        if len(text) > MAX_CHARS:
            raise ObjectSpecError(f"{path}: larger than {MAX_CHARS} characters")
        doc = json.loads(text, parse_int=_json_int)
    except OSError as exc:
        raise ObjectSpecError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObjectSpecError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ObjectSpecError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ObjectSpecError(f"{path}: document must be an object")
    if doc.get("format") != FORMAT:
        raise ObjectSpecError(f'{path}: format: must be "{FORMAT}"')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ObjectSpecError(f"{path}: name: must be a string")
    dim = doc.get("dim")
    if not _is_int(dim) or not 1 <= dim <= MAX_DIM:
        raise ObjectSpecError(f"{path}: dim: must be an integer from 1 to {MAX_DIM}")
    parities = doc.get("parities", [0] * dim)
    if (
        not isinstance(parities, list)
        or len(parities) != dim
        or any(not _is_int(p) or p not in (0, 1) for p in parities)
    ):
        raise ObjectSpecError(f"{path}: parities: must be {dim} bits")
    space = space_of(parities)
    kind = doc.get("kind")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ObjectSpecError(f"{path}: params: must be an object")
    try:
        if kind == "classical":
            return make_classical(space, name)
        if kind == "sudbery":
            q = _rat_matrix(params.get("q"), f"{path}: params.q", dim)
            p = _rat_matrix(params.get("p"), f"{path}: params.p", dim)
            return make_sudbery(space, q, p, name)
        if kind == "normalized":
            q = _rat_matrix(params.get("q"), f"{path}: params.q", dim)
            eps = params.get("eps")
            if not _is_int(eps) or eps not in (1, -1):
                raise ObjectSpecError(f"{path}: params.eps: must be 1 or -1")
            lam = _rat(params.get("lam"), f"{path}: params.lam")
            return make_normalized(space, q, eps, lam, name)
        if kind == "general":
            comps = params.get("components")
            if not isinstance(comps, list) or len(comps) < 2:
                raise ObjectSpecError(
                    f"{path}: params.components: need at least two component spans"
                )
            # V' (x) V' has dimension dim**2: no component needs more spanning
            # vectors, nor the decomposition more components (two at dim 1);
            # longer lists are refused before any rational is parsed
            if len(comps) > max(dim * dim, 2):
                raise ObjectSpecError(
                    f"{path}: params.components: at most {max(dim * dim, 2)} component spans"
                )
            for k, comp in enumerate(comps):
                if isinstance(comp, list) and len(comp) > dim * dim:
                    raise ObjectSpecError(
                        f"{path}: params.components[{k}]: at most {dim * dim} vectors"
                    )
            parsed = []
            for k, comp in enumerate(comps):
                if not isinstance(comp, list):
                    raise ObjectSpecError(
                        f"{path}: params.components[{k}]: must be a list of vectors"
                    )
                vecs = []
                for i, vec in enumerate(comp):
                    if not isinstance(vec, list) or len(vec) != dim * dim:
                        raise ObjectSpecError(
                            f"{path}: params.components[{k}][{i}]: expected {dim*dim} coordinates"
                        )
                    vecs.append(
                        tuple(
                            _rat(x, f"{path}: params.components[{k}][{i}][{j}]")
                            for j, x in enumerate(vec)
                        )
                    )
                parsed.append(tuple(vecs))
            return make_general(space, parsed, name)
    except BadParameters as exc:
        raise ObjectSpecError(f"{path}: parameter condition violated: {exc}") from exc
    except NotComplementary as exc:
        raise ObjectSpecError(
            f"{path}: complementarity violated (components must span the tensor square): {exc}"
        ) from exc
    raise ObjectSpecError(
        f"{path}: kind: must be classical, sudbery, normalized or general"
    )


def object_to_json(obj: QuantumObject) -> dict:
    doc: dict = {
        "format": FORMAT,
        "name": obj.name,
        "dim": obj.space.dim,
        "parities": list(obj.space.parities),
        "kind": obj.kind,
    }
    if obj.normalized is not None:
        q, eps, lam = obj.normalized
        doc["params"] = {
            "q": [[str(x) for x in row] for row in q],
            "eps": eps,
            "lam": str(lam),
        }
    elif obj.qp is not None:
        q, p = obj.qp
        doc["params"] = {
            "q": [[str(x) for x in row] for row in q],
            "p": [[str(x) for x in row] for row in p],
        }
    else:
        words = range(obj.space.dim**2)
        doc["params"] = {
            "components": [
                [[str(row.get(c, 0)) for c in words] for row in comp] for comp in obj.components
            ]
        }
    return doc


def _poly_json(poly) -> list:
    return [{"word": list(word), "coeff": str(coeff)} for word, coeff in poly.sorted_terms()]


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _parity_signature(space) -> str:
    return f"({space.even_count}|{space.odd_count})"


def cmd_object(args) -> int:
    obj = load_object(args.file)
    dims = obj.component_dims()
    if args.json:
        _emit(
            {
                "object": object_to_json(obj),
                "component_dims": list(dims),
                "parity_signature": _parity_signature(obj.space),
                "valid": True,
            }
        )
        return 0
    print(f"object {obj.name or args.file}: kind={obj.kind} dim={obj.space.dim} "
          f"parity {_parity_signature(obj.space)}")
    if obj.s == 2:
        print(f"dim I={dims[0]}, dim J={dims[1]}")
    else:
        print("component dims: " + " ".join(str(d) for d in dims))
    print("valid: yes")
    return 0


def cmd_hom(args) -> int:
    src = load_object(args.source)
    tgt = load_object(args.target)
    report: dict = {}
    rels_by_form = {}
    forms = ["general", "sudbery"] if args.form == "both" else [args.form]
    for form in forms:
        if form == "general":
            rels_by_form[form] = derive_relations_general(src, tgt)
        else:
            if src.qp is None or tgt.qp is None:
                raise ObjectSpecError(
                    "sudbery form needs two-parameter objects on both sides"
                )
            rels_by_form[form] = derive_relations_sudbery(src, tgt)
    if args.form == "both":
        report["spans_equal"] = spans_equal(rels_by_form["general"], rels_by_form["sudbery"])
    primary = rels_by_form[forms[0]]
    report["relations"] = [{"terms": _poly_json(p)} for p in primary.polys]
    report["span_dim"] = primary.span_dim
    if args.json:
        _emit(report)
    else:
        print(f"relations ({forms[0]}): {len(primary.polys)}, span dim {primary.span_dim}")
        for p in primary.polys:
            print(f"  {format_poly(p)} = 0")
        if args.form == "both":
            print(f"general and closed-form spans equal: {'yes' if report['spans_equal'] else 'NO'}")
    return 0 if report.get("spans_equal", True) else 1


def cmd_pbw(args) -> int:
    src = load_object(args.source)
    tgt = load_object(args.target)
    verdict = pbw_criterion(src, tgt, oracle_degree=None)
    hom = hom_algebra(src, tgt)
    dims = oracle_dims(hom, 3 if args.degree is None else args.degree) if args.oracle else ()
    system = build_rewrite_system(hom.relations)
    overlaps = confluence_check(system)
    failed = failed_overlaps(overlaps)
    doc = {
        "criterion_holds": verdict.criterion_holds,
        "constant_source": None if verdict.constant_source is None else str(verdict.constant_source),
        "constant_target": None if verdict.constant_target is None else str(verdict.constant_target),
        "ordering_source": None if verdict.ordering_source is None else list(verdict.ordering_source),
        "ordering_target": None if verdict.ordering_target is None else list(verdict.ordering_target),
        "rewrite_complete": system.complete,
        "overlaps": len(overlaps),
        "overlaps_failed": len(failed),
        "oracle": [{"degree": d, "dim": dim, "classical": cl} for d, dim, cl in dims],
    }
    if args.json:
        _emit(doc)
    else:
        print(f"PBW: {'YES' if verdict.criterion_holds else 'NO'}")
        if verdict.constant_source is not None:
            print(f"constant source: {verdict.constant_source} "
                  f"(ordering {' '.join(map(str, verdict.ordering_source))})")
        else:
            print("constant source: none (no consistent ratio constant)")
        if verdict.constant_target is not None:
            print(f"constant target: {verdict.constant_target} "
                  f"(ordering {' '.join(map(str, verdict.ordering_target))})")
        else:
            print("constant target: none (no consistent ratio constant)")
        print(f"confluence: {len(overlaps)} overlaps, {len(failed)} failed")
        for d, dim, cl in dims:
            print(f"oracle degree {d}: dim {dim} classical {cl}")
    return 0 if verdict.criterion_holds else 1


def cmd_yb(args) -> int:
    obj = load_object(args.file)
    if obj.qp is None and args.lam is None:
        raise ObjectSpecError("yb needs a two-parameter object or an explicit --lam")
    candidates = []
    if args.lam is not None:
        candidates.append(_rat(args.lam, "--lam"))
    else:
        extraction = pbw_extract_constant(obj)
        if extraction is not None:
            c = extraction.constant
            candidates = [c] if c == 1 else [c, 1 / c]
        else:
            q, p = obj.qp
            n = obj.space.dim
            ratios = {p[a][b] / q[a][b] for a in range(n) for b in range(n) if a != b}
            candidates = sorted(ratios | {1 / r for r in ratios})
    results = [(lam, yang_baxter_check(normalized_B(obj, lam))) for lam in candidates]
    doc = {"checks": [{"lam": str(lam), "passes": ok} for lam, ok in results]}
    if args.json:
        _emit(doc)
    else:
        for lam, ok in results:
            print(f"braid relation with P1 - ({lam}) P2: {'pass' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


def _hom_table(objs):
    """Cached hom(i, j) (this module's ``hom_algebra``, read at each call) and
    triple(i, j, k) over a call's objects, so each is built once per call."""
    hom = cache(lambda i, j: hom_algebra(objs[i], objs[j]))
    triple = cache(lambda i, j, k: ComposableTriple(hom(i, j), hom(j, k), hom(i, k)))
    return hom, triple


def cmd_bialgebra(args) -> int:
    objs = [load_object(f) for f in args.files]
    hom, triple = _hom_table(objs)
    last = len(objs) - 1
    checks = [
        (f"comultiplication({i},{i+1},{i+2})", comultiplication_check(triple(i, i + 1, i + 2)))
        for i in range(last - 1)
    ]
    # the window (i, i+1, i+2, d); three objects give the one window a, b, c, c
    for i in range(max(last - 2, 1)):
        d = min(i + 3, last)
        ok = coassociativity_check(triple(i, i + 1, i + 2), triple(i, i + 2, d))
        checks.append((f"coassociativity({i},{i+1},{i+2},{d})", ok))
    checks += [(f"counit({i})", counit_check(hom(i, i))) for i in range(len(objs))]
    if args.json:
        _emit({"checks": [{"name": n, "passes": ok} for n, ok in checks]})
    else:
        for n, ok in checks:
            print(f"{n}: {'pass' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


def cmd_det(args) -> int:
    objs = [load_object(f) for f in args.files]
    hom, _ = _hom_table(objs)
    det = cache(lambda i, j: determinant_2x2(objs[i], objs[j]))
    # every adjacent determinant before any hom: WrongShape is raised first
    dets = [(f"det({i},{i+1})", det(i, i + 1)) for i in range(len(objs) - 1)]
    mults = []
    for i in range(len(objs) - 2):
        three = (det(i, i + 1), det(i + 1, i + 2), det(i, i + 2))
        ok = determinant_multiplicativity(hom(i, i + 1), hom(i + 1, i + 2), dets=three)
        mults.append((f"multiplicative({i},{i+1},{i+2})", ok))
    if args.json:
        _emit({
            "determinants": [{"name": n, "terms": _poly_json(d)} for n, d in dets],
            "multiplicativity": [{"name": n, "passes": ok} for n, ok in mults],
        })
    else:
        for n, d in dets:
            print(f"{n} = {format_poly(d)}")
        for n, ok in mults:
            print(f"{n}: {'yes' if ok else 'NO'}")
    return 0 if all(ok for _, ok in mults) else 1


# Built once per process and shared by every main() call: parse_args leaves
# the parser unchanged.  Each subcommand's func is bound here once, so a
# cmd_* function patched later is not what main() calls; no test patches one.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlincat",
        description="Exact checks for quantum linear superspaces and their matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("object", help="validate and describe an object file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_object)

    p = sub.add_parser("hom", help="derive the relations between two objects")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--form", choices=["general", "sudbery", "both"], default="general")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("pbw", help="classical-dimension criterion and confluence")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--degree", type=int, help="top oracle degree (default 3)")
    p.add_argument("--oracle", action="store_true",
                   help="also compute exact dimensions up to --degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pbw)

    p = sub.add_parser("yb", help="braid-relation check for the normalized projector combination")
    p.add_argument("file")
    p.add_argument("--lam", help="explicit coefficient (rational string)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_yb)

    p = sub.add_parser("bialgebra", help="coalgebra axioms along a chain of objects")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bialgebra)

    p = sub.add_parser("det", help="2x2 determinants and multiplicativity along a chain")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_det)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bialgebra" and len(args.files) < 3:
        print("bialgebra needs at least three object files", file=sys.stderr)
        return 2
    if args.command == "det" and len(args.files) < 2:
        print("det needs at least two object files", file=sys.stderr)
        return 2
    if args.command == "pbw" and args.degree is not None and not args.oracle:
        print("--degree needs --oracle", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 2
    except (ObjectSpecError, BadParameters, NotComplementary, ComponentCountMismatch,
            WrongShape, RepeatedCoefficient, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
