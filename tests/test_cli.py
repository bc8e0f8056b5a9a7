import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qlincat import bialgebra, cli, homs, linalg, spaces
from qlincat.homs import HomAlgebra
from qlincat.cli import main
from qlincat.graded import space_of

from support import (
    MIXED_SHAPES,
    rand_general,
    rand_normalized,
    rand_sudbery,
    scale_relation_coefficient,
)


SAMPLES = Path(__file__).resolve().parent.parent / "sample_objects"


def samples(*names: str) -> list[str]:
    return [str(SAMPLES / f"{name}.json") for name in names]


# a general file outside sample_objects/, which tests/cli_digest.py globs:
# the three-component dim-2 object of test_object_describe_three_components
GENERAL_THREE = str(Path(__file__).resolve().parent / "general_three.json")
PAIR = samples("sudbery_alpha", "sudbery_beta")
CHAIN = samples("normalized_q2", "normalized_q3", "normalized_q7")
# five files: two coassociativity windows and three composite triples
FIVE = [*CHAIN, *CHAIN[:2]]


def write(tmp_path: Path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def classical_doc(dim=2, parities=None):
    return {
        "format": "quantum-object/1",
        "name": "cl",
        "dim": dim,
        "parities": parities or [0] * dim,
        "kind": "classical",
    }


def sudbery_doc(p21, q21, name="obj"):
    return {
        "format": "quantum-object/1",
        "name": name,
        "dim": 2,
        "parities": [0, 0],
        "kind": "sudbery",
        "params": {
            "q": [["1", f"1/{q21}"], [f"{q21}", "1"]],
            "p": [["1", f"1/{p21}"], [f"{p21}", "1"]],
        },
    }


def normalized_doc(u, lam="5", eps=-1, name="norm"):
    return {
        "format": "quantum-object/1",
        "name": name,
        "dim": 2,
        "parities": [0, 0],
        "kind": "normalized",
        "params": {"q": [["1", f"1/{u}"], [f"{u}", "1"]], "eps": eps, "lam": lam},
    }


def test_object_describe_classical(tmp_path, capsys):
    path = write(tmp_path, "cl.json", classical_doc())
    assert main(["object", path]) == 0
    out = capsys.readouterr().out
    assert "dim I=1, dim J=3" in out


def test_object_describe_three_components(tmp_path, capsys):
    doc = {
        "format": "quantum-object/1",
        "name": "three",
        "dim": 2,
        "parities": [0, 0],
        "kind": "general",
        "params": {
            "components": [
                [["0", "1", "-1", "0"]],
                [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
                [["0", "1", "1", "0"]],
            ]
        },
    }
    path = write(tmp_path, "three.json", doc)
    assert main(["object", path]) == 0
    assert "component dims: 1 2 1" in capsys.readouterr().out


def test_object_complementarity_diagnostic(tmp_path, capsys):
    doc = sudbery_doc(2, 2)
    doc["params"]["p"] = [["1", "-1/2"], ["-2", "1"]]
    path = write(tmp_path, "bad.json", doc)
    assert main(["object", path]) == 2
    err = capsys.readouterr().err
    assert "complementarity" in err
    assert "q[0][1] + p[0][1]" in err


def test_object_reciprocity_diagnostic(tmp_path, capsys):
    doc = sudbery_doc(2, 2)
    doc["params"]["q"] = [["1", "2"], ["2", "1"]]
    path = write(tmp_path, "bad.json", doc)
    assert main(["object", path]) == 2
    assert "reciprocity" in capsys.readouterr().err


def test_object_rejects_zero_lambda(tmp_path, capsys):
    path = write(tmp_path, "bad.json", normalized_doc(2, lam="0"))
    assert main(["object", path]) == 2
    assert "lam" in capsys.readouterr().err


def test_object_dim_above_limit_is_refused(tmp_path, capsys):
    # no "parities": a default of dim zeros must not be built either
    doc = {"format": "quantum-object/1", "name": "huge", "dim": 10**9, "kind": "classical"}
    assert main(["object", write(tmp_path, "huge.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dim: must be an integer from 1 to {cli.MAX_DIM}" in captured.err
    doc["dim"] = cli.MAX_DIM
    assert main(["object", write(tmp_path, "limit.json", doc), "--json"]) == 0


def _general_doc(components) -> dict:
    return {**GENERAL_2, "params": {"components": components}}


def _unit(i: int) -> list[str]:
    return ["1" if j == i else "0" for j in range(4)]


def test_general_object_at_the_vector_and_component_limits_is_accepted(tmp_path, capsys):
    # dim 2: four redundant vectors in one component, and four components
    redundant = [[str(c), "0", "0", "0"] for c in range(1, 5)]
    docs = [_general_doc([redundant, [_unit(1), _unit(2), _unit(3)]]),
            _general_doc([[_unit(i)] for i in range(4)])]
    for k, doc in enumerate(docs):
        assert main(["object", write(tmp_path, f"limit{k}.json", doc), "--json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "components, field",
    [
        ([[_unit(0)] * 5, [_unit(1), _unit(2), _unit(3)]], "params.components[0]: at most 4 vectors"),
        ([[_unit(0)], [_unit(1), _unit(2), _unit(3)] + [["nope"] * 4] * 2],
         "params.components[1]: at most 4 vectors"),
        ([[_unit(i)] for i in range(4)] + [[]], "params.components: at most 4 component spans"),
    ],
    ids=["vectors", "vectors-before-rationals", "components"],
)
def test_general_object_past_the_limits_is_refused(tmp_path, capsys, components, field):
    # refused with its field path before any rational is parsed: the
    # unparseable entries of the second case are never reached
    assert main(["object", write(tmp_path, "over.json", _general_doc(components))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_object_rejects_wrong_format(tmp_path, capsys):
    doc = classical_doc()
    doc["format"] = "something-else"
    path = write(tmp_path, "bad.json", doc)
    assert main(["object", path]) == 2
    assert "format" in capsys.readouterr().err


def test_object_bad_rational_path(tmp_path, capsys):
    doc = sudbery_doc(2, 3)
    doc["params"]["q"][0][1] = "nope"
    path = write(tmp_path, "bad.json", doc)
    assert main(["object", path]) == 2
    assert "params.q[0][1]" in capsys.readouterr().err


def _with(doc: dict, **fields) -> dict:
    return {**doc, **fields}


GENERAL_2 = {"format": "quantum-object/1", "name": "g", "dim": 2, "kind": "general"}


@pytest.mark.parametrize(
    "command, doc, extra, field",
    [
        ("yb", None, ["--lam", "-1"], "coefficients 1, 1 are not pairwise distinct"),
        ("yb", None, ["--lam", "1/0"], "--lam"),
        ("yb", None, ["--lam", "1e3"], "--lam: exponent notation"),
        ("object", _with(sudbery_doc(2, 3), params=[]), [], "params: must be an object"),
        ("object", _with(GENERAL_2, params={"components": [5, []]}), [],
         "params.components[0]: must be a list"),
        ("object", normalized_doc(2, lam="1e100000"), [], "params.lam: exponent notation"),
        ("object", _with(classical_doc(), dim=True), [], "dim: must be an integer"),
        ("object", _with(classical_doc(), parities=[0, True]), [], "parities: must be"),
        ("object", normalized_doc(2, eps=True), [], "params.eps"),
        ("object", normalized_doc(2, eps=1.0), [], "params.eps"),
        ("object", _with(classical_doc(), name={"x": 1}), [], "name: must be a string"),
    ],
    ids=[
        "lam-repeats-coefficient", "lam-zero-denominator", "lam-exponent",
        "params-list", "component-not-list", "file-lam-exponent",
        "dim-bool", "parity-bool", "eps-bool", "eps-float", "name-object",
    ],
)
def test_bad_input_exits_two(tmp_path, capsys, command, doc, extra, field):
    path = PAIR[0] if doc is None else write(tmp_path, "bad.json", doc)
    assert main([command, path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert field in captured.err


def _digits(k: int) -> tuple[str, str]:
    """Two coprime integers of k digits each: k nines and 10**(k - 1)."""
    return str(10**k - 1), str(10 ** (k - 1))


def _sudbery_with_upper_q(value: str, reciprocal: str) -> dict:
    doc = sudbery_doc(2, 3)
    doc["params"]["q"] = [["1", value], [reciprocal, "1"]]
    return doc


def test_rational_at_the_digit_limit_is_accepted(tmp_path, capsys):
    big, power = _digits(cli.MAX_DIGITS)
    doc = _sudbery_with_upper_q(f"{big}/{power}", f"{power}/{big}")
    assert main(["object", write(tmp_path, "limit.json", doc), "--json"]) == 0
    assert main(["yb", PAIR[0], "--lam", f"{big}/{power}", "--json"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""


_OVER = _digits(cli.MAX_DIGITS + 1)[0]
_GENERAL_OVER = _with(
    GENERAL_2,
    params={"components": [[["0", "1", "-1", _OVER]], [["1", "0", "0", "0"]]]},
)


@pytest.mark.parametrize(
    "doc, extra, field",
    [
        (_sudbery_with_upper_q(_OVER, f"1/{_OVER}"), [], "params.q[0][1]"),
        (_sudbery_with_upper_q(f"1/{_OVER}", _OVER), [], "params.q[0][1]"),
        (_sudbery_with_upper_q(int(_OVER), f"1/{_OVER}"), [], "params.q[0][1]"),
        (_GENERAL_OVER, [], "params.components[0][0][3]"),
        (normalized_doc(2, lam="0." + "0" * (cli.MAX_DIGITS - 1) + "1"), [], "params.lam"),
        (normalized_doc(2, lam="7" * 10**5), [], "params.lam"),
        (None, ["--lam", _OVER], "--lam"),
    ],
    ids=[
        "param", "param-denominator", "json-integer", "component", "decimal-denominator",
        "huge", "lam",
    ],
)
def test_rational_over_the_digit_limit_exits_two(tmp_path, capsys, doc, extra, field):
    if doc is None:
        argv = ["yb", PAIR[0], *extra]
    else:
        argv = ["object", write(tmp_path, "over.json", doc)]
        field = f"{argv[1]}: {field}"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {field}: ")
    assert f"at most {cli.MAX_DIGITS} digits" in captured.err


@pytest.mark.parametrize(
    "doc, field",
    [
        (_with(sudbery_doc(2, 3), params={"q": [["1", "abc"], ["3", "1"]],
                                          "p": sudbery_doc(2, 3)["params"]["p"]}),
         "params.q[0][1]: not a rational: 'abc'"),
        (_with(sudbery_doc(2, 3), params={"q": sudbery_doc(2, 3)["params"]["q"],
                                          "p": [["1", "1/2"], ["x", "1"]]}),
         "params.p[1][0]: not a rational: 'x'"),
        (normalized_doc(3, lam="two"), "params.lam: not a rational: 'two'"),
        (_with(GENERAL_2, params={"components": [[["0", "1", "-1", "0"]],
                                                 [["1", "0", "0", "1/0"]]]}),
         "params.components[1][0][3]: not a rational: '1/0'"),
    ],
    ids=["q", "p", "lam", "component"],
)
def test_parameter_errors_name_the_file(tmp_path, capsys, doc, field):
    # the middle of three files is bad, and only it is named
    good = write(tmp_path, "a.json", normalized_doc(2, name="q2"))
    bad = write(tmp_path, "bad.json", doc)
    last = write(tmp_path, "c.json", normalized_doc(7, name="q7"))
    assert main(["bialgebra", good, bad, last]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {bad}: {field}")
    assert good not in captured.err and last not in captured.err


@pytest.mark.parametrize(
    "lam, reason",
    [
        ("1e5", "exponent notation is not accepted"),
        (" 2.5E-3 ", "exponent notation is not accepted"),
        ("-1e1000000", "exponent notation is not accepted"),
        ("five", "not a rational"),
        ("one", "not a rational"),
    ],
)
def test_only_a_decimal_with_an_exponent_is_called_exponent_notation(
        tmp_path, capsys, monkeypatch, lam, reason):
    path = write(tmp_path, "bad.json", normalized_doc(2, lam=lam))
    assert main(["object", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {path}: params.lam: {reason}: {lam!r}")
    if "exponent" in reason:
        # refused before Fraction could expand the exponent
        monkeypatch.setattr(cli, "Fraction", _no_fraction)
        with pytest.raises(cli.ObjectSpecError, match="exponent notation"):
            cli._rat(lam, "params.lam")


def _no_fraction(text):
    raise AssertionError(f"Fraction parsed {text!r}")


@settings(max_examples=400, deadline=None)
@given(st.from_regex(r"\s?[-+]?[\d_.]{0,4}[eE]?[-+]?[\d_/]{0,4}\s?", fullmatch=True)
       | st.text(alphabet="0123456789_.eE+- /x", max_size=10))
def test_every_exponent_fraction_accepts_is_refused(text):
    # every string Fraction parses with an exponent, and no other it parses
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return
    if "e" in text or "E" in text:
        assert cli._EXPONENT.fullmatch(text)
    else:
        assert not cli._EXPONENT.fullmatch(text)


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "text",
    [
        _DEEP,
        json.dumps(_with(GENERAL_2, params={"components": "DEEP"})).replace('"DEEP"', _DEEP),
    ],
    ids=["document", "components"],
)
def test_deeply_nested_input_exits_two(tmp_path, capsys, text):
    # the JSON parser runs out of stack long before the document ends; that
    # is an input error, not a failed check
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["object", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("pad", [0, 2**16], ids=["one-read", "two-reads"])
def test_object_file_size_is_bounded_before_parsing(monkeypatch, tmp_path, capsys, pad):
    # every rational of the largest general file the other bounds admit,
    # quoted and comma-separated, fits in the limit
    assert (cli.MAX_DIM**2) ** 3 * (2 * cli.MAX_DIGITS + 3 + 4) < cli.MAX_CHARS
    # a file of exactly the limit loads whole, past the first 2**16 characters too
    name = "n" * pad + "end"
    path = write(tmp_path, "a.json", _with(classical_doc(), name=name))
    size = len(Path(path).read_text(encoding="utf-8"))
    monkeypatch.setattr(cli, "MAX_CHARS", size)
    assert main(["object", path]) == 0
    assert f"object {name}: kind=classical" in capsys.readouterr().out
    # one character over the limit, and JSON too deep to parse: the size is
    # refused first
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP[: size + 1], encoding="utf-8")
    for over in (path, str(deep)):
        monkeypatch.setattr(cli, "MAX_CHARS", len(Path(over).read_text(encoding="utf-8")) - 1)
        assert main(["object", over]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {over}: larger than {cli.MAX_CHARS} characters\n"


def test_pbw_degree_needs_oracle(capsys):
    assert main(["pbw", *CHAIN[:2], "--degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--degree needs --oracle\n"


def test_hom_fixed_pair_relations(tmp_path, capsys):
    src = write(tmp_path, "a.json", sudbery_doc(2, 3))
    tgt = write(tmp_path, "b.json", sudbery_doc(4, 5))
    assert main(["hom", src, tgt, "--form", "both"]) == 0
    out = capsys.readouterr().out
    assert "spans equal: yes" in out
    assert "ba - 5 ab = 0" in out


def test_hom_component_mismatch(tmp_path, capsys):
    src = write(tmp_path, "a.json", classical_doc())
    general = {
        "format": "quantum-object/1",
        "name": "three",
        "dim": 2,
        "parities": [0, 0],
        "kind": "general",
        "params": {
            "components": [
                [["0", "1", "-1", "0"]],
                [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
                [["0", "1", "1", "0"]],
            ]
        },
    }
    tgt = write(tmp_path, "g.json", general)
    assert main(["hom", src, tgt]) == 2
    assert "components" in capsys.readouterr().err


def test_pbw_yes_and_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.json", normalized_doc(2))
    b = write(tmp_path, "b.json", normalized_doc(3))
    assert main(["pbw", a, b, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "PBW: YES" in out
    assert "oracle degree 3: dim 20 classical 20" in out
    assert "0 failed" in out


def test_pbw_no_exit_one(tmp_path, capsys):
    a = write(tmp_path, "a.json", sudbery_doc(2, 1))
    b = write(tmp_path, "b.json", sudbery_doc(3, 1))
    assert main(["pbw", a, b, "--oracle"]) == 1
    out = capsys.readouterr().out
    assert "PBW: NO" in out
    assert "oracle degree 3: dim 16 classical 20" in out


def test_yb_sudbery_pass(tmp_path, capsys):
    a = write(tmp_path, "a.json", sudbery_doc(2, 3))
    assert main(["yb", a]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_yb_nontransitive_fail():
    assert main(["yb", str(SAMPLES / "nontransitive3.json")]) == 1


def test_bialgebra_chain(tmp_path, capsys):
    files = [
        write(tmp_path, f"{u}.json", normalized_doc(u, name=f"q{u}"))
        for u in (2, 3, 7)
    ]
    assert main(["bialgebra", *files]) == 0
    out = capsys.readouterr().out
    assert "comultiplication(0,1,2): pass" in out
    assert "counit(2): pass" in out


def test_bialgebra_needs_three(tmp_path, capsys):
    a = write(tmp_path, "a.json", classical_doc())
    assert main(["bialgebra", a, a]) == 2


def test_det_chain(tmp_path, capsys):
    files = [
        write(tmp_path, f"{u}.json", normalized_doc(u, name=f"q{u}"))
        for u in (2, 3, 7)
    ]
    assert main(["det", *files]) == 0
    out = capsys.readouterr().out
    assert "det(0,1) = -10 cb + ad" in out
    assert "multiplicative(0,1,2): yes" in out


def chain_files(tmp_path, *uppers) -> list[str]:
    return [
        write(tmp_path, f"{u}.json", normalized_doc(u, name=f"q{u}")) for u in uppers
    ]


def corrupt_cli_hom(monkeypatch, pair):
    """The cli derives hom(src, tgt) with one relation coefficient scaled
    for the pair of object names ``pair`` only; every other derivation is
    left as it is."""
    real = cli.hom_algebra

    def derive(src, tgt):
        hom = real(src, tgt)
        if (src.name, tgt.name) == pair:
            return scale_relation_coefficient(hom, random.Random(0))
        return hom

    monkeypatch.setattr(cli, "hom_algebra", derive)


def test_bialgebra_fails_coassociativity_on_a_corrupted_outer_hom(
    monkeypatch, tmp_path, capsys
):
    # only hom(0, 3) is corrupted: both comultiplications still pass
    files = chain_files(tmp_path, 2, 3, 7, 5)
    corrupt_cli_hom(monkeypatch, ("q2", "q5"))
    assert main(["bialgebra", *files]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith("FAIL")] == ["coassociativity(0,1,2,3): FAIL"]
    assert "comultiplication(0,1,2): pass" in lines
    assert "comultiplication(1,2,3): pass" in lines


def test_bialgebra_fails_only_the_second_window_of_five_objects(
    monkeypatch, tmp_path, capsys
):
    # only hom(1, 4) is corrupted: it is the outer hom of the window
    # (1, 2, 3, 4) alone, and no comultiplication reads it
    files = chain_files(tmp_path, 2, 3, 7, 5, 11)
    corrupt_cli_hom(monkeypatch, ("q3", "q11"))
    assert main(["bialgebra", *files]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith("FAIL")] == ["coassociativity(1,2,3,4): FAIL"]
    for i in range(3):
        assert f"comultiplication({i},{i+1},{i+2}): pass" in lines


def test_bialgebra_fails_coassociativity_of_three_objects(monkeypatch, tmp_path, capsys):
    # the cli's hom(c, c) is the second factor of the window a, b, c, c; the
    # counit of c reads it too, and the identity still kills its scaled relation
    files = chain_files(tmp_path, 2, 3, 7)
    corrupt_cli_hom(monkeypatch, ("q7", "q7"))
    assert main(["bialgebra", *files]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith("FAIL")] == ["coassociativity(0,1,2,2): FAIL"]
    assert "comultiplication(0,1,2): pass" in lines
    assert "counit(2): pass" in lines


def test_bialgebra_fails_comultiplication(monkeypatch, tmp_path, capsys):
    files = chain_files(tmp_path, 2, 3, 7)
    corrupt_cli_hom(monkeypatch, ("q2", "q7"))
    assert main(["bialgebra", *files]) == 1
    assert "comultiplication(0,1,2): FAIL" in capsys.readouterr().out.splitlines()


def test_det_fails_multiplicativity(monkeypatch, tmp_path, capsys):
    # det(0, 2) scaled alone is an inconsistent coboundary rescaling
    files = chain_files(tmp_path, 2, 3, 7)
    real = cli.determinant_2x2

    def determinant(src, tgt):
        det = real(src, tgt)
        return det.scale(3) if (src.name, tgt.name) == ("q2", "q7") else det

    monkeypatch.setattr(cli, "determinant_2x2", determinant)
    assert main(["det", *files]) == 1
    out = capsys.readouterr().out
    assert "det(0,1) = -10 cb + ad" in out
    assert "multiplicative(0,1,2): NO" in out.splitlines()


def test_hom_fails_span_equality(monkeypatch, capsys):
    real = cli.derive_relations_sudbery

    def derive(src, tgt):
        rels = real(src, tgt)
        hom = HomAlgebra(src, tgt, rels)
        return scale_relation_coefficient(hom, random.Random(0)).relations

    monkeypatch.setattr(cli, "derive_relations_sudbery", derive)
    assert main(["hom", *PAIR, "--form", "both"]) == 1
    assert "general and closed-form spans equal: NO" in capsys.readouterr().out.splitlines()


def test_json_reports_deterministic(tmp_path, capsys):
    a = write(tmp_path, "a.json", sudbery_doc(2, 3))
    b = write(tmp_path, "b.json", sudbery_doc(4, 5))
    assert main(["hom", a, b, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["hom", a, b, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["span_dim"] == 6
    assert len(doc["relations"]) == 6
    assert main(["pbw", a, b, "--oracle", "--json"]) == 1
    pbw_first = capsys.readouterr().out
    assert main(["pbw", a, b, "--oracle", "--json"]) == 1
    assert capsys.readouterr().out == pbw_first


def test_object_json_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "a.json", sudbery_doc(2, 3))
    assert main(["object", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["component_dims"] == [1, 3]
    assert doc["object"]["params"]["q"][1][0] == "3"


def test_sample_files_all_valid(capsys):
    for path in sorted(SAMPLES.glob("*.json")):
        assert main(["object", str(path)]) == 0, path
    capsys.readouterr()


def test_pbw_too_large_guard(tmp_path, capsys):
    doc = {
        "format": "quantum-object/1",
        "name": "big",
        "dim": 3,
        "parities": [0, 0, 0],
        "kind": "classical",
    }
    a = write(tmp_path, "a.json", doc)
    assert main(["pbw", a, a, "--oracle", "--degree", "8"]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("dim, degree", [(1, 20), (2, 10**12)])
def test_pbw_oracle_degree_is_bounded_before_any_power(tmp_path, capsys, dim, degree):
    # a one-letter alphabet has one word in every degree, so only the degree
    # bound refuses it; at dim 2 the power 16**degree is never computed
    a = write(tmp_path, "a.json", classical_doc(dim))
    assert main(["pbw", a, a, "--oracle", "--degree", str(degree), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("too large: ")


def test_pbw_oracle_below_degree_two_is_refused(capsys):
    assert main(["pbw", *CHAIN[:2], "--oracle", "--degree", "1", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle needs degree >= 2" in captured.err


@pytest.mark.parametrize(
    "argv, derives",
    [
        (["pbw", *CHAIN[:2], "--oracle"], 1),
        (["bialgebra", *CHAIN, CHAIN[0]], 10),
        (["det", *CHAIN, CHAIN[0]], 3),
        # three objects: the counit reads the window's hom(c, c)
        (["bialgebra", *CHAIN], 6),
        (["bialgebra", *FIVE], 14),
        (["det", *FIVE], 4),
    ],
)
def test_each_hom_algebra_is_derived_once_per_call(monkeypatch, capsys, argv, derives):
    calls = []

    def counting(src, tgt):
        calls.append((src.name, tgt.name))
        return real(src, tgt)

    real = homs.derive_relations_general
    # cli binds the name itself, so both bindings are counted
    monkeypatch.setattr(homs, "derive_relations_general", counting)
    monkeypatch.setattr(cli, "derive_relations_general", counting)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == derives, calls


def _rows_key(rows) -> tuple:
    return tuple(sorted(tuple(sorted(row.items())) for row in rows))


@pytest.mark.parametrize(
    "argv",
    [
        ["pbw", *CHAIN[:2], "--oracle"],
        ["hom", *PAIR, "--form", "both"],
        ["bialgebra", *CHAIN, CHAIN[0]],
        ["det", *CHAIN, CHAIN[0]],
    ],
)
def test_each_relation_span_is_eliminated_once_per_call(monkeypatch, capsys, argv):
    spans: Counter = Counter()
    passes: Counter = Counter()

    def tracking(self, alphabet, rows):
        real_init(self, alphabet, rows)
        spans[_rows_key(self.rows)] += 1

    def counting(rows):
        rows = list(rows)
        passes[_rows_key(rows)] += 1
        return real_echelon(rows)

    real_init, real_echelon = homs.RelationSet.__init__, linalg._echelon
    # every span is built by RelationSet's own constructor, whichever
    # derivation or relation_set builds it; every module binding of the
    # engine's _echelon is counted
    monkeypatch.setattr(homs.RelationSet, "__init__", tracking)
    for name, module in list(sys.modules.items()):
        if name.startswith("qlincat") and hasattr(module, "_echelon"):
            monkeypatch.setattr(module, "_echelon", counting)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert spans
    assert {key: passes[key] for key in spans} == dict(spans)


def test_pbw_oracle_back_substitutes_the_span_once(monkeypatch, capsys):
    # each object's two components (kernel and row basis), then the
    # relation span once, shared by the rewrite rules and the oracle
    sizes = []
    real = linalg._back_substituted

    def recording(echelon):
        sizes.append(len(echelon))
        return real(echelon)

    for name, module in list(sys.modules.items()):
        if name.startswith("qlincat") and hasattr(module, "_back_substituted"):
            monkeypatch.setattr(module, "_back_substituted", recording)
    assert main(["pbw", *CHAIN[:2], "--oracle", "--degree", "3"]) == 0
    capsys.readouterr()
    assert sizes == [1, 3, 1, 3, 6]


def _count_reductions(monkeypatch) -> Counter:
    """Count every forward elimination and every reduced echelon form, keyed
    by (module, name) of the binding called: each qlincat module that binds
    ``_echelon`` or ``_reduced_rows``, ``linalg`` for its own calls among
    them."""
    calls: Counter = Counter()

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        return wrapper

    for modname, module in list(sys.modules.items()):
        for name in ("_echelon", "_reduced_rows"):
            if modname.startswith("qlincat") and hasattr(module, name):
                key = (modname.removeprefix("qlincat."), name)
                monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    return calls


@pytest.mark.parametrize(
    "argv, objects, reduced, spans",
    [
        pytest.param(["object", PAIR[0]], 1, 0, 0, id="object"),
        pytest.param(["pbw", *CHAIN[:2], "--oracle"], 2, 2, 1, id="pbw"),
        pytest.param(["hom", *PAIR, "--form", "both"], 2, 2, 2, id="hom"),
        pytest.param(["bialgebra", *CHAIN, CHAIN[0]], 4, 4, 10, id="bialgebra"),
        pytest.param(["det", *CHAIN, CHAIN[0]], 4, 4, 3, id="det"),
    ],
)
def test_each_object_is_reduced_once_per_call(monkeypatch, capsys, argv, objects, reduced, spans):
    # two components per object, each forward-eliminated once when its
    # object is built and reduced at most once however many homs it takes
    # part in: its bases and its annihilators read the same reduced rows.
    # Every other elimination is a relation span's: the area forms read the
    # cached annihilators, and no kernel is computed anywhere else.
    calls = _count_reductions(monkeypatch)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    expected = {
        ("spaces", "_echelon"): 2 * objects,
        ("spaces", "_reduced_rows"): 2 * reduced,
        ("homs", "_echelon"): spans,
    }
    assert calls == Counter({key: count for key, count in expected.items() if count})


def test_yb_reads_the_object_bases_once(monkeypatch, capsys):
    # both braid matrices read the cached component bases: one forward
    # elimination and one back-substitution per component, one elimination
    # per braid matrix (``linalg.spectral_sum``), and no kernel
    calls = _count_reductions(monkeypatch)
    assert main(["yb", *samples("normalized_q3"), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 2
    assert calls == Counter({
        ("spaces", "_echelon"): 2, ("spaces", "_reduced_rows"): 2,
        ("linalg", "_echelon"): 2, ("linalg", "_reduced_rows"): 2,
    })


def test_det_computes_each_area_form_once_per_determinant(monkeypatch, capsys):
    # three printed determinants plus one det(i, i+2) per triple
    calls = []
    real = bialgebra._xi_quotient_coefficients

    def counting(obj):
        calls.append(obj.name)
        return real(obj)

    monkeypatch.setattr(bialgebra, "_xi_quotient_coefficients", counting)
    assert main(["det", *CHAIN, CHAIN[0], "--json"]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["q2", "q2", "q3", "q3", "q7"]


ROUNDTRIP_KINDS = {
    "sudbery": rand_sudbery,
    "normalized": rand_normalized,
    "classical": lambda rng, space, name: spaces.make_classical(space, name),
    "general": rand_general,
}


def _add_one_to_last_rational(node) -> bool:
    """Add 1 to the last rational string in nested params, in place."""
    items = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
    for key, value in reversed(items):
        if isinstance(value, str):
            node[key] = str(Fraction(value) + 1)
            return True
        if isinstance(value, (dict, list)) and _add_one_to_last_rational(value):
            return True
    return False


def _assert_roundtrip(folder: Path, shape, kind: str, seed: int, perturb=False):
    """``object_to_json`` -> file -> ``load_object`` gives back an equal
    object of the same kind, name and parameters."""
    obj = ROUNDTRIP_KINDS[kind](random.Random(seed), space_of(shape), "rt")
    doc = cli.object_to_json(obj)
    if perturb:
        assert _add_one_to_last_rational(doc["params"])
    loaded = cli.load_object(write(folder, "rt.json", doc))
    assert spaces.objects_equal(loaded, obj)
    assert (loaded.kind, loaded.name, loaded.qp, loaded.normalized) == (
        obj.kind, obj.name, obj.qp, obj.normalized
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(sorted(ROUNDTRIP_KINDS)),
    st.integers(0, 2**32 - 1),
)
def test_serialization_roundtrip(tmp_path_factory, shape, kind, seed):
    _assert_roundtrip(tmp_path_factory.mktemp("rt"), shape, kind, seed)


@pytest.mark.parametrize("shape", [(0, 1), (0, 0, 1)])
@pytest.mark.parametrize("kind", ["sudbery", "normalized", "general"])
def test_roundtrip_property_fails_on_a_perturbed_rational(tmp_path, shape, kind):
    # a sudbery file with a changed parameter is refused (reciprocity or the
    # parity diagonal); the others load as a different object
    with pytest.raises((AssertionError, cli.ObjectSpecError)):
        _assert_roundtrip(tmp_path, shape, kind, 0, perturb=True)


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["hom", *PAIR, "--form", "both"], 0,
         "3a501242291b2fa45a998e3215d22075f088e597f9c4f5e7ee2fd795cb45f5fb"),
        (["pbw", *PAIR, "--oracle", "--degree", "3"], 1,
         "b66e7b78aa7ca2412aed14e3aa07a1587915c82fbc01ebb386ccf151bfa39fe7"),
        (["bialgebra", *CHAIN], 0,
         "c837779cf41e62860cb72bd1fdb0e972f65c192836d1fcb874f4efb9d90d8f30"),
        (["det", *CHAIN], 0,
         "36e02c493a864063a144220a894b3d39c491f35f4783fef34e917caf2a2e58ae"),
        (["pbw", *PAIR, "--oracle", "--degree", "5"], 1,
         "f62ae8da7e7434d871ac292559c337946dbbdb63a3e612a9122c4ad265b9c4d3"),
        (["object", *samples("super11")], 0,
         "a4eecc0b2676ea12eeeea6463f75d2dc5ac19385a141ac409dcac165e59a66cb"),
        (["yb", *samples("nontransitive3")], 1,
         "985f433f1b9dfdf0d5166a15bd0716cd031ae76772e8e2233ca993a14737ac64"),
        (["yb", *samples("sudbery_alpha")], 0,
         "dd80ba79ae91b375861a442bc3d874270fea697f76f768dd44c29345d2a7a91a"),
        (["object", GENERAL_THREE], 0,
         "ce306a4c20432feccaa2569a1c6c5737401869d882896bc7c4f2fe75d574dd4a"),
    ],
)
def test_json_output_is_byte_identical_to_golden(capsys, argv, code, digest):
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
