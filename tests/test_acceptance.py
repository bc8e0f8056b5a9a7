"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s or -rA to see
them); every comparison is exact span/value equality, nothing is
approximate.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from qlincat import cli
from qlincat.bialgebra import (
    ComposableTriple,
    coassociativity_check,
    composable_triple,
    comultiplication_check,
    counit_check,
    counit_substitution_ok,
    determinant_2x2,
    determinant_multiplicativity,
)
from qlincat.cli import main, object_to_json
from qlincat.graded import even_space, space_of
from qlincat.homs import (
    HomAlgebra,
    bilinear_form_relations,
    derive_relations_general,
    derive_relations_sudbery,
    hom_algebra,
    relation_set,
    spans_equal,
)
from qlincat.pbw import classical_dimension, dimension_oracle, pbw_criterion
from qlincat.rewrite import (
    NCPoly,
    build_rewrite_system,
    confluence_check,
    failed_overlaps,
    matrix_alphabet,
    normal_form,
)
from qlincat.rmatrix import build_B, normalized_B, rmatrix_relation_span, yang_baxter_check
from qlincat.spaces import (
    dual_object,
    make_classical,
    make_normalized,
    make_sudbery,
)

from support import (
    dense,
    even2_sudbery,
    rand_constant,
    rand_sudbery,
    row_spans_equal,
    scale_diagonal_word,
    sudbery_with_constant,
)

MIXED = [(0, 0), (0, 1), (1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1)]


def _accum(terms, word, coeff):
    terms[word] = terms.get(word, Fraction(0)) + coeff


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def positive_pair(rng):
    """Admissible pair whose ratio constants agree up to inverse."""
    sp_a = space_of(rng.choice(MIXED))
    sp_b = space_of(rng.choice(MIXED))
    c = rand_constant(rng)
    src = sudbery_with_constant(rng, sp_a, c)
    tgt = sudbery_with_constant(rng, sp_b, rng.choice([c, 1 / c]))
    return src, tgt


def negative_pair(rng):
    """Admissible pair violating the constant criterion."""
    while True:
        sp_a = space_of(rng.choice(MIXED))
        sp_b = space_of(rng.choice(MIXED))
        if rng.random() < 0.5:
            c1 = rand_constant(rng)
            while True:
                c2 = rand_constant(rng)
                if c2 not in (c1, 1 / c1):
                    break
            src = sudbery_with_constant(rng, sp_a, c1)
            tgt = sudbery_with_constant(rng, sp_b, c2)
        else:
            src = rand_sudbery(rng, sp_a)
            tgt = rand_sudbery(rng, sp_b)
        if not pbw_criterion(src, tgt, oracle_degree=None).criterion_holds:
            return src, tgt


@lru_cache(maxsize=1)
def criterion4_instances():
    rng = random.Random(2024)
    return tuple(positive_pair(rng) for _ in range(20))


@lru_cache(maxsize=1)
def criterion5_instances():
    rng = random.Random(4048)
    fixed = (even2_sudbery(2, 1), even2_sudbery(3, 1))
    return (fixed,) + tuple(negative_pair(rng) for _ in range(19))


def test_criterion_01_fixed_pair_relation_span():
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    alphabet = matrix_alphabet(src.space, tgt.space)
    a, b, c, d = 0, 1, 2, 3
    f = Fraction
    hand = [
        NCPoly(alphabet, {(a, b): 1, (b, a): -f(1, 5)}),
        NCPoly(alphabet, {(a, c): 1, (c, a): -2}),
        NCPoly(alphabet, {(a, d): 1, (d, a): -f(5, 9), (c, b): f(7, 9)}),
        NCPoly(alphabet, {(b, c): 1, (c, b): -f(100, 9), (d, a): f(2, 9)}),
        NCPoly(alphabet, {(b, d): 1, (d, b): -2}),
        NCPoly(alphabet, {(c, d): 1, (d, c): -f(1, 5)}),
    ]
    hand_rs = relation_set(alphabet, hand)
    assert spans_equal(derive_relations_general(src, tgt), hand_rs)
    assert spans_equal(derive_relations_sudbery(src, tgt), hand_rs)
    _passed(1, "fixed (2,3)->(4,5) pair reproduces the six closed relations exactly")


def test_criterion_02_one_parameter_family_reproduction():
    # documented mapping: a normalized object with eps = -1, parameter
    # matrix q[1][0] = u and scale lam reproduces, against a second such
    # object with parameter w, the six relations
    #   ab = lam/w ba, ac = lam*u ca, ad - (u/w) da = (lam - 1/lam) u cb,
    #   bc = u*w cb, bd = lam*u db, cd = lam/w dc
    lam, u, w = Fraction(5), Fraction(2), Fraction(3)
    sp = even_space(2)
    alpha = make_normalized(sp, [[1, 1 / u], [u, 1]], -1, lam)
    beta = make_normalized(sp, [[1, 1 / w], [w, 1]], -1, lam)
    alphabet = matrix_alphabet(sp, sp)
    a, b, c, d = 0, 1, 2, 3
    hand = [
        NCPoly(alphabet, {(a, b): 1, (b, a): -lam / w}),
        NCPoly(alphabet, {(a, c): 1, (c, a): -lam * u}),
        NCPoly(alphabet, {(a, d): 1, (d, a): -u / w, (c, b): -(lam - 1 / lam) * u}),
        NCPoly(alphabet, {(b, c): 1, (c, b): -u * w}),
        NCPoly(alphabet, {(b, d): 1, (d, b): -lam * u}),
        NCPoly(alphabet, {(c, d): 1, (d, c): -lam / w}),
    ]
    hand_rs = relation_set(alphabet, hand)
    assert spans_equal(derive_relations_general(alpha, beta), hand_rs)
    assert spans_equal(derive_relations_sudbery(alpha, beta), hand_rs)
    _passed(2, "normalized pair (u=2, w=3, lam=5, eps=-1) reproduces the "
               "one-parameter matrix family exactly")


def test_criterion_03_classical_limit():
    shapes = [(0, 0), (0, 1), (0, 0, 1)]
    for parities in shapes:
        sp = space_of(parities)
        cl = make_classical(sp)
        hom = hom_algebra(cl, cl)
        alphabet = hom.alphabet
        n = alphabet.size
        polys = []
        for g, h in product(range(n), repeat=2):
            sign = (-1) ** (alphabet.parities[g] * alphabet.parities[h])
            terms = {}
            _accum(terms, (g, h), Fraction(1))
            _accum(terms, (h, g), Fraction(-sign))
            poly = NCPoly(alphabet, terms)
            if not poly.is_zero:
                polys.append(poly)
        assert spans_equal(hom.relations, relation_set(alphabet, polys))
        for degree in (2, 3, 4):
            assert dimension_oracle(hom, degree) == classical_dimension(
                alphabet.parities, degree
            )
    _passed(3, "classical shapes (2|0), (1|1), (2|1): supercommutator spans and "
               "classical dimensions at degrees 2-4")


def test_criterion_04_positive_instances():
    instances = criterion4_instances()
    parity_seen = set()
    for src, tgt in instances:
        parity_seen.add(src.space.parities)
        verdict = pbw_criterion(src, tgt, oracle_degree=3)
        assert verdict.criterion_holds
        hom = hom_algebra(src, tgt)
        system = build_rewrite_system(hom.relations)
        assert system.complete
        assert not failed_overlaps(confluence_check(system))
        d, dim, cl = verdict.oracle_dims[-1]
        assert d == 3 and dim == cl
    assert any(1 in p for p in parity_seen), "sweep must include odd parities"
    _passed(4, f"{len(instances)} matched-constant instances: criterion YES, zero "
               "failed overlaps, degree-3 dimension classical")


def test_criterion_05_negative_instances():
    instances = criterion5_instances()
    # fixed regression pair with constants 2 and 3 comes first
    verdict = pbw_criterion(*instances[0], oracle_degree=3)
    assert not verdict.criterion_holds
    assert verdict.oracle_dims[-1] == (3, 16, 20)  # deficit frozen at first run
    for src, tgt in instances:
        verdict = pbw_criterion(src, tgt, oracle_degree=3)
        assert not verdict.criterion_holds
        d, dim, cl = verdict.oracle_dims[-1]
        assert d == 3 and dim < cl
    _passed(5, f"{len(instances)} mismatched instances: criterion NO and strict "
               "degree-3 deficit (regression pair dims 16 < 20)")


def test_criterion_06_equivalence_sweep():
    rng = random.Random(60606)
    mismatches = 0
    total = 0
    holds_count = 0
    for _ in range(100):
        mode = rng.random()
        if mode < 0.35:
            src, tgt = positive_pair(rng)
        else:
            sp_a = space_of(rng.choice(MIXED))
            sp_b = space_of(rng.choice(MIXED))
            if mode < 0.55:
                c1, c2 = rand_constant(rng), rand_constant(rng)
                src = sudbery_with_constant(rng, sp_a, c1)
                tgt = sudbery_with_constant(rng, sp_b, c2)
            else:
                src = rand_sudbery(rng, sp_a)
                tgt = rand_sudbery(rng, sp_b)
        verdict = pbw_criterion(src, tgt, oracle_degree=None)
        hom = hom_algebra(src, tgt)
        classical = dimension_oracle(hom, 3) == classical_dimension(
            hom.alphabet.parities, 3
        )
        if verdict.criterion_holds != classical:
            mismatches += 1
        holds_count += verdict.criterion_holds
        total += 1
    assert total >= 100 and mismatches == 0
    assert 0 < holds_count < total, "sweep must exercise both outcomes"
    _passed(6, f"criterion == degree-3 oracle on {total} random pairs "
               f"({holds_count} classical, {total - holds_count} deficient), 0 mismatches")


def test_criterion_07_rmatrix_presentation():
    for src, tgt in criterion4_instances() + criterion5_instances():
        span = rmatrix_relation_span(build_B(src, [1, -1]), build_B(tgt, [1, -1]))
        assert spans_equal(span, derive_relations_general(src, tgt))
    # mismatched normalized coefficients give a different span
    sp = even_space(2)
    q = [[1, Fraction(1, 3)], [3, 1]]
    alpha = make_normalized(sp, q, +1, 5)
    beta = make_normalized(sp, q, +1, 5)
    rels = derive_relations_general(alpha, beta)
    assert spans_equal(
        rmatrix_relation_span(normalized_B(alpha, 5), normalized_B(beta, 5)), rels
    )
    for lam in (Fraction(7), Fraction(1, 7), Fraction(2)):
        span = rmatrix_relation_span(normalized_B(alpha, 5), normalized_B(beta, lam))
        assert not spans_equal(span, rels)
    _passed(7, "shared-coefficient projector form reproduces the relations on all "
               "instances; mismatched normalized coefficients do not")


def test_criterion_08_yang_baxter():
    for parities in [(0, 0), (0, 1), (1, 1)]:
        sp = space_of(parities)
        swap = build_B(make_classical(sp), [-1, 1])
        assert yang_baxter_check(swap)
    for src, tgt in criterion4_instances():
        for obj in (src, tgt):
            verdict = pbw_criterion(obj, obj, oracle_degree=None)
            c = verdict.constant_source
            for lam in {c, 1 / c}:
                assert yang_baxter_check(normalized_B(obj, lam))
    one = Fraction(1)
    nt = make_sudbery(
        even_space(3),
        [[one] * 3 for _ in range(3)],
        [
            [one, Fraction(2), Fraction(1, 2)],
            [Fraction(1, 2), one, Fraction(2)],
            [Fraction(2), Fraction(1, 2), one],
        ],
    )
    assert not yang_baxter_check(normalized_B(nt, Fraction(2)))
    assert not yang_baxter_check(normalized_B(nt, Fraction(1, 2)))
    _passed(8, "graded swap and all matched-constant branches satisfy the braid "
               "relation; the fixed non-transitive dim-3 instance fails it")


def test_criterion_09_bialgebra_axioms(monkeypatch, tmp_path, capsys):
    rng = random.Random(9009)
    sp = even_space(2)
    chain = [
        make_normalized(sp, [[1, Fraction(1, u)], [u, 1]], -1, 5) for u in (2, 3, 7)
    ]
    triples = [tuple(chain)]
    for _ in range(20):
        shapes = [rng.choice(MIXED) for _ in range(3)]
        triples.append(tuple(rand_sudbery(rng, space_of(s)) for s in shapes))
    for a, b, c in triples:
        triple = composable_triple(a, b, c)
        # the window a -> b -> c -> c: acd = (a, c, c) from hom(a, c), hom(c, c)
        acd = ComposableTriple(triple.hom_ac, hom_algebra(c, c), triple.hom_ac)
        assert comultiplication_check(triple)
        assert coassociativity_check(triple, acd)
        assert all(counit_check(hom_algebra(x, x)) for x in (a, b, c))
    # negative controls
    a, b, c = triples[0]
    triple = composable_triple(a, b, c)
    polys = list(triple.hom_ac.relations.polys)
    first = polys[0]
    bad_terms = dict(first.terms)
    word = next(iter(bad_terms))
    bad_terms[word] *= 3
    polys[0] = NCPoly(first.alphabet, bad_terms)
    corrupted = ComposableTriple(
        triple.hom_ab, triple.hom_bc,
        HomAlgebra(a, c, relation_set(triple.hom_ac.alphabet, polys)),
    )
    assert not comultiplication_check(corrupted)
    acd = ComposableTriple(corrupted.hom_ac, hom_algebra(c, c), corrupted.hom_ac)
    assert not coassociativity_check(corrupted, acd)
    assert not counit_substitution_ok(hom_algebra(a, a), [[0, 1], [1, 0]])
    assert not counit_check(scale_diagonal_word(hom_algebra(a, a), 3))
    real = cli.hom_algebra
    monkeypatch.setattr(
        cli, "hom_algebra", lambda x, y: scale_diagonal_word(real(x, y), 3) if x == y else real(x, y)
    )
    files = []
    for i, obj in enumerate((a, b, c)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(object_to_json(obj)), encoding="utf-8")
        files.append(str(path))
    assert main(["bialgebra", *files]) == 1
    assert "counit(0): FAIL" in capsys.readouterr().out
    _passed(9, "comultiplication, coassociativity and counit pass on 21 triples "
               "(chain u=2,3,7 lam=5 included); corrupted controls fail, "
               "coassociativity among them, and qlincat bialgebra exits 1 on a "
               "corrupted endomorphism algebra")


def test_criterion_10_determinant():
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    det = determinant_2x2(src, tgt)
    al = det.alphabet
    a, b, c, d = 0, 1, 2, 3
    p_a, q_a = Fraction(2), Fraction(3)
    p_b, q_b = Fraction(4), Fraction(5)
    assert det == NCPoly(al, {(a, d): 1, (c, b): -p_a})
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    alternates = [
        NCPoly(al, {(d, a): 1, (c, b): -q_b}).scale((p_a + q_a) / (p_b + q_b)),
        NCPoly(al, {(a, d): q_b, (b, c): -1}).scale((1 + p_a / q_a) / (p_b + q_b)),
        NCPoly(al, {(d, a): p_a, (b, c): -1}).scale(1 / p_b),
    ]
    for alt in alternates:
        assert normal_form(det - alt, system).is_zero
    sp = even_space(2)
    chain = [
        make_normalized(sp, [[1, Fraction(1, u)], [u, 1]], -1, 5) for u in (2, 3, 7)
    ]
    a, b, c = chain
    assert determinant_multiplicativity(hom_algebra(a, b), hom_algebra(b, c))
    rng = random.Random(1010)
    for _ in range(10):
        objs = [rand_sudbery(rng, sp) for _ in range(3)]
        steps = hom_algebra(objs[0], objs[1]), hom_algebra(objs[1], objs[2])
        assert determinant_multiplicativity(*steps)
        fa, fb, fc = (rand_constant(rng) for _ in range(3))
        dets = (
            determinant_2x2(objs[0], objs[1]).scale(fa / fb),
            determinant_2x2(objs[1], objs[2]).scale(fb / fc),
            determinant_2x2(objs[0], objs[2]).scale(fa / fc),
        )
        assert determinant_multiplicativity(*steps, dets=dets)
    _passed(10, "determinant ad - p^{21} cb with all alternate closed forms; "
                "multiplicativity on the fixed chain and 10 random chains, "
                "with coboundary rescalings")


def test_criterion_11_duals_and_bilinear_forms():
    rng = random.Random(1111)
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        obj = rand_sudbery(rng, space_of(parities))
        q, p = obj.qp
        n = obj.space.dim
        dual = dual_object(obj)
        # first dual component: e_A e_B - (p_{AB})^{-1} ... = e_A e_B - p_{BA} e_B e_A
        minus, plus = [], []
        for a in range(n):
            for b in range(n):
                vec = [Fraction(0)] * (n * n)
                vec[a * n + b] += 1
                vec[b * n + a] -= p[b][a]
                if any(vec):
                    minus.append(tuple(vec))
                vec = [Fraction(0)] * (n * n)
                vec[a * n + b] += 1
                vec[b * n + a] += q[b][a]
                if any(vec):
                    plus.append(tuple(vec))
        assert row_spans_equal([dense(v, n * n) for v in dual.components[0]], minus)
        assert row_spans_equal([dense(v, n * n) for v in dual.components[1]], plus)
    # bilinear-form relations against the closed coefficient formula
    src = even2_sudbery(2, 3)
    q, p = src.qp
    rels = bilinear_form_relations(src)
    alphabet = rels.alphabet
    n = 2
    polys = []
    for a, b, c, d in product(range(n), repeat=4):
        denom = q[b][d] + p[b][d]
        c1 = (p[c][a] + q[c][a]) / denom
        c2 = (p[c][a] * q[b][d] - q[c][a] * p[b][d]) / denom
        terms = {}
        _accum(terms, (a * n + b, c * n + d), Fraction(1))
        _accum(terms, (c * n + d, a * n + b), -c1)
        _accum(terms, (c * n + b, a * n + d), -c2)
        poly = NCPoly(alphabet, terms)
        if not poly.is_zero:
            polys.append(poly)
    assert spans_equal(rels, relation_set(alphabet, polys))
    _passed(11, "dual objects carry the inverted-parameter relation spans; "
                "bilinear-form relations match the closed coefficient formula")
