import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qlincat import bialgebra, cli, spaces
from qlincat.bialgebra import (
    ComposableTriple,
    WrongShape,
    coassociativity_check,
    composable_triple,
    comultiplication_check,
    counit_check,
    counit_substitution_ok,
    determinant_2x2,
    determinant_multiplicativity,
)
from qlincat.cli import main
from qlincat.graded import even_space, space_of
from qlincat.homs import HomAlgebra, hom_algebra, relation_set
from qlincat.linalg import Matrix
from qlincat.rewrite import NCPoly, build_rewrite_system, normal_form
from qlincat.spaces import make_classical, make_general, make_normalized, make_sudbery

from support import (
    MIXED_SHAPES,
    coassociativity_reference,
    comultiplication_reference,
    dense,
    determinant_reference,
    even2_sudbery,
    identity,
    kron,
    mat_apply,
    rand_nonzero,
    rand_normalized,
    rand_sudbery,
    scale_diagonal_word,
    scale_relation_coefficient,
    xi_quotient_reference,
)

CHAIN = [
    str(Path(__file__).resolve().parent.parent / "sample_objects" / f"normalized_q{u}.json")
    for u in (2, 3, 7)
]


def intro_chain(lam=5):
    """Normalized chain with upper parameters 2, 3, 7 and shared lam."""
    sp = even_space(2)
    out = []
    for u in (2, 3, 7):
        q = [[1, Fraction(1, u)], [u, 1]]
        out.append(make_normalized(sp, q, -1, lam))
    return out


def corrupt_relations(hom: HomAlgebra) -> HomAlgebra:
    """Scale one coefficient of one relation; the span is no longer the
    defining one."""
    polys = list(hom.relations.polys)
    first = polys[0]
    word = next(iter(first.terms))
    terms = dict(first.terms)
    terms[word] = terms[word] * 7
    polys[0] = NCPoly(first.alphabet, terms)
    return HomAlgebra(hom.source, hom.target, relation_set(hom.alphabet, polys))


def test_comultiplication_classical():
    for parities in [(0, 0), (0, 1)]:
        cl = make_classical(space_of(parities))
        assert comultiplication_check(composable_triple(cl, cl, cl))


def test_comultiplication_intro_chain():
    a, b, c = intro_chain()
    assert comultiplication_check(composable_triple(a, b, c))


def test_comultiplication_random_super_triples():
    rng = random.Random(47)
    for _ in range(6):
        shapes = [rng.choice([(0, 0), (0, 1), (1, 1), (0, 0, 1)]) for _ in range(3)]
        a, b, c = (rand_sudbery(rng, space_of(s)) for s in shapes)
        assert comultiplication_check(composable_triple(a, b, c))


def test_comultiplication_corrupted_fails():
    a, b, c = intro_chain()
    triple = composable_triple(a, b, c)
    corrupted = ComposableTriple(triple.hom_ab, triple.hom_bc, corrupt_relations(triple.hom_ac))
    assert not comultiplication_check(corrupted)


def test_composable_triple_validation():
    a, b, c = intro_chain()
    with pytest.raises(ValueError):
        ComposableTriple(
            hom_algebra(a, b),
            hom_algebra(a, b),  # wrong middle pair
            hom_algebra(a, c),
        )


def window(a, b, c, d):
    """The triples (a, b, c) and (a, c, d) of the window a -> b -> c -> d,
    each hom algebra derived once."""
    abc = composable_triple(a, b, c)
    return abc, ComposableTriple(abc.hom_ac, hom_algebra(c, d), hom_algebra(a, d))


def test_coassociativity_generic_dims():
    rng = random.Random(51)
    a = rand_sudbery(rng, even_space(2))
    b = rand_sudbery(rng, space_of((0, 0, 1)))
    c = rand_sudbery(rng, even_space(1))
    d = rand_sudbery(rng, space_of((0, 1)))
    assert coassociativity_check(*window(a, b, c, d))


def test_coassociativity_super_chain():
    rng = random.Random(52)
    objs = [rand_sudbery(rng, space_of((0, 1))) for _ in range(4)]
    assert coassociativity_check(*window(*objs))


def test_coassociativity_needs_the_composite_as_first_factor():
    a, b, c = intro_chain()
    abc, acd = window(a, b, c, a)
    assert coassociativity_check(abc, acd)
    bcd = ComposableTriple(abc.hom_bc, acd.hom_bc, hom_algebra(b, a))
    with pytest.raises(ValueError):
        coassociativity_check(abc, bcd)
    # the right objects, but a first factor with other relations than abc's
    # composite
    other = ComposableTriple(corrupt_relations(abc.hom_ac), acd.hom_bc, acd.hom_ac)
    with pytest.raises(ValueError):
        coassociativity_check(abc, other)


def test_comultiplication_verdict_is_computed_once_per_triple(monkeypatch):
    calls = []
    real = bialgebra._delta_bidegree

    def counting(row, a, b, c):
        calls.append((a, b, c))
        return real(row, a, b, c)

    monkeypatch.setattr(bialgebra, "_delta_bidegree", counting)
    abc, acd = window(*intro_chain(), intro_chain(lam=3)[0])
    for _ in range(2):
        assert comultiplication_check(abc)
        assert coassociativity_check(abc, acd)
    rows = len(abc.hom_ac.relations.rows) + len(acd.hom_ac.relations.rows)
    assert len(calls) == rows


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(MIXED_SHAPES), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
def test_coassociativity_matches_the_tridegree_reference(shapes, seed):
    rng = random.Random(seed)
    abc, acd = window(*(rand_sudbery(rng, space_of(s)) for s in shapes))
    assert coassociativity_check(abc, acd)
    assert coassociativity_reference(abc, acd)
    # a scaled hom(a, d) relation breaks both
    bad_ad = scale_relation_coefficient(acd.hom_ac, rng)
    bad = ComposableTriple(abc.hom_ac, acd.hom_bc, bad_ad)
    assert not coassociativity_check(abc, bad)
    assert not coassociativity_reference(abc, bad)
    # a scaled hom(a, c) relation breaks Delta_abc, which the reference never
    # reads: the package check is the stronger one
    bad_ac = scale_relation_coefficient(abc.hom_ac, rng)
    bad_abc = ComposableTriple(abc.hom_ab, abc.hom_bc, bad_ac)
    bad_acd = ComposableTriple(bad_ac, acd.hom_bc, acd.hom_ac)
    assert not coassociativity_check(bad_abc, bad_acd)
    assert coassociativity_reference(bad_abc, bad_acd)


def test_counit_classical_and_deformed():
    rng = random.Random(53)
    for obj in (make_classical(space_of((0, 1))), even2_sudbery(2, 3),
                rand_sudbery(rng, space_of((0, 0, 1)))):
        assert counit_check(hom_algebra(obj, obj))


def test_counit_nonidentity_substitution_fails(monkeypatch, capsys):
    obj = even2_sudbery(2, 3)
    assert not counit_substitution_ok(hom_algebra(obj, obj), [[0, 1], [1, 0]])
    # an endomorphism algebra with one relation that the identity does not kill
    assert not counit_check(scale_diagonal_word(hom_algebra(obj, obj), 3))
    real = cli.hom_algebra
    monkeypatch.setattr(
        cli, "hom_algebra", lambda a, b: scale_diagonal_word(real(a, b), 3) if a == b else real(a, b)
    )
    assert main(["bialgebra", *CHAIN]) == 1
    out = capsys.readouterr().out
    assert "comultiplication(0,1,2): pass" in out
    assert all(f"counit({i}): FAIL" in out for i in range(3))


def test_counit_only_on_endomorphism_algebras():
    # the identity substitution kills the relations of hom(a, a) but not
    # those of hom(a, b) for a deformed unequal pair
    a = even2_sudbery(2, 3)
    b = even2_sudbery(4, 5)
    eye = identity(2).data
    assert counit_substitution_ok(hom_algebra(a, a), eye)
    assert not counit_substitution_ok(hom_algebra(a, b), eye)
    with pytest.raises(ValueError, match="endomorphism"):
        counit_check(hom_algebra(a, b))


def _counit_substitution_reference(hom, values) -> bool:
    """``counit_substitution_ok`` summed over Fractions, on the monic
    relations."""
    m, v = hom.target.space.dim, values
    for p in hom.relations.polys:
        total = Fraction(0)
        for (g, h), c in p.terms.items():
            (a, k), (b, l) = divmod(g, m), divmod(h, m)
            total += c * v[a][k] * v[b][l]
        if total:
            return False
    return True


def test_counit_substitution_matches_fraction_sums():
    # scaled identities kill every endomorphism relation, random rational
    # values almost never do; both answers must agree with Fraction sums
    rng = random.Random(57)
    cases = []
    for shape in MIXED_SHAPES:
        obj = rand_sudbery(rng, space_of(shape))
        hom, n = hom_algebra(obj, obj), obj.space.dim
        c = rand_nonzero(rng)
        cases.append((hom, [[c * (a == k) for k in range(n)] for a in range(n)]))
        cases.append((hom, [[rand_nonzero(rng) for _ in range(n)] for _ in range(n)]))
    # entries with different denominators that kill every relation only
    # together: b is the image of a under p, and p kills hom(b, a)
    a = even2_sudbery(2, 3)
    p = [[1, Fraction(1, 2)], [Fraction(1, 3), 1]]
    pp = kron(Matrix(p), Matrix(p))
    b = make_general(a.space, [[mat_apply(pp, dense(v, 4)) for v in comp]
                               for comp in a.components])
    assert counit_substitution_ok(hom_algebra(b, a), p)
    cases.append((hom_algebra(b, a), p))
    answers = [counit_substitution_ok(hom, values) for hom, values in cases]
    assert answers == [_counit_substitution_reference(hom, values) for hom, values in cases]
    assert True in answers and False in answers


def test_determinant_closed_form():
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    det = determinant_2x2(src, tgt)
    al = det.alphabet
    a, b, c, d = 0, 1, 2, 3
    p_src = src.qp[1][1][0]  # p^{21} of the source
    assert p_src == 2
    assert det == NCPoly(al, {(a, d): 1, (c, b): -p_src})


def test_determinant_classical():
    cl = make_classical(even_space(2))
    det = determinant_2x2(cl, cl)
    assert det == NCPoly(det.alphabet, {(0, 3): 1, (2, 1): -1})


def test_determinant_alternate_forms_reduce_to_zero():
    # the four closed forms agree modulo the defining relations
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    det = determinant_2x2(src, tgt)
    al = det.alphabet
    a, b, c, d = 0, 1, 2, 3
    p_a, q_a = Fraction(2), Fraction(3)
    p_b, q_b = Fraction(4), Fraction(5)
    alt2 = NCPoly(al, {(d, a): 1, (c, b): -q_b}).scale((p_a + q_a) / (p_b + q_b))
    alt3 = NCPoly(al, {(a, d): q_b, (b, c): -1}).scale((1 + p_a / q_a) / (p_b + q_b))
    alt4 = NCPoly(al, {(d, a): p_a, (b, c): -1}).scale(1 / p_b)
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    for alt in (alt2, alt3, alt4):
        assert normal_form(det - alt, system).is_zero


def test_determinant_shape_errors():
    cl3 = make_classical(even_space(3))
    cl2 = make_classical(even_space(2))
    with pytest.raises(WrongShape):
        determinant_2x2(cl3, cl3)
    with pytest.raises(WrongShape):
        determinant_2x2(cl2, make_classical(space_of((0, 1))))


def test_determinant_multiplicativity_intro_chain():
    a, b, c = intro_chain()
    assert determinant_multiplicativity(hom_algebra(a, b), hom_algebra(b, c))


def test_determinant_multiplicativity_needs_composable_homs():
    a, b, c = intro_chain()
    with pytest.raises(ValueError):
        determinant_multiplicativity(hom_algebra(a, b), hom_algebra(c, a))


def test_determinant_multiplicativity_random_chains():
    rng = random.Random(59)
    sp = even_space(2)
    for _ in range(5):
        a, b, c = (rand_sudbery(rng, sp) for _ in range(3))
        assert determinant_multiplicativity(hom_algebra(a, b), hom_algebra(b, c))


def rescaled_dets(triple, fa, fb, fc):
    """det_ab, det_bc and det_ac under the coboundary rescaling of the area
    forms of a, b and c by fa, fb and fc."""
    a, b, c = triple.hom_ab.source, triple.hom_ab.target, triple.hom_bc.target
    return (
        determinant_2x2(a, b).scale(fa / fb),
        determinant_2x2(b, c).scale(fb / fc),
        determinant_2x2(a, c).scale(fa / fc),
    )


def test_determinant_multiplicativity_rescaled():
    a, b, c = intro_chain()
    triple = composable_triple(a, b, c)
    dets = rescaled_dets(triple, Fraction(2), Fraction(1, 3), Fraction(7, 5))
    assert determinant_multiplicativity(triple.hom_ab, triple.hom_bc, dets=dets)
    # an inconsistent rescaling (det_ac scaled alone) breaks it
    bad = dets[:2] + (dets[2].scale(3),)
    assert not determinant_multiplicativity(triple.hom_ab, triple.hom_bc, dets=bad)


def test_determinant_multiplicativity_corrupted_fails():
    a, b, c = intro_chain()
    det_ab = determinant_2x2(a, b)
    det_bc = determinant_2x2(b, c)
    det_ac = determinant_2x2(a, c)
    bad = det_ac + NCPoly(det_ac.alphabet, {(0, 3): Fraction(1, 2)})
    assert not determinant_multiplicativity(
        hom_algebra(a, b), hom_algebra(b, c), dets=(det_ab, det_bc, bad)
    )


def _scale_one_coefficient(rng, poly: NCPoly) -> NCPoly:
    terms = dict(poly.terms)
    word = rng.choice(sorted(terms))
    terms[word] *= rng.choice([Fraction(7), Fraction(-1, 3), Fraction(0)])
    return NCPoly(poly.alphabet, terms)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from(MIXED_SHAPES), min_size=3, max_size=3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_integer_reduction_matches_fraction_reference_coproduct(shapes, corrupt, seed):
    _assert_coproduct_matches_reference(shapes, corrupt, seed)


def _assert_coproduct_matches_reference(shapes, corrupt, seed):
    rng = random.Random(seed)
    a, b, c = (rand_sudbery(rng, space_of(s)) for s in shapes)
    triple = composable_triple(a, b, c)
    if corrupt:
        polys = list(triple.hom_ac.relations.polys)
        i = rng.randrange(len(polys))
        polys[i] = _scale_one_coefficient(rng, polys[i])
        hom = triple.hom_ac
        bad = HomAlgebra(a, c, relation_set(hom.alphabet, polys))
        triple = ComposableTriple(triple.hom_ab, triple.hom_bc, bad)
    assert comultiplication_check(triple) == comultiplication_reference(triple)


def test_coproduct_property_fails_on_a_flipped_transposition_sign(monkeypatch):
    # the package's code expansion alone loses the sign of transposing odd
    # entries; the reference's own tuple expansion keeps it
    monkeypatch.setattr(bialgebra, "koszul_sign", lambda p1, p2: 1)
    _assert_coproduct_matches_reference([(0, 0)] * 3, False, 0)  # no odd entry
    with pytest.raises(AssertionError):
        _assert_coproduct_matches_reference([(0, 1)] * 3, False, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_integer_reduction_matches_fraction_reference_determinant(corrupt, seed):
    rng = random.Random(seed)
    a, b, c = (rand_sudbery(rng, even_space(2)) for _ in range(3))
    triple = composable_triple(a, b, c)
    dets = list(rescaled_dets(triple, *(rand_nonzero(rng) for _ in range(3))))
    if corrupt < 3:  # corrupt one of the three determinants
        dets[corrupt] = _scale_one_coefficient(rng, dets[corrupt])
    dets = tuple(dets)
    expected = determinant_reference(triple, dets)
    assert determinant_multiplicativity(triple.hom_ab, triple.hom_bc, dets=dets) == expected
    if corrupt == 3:
        assert expected


# every two-parameter constructor of an even dim-2 object
DET_KINDS = {
    "sudbery": rand_sudbery,
    "normalized": rand_normalized,
    "classical": lambda rng, space: make_classical(space),
}


def _assert_determinant_matches_reference(seed, kinds=("sudbery", "sudbery")):
    rng = random.Random(seed)
    src, tgt = (DET_KINDS[kind](rng, even_space(2)) for kind in kinds)
    det = determinant_2x2(src, tgt)
    with mock.patch.object(bialgebra, "_xi_quotient_coefficients", xi_quotient_reference):
        assert det == determinant_2x2(src, tgt)


@settings(max_examples=45, deadline=None)
@given(st.sampled_from(sorted(DET_KINDS)), st.sampled_from(sorted(DET_KINDS)),
       st.integers(0, 2**32 - 1))
@example("normalized", "classical", 1)
@example("classical", "normalized", 2)
def test_determinant_matches_dense_solve_reference(src_kind, tgt_kind, seed):
    _assert_determinant_matches_reference(seed, (src_kind, tgt_kind))


def test_determinant_property_fails_on_negated_area_coordinate(monkeypatch):
    real = spaces._annihilator

    def negate_one(*args):
        # phi's entry at the word (1, 0), code 1 * 2 + 0, in new dicts
        return [{**g, 2: -g[2]} if 2 in g else g for g in real(*args)]

    monkeypatch.setattr(spaces, "_annihilator", negate_one)
    with pytest.raises(AssertionError):
        _assert_determinant_matches_reference(5)


@pytest.mark.parametrize(
    "components",
    [
        # a two-dimensional quotient has no single area form
        [[(0, 1, -1, 0), (0, 1, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)]],
        # a one-dimensional quotient in which [xi^1 xi^2] vanishes
        [[(0, 0, 1, 0)], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]],
    ],
)
def test_area_form_must_span_the_quotient(components):
    with pytest.raises(WrongShape):
        bialgebra._xi_quotient_coefficients(make_general(even_space(2), components))
