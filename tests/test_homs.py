import random
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qlincat import bialgebra, homs, linalg, spaces
from qlincat.bialgebra import (
    ComposableTriple,
    coassociativity_check,
    comultiplication_check,
    determinant_multiplicativity,
)
from qlincat.graded import even_space, space_of
from qlincat.homs import (
    AlphabetMismatch,
    ComponentCountMismatch,
    derive_relations_general,
    derive_relations_sudbery,
    hom_algebra,
    relation_set,
    spans_equal,
)
from qlincat.linalg import InvariantViolation, Matrix, _cleared, _echelon
from qlincat.pbw import oracle_dims
from qlincat.rewrite import NCPoly, build_rewrite_system, confluence_check, matrix_alphabet
from qlincat.spaces import dual_object, make_classical, make_general, make_sudbery, objects_equal

from support import (
    MIXED_SHAPES,
    FractionArithmetic,
    back_substituted_reference,
    criterion_pair,
    dense,
    derive_relations_general_reference,
    derive_relations_sudbery_reference,
    even2_sudbery,
    forbid_fraction_arithmetic,
    rand_general,
    rand_nonzero,
    rand_normalized,
    rand_sudbery,
    rank,
)


def supercommutator_relations(src_space, tgt_space):
    """Independent build of the full supercommutator span."""
    alphabet = matrix_alphabet(src_space, tgt_space)
    n = alphabet.size
    polys = []
    for g in range(n):
        for h in range(n):
            sign = (-1) ** (alphabet.parities[g] * alphabet.parities[h])
            terms = {}
            for w, c in (((g, h), Fraction(1)), ((h, g), Fraction(-sign))):
                terms[w] = terms.get(w, Fraction(0)) + c
            poly = NCPoly(alphabet, terms)
            if not poly.is_zero:
                polys.append(poly)
    return relation_set(alphabet, polys)


def test_classical_relations_are_supercommutators():
    for pv, pw in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (0, 0, 1))]:
        src, tgt = make_classical(space_of(pv)), make_classical(space_of(pw))
        rels = derive_relations_general(src, tgt)
        assert spans_equal(rels, supercommutator_relations(src.space, tgt.space))


def test_general_derivation_fails_without_its_koszul_sign(monkeypatch):
    """Negative control for the sign in the general derivation: with
    ``koszul_sign`` forced to 1 the supercommutator span is missed on a
    super shape but still found on an even one."""
    monkeypatch.setattr(homs, "koszul_sign", lambda p1, p2: 1)
    even = make_classical(space_of((0, 0)))
    rels = derive_relations_general(even, even)
    assert spans_equal(rels, supercommutator_relations(even.space, even.space))
    sup = make_classical(space_of((0, 1)))
    rels = derive_relations_general(sup, sup)
    assert not spans_equal(rels, supercommutator_relations(sup.space, sup.space))


def _assert_readers_leave_the_span_unchanged(kind, src_shape, tgt_shape, seed):
    """Every reader of a span's rows, echelon, back-substituted rows, rules
    and coordinate table, of its quotient tower's new rows M_2 and M_3, and
    of its objects' echelons, bases and annihilators, shares them and
    changes none of them."""
    rng = random.Random(seed)
    src, tgt = criterion_pair(rng, kind, src_shape, tgt_shape)
    hom = hom_algebra(src, tgt)
    rels = hom.relations

    def state():
        return (rels.rows, rels.echelon, rels.back_substituted, rels.rules, rels.coords,
                *((obj._echelons, obj.bases, obj.annihilators) for obj in (src, tgt)))

    before = deepcopy(state())
    system = build_rewrite_system(rels)
    assert system.rules is rels.rules
    confluence_check(system)
    oracle_dims(hom, 3)
    # degree 4 commits M_3, the back-substitution of the degree-3 echelon,
    # and reads it as rules: snapshot it, with M_2, before that read
    tower = rels.tower
    snapshot = deepcopy({**tower.new, 3: back_substituted_reference(tower.top)})
    oracle_dims(hom, 4)
    assert {k: tower.new[k] for k in snapshot} == snapshot
    spans_equal(rels, relation_set(rels.alphabet, rels.polys))
    # hom is the first factor and the composite of the chain src, tgt, tgt,
    # so the triple is also the second one of the window src, tgt, tgt, tgt
    triple = ComposableTriple(hom, hom_algebra(tgt, tgt), hom)
    comultiplication_check(triple)
    coassociativity_check(triple, triple)
    if kind != "general" and src.space.parities == tgt.space.parities == (0, 0):
        determinant_multiplicativity(hom, triple.hom_bc)
    # a span comparison eliminates the second argument's stored rows into a
    # copy of the first's echelon: compare each span with a fresh copy
    spans_equal(relation_set(rels.alphabet, rels.polys), rels)
    for obj in (src, tgt):
        objects_equal(replace(obj), obj)
    assert state() == before


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["yes", "no", "general"]),
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.integers(0, 2**32 - 1),
)
@example("yes", (0, 0), (0, 0), 1)
@example("no", (0, 0), (0, 0), 2)
def test_readers_leave_the_span_echelon_back_substitution_and_rules_unchanged(
    kind, src_shape, tgt_shape, seed
):
    _assert_readers_leave_the_span_unchanged(kind, src_shape, tgt_shape, seed)


def test_read_only_property_fails_when_a_reader_mutates_a_rule(monkeypatch):
    # the property's confluence check doubles one rule coefficient first
    real = confluence_check

    def mutating(system):
        rest = next(rest for _, rest in system.rules.values() if rest)
        word = next(iter(rest))
        rest[word] *= 2
        return real(system)

    monkeypatch.setitem(globals(), "confluence_check", mutating)
    with pytest.raises(AssertionError):
        _assert_readers_leave_the_span_unchanged("yes", (0, 0), (0, 0), 1)


def test_read_only_property_fails_when_the_tower_shifts_its_rows_in_place(monkeypatch):
    # a _rules that keys the words of the rows it reads by u * shift in
    # place, from M_3 on (words of three letters or more), so that only
    # the tower's own rows change
    real = homs._rules

    def shifting(back, shift=1):
        out = real(back, shift)
        if max(back, default=0) >= shift * shift > 1:
            for row in back.values():
                shifted = {u * shift: v for u, v in row.items()}
                row.clear()
                row.update(shifted)
        return out

    monkeypatch.setattr(homs, "_rules", shifting)
    with pytest.raises(AssertionError):
        _assert_readers_leave_the_span_unchanged("yes", (0, 0), (0, 0), 1)


def test_read_only_property_fails_when_a_span_comparison_consumes_stored_rows(monkeypatch):
    # _insert reduces its row in place: a comparison that hands it the
    # second echelon's stored rows uncopied empties them
    def uncopied(ea, eb):
        if len(ea) != len(eb):
            return False
        pivots = dict(ea)
        return all(linalg._insert(pivots, row) is None for row in eb.values())

    for module in (homs, spaces):
        monkeypatch.setattr(module, "_same_span", uncopied)
    with pytest.raises(AssertionError):
        _assert_readers_leave_the_span_unchanged("yes", (0, 0), (0, 0), 1)


def test_read_only_property_fails_when_a_reader_mutates_a_coordinate(monkeypatch):
    real = bialgebra._delta_rows

    def mutating(ab, bc, rows):
        coords = ab.relations.coords
        w = next(w for w, terms in enumerate(coords) if terms)
        coords[w] = tuple((u, 2 * x) for u, x in coords[w])
        return real(ab, bc, rows)

    monkeypatch.setattr(bialgebra, "_delta_rows", mutating)
    with pytest.raises(AssertionError):
        _assert_readers_leave_the_span_unchanged("yes", (0, 0), (0, 0), 1)


def test_fixed_two_parameter_pair_matches_closed_coefficients():
    # source (p, q) = (2, 3), target (p, q) = (4, 5); the six relations are
    #   ab - 1/5 ba = 0             ac - 2 ca = 0
    #   ad - 5/9 da + 7/9 cb = 0    bc - 100/9 cb + 2/9 da = 0
    #   bd - 2 db = 0               cd - 1/5 dc = 0
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
    assert hand_rs.span_dim == 6
    assert spans_equal(derive_relations_general(src, tgt), hand_rs)
    assert spans_equal(derive_relations_sudbery(src, tgt), hand_rs)


def test_closed_form_on_classical_gives_supercommutators():
    for parities in [(0, 0), (0, 1)]:
        cl = make_classical(space_of(parities))
        rels = derive_relations_sudbery(cl, cl)
        assert spans_equal(rels, supercommutator_relations(cl.space, cl.space))


def test_generic_dim2_relation_count_and_quotient():
    src = even2_sudbery(Fraction(3, 2), Fraction(7, 5))
    rels = derive_relations_general(src, src)
    assert rels.span_dim == 6
    assert sum(w not in rels.rules for w in range(16)) == 10


def test_relation_count_matches_component_dims():
    rng = random.Random(6)
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        src = rand_sudbery(rng, space_of(parities))
        tgt = rand_sudbery(rng, space_of(parities))
        n = src.space.dim
        rels = derive_relations_general(src, tgt)
        di_v, dj_v = src.component_dims()
        di_w, dj_w = tgt.component_dims()
        expected = (n * n - di_v) * di_w + (n * n - dj_v) * dj_w
        assert len(rels.polys) == rels.span_dim == expected
        words = (n * n) ** 2
        assert sum(w not in rels.rules for w in range(words)) == words - expected


@st.composite
def two_parameter_pairs(draw):
    """YES, NO, independent two-parameter and normalized pairs over
    ``MIXED_SHAPES``, source and target shapes drawn apart."""
    kind = draw(st.sampled_from(["yes", "no", "sudbery", "normalized"]))
    shapes = [space_of(draw(st.sampled_from(MIXED_SHAPES))) for _ in range(2)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "sudbery":
        return tuple(rand_sudbery(rng, sp) for sp in shapes)
    if kind == "normalized":
        return tuple(rand_normalized(rng, sp) for sp in shapes)
    return criterion_pair(rng, kind, *(sp.parities for sp in shapes))


@st.composite
def derivation_pairs(draw):
    """Two-parameter pairs, and non-homogeneous general sources with a
    two-parameter target (only the general derivation applies to those)."""
    if draw(st.booleans()):
        return draw(two_parameter_pairs())
    shapes = [draw(st.sampled_from(MIXED_SHAPES)) for _ in range(2)]
    return criterion_pair(random.Random(draw(st.integers(0, 2**32 - 1))), "general", *shapes)


@settings(max_examples=25, deadline=None)
@given(two_parameter_pairs())
def test_sudbery_equals_general_randomized(pair):
    assert spans_equal(derive_relations_general(*pair), derive_relations_sudbery(*pair))


def _swapped_ratio(obj, a, b):
    """The object with q^{BA} and p^{BA} exchanged in its parameters only."""
    q, p = ([list(row) for row in mat] for mat in obj.qp)
    q[b][a], p[b][a] = p[b][a], q[b][a]
    return replace(obj, qp=(tuple(map(tuple, q)), tuple(map(tuple, p))))


@settings(max_examples=15, deadline=None)
@given(two_parameter_pairs(), st.integers(0, 2**32 - 1))
def test_closed_form_with_one_swapped_ratio_differs_from_general(pair, seed):
    src, tgt = pair
    a, b = random.Random(seed).sample(range(src.space.dim), 2)
    q, p = src.qp
    assume(q[b][a] != p[b][a])
    general = derive_relations_general(src, tgt)
    assert not spans_equal(general, derive_relations_sudbery(_swapped_ratio(src, a, b), tgt))


def _derivations_and_references(src, tgt):
    out = [(derive_relations_general(src, tgt), derive_relations_general_reference(src, tgt))]
    if src.qp is not None:
        closed = derive_relations_sudbery(src, tgt)
        out.append((closed, derive_relations_sudbery_reference(src, tgt)))
    return out


def _matches_reference(rels, ref_polys) -> bool:
    """The same monic polynomials in the same order, term for term, and the
    same echelon as the reference polynomials cleared one by one."""
    n = rels.alphabet.size
    cleared = (_cleared({g * n + h: c for (g, h), c in p.terms.items()}) for p in ref_polys)
    terms = [list(p.terms.items()) for p in rels.polys]
    same_polys = terms == [list(p.terms.items()) for p in ref_polys]
    return same_polys and rels.echelon == _echelon(cleared)


@settings(max_examples=30, deadline=None)
@given(derivation_pairs())
def test_integer_derivations_match_fraction_references(pair):
    for rels, ref in _derivations_and_references(*pair):
        assert _matches_reference(rels, ref)


@settings(max_examples=15, deadline=None)
@given(derivation_pairs(), st.integers(0, 2**32 - 1))
def test_reference_match_fails_on_one_scaled_coefficient(pair, seed):
    rng = random.Random(seed)
    for rels, ref in _derivations_and_references(*pair):
        rows = [dict(row) for row in rels.rows]
        # a one-term row stays the same monic relation however it is scaled
        row = rng.choice([row for row in rows if len(row) > 1])
        row[rng.choice(list(row))] *= 2
        assert not _matches_reference(homs.RelationSet(rels.alphabet, tuple(rows)), ref)


def _built_pairs():
    """Two-parameter, normalized and dense general sources over every mixed
    shape, each with a two-parameter target, all built before any check."""
    rng = random.Random(19)
    return [
        (make(rng, space_of(shape)), rand_sudbery(rng, space_of(rng.choice(MIXED_SHAPES))))
        for shape in MIXED_SHAPES
        for make in (rand_sudbery, rand_normalized, rand_general)
    ]


def test_built_objects_give_relations_without_fraction_arithmetic(monkeypatch):
    # bases and annihilators are read from the cached integer echelons, and
    # the relations from them, with no Fraction operation on the way
    pairs = _built_pairs()
    forbid_fraction_arithmetic(monkeypatch)
    for src, tgt in pairs:
        assert src.annihilators and tgt.bases
        derive_relations_general(src, tgt)


def test_fraction_arithmetic_guard_fails_on_the_fraction_reference(monkeypatch):
    (src, tgt), *_ = _built_pairs()
    forbid_fraction_arithmetic(monkeypatch)
    with pytest.raises(FractionArithmetic):
        derive_relations_general_reference(src, tgt)


def test_component_count_mismatch():
    f = Fraction
    three = make_general(
        even_space(2),
        [
            [(f(0), f(1), f(-1), f(0))],
            [(f(1), f(0), f(0), f(0)), (f(0), f(0), f(0), f(1))],
            [(f(0), f(1), f(1), f(0))],
        ],
    )
    with pytest.raises(ComponentCountMismatch):
        derive_relations_general(make_classical(even_space(2)), three)


def test_spans_equal_self_and_alphabet_mismatch():
    src = even2_sudbery(2, 3)
    rels = derive_relations_general(src, src)
    assert spans_equal(rels, rels)
    other = derive_relations_general(
        make_classical(space_of((0, 1))), make_classical(space_of((0, 1)))
    )
    with pytest.raises(AlphabetMismatch):
        spans_equal(rels, other)


def test_classical_vs_deformed_spans_differ():
    cl = make_classical(even_space(2))
    sud = even2_sudbery(2, 3)
    r1 = derive_relations_general(cl, cl)
    r2 = derive_relations_general(sud, sud)
    assert not spans_equal(r1, r2)


def test_basis_independence_of_relation_span():
    rng = random.Random(19)
    src = rand_sudbery(rng, even_space(2))
    tgt = rand_sudbery(rng, even_space(2))
    reference = derive_relations_general(src, tgt)

    def mixed(obj):
        comps = []
        for comp in obj.components:
            vecs = [dense(v, obj.space.dim**2) for v in comp]
            k = len(vecs)
            # random invertible recombination of the spanning vectors
            while True:
                coeffs = [[rand_nonzero(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(k)] for _ in range(k)]
                if rank(Matrix(coeffs)) == k:
                    break
            new = []
            for row in coeffs:
                vec = [sum(c * v[j] for c, v in zip(row, vecs)) for j in range(len(vecs[0]))]
                new.append(tuple(vec))
            comps.append(tuple(new))
        return make_general(obj.space, comps)

    recombined = derive_relations_general(mixed(src), mixed(tgt))
    assert spans_equal(reference, recombined)


def test_one_dimensional_even_target_gives_linear_form_relations():
    # target (0, k (x) k): relations g^{AB} t_A t_B = 0 over Ann J of the source
    rng = random.Random(25)
    src = rand_sudbery(rng, even_space(2))
    q, p = src.qp
    tgt = make_classical(even_space(1))
    assert tgt.component_dims() == (0, 1)
    rels = derive_relations_general(src, tgt)
    alphabet = rels.alphabet
    # closed form: t_A t_B - p_{BA} t_B t_A = 0
    hand = []
    n = 2
    for a in range(n):
        for b in range(n):
            terms = {}
            for w, c in (((a, b), Fraction(1)), ((b, a), -p[b][a])):
                terms[w] = terms.get(w, Fraction(0)) + c
            poly = NCPoly(alphabet, terms)
            if not poly.is_zero:
                hand.append(poly)
    assert spans_equal(rels, relation_set(alphabet, hand))


def test_one_column_relation_in_span():
    # even column K: t_A^K t_B^K - p_{BA} t_B^K t_A^K lies in the span
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    rels = derive_relations_general(src, tgt)
    _, p = src.qp
    for k in range(2):
        for a in range(2):
            for b in range(2):
                if a == b:
                    continue
                g1, g2 = a * 2 + k, b * 2 + k
                rel = NCPoly(rels.alphabet, {(g1, g2): 1, (g2, g1): -p[b][a]})
                padded = relation_set(rels.alphabet, rels.polys + (rel,))
                assert spans_equal(rels, padded)


def test_relation_matrix_view_matches_polys():
    rels = derive_relations_general(even2_sudbery(2, 3), even2_sudbery(4, 5))
    n = rels.alphabet.size
    m = rels.matrix
    assert (m.rows, m.cols) == (len(rels.polys), n * n)
    for row, p in zip(m.data, rels.polys):
        assert {divmod(c, n): x for c, x in enumerate(row) if x} == p.terms
    empty = relation_set(rels.alphabet, []).matrix
    assert (empty.rows, empty.cols) == (0, n * n)
    # the even dim-1 classical object: End has one generator and no relation
    cl = make_classical(even_space(1))
    view = hom_algebra(cl, cl).relations.matrix
    assert (view.rows, view.cols) == (0, 1)
    assert view == Matrix.zeros(0, 1) != Matrix.zeros(0, 0)


def test_bilinear_form_relations_classical():
    # classical object: coefficients of a bilinear form commute
    cl = make_classical(even_space(2))
    rels = derive_relations_general(cl, dual_object(cl))
    assert spans_equal(rels, supercommutator_relations(cl.space, cl.space))


def test_bilinear_form_relations_closed_form():
    # fixed even dim-2 instance against the closed coefficient formula
    src = even2_sudbery(2, 3)
    q, p = src.qp
    rels = derive_relations_general(src, dual_object(src))
    alphabet = rels.alphabet
    n = 2
    polys = []
    for a, b, c, d in product(range(n), repeat=4):
        denom = q[b][d] + p[b][d]
        c1 = (p[c][a] + q[c][a]) / denom
        c2 = (p[c][a] * q[b][d] - q[c][a] * p[b][d]) / denom
        terms = {}
        for w, coeff in (
            ((a * n + b, c * n + d), Fraction(1)),
            ((c * n + d, a * n + b), -c1),
            ((c * n + b, a * n + d), -c2),
        ):
            terms[w] = terms.get(w, Fraction(0)) + coeff
        poly = NCPoly(alphabet, terms)
        if not poly.is_zero:
            polys.append(poly)
    assert spans_equal(rels, relation_set(alphabet, polys))


def test_bilinear_of_dual_returns_endo_relations():
    src = even2_sudbery(2, 3)
    twice = dual_object(dual_object(src))
    assert spans_equal(
        derive_relations_general(src, dual_object(src)),
        derive_relations_general(twice, dual_object(twice)),
    )


def normalized_display_relations(src, tgt):
    """Independent build of the one-parameter relation families.

    For branch flags eps (source) and eta (target), shared scale lam, with
    q_AB from the source matrix and q^KL from the target matrix:

      one row   (K<L): even A: t_A^K t_A^L - q^KL lam**(-eta) t_A^L t_A^K
                       odd A:  ... + (-1)**(pK+pL) q^KL lam**eta ...
      one column(A<B): even K: t_A^K t_B^K - q_AB^-1 lam**(-eps) t_B^K t_A^K
                       odd K:  ... + (-1)**(pA+pB) q_AB^-1 lam**eps ...
      diagonal  (A<B, K<L) and antidiagonal (A<B, K>L):
        t_A^K t_B^L - q_AB^-1 q^KL (-1)**(pA pL + pB pK) t_B^L t_A^K
          = q_AB^-1 (lam**(-eps-+eta) - lam**(eps+-eta)) / (lam**-eta + lam**eta)
            * (-1)**((pA+pB) pK) t_B^K t_A^L
    """
    qv, eps, lam = src.normalized
    qw, eta, _ = tgt.normalized
    n, m = src.space.dim, tgt.space.dim
    pv, pw = src.space.parities, tgt.space.parities
    alphabet = matrix_alphabet(src.space, tgt.space)
    lam = Fraction(lam)
    polys = []

    def letter(a, k):
        return a * m + k

    for a in range(n):
        for k in range(m):
            for l in range(m):
                if k >= l:
                    continue
                if pv[a] == 0:
                    coeff = qw[k][l] * lam**-eta
                else:
                    coeff = -Fraction((-1) ** (pw[k] + pw[l])) * qw[k][l] * lam**eta
                polys.append(
                    NCPoly(alphabet, {(letter(a, k), letter(a, l)): 1,
                                      (letter(a, l), letter(a, k)): -coeff})
                )
    for k in range(m):
        for a in range(n):
            for b in range(n):
                if a >= b:
                    continue
                if pw[k] == 0:
                    coeff = (1 / qv[a][b]) * lam**-eps
                else:
                    coeff = -Fraction((-1) ** (pv[a] + pv[b])) * (1 / qv[a][b]) * lam**eps
                polys.append(
                    NCPoly(alphabet, {(letter(a, k), letter(b, k)): 1,
                                      (letter(b, k), letter(a, k)): -coeff})
                )
    # squares of odd entries vanish (implicit alongside the displayed families)
    for a in range(n):
        for k in range(m):
            if (pv[a] + pw[k]) % 2:
                polys.append(
                    NCPoly(alphabet, {(letter(a, k), letter(a, k)): Fraction(1)})
                )
    denom = lam**-eta + lam**eta
    for a in range(n):
        for b in range(n):
            if a >= b:
                continue
            for k in range(m):
                for l in range(m):
                    if k == l:
                        continue
                    c1 = (1 / qv[a][b]) * qw[k][l]
                    if (pv[a] * pw[l] + pv[b] * pw[k]) % 2:
                        c1 = -c1
                    if k < l:
                        num = lam ** (-eps - eta) - lam ** (eps + eta)
                    else:
                        num = lam ** (-eps + eta) - lam ** (eps - eta)
                    c2 = (1 / qv[a][b]) * num / denom
                    if ((pv[a] + pv[b]) * pw[k]) % 2:
                        c2 = -c2
                    polys.append(
                        NCPoly(alphabet, {
                            (letter(a, k), letter(b, l)): Fraction(1),
                            (letter(b, l), letter(a, k)): -c1,
                            (letter(b, k), letter(a, l)): -c2,
                        })
                    )
    return relation_set(alphabet, [p for p in polys if not p.is_zero])


def test_normalized_category_displayed_relations():
    from qlincat.spaces import make_normalized

    rng = random.Random(44)
    from support import rand_reciprocal

    for parities_v, parities_w in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 0, 1), (0, 1))]:
        sp_v, sp_w = space_of(parities_v), space_of(parities_w)
        lam = Fraction(5, 2)
        for eps, eta in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            src = make_normalized(sp_v, rand_reciprocal(rng, sp_v), eps, lam)
            tgt = make_normalized(sp_w, rand_reciprocal(rng, sp_w), eta, lam)
            hand = normalized_display_relations(src, tgt)
            assert spans_equal(derive_relations_general(src, tgt), hand)


def test_normalized_branch_vanishing_sides():
    # equal branch flags kill the antidiagonal cross term, opposite flags the
    # diagonal one, and the survivor's factor reduces to lam**-e - lam**e
    lam = Fraction(3)
    e = 1
    denom = lam**-1 + lam**1
    same = (lam ** (-e - e) - lam ** (e + e)) / denom
    assert same == lam**-e - lam**e
    assert (lam ** (-e + e) - lam ** (e - e)) == 0


def test_hom_algebra_factory():
    src = even2_sudbery(2, 3)
    hom = hom_algebra(src, src)
    assert spans_equal(hom.relations, derive_relations_sudbery(src, src))
    assert hom.alphabet.size == 4


def _corrupt_annihilator(monkeypatch, corrupt):
    # two-parameter objects built after the patch take their annihilators,
    # each component's kernel rows, from it
    real = spaces._pair_rows

    def corrupted(*args):
        spans, bases, kernel = real(*args)
        return spans, bases, tuple(corrupt(list(kernel)))

    monkeypatch.setattr(spaces, "_pair_rows", corrupted)


def test_degenerate_relation_raises(monkeypatch):
    _corrupt_annihilator(monkeypatch, lambda ann: [dict.fromkeys(ann[0], 0)] + ann[1:])
    cl = make_classical(even_space(2))
    with pytest.raises(InvariantViolation, match="degenerate"):
        derive_relations_general(cl, cl)


def test_dependent_relations_raise(monkeypatch):
    _corrupt_annihilator(monkeypatch, lambda ann: ann[:1] * len(ann))
    cl = make_classical(even_space(2))
    with pytest.raises(InvariantViolation, match="span smaller"):
        derive_relations_general(cl, cl)
