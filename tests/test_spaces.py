import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qlincat import bialgebra, graded, linalg, spaces
from qlincat.graded import even_space, koszul_pairing, koszul_signs, pi_image, space_of
from qlincat.linalg import InvariantViolation, Matrix, NotComplementary, _cleared, _int_rows
from qlincat.spaces import (
    BadParameters,
    QuantumObject,
    dual_object,
    make_classical,
    make_general,
    make_normalized,
    make_sudbery,
    objects_equal,
)
from qlincat.pbw import pbw_extract_constant

from support import (
    MIXED_SHAPES,
    FractionMade,
    annihilator,
    dense,
    dense_pair_spans,
    forbid_fraction_arithmetic,
    forbid_new_fractions,
    pair_spans_reference,
    projectors,
    rand_general,
    rand_normalized,
    rand_sudbery,
    rank,
    row_basis,
    row_spans_equal,
)


def test_classical_dims_even2():
    obj = make_classical(even_space(2))
    assert obj.component_dims() == (1, 3)


def test_classical_dims_super11():
    obj = make_classical(space_of((0, 1)))
    assert obj.component_dims() == (2, 2)


def test_classical_dims_dim1():
    obj = make_classical(even_space(1))
    assert obj.component_dims() == (0, 1)


def test_classical_dim_formula_mixed():
    rng = random.Random(4)
    for parities in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
        sp = space_of(parities)
        n, k = sp.dim, sp.odd_count
        obj = make_classical(sp)
        assert obj.component_dims() == (n * (n - 1) // 2 + k, n * (n - 1) // 2 + (n - k))


def test_sudbery_generic_dims():
    obj = make_sudbery(
        even_space(2), [[1, Fraction(1, 3)], [3, 1]], [[1, Fraction(1, 2)], [2, 1]]
    )
    assert obj.component_dims() == (1, 3)


def test_sudbery_even_dims_match_classical_counts():
    rng = random.Random(77)
    for n in (2, 3):
        obj = rand_sudbery(rng, even_space(n))
        assert obj.component_dims() == (n * (n - 1) // 2, n * (n + 1) // 2)


def test_sudbery_classical_parameters_reduce():
    sp = space_of((0, 1))
    q = [[1, 1], [1, -1]]
    obj = make_sudbery(sp, q, q)
    assert objects_equal(obj, make_classical(sp))
    assert obj.kind == "classical"


def test_sudbery_not_complementary():
    with pytest.raises(
        NotComplementary, match=r"^q\[0\]\[1\] \+ p\[0\]\[1\] == 0: the two components do not span$"
    ):
        make_sudbery(even_space(2), [[1, 2], [Fraction(1, 2), 1]], [[1, -2], [Fraction(-1, 2), 1]])


def test_sudbery_bad_reciprocity():
    with pytest.raises(BadParameters, match=r"^reciprocity violated: q\[0\]\[1\]\*q\[1\]\[0\] != 1$"):
        make_sudbery(even_space(2), [[1, 2], [2, 1]], [[1, 3], [Fraction(1, 3), 1]])
    # two proper fractions whose product is not 1
    with pytest.raises(BadParameters, match=r"^reciprocity violated: p\[0\]\[1\]\*p\[1\]\[0\] != 1$"):
        make_sudbery(
            even_space(2), [[1, 2], [Fraction(1, 2), 1]], [[1, Fraction(3, 2)], [Fraction(3, 4), 1]]
        )


def test_sudbery_zero_entry():
    with pytest.raises(BadParameters, match=r"^q\[0\]\[1\] must be nonzero$"):
        make_sudbery(even_space(2), [[1, 0], [1, 1]], [[1, 3], [Fraction(1, 3), 1]])


def test_sudbery_bad_diagonal():
    with pytest.raises(BadParameters, match=r"^q\[0\]\[0\] = 2, must equal \(-1\)\*\*parity = 1$"):
        make_sudbery(even_space(2), [[2, 2], [Fraction(1, 2), 1]], [[1, 3], [Fraction(1, 3), 1]])
    with pytest.raises(BadParameters, match=r"^q\[1\]\[1\] = 1, must equal \(-1\)\*\*parity = -1$"):
        # odd index must have diagonal -1
        make_sudbery(space_of((0, 1)), [[1, 2], [Fraction(1, 2), 1]], [[1, 3], [Fraction(1, 3), -1]])


def test_normalized_lambda_one_trivial():
    sp = even_space(2)
    q = [[1, Fraction(1, 3)], [3, 1]]
    obj = make_normalized(sp, q, +1, 1)
    qhat, phat = obj.qp
    assert qhat == phat == tuple(tuple(Fraction(x) for x in row) for row in q)
    assert pbw_extract_constant(obj).constant == 1


def test_normalized_constant_is_lambda_squared():
    sp = even_space(2)
    q = [[1, 1], [1, 1]]
    plus = make_normalized(sp, q, +1, 5)
    minus = make_normalized(sp, q, -1, 5)
    cp = pbw_extract_constant(plus).constant
    cm = pbw_extract_constant(minus).constant
    assert {cp, 1 / cp} == {Fraction(25), Fraction(1, 25)}
    assert cm in (cp, 1 / cp)
    # the two branches swap the constant and its inverse
    ratio_plus = plus.qp[1][0][1] / plus.qp[0][0][1]
    ratio_minus = minus.qp[1][0][1] / minus.qp[0][0][1]
    assert ratio_plus * ratio_minus == 1


def test_normalized_negative_lambda():
    obj = make_normalized(even_space(2), [[1, 1], [1, 1]], +1, -2)
    ext = pbw_extract_constant(obj)
    assert ext.constant in (Fraction(4), Fraction(1, 4))  # lam**2


def test_normalized_rejects_zero_lambda():
    with pytest.raises(BadParameters):
        make_normalized(even_space(2), [[1, 1], [1, 1]], +1, 0)
    with pytest.raises(BadParameters):
        make_normalized(even_space(2), [[1, 1], [1, 1]], 2, 3)


def test_every_constructor_passes_projectors():
    rng = random.Random(8)
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        sp = space_of(parities)
        projectors(make_classical(sp))
        projectors(rand_sudbery(rng, sp))
    projectors(make_normalized(even_space(2), [[1, 2], [Fraction(1, 2), 1]], -1, 7))


def test_general_constructor_three_components():
    # split the symmetric component of the classical plane into two lines
    f = Fraction
    i_span = [(f(0), f(1), f(-1), f(0))]
    j1 = [(f(1), f(0), f(0), f(0)), (f(0), f(0), f(0), f(1))]
    j2 = [(f(0), f(1), f(1), f(0))]
    obj = make_general(even_space(2), [i_span, j1, j2])
    assert obj.s == 3
    assert obj.component_dims() == (1, 2, 1)


def test_general_constructor_rejects_overlap():
    f = Fraction
    with pytest.raises(NotComplementary):
        make_general(
            even_space(2),
            [[(f(1), f(0), f(0), f(0))], [(f(1), f(0), f(0), f(0)), (f(0), f(1), f(0), f(0)), (f(0), f(0), f(1), f(0)), (f(0), f(0), f(0), f(1))]],
        )


def test_general_constructor_messages():
    f = Fraction
    e = [tuple(f(int(i == j)) for j in range(4)) for i in range(4)]
    with pytest.raises(NotComplementary, match="component dimensions sum to 5, ambient dimension is 4"):
        make_general(even_space(2), [[e[0]], e])
    with pytest.raises(NotComplementary, match="joint spanning matrix is rank-deficient"):
        make_general(even_space(2), [[e[0]], [e[0], e[1], e[2]]])
    # full rank, but in a 5-dimensional space instead of V' (x) V'; the
    # coordinate count is checked before any rank is taken
    e5 = [tuple(f(int(i == j)) for j in range(5)) for i in range(5)]
    for comps in ([e5[:2], e5[2:4]], [e5[:2], e5[2:]]):
        with pytest.raises(ValueError, match="component vectors must have 4 coordinates"):
            make_general(even_space(2), comps)


def test_quantum_object_holds_complementarity():
    # a QuantumObject built directly raises exactly as make_general does
    f = Fraction
    e = [tuple(f(int(i == j)) for j in range(4)) for i in range(4)]
    e5 = [tuple(f(int(i == j)) for j in range(5)) for i in range(5)]
    for comps in ([e[:1], e], [e[:1], e[:3]], [e[:1], e[2:]], [e5[:2], e5[2:]]):
        with pytest.raises((NotComplementary, ValueError)) as by_constructor:
            make_general(even_space(2), comps)
        message = f"^{re.escape(str(by_constructor.value))}$"
        with pytest.raises(by_constructor.type, match=message):
            QuantumObject(even_space(2), tuple(tuple(_int_rows(c)) for c in comps))


def test_constructors_build_no_projectors(monkeypatch):
    calls = []
    real = linalg.spectral_sum

    def counting(bases, values, dim):
        calls.append(dim)
        return real(bases, values, dim)

    monkeypatch.setattr(linalg, "spectral_sum", counting)
    sp = space_of((0, 1))
    cl = make_classical(sp)
    sud = make_sudbery(sp, [[1, 2], [Fraction(1, 2), -1]], [[1, 3], [Fraction(1, 3), -1]])
    make_normalized(even_space(2), [[1, 2], [Fraction(1, 2), 1]], -1, 7)
    make_general(sp, [[dense(v, 4) for v in comp] for comp in cl.components])
    dual_object(sud)
    assert calls == []
    projectors(cl)  # the counter does see the lookup
    assert calls == [4, 4]


@st.composite
def two_parameter_objects(draw):
    space = space_of(draw(st.sampled_from(MIXED_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sudbery", "normalized", "classical"]))
    if kind == "classical":
        return make_classical(space)
    return rand_sudbery(rng, space) if kind == "sudbery" else rand_normalized(rng, space)


def _assert_pair_spans_match_reference(obj, pair_spans=dense_pair_spans):
    spans = pair_spans(obj.space, *obj.qp)
    for comp, ref in zip(spans, pair_spans_reference(obj.space, *obj.qp), strict=True):
        assert rank(Matrix(comp)) == len(comp)
        assert row_spans_equal(comp, ref)


@settings(max_examples=30, deadline=None)
@given(two_parameter_objects())
def test_pair_spans_are_independent_and_span_the_components(obj):
    _assert_pair_spans_match_reference(obj)
    # the package builds the dense reference's rows, cleared, on integers
    dense_rows = tuple(tuple(_int_rows(comp)) for comp in dense_pair_spans(obj.space, *obj.qp))
    assert spaces._pair_spans(obj.space, *obj.qp) == dense_rows == obj.components


def test_pair_spans_property_fails_without_diagonal_vectors():
    def off_diagonal(space, q, p):
        n = space.dim
        return tuple(
            tuple(v for v in comp if not any(v[a * n + a] for a in range(n)))
            for comp in dense_pair_spans(space, q, p)
        )

    obj = make_classical(space_of((0, 1)))
    _assert_pair_spans_match_reference(obj)
    with pytest.raises(AssertionError):
        _assert_pair_spans_match_reference(obj, off_diagonal)


def test_dual_of_classical_is_classical():
    sp = space_of((0, 1))
    dual = dual_object(make_classical(sp))
    assert objects_equal(dual, make_classical(sp))
    assert dual.kind == "classical"


def _objects_with_duals(rng):
    """rand_sudbery, rand_normalized, rand_general and make_classical on
    MIXED_SHAPES and at dim 1 (rand_general needs dim 2 or more), each with
    its dual and its double dual."""
    for shape in MIXED_SHAPES + [(0,), (1,)]:
        space = space_of(shape)
        makes = [rand_sudbery, rand_normalized, lambda rng, sp: make_classical(sp)]
        for make in makes + [rand_general] * (space.dim > 1):
            dual = dual_object(obj := make(rng, space))
            yield from (obj, dual, dual_object(dual))


def test_kind_is_a_function_of_the_parameters():
    # a two-parameter object has the kind make_sudbery gives its matrices,
    # whichever constructor or dual built it
    rng = random.Random(30)
    for _ in range(4):
        for obj in _objects_with_duals(rng):
            if obj.normalized is not None:
                assert obj.kind == "normalized"
            elif obj.qp is None:
                assert obj.kind == "general"
            else:
                assert obj.kind == make_sudbery(obj.space, *obj.qp).kind
    # the dual of a normalized object whose matrices are the Koszul signs
    # is classical, like make_sudbery on those matrices
    obj = make_normalized(space_of((0, 1)), [[1, 1], [1, -1]], -1, 1)
    assert obj.kind == "normalized"
    assert dual_object(obj).kind == "classical"


def test_dual_sudbery_closed_form():
    # dual components: e_A e_B - p_{BA} e_B e_A and e_A e_B + q_{BA} e_B e_A
    rng = random.Random(13)
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        sp = space_of(parities)
        obj = rand_sudbery(rng, sp)
        q, p = obj.qp
        n = sp.dim
        dual = dual_object(obj)
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
        # derived parameters are the inverses, swapped
        qd, pd = dual.qp
        assert all(qd[a][b] == 1 / p[a][b] for a in range(n) for b in range(n))
        assert all(pd[a][b] == 1 / q[a][b] for a in range(n) for b in range(n))


def _koszul_orthogonal(space, gs, fs) -> bool:
    words = list(product(range(space.dim), repeat=2))
    gs, fs = ([dense(v, len(words)) for v in rows] for rows in (gs, fs))
    return all(
        sum(g[i] * f[i] * koszul_pairing(space, w, w) for i, w in enumerate(words)) == 0
        for g in gs
        for f in fs
    )


def _assert_dual_is_an_involution(obj):
    dual = dual_object(obj)
    # each dual component annihilates the other original component under
    # the Koszul pairing, read here from ``koszul_pairing``, not the signs
    assert _koszul_orthogonal(obj.space, dual.components[0], obj.components[1])
    assert _koszul_orthogonal(obj.space, dual.components[1], obj.components[0])
    assert dual.component_dims() == obj.component_dims()
    twice = dual_object(dual)
    assert objects_equal(twice, obj)
    assert (twice.kind, twice.qp) == (obj.kind, obj.qp)


@st.composite
def dualisable_objects(draw):
    space = space_of(draw(st.sampled_from(MIXED_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sudbery", "general", "classical"]))
    if kind == "classical":
        return make_classical(space)
    return rand_sudbery(rng, space) if kind == "sudbery" else rand_general(rng, space)


@settings(max_examples=20, deadline=None)
@given(dualisable_objects())
def test_dual_involution(obj):
    _assert_dual_is_an_involution(obj)


@pytest.mark.parametrize("shape", [(0, 1), (0, 1, 1)])
def test_dual_property_fails_without_koszul_signs(monkeypatch, shape):
    # a dual over the plain pairing is still an involution, but it no longer
    # annihilates a component whose vectors mix words of two odd letters
    # with other words (a two-parameter component never does)
    monkeypatch.setattr(spaces, "koszul_signs", lambda space: (1,) * space.dim**2)
    obj = rand_general(random.Random(21), space_of(shape))
    with pytest.raises(AssertionError):
        _assert_dual_is_an_involution(obj)


def test_dual_components_are_annihilators():
    rng = random.Random(34)
    obj = rand_sudbery(rng, even_space(2))
    signs = koszul_signs(obj.space)
    dual = dual_object(obj)
    dual_comps, comps = ([[dense(v, 4) for v in comp] for comp in o.components] for o in (dual, obj))
    assert row_spans_equal(dual_comps[0], annihilator(comps[1], 4, signs))
    assert row_spans_equal(dual_comps[1], annihilator(comps[0], 4, signs))


@st.composite
def annihilated_objects(draw):
    space = space_of(draw(st.sampled_from(MIXED_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([rand_sudbery, rand_normalized, rand_general]))
    return make(rng, space)


def _assert_annihilators_match_reference(obj):
    # the same vectors in the same order as the kernel of the signed
    # components, each cleared to integers, not only the same spans
    signs, dim = koszul_signs(obj.space), obj.space.dim**2
    expected = tuple(
        tuple(_cleared(dict(enumerate(g)))
              for g in annihilator([dense(v, dim) for v in comp], dim, signs))
        for comp in obj.components
    )
    assert obj.annihilators == expected


@settings(max_examples=40, deadline=None)
@given(annihilated_objects())
def test_annihilators_are_the_signed_kernels_of_the_components(obj):
    _assert_annihilators_match_reference(obj)


def test_annihilator_property_fails_without_the_free_column_sign(monkeypatch):
    # each vector comes out as signs[fc] * g: still an annihilator, but with
    # entry -1 at its free column fc where that word has two odd letters
    real = spaces._annihilator

    def unsigned(spanning, rows, signs):
        pivots = {next(iter(row)) for row in rows}
        out = []
        for g in real(spanning, rows, signs):
            fc = next(c for c in g if c not in pivots)
            out.append({c: signs[fc] * x for c, x in g.items()})
        return out

    monkeypatch.setattr(spaces, "_annihilator", unsigned)
    _assert_annihilators_match_reference(rand_sudbery(random.Random(5), space_of((0, 0))))
    with pytest.raises(AssertionError):
        _assert_annihilators_match_reference(rand_sudbery(random.Random(5), space_of((0, 1))))


def test_annihilators_raise_on_a_corrupted_reduced_echelon(monkeypatch):
    # one entry of one reduced row changed at a free column, by its pivot:
    # the kernel vector read there no longer pairs to zero with the component
    real = spaces._reduced_rows

    def corrupted(echelon, ncols):
        pairs = real(echelon, ncols)
        pivots = {pc for pc, _ in pairs}
        pc, row = pairs[0]
        fc = next(c for c in range(ncols) if c not in pivots)
        return [(pc, {**row, fc: row.get(fc, 0) + row[pc]})] + pairs[1:]

    obj = rand_sudbery(random.Random(5), space_of((0, 1)))
    assert obj.annihilators
    monkeypatch.setattr(spaces, "_reduced_rows", corrupted)
    obj = rand_sudbery(random.Random(5), space_of((0, 1)))
    with pytest.raises(InvariantViolation, match="does not annihilate"):
        obj.annihilators


def _assert_bases_match_reference(obj):
    # each component's reduced echelon rows, in order, each cleared to
    # integers: primitive and positive at its pivot
    dim = obj.space.dim**2
    expected = tuple(
        tuple(_cleared(dict(enumerate(v))) for v in row_basis([dense(r, dim) for r in comp]))
        for comp in obj.components
    )
    assert obj.bases == expected


@settings(max_examples=40, deadline=None)
@given(annihilated_objects())
def test_bases_are_the_cleared_reduced_echelon_rows(obj):
    _assert_bases_match_reference(obj)


def test_bases_property_fails_on_a_negated_row(monkeypatch):
    # the same span and the same pivots, but one row negative at its pivot
    real = spaces._reduced_rows

    def negated(echelon, ncols):
        (pc, row), *rest = real(echelon, ncols)
        return [(pc, {c: -x for c, x in row.items()}), *rest]

    monkeypatch.setattr(spaces, "_reduced_rows", negated)
    with pytest.raises(AssertionError):
        _assert_bases_match_reference(rand_sudbery(random.Random(5), space_of((0, 1))))


def _integer_object_paths(objs):
    """Each object rebuilt from its components, with its bases and
    annihilators read; the dual of each general object; and the Pi-image of
    each second component."""
    rebuilt = [QuantumObject(obj.space, obj.components) for obj in objs]
    forms = [(new.bases, new.annihilators) for new in rebuilt]
    duals = [dual_object(obj) for obj in objs if obj.kind == "general"]
    images = [[pi_image(obj.space, row) for row in obj.components[1]] for obj in objs]
    return rebuilt, forms, duals, images


def test_object_paths_make_no_fraction(monkeypatch):
    # components are integer rows, so no Fraction is made or used from a
    # stored object on; the guarded results are then checked against the
    # unguarded package and the dense references
    rng = random.Random(47)
    objs = [make(rng, space_of(shape)) for shape in MIXED_SHAPES
            for make in (rand_sudbery, rand_normalized, rand_general)]
    forbid_new_fractions(monkeypatch, linalg, spaces, graded, bialgebra)
    forbid_fraction_arithmetic(monkeypatch)
    rebuilt, forms, duals, images = _integer_object_paths(objs)
    # control: the dense round trip the dual used to take, its annihilator
    # rows written out densely and read back by make_general, trips the guard
    obj = objs[-1]
    n2 = obj.space.dim**2
    with pytest.raises(FractionMade):
        make_general(obj.space, [[[g.get(c, 0) for c in range(n2)] for g in ann]
                                 for ann in obj.annihilators[::-1]])
    monkeypatch.undo()
    for obj, new, form in zip(objs, rebuilt, forms):
        assert form == (obj.bases, obj.annihilators)
        _assert_bases_match_reference(new)
        _assert_annihilators_match_reference(new)
    assert duals == [dual_object(obj) for obj in objs if obj.kind == "general"]
    for obj, image in zip(objs, images):
        n, par = obj.space.dim, obj.space.parities
        assert [dense(row, n * n) for row in image] == [
            tuple(-x if par[c // n] else x for c, x in enumerate(dense(row, n * n)))
            for row in obj.components[1]
        ]
