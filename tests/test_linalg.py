import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlincat import homs, linalg, spaces
from qlincat.homs import hom_algebra, relation_set, spans_equal
from qlincat.linalg import (
    InvariantViolation,
    Matrix,
    NotComplementary,
    _back_substituted,
    _echelon,
    _insert,
    _int_rows,
    spectral_sum,
)
from qlincat.graded import koszul_signs, space_of
from qlincat.pbw import oracle_dims
from qlincat.spaces import make_classical, make_general, make_sudbery, objects_equal

import support
from support import (
    MIXED_SHAPES,
    _rref_rows,
    annihilator,
    back_substituted_reference,
    criterion_pair,
    dense,
    dense_spectral_sum,
    echelon_reference,
    identity,
    inverse,
    kernel_basis,
    kron,
    mat_add,
    mat_apply,
    mat_scale,
    matmul,
    projectors,
    rand_nonzero,
    rank,
    rank_bareiss,
    row_spans_equal,
)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero():
    assert rank(Matrix.zeros(2, 5)) == 0


def test_rank_proportional_rows():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_rank_strategies_agree():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank_bareiss(m)


def test_kernel_identity_empty():
    assert kernel_basis(identity(4)) == []


def test_kernel_one_row():
    basis = kernel_basis(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_kernel_random_rank6():
    rng = random.Random(5)
    while True:
        m = rand_matrix(rng, 6, 10)
        if rank(m) == 6:
            break
    basis = kernel_basis(m)
    assert len(basis) == 4
    for v in basis:
        assert all(x == 0 for x in mat_apply(m, v))


def test_rank_nullity_randomized():
    rng = random.Random(17)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_field_axioms_randomized():
    rng = random.Random(23)
    for _ in range(50):
        a, b, c = (rand_nonzero(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * (1 / a) == 1
        assert a - a == 0


def test_inverse_roundtrip():
    # the dense reference inverse that the projector property compares against
    rng = random.Random(3)
    while True:
        m = rand_matrix(rng, 4, 4)
        if rank(m) == 4:
            break
    assert matmul(m, inverse(m)) == identity(4)
    assert matmul(inverse(m), m) == identity(4)


def test_annihilator_whole_space():
    vecs = [tuple(Fraction(i == j) for i in range(3)) for j in range(3)]
    assert annihilator(vecs, 3) == []


def test_annihilator_zero_subspace():
    basis = annihilator([], 3)
    assert rank(Matrix(basis)) == 3


def test_annihilator_pairing_check():
    # span{e^1 e^2 - q e^2 e^1} in even dim-2 tensor square, q = 2
    q = Fraction(2)
    vec = (Fraction(0), Fraction(1), -q, Fraction(0))
    space = space_of((0, 0))
    signs = koszul_signs(space)
    ann = annihilator([vec], 4, signs)
    assert len(ann) == 3
    for g in ann:
        pairing = sum(g[i] * signs[i] * vec[i] for i in range(4))
        assert pairing == 0


def test_annihilator_involution():
    rng = random.Random(9)
    space = space_of((0, 1, 0))
    signs = koszul_signs(space)
    for _ in range(10):
        vecs = [tuple(rand_nonzero(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(9)) for _ in range(3)]
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            continue
        once = annihilator(vecs, 9, signs)
        twice = annihilator(once, 9, signs)
        assert row_spans_equal(twice, vecs)


def test_projectors_classical_split():
    obj = make_classical(space_of((0, 0)))
    p_i, p_j = projectors(obj)
    swap = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    eye = identity(4)
    assert p_j == mat_scale(mat_add(eye, swap), Fraction(1, 2))
    assert p_i == mat_scale(mat_add(eye, mat_scale(swap, -1)), Fraction(1, 2))


def test_projectors_sudbery_identities():
    obj = make_sudbery(
        space_of((0, 0)),
        [[1, Fraction(1, 2)], [2, 1]],
        [[1, Fraction(1, 3)], [3, 1]],
    )
    ps = projectors(obj)
    eye = identity(4)
    total = Matrix.zeros(4, 4)
    for a, p in enumerate(ps):
        total = mat_add(total, p)
        assert matmul(p, p) == p
        for b, p2 in enumerate(ps):
            if a != b:
                assert matmul(p, p2) == Matrix.zeros(4, 4)
    assert total == eye
    # images are the components
    for p, comp in zip(ps, obj.components):
        for v in comp:
            assert mat_apply(p, dense(v, 4)) == dense(v, 4)


def test_projectors_trivial_parameters_match_classical():
    cl = make_classical(space_of((0, 0)))
    sud = make_sudbery(space_of((0, 0)), [[1, 1], [1, 1]], [[1, 1], [1, 1]])
    assert projectors(cl) == projectors(sud)


def test_projectors_not_complementary():
    # both spans contain e^1 (x) e^1
    e00 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    e11 = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(NotComplementary):
        make_general(space_of((0, 0)), [[e00], [e00, e11]])
    with pytest.raises(NotComplementary):
        make_general(space_of((0, 0)), [[e00], [e11]])


def test_kron_shapes():
    a = Matrix([[1, 2], [3, 4]])
    b = identity(2)
    k = kron(a, b)
    assert k.rows == k.cols == 4
    assert k.data[0][0] == 1 and k.data[0][2] == 2 and k.data[1][3] == 2


def pivot_columns(rows):
    """Leftmost nonzero column of each row."""
    return [next(c for c, x in enumerate(row) if x) for row in rows]


def test_rref_pivots_monotone():
    rng = random.Random(31)
    for _ in range(20):
        m = rand_matrix(rng, 4, 6)
        red = [row for _, row in _rref_rows(m.data, m.cols)]
        pivots = pivot_columns(red)
        assert pivots == sorted(pivots)
        for row, pc in zip(red, pivots):
            assert row[pc] == 1
        stacked = Matrix(m.data + tuple(red))
        assert rank(stacked) == rank(m)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_spectral_sum_eigenvectors():
    rng = random.Random(3)
    while True:
        m = rand_matrix(rng, 4, 4)
        if rank(m) == 4:
            break
    vectors = [m.data[:1], m.data[1:3], (), m.data[3:]]
    bases = [_int_rows(b) for b in vectors]
    values = [Fraction(2), Fraction(-1, 3), Fraction(9), Fraction(0)]
    s = dense_spectral_sum(*spectral_sum(bases, values, 4))
    for b, lam in zip(vectors, values):
        for v in b:
            assert mat_apply(s, v) == tuple(lam * x for x in v)
    assert spectral_sum(bases, [1, 1, 1, 1], 4) == (1, ({0: 1}, {1: 1}, {2: 1}, {3: 1}))


def test_spectral_sum_rejects_dependent_bases():
    e0, e1, e01 = {0: 1}, {1: 1}, {0: 1, 1: 1}
    # the matrix [[1, 1], [0, 2]] as its scale and integer columns
    assert spectral_sum([[e0], [e01]], [1, 2], 2) == (1, ({0: 1}, {0: 1, 1: 2}))
    # [[1, 0], [0, 1/2]]: the scale clears the second column
    assert spectral_sum([[e0], [e1]], [1, Fraction(1, 2)], 2) == (2, ({0: 2}, {1: 1}))
    for bases in ([[e0], [e0]], [[e0, e01], [e1]], [[e0], []], [[e0, e0], [e1]]):
        with pytest.raises(InvariantViolation):
            spectral_sum(bases, [1, 2], 2)


rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


@st.composite
def small_matrices(draw):
    """Rational matrices up to 6x7, including 0x0, zero rows and zero columns."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 7)) if rows else 0
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    data = []
    for _ in range(rows):
        if draw(st.booleans()) and draw(st.booleans()):
            data.append([Fraction(0)] * cols)
        else:
            data.append([Fraction(0) if c in zero_cols else draw(rationals) for c in range(cols)])
    return Matrix(data)


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_engine_properties_against_bareiss(m):
    r = rank(m)
    assert r == rank_bareiss(m)
    assert r + len(kernel_basis(m)) == m.cols
    red = [row for _, row in _rref_rows(m.data, m.cols)]
    pivots = pivot_columns(red)
    assert len(pivots) == r
    assert pivots == sorted(set(pivots))
    for row, pc in zip(red, pivots):
        assert row[pc] == 1


def _corrupt_rref_rows(monkeypatch, corrupt):
    real = support._rref_rows
    monkeypatch.setattr(support, "_rref_rows", lambda vectors, ncols: corrupt(real(vectors, ncols)))


def test_kernel_rank_nullity_violation_raises(monkeypatch):
    def drop_a_pivot_row(pairs):
        return pairs[1:]

    _corrupt_rref_rows(monkeypatch, drop_a_pivot_row)
    with pytest.raises(InvariantViolation, match="rank-nullity"):
        kernel_basis(Matrix([[1, 1, 0], [0, 1, 1]]))


def test_kernel_vector_not_annihilated_raises(monkeypatch):
    def perturb_free_entries(pairs):
        return [
            (pc, tuple(x + 1 if x and c != pc else x for c, x in enumerate(row)))
            for pc, row in pairs
        ]

    _corrupt_rref_rows(monkeypatch, perturb_free_entries)
    with pytest.raises(InvariantViolation, match="annihilated"):
        kernel_basis(Matrix([[1, 1]]))


def _ordered(echelon):
    return [(lead, list(row.items())) for lead, row in echelon.items()]


def _assert_engine_matches_reference(rows):
    # values and key order of every stored row, and the order of the pivots
    echelon, want = _echelon(rows), echelon_reference(rows)
    assert _ordered(echelon) == _ordered(want)
    assert _ordered(_back_substituted(echelon)) == _ordered(back_substituted_reference(want))


@st.composite
def signed_rows(draw):
    """Sparse integer rows with signed entries up to 10**6, zeros included."""
    ncols = draw(st.integers(1, 12))
    entries = st.dictionaries(st.integers(0, ncols - 1), st.integers(-10**6, 10**6), max_size=ncols)
    return draw(st.lists(entries, max_size=10))


@st.composite
def derived_spans(draw):
    kind = draw(st.sampled_from(["yes", "no", "general"]))
    src_shape, tgt_shape = draw(st.sampled_from(MIXED_SHAPES)), draw(st.sampled_from(MIXED_SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return list(hom_algebra(*criterion_pair(rng, kind, src_shape, tgt_shape)).relations.rows)


@settings(max_examples=100, deadline=None)
@given(st.one_of(signed_rows(), derived_spans()))
def test_in_place_elimination_matches_the_normalising_reference(rows):
    _assert_engine_matches_reference(rows)


def test_elimination_property_fails_when_stored_rows_are_not_normalised(monkeypatch):
    monkeypatch.setattr(linalg, "_normalised", lambda row: row)
    rng = random.Random(5)
    rows = [{c: rng.randint(-10**6, 10**6) for c in rng.sample(range(8), 4)} for _ in range(6)]
    with pytest.raises(AssertionError):
        _assert_engine_matches_reference(rows)


def _assert_inserted_rows_are_zero_free(kind, src_shape, tgt_shape, seed):
    """Every row handed to ``_insert``, by object construction, the span
    comparisons and the quotient tower, holds no zero entry."""
    seen: set[str] = set()
    with pytest.MonkeyPatch.context() as mp:
        for module in (homs, linalg, spaces):
            def checking(pivots, row, real=module._insert, name=module.__name__):
                assert all(row.values()), f"{name} inserts a row with a zero entry: {row}"
                seen.add(name)
                return real(pivots, row)

            mp.setattr(module, "_insert", checking)
        src, tgt = criterion_pair(random.Random(seed), kind, src_shape, tgt_shape)
        hom = hom_algebra(src, tgt)
        spans_equal(relation_set(hom.alphabet, hom.relations.polys), hom.relations)
        objects_equal(replace(src), src)
        oracle_dims(hom, 4)
    assert seen == {"qlincat.homs", "qlincat.linalg", "qlincat.spaces"}


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["yes", "no", "general"]),
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.integers(0, 2**32 - 1),
)
def test_every_inserted_row_is_zero_free(kind, src_shape, tgt_shape, seed):
    # dense general relations grow long coefficients: keep those at 4 letters
    if kind == "general":
        src_shape, tgt_shape = src_shape[:2], tgt_shape[:2]
    _assert_inserted_rows_are_zero_free(kind, src_shape, tgt_shape, seed)


def test_a_zero_at_the_largest_column_is_stored_as_a_pivot():
    # why _insert needs a zero-free row: a zero entry at the largest column
    # is taken for the pivot, and the echelon no longer matches its reference
    rows = [{0: 2, 3: 0}, {0: 1, 1: 1}]
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(pivots, dict(row))
    assert 3 in pivots
    assert pivots != echelon_reference(rows)
    assert _echelon(rows) == echelon_reference(rows)
