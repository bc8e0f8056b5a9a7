import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qlincat
from qlincat import linalg, rmatrix
from qlincat.graded import even_space, space_of
from qlincat.homs import derive_relations_general, spans_equal
from qlincat.linalg import InvariantViolation, Matrix
from qlincat.pbw import pbw_extract_constant
from qlincat.rmatrix import (
    BMatrix,
    RepeatedCoefficient,
    braid_verdicts,
    build_B,
    normalized_B,
    rmatrix_relation_span,
    yang_baxter_check,
)
from qlincat.spaces import make_classical, make_general, make_normalized, make_sudbery

from support import (
    MIXED_SHAPES,
    FractionArithmetic,
    FractionMade,
    b_from_dense,
    b_matrix_reference,
    dense,
    dense_b,
    dense_yang_baxter,
    even2_sudbery,
    forbid_fraction_arithmetic,
    forbid_new_fractions,
    hecke_pair,
    identity,
    inverse,
    kron,
    mat_add,
    mat_apply,
    mat_scale,
    matmul,
    projectors,
    projectors_reference,
    rand_constant,
    rand_general,
    rand_nonzero,
    rand_normalized,
    rand_sudbery,
    rank,
    rmatrix_relation_span_fractions,
    rmatrix_relation_span_reference,
    row_spans_equal,
    sudbery_with_constant,
)


def super_swap(space):
    n = space.dim
    rows = []
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * (n * n)
            row[b * n + a] = Fraction((-1) ** (space.parities[a] * space.parities[b]))
            rows.append(row)
    return Matrix(rows)


def test_classical_B_is_signed_swap():
    for parities in [(0, 0), (0, 1), (1, 1)]:
        sp = space_of(parities)
        cl = make_classical(sp)
        b = build_B(cl, [-1, 1])  # -1 on the skew part, +1 on the symmetric part
        assert dense_b(b) == super_swap(sp)
        assert matmul(dense_b(b), dense_b(b)) == identity(sp.dim**2)
        assert yang_baxter_check(b)
        # coefficients (1, -1) give the opposite signed permutation, also square one
        b_neg = build_B(cl, [1, -1])
        assert dense_b(b_neg) == mat_scale(super_swap(sp), -1)
        assert matmul(dense_b(b_neg), dense_b(b_neg)) == identity(sp.dim**2)
        assert yang_baxter_check(b_neg)


def test_build_B_eigenstructure():
    obj = even2_sudbery(2, 3)
    b = build_B(obj, [1, -5])
    # components are eigenspaces: (B - lam) v = 0
    for lam, comp in zip((Fraction(1), Fraction(-5)), obj.components):
        for v in comp:
            assert mat_apply(dense_b(b), dense(v, 4)) == tuple(lam * x for x in dense(v, 4))


def test_eigenspaces_recover_decomposition():
    from support import kernel_basis

    obj = even2_sudbery(2, 3)
    b = build_B(obj, [Fraction(4), Fraction(-7, 2)])
    for lam, comp in zip(b.coefficients, obj.components):
        shifted = mat_add(dense_b(b), mat_scale(identity(4), -lam))
        assert row_spans_equal(kernel_basis(shifted), [dense(v, 4) for v in comp])


def test_build_B_three_components():
    f = Fraction
    comps = [
        [(f(0), f(1), f(-1), f(0))],
        [(f(1), f(0), f(0), f(0)), (f(0), f(0), f(0), f(1))],
        [(f(0), f(1), f(1), f(0))],
    ]
    obj = make_general(even_space(2), comps)
    b = build_B(obj, [0, 1, 2])
    projs = projectors(obj)
    total = Matrix.zeros(4, 4)
    for lam, p in zip((0, 1, 2), projs):
        total = mat_add(total, mat_scale(p, lam))
    assert dense_b(b) == total
    # eigenprojection recovers each component
    for lam, comp in zip((f(0), f(1), f(2)), comps):
        for v in comp:
            assert mat_apply(dense_b(b), v) == tuple(lam * x for x in v)


def test_build_B_repeated_coefficient():
    obj = even2_sudbery(2, 3)
    with pytest.raises(RepeatedCoefficient):
        build_B(obj, [2, 2])
    with pytest.raises(ValueError):
        build_B(obj, [1, 2, 3])


def test_yb_dim2_both_branches_any_admissible():
    rng = random.Random(7)
    for _ in range(8):
        obj = rand_sudbery(rng, space_of(rng.choice([(0, 0), (0, 1), (1, 1)])))
        c = pbw_extract_constant(obj).constant
        for lam in {c, 1 / c}:
            assert yang_baxter_check(normalized_B(obj, lam))


def test_yb_dim3_nontransitive_fails():
    one = Fraction(1)
    q = [[one] * 3 for _ in range(3)]
    p = [
        [one, Fraction(2), Fraction(1, 2)],
        [Fraction(1, 2), one, Fraction(2)],
        [Fraction(2), Fraction(1, 2), one],
    ]
    obj = make_sudbery(even_space(3), q, p)
    assert pbw_extract_constant(obj) is None
    results = [yang_baxter_check(normalized_B(obj, lam)) for lam in (Fraction(2), Fraction(1, 2))]
    assert not any(results)


def test_yb_dim3_transitive_passes():
    rng = random.Random(19)
    obj = sudbery_with_constant(rng, space_of((0, 0, 1)), Fraction(5, 2))
    c = pbw_extract_constant(obj).constant
    for lam in (c, 1 / c):
        assert yang_baxter_check(normalized_B(obj, lam))


def test_yb_dichotomy_probe_scan():
    rng = random.Random(23)
    obj = sudbery_with_constant(rng, even_space(3), Fraction(3))
    c = pbw_extract_constant(obj).constant
    good = {c, 1 / c}
    probes = {Fraction(1), Fraction(2), Fraction(5), Fraction(-3), Fraction(7, 2), c * c}
    for lam in sorted(good | probes):
        if lam == 0:
            continue
        expected = lam in good
        assert yang_baxter_check(normalized_B(obj, lam)) == expected


def test_rmatrix_span_equals_relations_shared_coefficients():
    rng = random.Random(29)
    for _ in range(6):
        parities = rng.choice([(0, 0), (0, 1), (0, 0, 1)])
        src = rand_sudbery(rng, space_of(parities))
        tgt = rand_sudbery(rng, space_of(parities))
        b_src = build_B(src, [1, -1])
        b_tgt = build_B(tgt, [1, -1])
        assert spans_equal(
            rmatrix_relation_span(b_src, b_tgt), derive_relations_general(src, tgt)
        )


def test_rmatrix_span_three_components():
    # the presentation works for any component count with shared coefficients
    f = Fraction
    comps = [
        [(f(0), f(1), f(-1), f(0))],
        [(f(1), f(0), f(0), f(0)), (f(0), f(0), f(0), f(1))],
        [(f(0), f(1), f(1), f(0))],
    ]
    src = make_general(even_space(2), comps)
    tgt = make_general(even_space(2), comps)
    coeffs = [f(1), f(2), f(5)]
    span = rmatrix_relation_span(build_B(src, coeffs), build_B(tgt, coeffs))
    assert spans_equal(span, derive_relations_general(src, tgt))


def test_rmatrix_span_classical():
    cl = make_classical(space_of((0, 1)))
    span = rmatrix_relation_span(build_B(cl, [3, -2]), build_B(cl, [3, -2]))
    assert spans_equal(span, derive_relations_general(cl, cl))


def test_rmatrix_span_mismatched_normalized_differs():
    sp = even_space(2)
    q = [[1, 1], [1, 1]]
    a = make_normalized(sp, q, +1, 5)
    b = make_normalized(sp, q, +1, 5)
    rels = derive_relations_general(a, b)
    assert spans_equal(
        rmatrix_relation_span(normalized_B(a, 5), normalized_B(b, 5)), rels
    )
    for lam_b in (Fraction(7), Fraction(2), Fraction(1, 7)):
        span = rmatrix_relation_span(normalized_B(a, 5), normalized_B(b, lam_b))
        assert not spans_equal(span, rels)


def test_pbw_extraction_failure_breaks_yb_coherence():
    # when extraction fails on dim >= 3, at least one normalized branch fails
    rng = random.Random(31)
    one = Fraction(1)
    q = [[one] * 3 for _ in range(3)]
    p = [
        [one, Fraction(3), Fraction(1, 3)],
        [Fraction(1, 3), one, Fraction(3)],
        [Fraction(3), Fraction(1, 3), one],
    ]
    obj = make_sudbery(even_space(3), q, p)
    assert pbw_extract_constant(obj) is None
    assert not all(
        yang_baxter_check(normalized_B(obj, lam)) for lam in (Fraction(3), Fraction(1, 3))
    )


def _distinct(rng, count):
    coeffs = []
    while len(coeffs) < count:
        c = rand_nonzero(rng)
        if c not in coeffs:
            coeffs.append(c)
    return coeffs


def _distinct_pair(rng):
    return _distinct(rng, 2)


def _full_rank_vectors(rng, space):
    n2 = space.dim**2
    while True:
        vecs = [tuple(rand_nonzero(rng) for _ in range(n2)) for _ in range(n2)]
        if rank(Matrix(vecs)) == n2:
            return vecs


def _three_components(rng, space):
    """A dense general object with three nonempty components."""
    vecs = _full_rank_vectors(rng, space)
    i, j = sorted(rng.sample(range(1, space.dim**2), 2))
    return make_general(space, [vecs[:i], vecs[i:j], vecs[j:]])


@st.composite
def braid_matrices(draw):
    """B matrices that pass and fail the braid relation: normalized forms of
    random Sudbery objects at lam = c, 1/c and one other value, also in a
    random basis, and dense random general objects with distinct random
    coefficients."""
    space = space_of(draw(st.sampled_from(MIXED_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return [build_B(rand_general(rng, space), _distinct_pair(rng))]
    if draw(st.booleans()):
        obj = sudbery_with_constant(rng, space, rand_constant(rng))
    else:
        obj = rand_sudbery(rng, space)
    ext = pbw_extract_constant(obj)
    lams = {ext.constant, 1 / ext.constant} if ext is not None else set()
    other = rand_constant(rng)
    while other in lams:
        other = rand_constant(rng)
    bs = [normalized_B(obj, lam) for lam in sorted(lams | {other}) if lam != -1]
    # a change of basis g of V keeps each verdict and makes B dense
    while True:
        g = Matrix([[rand_nonzero(rng) for _ in range(space.dim)] for _ in range(space.dim)])
        if rank(g) == space.dim:
            break
    gg = kron(g, g)
    ggi = inverse(gg)
    return bs + [
        b_from_dense(b.object, b.coefficients, matmul(matmul(gg, dense_b(b)), ggi)) for b in bs
    ]


@settings(max_examples=25, deadline=None)
@given(braid_matrices())
def test_braid_check_matches_dense_reference(bs):
    for b in bs:
        assert yang_baxter_check(b) == dense_yang_baxter(b)


def _perturbed(b: BMatrix, row: int, col: int) -> BMatrix:
    data = [list(r) for r in dense_b(b).data]
    data[row][col] += 1
    return b_from_dense(b.object, b.coefficients, Matrix(data))


def test_braid_check_fails_on_perturbed_entry():
    rng = random.Random(61)
    obj = sudbery_with_constant(rng, space_of((0, 0, 1)), Fraction(5, 2))
    b = normalized_B(obj, Fraction(5, 2))
    assert yang_baxter_check(b) and dense_yang_baxter(b)
    bad = _perturbed(b, 1, 3)
    assert not dense_yang_baxter(bad)
    assert not yang_baxter_check(bad)


def test_braid_check_builds_no_dense_product():
    # no package module defines or calls a dense matrix product or inverse,
    # and Matrix has no arithmetic
    dense = {"__matmul__", "__rmatmul__", "inverse", "transpose"}
    for path in sorted(Path(qlincat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.MatMult), f"dense product at {where}"
            if isinstance(node, ast.FunctionDef):
                assert node.name not in dense, f"{node.name} defined at {where}"
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                assert name not in dense, f"{name} called at {where}"
    for name in ("__matmul__", "__add__", "scale", "apply", "transpose"):
        assert not hasattr(Matrix, name), name
    assert not hasattr(linalg, "inverse")
    good = normalized_B(even2_sudbery(2, 3), Fraction(2, 3))
    assert yang_baxter_check(good)
    assert not yang_baxter_check(_perturbed(good, 0, 1))


LINES = [(0,), (1,)]
SUPER_DIM4 = [(0, 0, 0, 1), (0, 0, 1, 1)]


def _two_parameter(rng, space, kind):
    if kind == "constant":
        return sudbery_with_constant(rng, space, rand_constant(rng))
    return (rand_sudbery if kind == "sudbery" else rand_normalized)(rng, space)


@st.composite
def verdict_cases(draw):
    """Two-component objects with candidate coefficients lam, never -1:
    two-parameter objects (random, single-constant and normalized) over
    ``MIXED_SHAPES`` and the dim-4 super shapes, and dense general objects
    over ``MIXED_SHAPES``; lam from c, 1/c, 0, 1, the object's ratios and
    random rationals, in random order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sudbery", "constant", "normalized", "general"]))
    if kind == "general":
        obj = rand_general(rng, space_of(draw(st.sampled_from(MIXED_SHAPES))))
    else:
        obj = _two_parameter(rng, space_of(draw(st.sampled_from(LINES + MIXED_SHAPES + SUPER_DIM4))), kind)
    lams = {Fraction(0), Fraction(1), rand_nonzero(rng), rand_nonzero(rng, -9, 9, 9)}
    if obj.qp is not None:
        (q, p), n = obj.qp, obj.space.dim
        lams |= {p[a][b] / q[a][b] for a in range(n) for b in range(n) if a != b}
        if (ext := pbw_extract_constant(obj)) is not None:
            lams |= {ext.constant, 1 / ext.constant}
    lams.discard(Fraction(-1))
    return obj, rng.sample(sorted(lams), len(lams))


def _assert_verdicts_match_braid_checks(obj, lams):
    expected = tuple(yang_baxter_check(normalized_B(obj, lam)) for lam in lams)
    assert braid_verdicts(obj, lams) == expected
    return expected


@settings(max_examples=40, deadline=None)
@given(verdict_cases())
def test_braid_verdicts_match_the_braid_check(case):
    _assert_verdicts_match_braid_checks(*case)


def test_braid_verdicts_pass_and_fail_on_fixed_cases():
    # a single-constant object passes at c and 1/c and fails elsewhere; a
    # dim-1 object passes everywhere; a nontransitive one fails everywhere
    rng = random.Random(59)
    constant = sudbery_with_constant(rng, space_of((0, 1, 1)), Fraction(5, 2))
    lams = [Fraction(5, 2), Fraction(0), Fraction(2, 5), Fraction(1), Fraction(7)]
    assert _assert_verdicts_match_braid_checks(constant, lams) == (True, False, True, False, False)
    line = rand_sudbery(rng, space_of((1,)))
    assert _assert_verdicts_match_braid_checks(line, lams) == (True,) * 5
    one, two, half = Fraction(1), Fraction(2), Fraction(1, 2)
    p = [[one, two, half], [half, one, two], [two, half, one]]
    cycle = make_sudbery(even_space(3), [[one] * 3] * 3, p)
    assert _assert_verdicts_match_braid_checks(cycle, [two, half, one]) == (False,) * 3


def test_verdict_property_fails_on_a_perturbed_projector(monkeypatch):
    # one entry of L P moved by 1, as ``_perturbed`` moves one entry of B
    obj = sudbery_with_constant(random.Random(61), space_of((0, 0, 1)), Fraction(5, 2))
    lams = [Fraction(5, 2), Fraction(2, 5)]
    assert _assert_verdicts_match_braid_checks(obj, lams) == (True, True)
    real = rmatrix.spectral_sum

    def perturbed(bases, values, dim):
        scale, cols = real(bases, values, dim)
        if list(values) != [1, 0]:
            return scale, cols
        cols = list(cols)
        cols[3] = {**cols[3], 1: cols[3].get(1, 0) + 1}
        return scale, tuple(cols)

    monkeypatch.setattr(rmatrix, "spectral_sum", perturbed)
    with pytest.raises(AssertionError):
        _assert_verdicts_match_braid_checks(obj, lams)


def test_braid_verdicts_refuse_what_normalized_B_refuses():
    # the same exception and message, the component count before any lam
    three = _three_components(random.Random(5), even_space(2))
    two = even2_sudbery(2, 3)
    cases = [
        (three, [Fraction(2)]), (three, [Fraction(-1)]),
        (two, [Fraction(-1)]), (two, [Fraction(2), Fraction(-1), Fraction(3)]),
    ]
    for obj, lams in cases:
        with pytest.raises((ValueError, RepeatedCoefficient)) as want:
            [normalized_B(obj, lam) for lam in lams]
        with pytest.raises((ValueError, RepeatedCoefficient)) as got:
            braid_verdicts(obj, lams)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _assert_hecke_claim(ext, x, y):
    """``pbw_extract_constant`` succeeds iff X is a multiple of Y (for X and
    Y read by ``hecke_pair``), and a constrained constant c then satisfies
    c + 1/c = 1/kappa - 2 for X = kappa Y."""
    k0 = next(iter(y), None)
    if k0 is None:
        multiple = not x
    else:
        multiple = all(y[k0] * x.get(k, 0) == x.get(k0, 0) * y.get(k, 0) for k in x.keys() | y.keys())
    assert multiple == (ext is not None)
    if ext is not None and not ext.unconstrained:
        c, kappa = ext.constant, Fraction(x.get(k0, 0), y[k0])
        assert c + 1 / c == 1 / kappa - 2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(LINES + MIXED_SHAPES + SUPER_DIM4),
    st.sampled_from(["sudbery", "constant", "normalized"]),
    st.integers(0, 2**32 - 1),
)
def test_extraction_succeeds_iff_x_is_a_multiple_of_y(shape, kind, seed):
    obj = _two_parameter(random.Random(seed), space_of(shape), kind)
    _assert_hecke_claim(pbw_extract_constant(obj), *hecke_pair(obj))


def test_hecke_property_fails_on_a_ratio_outside_the_constant():
    # one ratio p^{01}/q^{01} moved from {3, 1/3} to 7, its reciprocal kept
    # by p^{10}; the unmutated extraction read against the mutated X and Y
    space = even_space(3)
    obj = sudbery_with_constant(random.Random(67), space, Fraction(3))
    ext = pbw_extract_constant(obj)
    _assert_hecke_claim(ext, *hecke_pair(obj))
    q, p = obj.qp
    p = [list(row) for row in p]
    p[0][1] = 7 * q[0][1]
    p[1][0] = 1 / p[0][1]
    mutated = make_sudbery(space, q, p)
    assert pbw_extract_constant(mutated) is None
    with pytest.raises(AssertionError):
        _assert_hecke_claim(ext, *hecke_pair(mutated))


@st.composite
def spectral_objects(draw):
    """Objects whose B and projectors come from ``spectral_sum``: two-parameter
    objects over ``MIXED_SHAPES``, dense general objects, dense three-component
    objects and general objects with one empty component; with pairwise
    distinct coefficients, one per component."""
    space = space_of(draw(st.sampled_from(MIXED_SHAPES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sudbery", "general", "three", "empty"]))
    if kind == "sudbery":
        obj = rand_sudbery(rng, space)
    elif kind == "general":
        obj = rand_general(rng, space)
    elif kind == "three":
        obj = _three_components(rng, space)
    else:
        comps = [_full_rank_vectors(rng, space), []]
        rng.shuffle(comps)
        obj = make_general(space, comps)
    return obj, _distinct(rng, obj.s)


def _assert_spectral_sums_match_reference(obj, coeffs):
    dim = obj.space.dim**2
    b = build_B(obj, coeffs)
    assert dense_b(b) == b_matrix_reference(obj, coeffs)
    assert projectors(obj) == projectors_reference(obj.components, dim)
    # the scale is the lcm of the entries' denominators, and each column
    # holds the nonzero entries in ascending row order
    assert b_from_dense(obj, coeffs, dense_b(b)) == b
    assert all(list(col) == sorted(col) for col in b.columns)


@settings(max_examples=30, deadline=None)
@given(spectral_objects())
def test_spectral_sums_match_inverse_reference(case):
    _assert_spectral_sums_match_reference(*case)


def test_spectral_sum_property_fails_on_swapped_values(monkeypatch):
    # each value assigned to the next component instead of its own
    real = linalg.spectral_sum

    def rotated(bases, values, dim):
        return real(bases, list(values[1:]) + list(values[:1]), dim)

    monkeypatch.setattr(rmatrix, "spectral_sum", rotated)
    monkeypatch.setattr(linalg, "spectral_sum", rotated)
    obj = even2_sudbery(2, 3)
    with pytest.raises(AssertionError):
        assert dense_b(build_B(obj, [1, -5])) == b_matrix_reference(obj, [1, -5])
    with pytest.raises(AssertionError):
        assert projectors(obj) == projectors_reference(obj.components, 4)


def test_build_B_rejects_dependent_bases():
    e = [tuple(Fraction(i == j) for j in range(4)) for i in range(4)]
    obj = make_general(even_space(2), [e[:2], e[2:]])
    assert obj.bases == (({0: 1}, {1: 1}), ({2: 1}, {3: 1}))
    # the cached bases corrupted so that both components contain e_0
    obj.__dict__["bases"] = (({0: 1}, {1: 1}), ({0: 1}, {3: 1}))
    with pytest.raises(InvariantViolation):
        build_B(obj, [1, 2])


def _assert_span_matches_reference(src_shape, tgt_shape, matching, seed):
    rng = random.Random(seed)
    src = rand_sudbery(rng, space_of(src_shape))
    tgt = rand_sudbery(rng, space_of(tgt_shape))
    c_src = _distinct_pair(rng)
    c_tgt = c_src if matching else _distinct_pair(rng)
    b_src, b_tgt = build_B(src, c_src), build_B(tgt, c_tgt)
    # the same polynomials in the same order, not only the same span
    assert rmatrix_relation_span(b_src, b_tgt) == rmatrix_relation_span_reference(b_src, b_tgt)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_rmatrix_span_matches_coaction_table_reference(src_shape, tgt_shape, matching, seed):
    _assert_span_matches_reference(src_shape, tgt_shape, matching, seed)


def test_rmatrix_span_property_fails_without_coaction_sign(monkeypatch):
    # every coaction entry then carries sign +1, also where it should be -1
    monkeypatch.setattr(rmatrix, "koszul_sign", lambda p1, p2: 1)
    _assert_span_matches_reference((0, 0), (0, 0), True, 3)
    with pytest.raises(AssertionError):
        _assert_span_matches_reference((0, 1), (0, 1), True, 3)


def _lam(rng):
    # normalized_B(obj, -1) would repeat the coefficient 1
    lam = rand_nonzero(rng)
    return lam if lam != -1 else Fraction(2)


def _assert_span_matches_fraction_route(src_shape, tgt_shape, matching, seed):
    rng = random.Random(seed)
    src = rand_normalized(rng, space_of(src_shape))
    tgt = rand_normalized(rng, space_of(tgt_shape))
    lam = _lam(rng)
    b_src, b_tgt = normalized_B(src, lam), normalized_B(tgt, lam if matching else _lam(rng))
    # the same primitive integer rows in the same order
    assert rmatrix_relation_span(b_src, b_tgt) == rmatrix_relation_span_fractions(b_src, b_tgt)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_rmatrix_span_rows_match_the_fraction_route(src_shape, tgt_shape, matching, seed):
    _assert_span_matches_fraction_route(src_shape, tgt_shape, matching, seed)


def test_fraction_route_property_fails_without_primitive_rows(monkeypatch):
    # the integer entries carry the factor L_s L_t of the two cleared B
    # matrices until each row is divided by its gcd
    monkeypatch.setattr(rmatrix, "_normalised", lambda row: row)
    with pytest.raises(AssertionError):
        _assert_span_matches_fraction_route((0, 0), (0, 1), False, 3)



def _built_braid_cases():
    """Two-parameter, normalized, dense general and three-component objects
    over every mixed shape, each with a target of as many components and
    pairwise distinct Fraction coefficients, all built before any check:
    the normalized form (1, -c) when the object has a constant c != -1,
    so that some braid checks pass, else random coefficients."""
    rng = random.Random(43)
    cases = []
    for shape in MIXED_SHAPES:
        space = space_of(shape)
        for make in (rand_sudbery, rand_normalized, rand_general, _three_components):
            obj = make(rng, space)
            other = space_of(rng.choice(MIXED_SHAPES))
            tgt = rand_sudbery(rng, other) if obj.s == 2 else _three_components(rng, other)
            ext = pbw_extract_constant(obj) if obj.s == 2 else None
            if ext is not None and ext.constant != -1:
                coeffs = (Fraction(1), -ext.constant)
            else:
                coeffs = tuple(_distinct(rng, obj.s))
            cases.append((obj, tgt, coeffs))
    return cases


def _forbid_fractions(monkeypatch):
    forbid_new_fractions(monkeypatch, linalg, rmatrix)
    forbid_fraction_arithmetic(monkeypatch)


def test_B_path_makes_no_fraction(monkeypatch):
    # B is read from one integer echelon as a scale and integer columns, and
    # the braid check and the projector-form relations read those as they
    # are; the guarded results are then checked against the dense references
    cases = _built_braid_cases()
    _forbid_fractions(monkeypatch)
    results = []
    for src, tgt, coeffs in cases:
        b_src, b_tgt = build_B(src, coeffs), build_B(tgt, coeffs)
        results.append((yang_baxter_check(b_src), rmatrix_relation_span(b_src, b_tgt)))
    monkeypatch.undo()
    for (src, tgt, coeffs), (verdict, span) in zip(cases, results):
        b_src, b_tgt = build_B(src, coeffs), build_B(tgt, coeffs)
        assert verdict == dense_yang_baxter(b_src)
        assert span == rmatrix_relation_span_fractions(b_src, b_tgt)
    assert {verdict for verdict, _ in results} == {True, False}


def test_fraction_guard_fails_on_the_dense_B_path(monkeypatch):
    (obj, _, coeffs), *_ = _built_braid_cases()
    _forbid_fractions(monkeypatch)
    with pytest.raises(FractionArithmetic):
        b_matrix_reference(obj, coeffs)
    # a dense Matrix of integers is made of Fractions built in linalg, and
    # normalized_B builds its coefficient 1 in rmatrix
    with pytest.raises(FractionMade):
        Matrix([[1]])
    with pytest.raises(FractionMade):
        normalized_B(obj, coeffs[1])
