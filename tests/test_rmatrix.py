import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qlincat
from qlincat import linalg, rmatrix
from qlincat.graded import even_space, space_of
from qlincat.homs import derive_relations_general, spans_equal
from qlincat.linalg import InvariantViolation, Matrix
from qlincat.pbw import pbw_extract_constant
from qlincat.rmatrix import RepeatedCoefficient, braid_verdicts
from qlincat.spaces import make_classical, make_general, make_normalized, make_sudbery

from support import (
    MIXED_SHAPES,
    FractionArithmetic,
    FractionMade,
    b_matrix_reference,
    dense,
    dense_b,
    dense_spectral_sum,
    dense_yang_baxter,
    even2_sudbery,
    forbid_fraction_arithmetic,
    forbid_new_fractions,
    hecke_pair,
    identity,
    mat_add,
    mat_apply,
    mat_scale,
    matmul,
    projector_form_span,
    projectors,
    projectors_reference,
    rand_constant,
    rand_general,
    rand_nonzero,
    rand_normalized,
    rand_sudbery,
    rank,
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
        swap = dense_b(cl, [-1, 1])  # -1 on the skew part, +1 on the symmetric part
        assert swap == super_swap(sp)
        assert matmul(swap, swap) == identity(sp.dim**2)
        assert dense_yang_baxter(cl, swap)
        # coefficients (1, -1), the normalized form at lam = 1, give the
        # opposite signed permutation, also square one
        neg = dense_b(cl, [1, -1])
        assert neg == mat_scale(super_swap(sp), -1)
        assert matmul(neg, neg) == identity(sp.dim**2)
        assert dense_yang_baxter(cl, neg)
        assert braid_verdicts(cl, [1]) == (True,)


def test_build_B_eigenstructure():
    obj = even2_sudbery(2, 3)
    b = dense_b(obj, [1, -5])
    # components are eigenspaces: (B - lam) v = 0
    for lam, comp in zip((Fraction(1), Fraction(-5)), obj.components):
        for v in comp:
            assert mat_apply(b, dense(v, 4)) == tuple(lam * x for x in dense(v, 4))


def test_eigenspaces_recover_decomposition():
    from support import kernel_basis

    obj = even2_sudbery(2, 3)
    coeffs = [Fraction(4), Fraction(-7, 2)]
    b = dense_b(obj, coeffs)
    for lam, comp in zip(coeffs, obj.components):
        shifted = mat_add(b, mat_scale(identity(4), -lam))
        assert row_spans_equal(kernel_basis(shifted), [dense(v, 4) for v in comp])


def test_build_B_three_components():
    f = Fraction
    comps = [
        [(f(0), f(1), f(-1), f(0))],
        [(f(1), f(0), f(0), f(0)), (f(0), f(0), f(0), f(1))],
        [(f(0), f(1), f(1), f(0))],
    ]
    obj = make_general(even_space(2), comps)
    b = dense_b(obj, [0, 1, 2])
    projs = projectors(obj)
    total = Matrix.zeros(4, 4)
    for lam, p in zip((0, 1, 2), projs):
        total = mat_add(total, mat_scale(p, lam))
    assert b == total
    # eigenprojection recovers each component
    for lam, comp in zip((f(0), f(1), f(2)), comps):
        for v in comp:
            assert mat_apply(b, v) == tuple(lam * x for x in v)


def test_build_B_repeated_coefficient():
    # a repeated coefficient merges the eigenspaces (2 P_1 + 2 P_2 is 2,
    # whatever the components), so the braid check refuses lam = -1
    obj = even2_sudbery(2, 3)
    assert dense_b(obj, [2, 2]) == mat_scale(identity(4), 2)
    with pytest.raises(RepeatedCoefficient):
        braid_verdicts(obj, [-1])


def test_yb_dim2_both_branches_any_admissible():
    rng = random.Random(7)
    for _ in range(8):
        obj = rand_sudbery(rng, space_of(rng.choice([(0, 0), (0, 1), (1, 1)])))
        c = pbw_extract_constant(obj).constant
        assert all(braid_verdicts(obj, [c, 1 / c]))


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
    assert not any(braid_verdicts(obj, [Fraction(2), Fraction(1, 2)]))


def test_yb_dim3_transitive_passes():
    rng = random.Random(19)
    obj = sudbery_with_constant(rng, space_of((0, 0, 1)), Fraction(5, 2))
    c = pbw_extract_constant(obj).constant
    assert braid_verdicts(obj, [c, 1 / c]) == (True, True)


def test_yb_dichotomy_probe_scan():
    rng = random.Random(23)
    obj = sudbery_with_constant(rng, even_space(3), Fraction(3))
    c = pbw_extract_constant(obj).constant
    good = {c, 1 / c}
    probes = {Fraction(1), Fraction(2), Fraction(5), Fraction(-3), Fraction(7, 2), c * c}
    lams = sorted(good | probes)
    assert braid_verdicts(obj, lams) == tuple(lam in good for lam in lams)


def test_rmatrix_span_equals_relations_shared_coefficients():
    rng = random.Random(29)
    for _ in range(6):
        parities = rng.choice([(0, 0), (0, 1), (0, 0, 1)])
        src = rand_sudbery(rng, space_of(parities))
        tgt = rand_sudbery(rng, space_of(parities))
        span = projector_form_span(src, tgt, [1, -1], [1, -1])
        assert spans_equal(span, derive_relations_general(src, tgt))


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
    span = projector_form_span(src, tgt, coeffs, coeffs)
    assert spans_equal(span, derive_relations_general(src, tgt))


def test_rmatrix_span_classical():
    cl = make_classical(space_of((0, 1)))
    span = projector_form_span(cl, cl, [3, -2], [3, -2])
    assert spans_equal(span, derive_relations_general(cl, cl))


def test_rmatrix_span_mismatched_normalized_differs():
    sp = even_space(2)
    q = [[1, 1], [1, 1]]
    a = make_normalized(sp, q, +1, 5)
    b = make_normalized(sp, q, +1, 5)
    rels = derive_relations_general(a, b)
    assert spans_equal(projector_form_span(a, b, [1, -5], [1, -5]), rels)
    for lam_b in (Fraction(7), Fraction(2), Fraction(1, 7)):
        span = projector_form_span(a, b, [1, -5], [1, -lam_b])
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
    assert not all(braid_verdicts(obj, [Fraction(3), Fraction(1, 3)]))


def _distinct(rng, count):
    coeffs = []
    while len(coeffs) < count:
        c = rand_nonzero(rng)
        if c not in coeffs:
            coeffs.append(c)
    return coeffs


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


def _perturbed(m: Matrix, row: int, col: int) -> Matrix:
    data = [list(r) for r in m.data]
    data[row][col] += 1
    return Matrix(data)


def test_braid_check_fails_on_perturbed_entry():
    # the dense reference fails once one entry of a passing B moves by 1
    rng = random.Random(61)
    obj = sudbery_with_constant(rng, space_of((0, 0, 1)), Fraction(5, 2))
    b = dense_b(obj, [1, Fraction(-5, 2)])
    assert braid_verdicts(obj, [Fraction(5, 2)]) == (True,) and dense_yang_baxter(obj, b)
    assert not dense_yang_baxter(obj, _perturbed(b, 1, 3))


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
    assert braid_verdicts(even2_sudbery(2, 3), [Fraction(2, 3), Fraction(2)]) == (True, False)


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


def _dense_verdicts(obj, lams):
    """``dense_yang_baxter`` of P_1 - lam P_2 for each lam, the projectors
    built once per object by ``projectors_reference``."""
    p1, p2 = projectors_reference(obj.components, obj.space.dim**2)
    return tuple(dense_yang_baxter(obj, mat_add(p1, mat_scale(p2, -lam))) for lam in lams)


def _assert_verdicts_match_braid_checks(obj, lams):
    expected = _dense_verdicts(obj, lams)
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
    # one entry of L P moved by 1, as ``_perturbed`` moves one entry of B;
    # the dense reference reads its projectors from its own inverse
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
    # the component count before any lam, then the first lam = -1, which
    # repeats the coefficient 1 of the normalized form P_1 - lam P_2
    three = _three_components(random.Random(5), even_space(2))
    two = even2_sudbery(2, 3)
    count = (ValueError, "normalized form needs a two-component object")
    repeat = (RepeatedCoefficient, "coefficients 1, 1 are not pairwise distinct")
    cases = [
        (three, [Fraction(2)], count), (three, [Fraction(-1)], count),
        (two, [Fraction(-1)], repeat), (two, [Fraction(2), Fraction(-1), Fraction(3)], repeat),
    ]
    for obj, lams, want in cases:
        with pytest.raises(Exception) as got:
            braid_verdicts(obj, lams)
        assert (type(got.value), str(got.value)) == want


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
    scale, columns = linalg.spectral_sum(obj.bases, coeffs, dim)
    b = dense_spectral_sum(scale, columns)
    assert b == b_matrix_reference(obj, coeffs)
    assert projectors(obj) == projectors_reference(obj.components, dim)
    # the scale is the lcm of the entries' denominators, and each column
    # holds the nonzero entries in ascending row order
    assert scale == lcm(*(x.denominator for row in b.data for x in row))
    assert all(all(col.values()) and list(col) == sorted(col) for col in columns)


@settings(max_examples=30, deadline=None)
@given(spectral_objects())
def test_spectral_sums_match_inverse_reference(case):
    _assert_spectral_sums_match_reference(*case)


def test_spectral_sum_property_fails_on_swapped_values(monkeypatch):
    # each value assigned to the next component instead of its own
    real = linalg.spectral_sum

    def rotated(bases, values, dim):
        return real(bases, list(values[1:]) + list(values[:1]), dim)

    monkeypatch.setattr(linalg, "spectral_sum", rotated)
    obj = even2_sudbery(2, 3)
    with pytest.raises(AssertionError):
        _assert_spectral_sums_match_reference(obj, [1, -5])
    with pytest.raises(AssertionError):
        assert projectors(obj) == projectors_reference(obj.components, 4)


def test_build_B_rejects_dependent_bases():
    e = [tuple(Fraction(i == j) for j in range(4)) for i in range(4)]
    obj = make_general(even_space(2), [e[:2], e[2:]])
    assert obj.bases == (({0: 1}, {1: 1}), ({2: 1}, {3: 1}))
    # the cached bases corrupted so that both components contain e_0
    obj.__dict__["bases"] = (({0: 1}, {1: 1}), ({0: 1}, {3: 1}))
    with pytest.raises(InvariantViolation):
        braid_verdicts(obj, [Fraction(2)])


def _built_braid_cases():
    """Two-parameter, normalized and dense general objects over every mixed
    shape, each with its candidate coefficients lam, all built before any
    check: a random rational and, when the object has a constant c, c and
    1/c, so that some braid checks pass (never -1)."""
    rng = random.Random(43)
    cases = []
    for shape in MIXED_SHAPES:
        for make in (rand_sudbery, rand_normalized, rand_general):
            obj = make(rng, space_of(shape))
            lams = {rand_nonzero(rng)}
            if (ext := pbw_extract_constant(obj)) is not None:
                lams |= {ext.constant, 1 / ext.constant}
            lams.discard(Fraction(-1))
            cases.append((obj, sorted(lams)))
    return cases


def _forbid_fractions(monkeypatch):
    forbid_new_fractions(monkeypatch, linalg)
    forbid_fraction_arithmetic(monkeypatch)


def test_B_path_makes_no_fraction(monkeypatch):
    # the projector is read from one integer echelon as a scale and integer
    # columns, and the verdicts from those as they are; the guarded results
    # are then checked against the dense reference
    cases = _built_braid_cases()
    _forbid_fractions(monkeypatch)
    results = [braid_verdicts(obj, lams) for obj, lams in cases]
    monkeypatch.undo()
    for (obj, lams), verdicts in zip(cases, results):
        assert verdicts == _dense_verdicts(obj, lams)
    assert {v for verdicts in results for v in verdicts} == {True, False}


def test_fraction_guard_fails_on_the_dense_B_path(monkeypatch):
    (obj, lams), *_ = _built_braid_cases()
    coeffs = (1, -lams[0])
    _forbid_fractions(monkeypatch)
    with pytest.raises(FractionArithmetic):
        b_matrix_reference(obj, coeffs)
    # a dense Matrix of integers is made of Fractions built in linalg, and
    # so is the Fraction of an integer lam
    with pytest.raises(FractionMade):
        Matrix([[1]])
    with pytest.raises(FractionMade):
        braid_verdicts(obj, [2])
