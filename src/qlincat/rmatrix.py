"""Projector combinations on the tensor square, the braid-relation check,
and the relation span they induce on matrix entries.

B = sum_k lambda_k P_k acts as lambda_k on the k-th component of
V' (x) V'.  ``build_B`` reads it from the object's cached component bases
in one elimination (``linalg.spectral_sum``), as a scale L and the sparse
integer columns of L B; it forms no projector, no dense sum and no
``Fraction`` entry.

The braid check never forms a matrix on the tensor cube: it applies L B to
the first and to the last two factors of each cube basis word through
those columns, and compares the two triple products one column at a time.
``braid_verdicts`` decides the normalized form P_1 - lam P_2 for many lam
at once, from one projector and one Hecke scalar (Gurevich 1991).

The relations in projector form are the entries of
B_source . coaction - coaction . B_target.  Each entry is summed on
integers directly from the columns of B_target and the rows of B_source
(one transpose of its columns), each coaction entry being one signed
monomial; no table of coaction polynomials is built, and the Koszul sign
of the coaction is the only sign involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .graded import koszul_sign
from .homs import RelationSet, _positive
from .linalg import _normalised, frac, spectral_sum
from .rewrite import matrix_alphabet
from .spaces import QuantumObject


class RepeatedCoefficient(Exception):
    """Projector coefficients must be pairwise distinct."""


@dataclass(frozen=True)
class BMatrix:
    """sum_k lambda_k P_k for an object's decomposition; the lambda_k are
    pairwise distinct, so the eigenspaces recover the components.

    The matrix is held as ``scale`` * B on integers: columns[c] maps each
    row r to the nonzero entry scale * B[r][c], rows in ascending order.
    """

    object: QuantumObject
    coefficients: tuple[Fraction, ...]
    scale: int
    columns: tuple[dict[int, int], ...]


def _check_distinct(coeffs: tuple[Fraction, ...]) -> None:
    if len(set(coeffs)) != len(coeffs):
        raise RepeatedCoefficient(
            f"coefficients {', '.join(map(str, coeffs))} are not pairwise distinct"
        )


def build_B(obj: QuantumObject, coefficients) -> BMatrix:
    coeffs = tuple(frac(c) for c in coefficients)
    if len(coeffs) != obj.s:
        raise ValueError(f"need {obj.s} coefficients, got {len(coeffs)}")
    _check_distinct(coeffs)
    return BMatrix(obj, coeffs, *spectral_sum(obj.bases, coeffs, obj.space.dim**2))


def normalized_B(obj: QuantumObject, lam) -> BMatrix:
    """The normalized form P_1 - lam P_2 (two-component objects)."""
    if obj.s != 2:
        raise ValueError("normalized form needs a two-component object")
    return build_B(obj, (Fraction(1), -frac(lam)))


def _on_factors(cols: tuple[dict[int, int], ...], n: int):
    """The maps v -> (M (x) 1) v and v -> (1 (x) M) v on sparse vectors over
    the n**3 words of the tensor cube, for the integer columns of a matrix M
    on the tensor square."""
    nn = n * n

    def on12(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            pair, last = divmod(idx, n)
            for r, y in cols[pair].items():
                key = r * n + last
                out[key] = out.get(key, 0) + x * y
        return out

    def on23(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            first, pair = divmod(idx, nn)
            for r, y in cols[pair].items():
                key = first * nn + r
                out[key] = out.get(key, 0) + x * y
        return out

    return on12, on23


def yang_baxter_check(b: BMatrix) -> bool:
    """Exact equality B12 B23 B12 = B23 B12 B23 on the tensor cube.

    B12 acts on the first two factors of V (x) V (x) V and B23 on the last
    two.  Both sides are compared column by column over the n**3 basis
    words, on the integer columns of L B (each side is L**3 times its value
    for B, so the verdict is unchanged).
    """
    n = b.object.space.dim
    b12, b23 = _on_factors(b.columns, n)
    for word in range(n**3):
        e = {word: 1}
        diff = b12(b23(b12(e)))
        for k, x in b23(b12(b23(e))).items():
            diff[k] = diff.get(k, 0) - x
        if any(diff.values()):
            return False
    return True


def braid_verdicts(obj: QuantumObject, lams) -> tuple[bool, ...]:
    """``yang_baxter_check(normalized_B(obj, lam))`` for each lam in lams,
    with the same refusals, from one projector and no braid product per lam.

    With P = P_1, B = P_1 - lam P_2 = (1 + lam) P - lam, and P**2 = P gives
    B12 B23 B12 - B23 B12 B23 = (1 + lam) [(1 + lam)**2 X - lam Y], with
    X = P12 P23 P12 - P23 P12 P23 and Y = P12 - P23 (the Hecke condition).
    lam = -1 repeats a coefficient and is refused, so lam passes iff
    (1 + lam)**2 X = lam Y.  L P is read from one ``spectral_sum``, and each
    cube word's columns of L**3 X and of L Y = L P12 - L P23 are compared
    on integers: the first nonzero entry of L Y fixes kappa = (kx, ky) with
    ky L**3 X = kx L Y (before it, X must vanish where Y does), and a column
    where the two sides differ fails every lam.  Then X = kappa Y with
    kappa = kx / (ky L**2), and lam = num / den passes iff
    kx (den + num)**2 = ky L**2 num den; if X = Y = 0, every lam passes.
    """
    if obj.s != 2:
        raise ValueError("normalized form needs a two-component object")
    ratios = []
    for lam in map(frac, lams):
        _check_distinct((Fraction(1), -lam))
        ratios.append(lam.as_integer_ratio())
    n = obj.space.dim
    scale, cols = spectral_sum(obj.bases, (1, 0), n * n)
    p12, p23 = _on_factors(cols, n)
    kappa = None
    for word in range(n**3):
        e = {word: 1}
        y, z = p12(e), p23(e)
        x = p12(p23(y))
        for k, v in p23(p12(z)).items():
            x[k] = x.get(k, 0) - v
        for k, v in z.items():
            y[k] = y.get(k, 0) - v
        if kappa is None:
            kappa = next(((x.get(k, 0), v) for k, v in y.items() if v), None)
        kx, ky = kappa or (0, 1)
        # x becomes ky x - kx y (off the support of y, ky x vanishes iff x does)
        for k, v in y.items():
            x[k] = ky * x.get(k, 0) - kx * v
        if any(x.values()):
            return (False,) * len(ratios)
    if kappa is None:
        return (True,) * len(ratios)
    kx, ky = kappa[0], kappa[1] * scale * scale
    return tuple(kx * (den + num) ** 2 == ky * num * den for num, den in ratios)


def rmatrix_relation_span(b_src: BMatrix, b_tgt: BMatrix) -> RelationSet:
    """Span of the entries of B_source . coaction - coaction . B_target.

    The degree-2 coaction has entry (-1)**(par(D)*(par(C)+par(K))) t_C^K t_D^L
    at row word (C, D) and column word (K, L); each entry of the difference
    is summed directly from the nonzero entries of the two B matrices.
    With shared pairwise-distinct coefficients (matching component roles)
    this equals the defining relation span of the matrix-entry algebra; with
    mismatched coefficients it generally differs.  Both B are read on
    integers, as L_s B_source and L_t B_target, so each entry is summed
    times L_s L_t and stored as a primitive row.
    """
    src, tgt = b_src.object, b_tgt.object
    n, m = src.space.dim, tgt.space.dim
    pv, pw = src.space.parities, tgt.space.parities
    alphabet = matrix_alphabet(src.space, tgt.space)
    nm = alphabet.size
    # sign[i][k]: the coaction sign at row word i = (C, D) and target index k
    sign = [
        [koszul_sign(pv[d], pv[c] + pw[k]) for k in range(m)]
        for c, d in product(range(n), repeat=2)
    ]
    ls, lt, b_cols = b_src.scale, b_tgt.scale, b_tgt.columns
    a_rows: list[list[tuple[int, int]]] = [[] for _ in range(n * n)]
    for col, entries in enumerate(b_src.columns):
        for r, x in entries.items():
            a_rows[r].append((col, x))
    rows = []
    for i in range(n * n):
        c, d = divmod(i, n)
        for j in range(m * m):
            k, l = divmod(j, m)
            row: dict[int, int] = {}
            for r, x in a_rows[i]:
                w = (r // n * m + k) * nm + r % n * m + l
                row[w] = row.get(w, 0) + lt * sign[r][k] * x
            for r, x in b_cols[j].items():
                kk, ll = divmod(r, m)
                w = (c * m + kk) * nm + d * m + ll
                row[w] = row.get(w, 0) - ls * sign[i][kk] * x
            if (row := _positive(row)) is not None:
                rows.append(_normalised(row))
    return RelationSet(alphabet, tuple(rows))
