"""Projector combinations on the tensor square, the braid-relation check,
and the relation span they induce on matrix entries.

The braid check never forms a matrix on the tensor cube: it applies B to
the first and to the last two factors of each cube basis word through the
sparse integer columns of B, and compares the two triple products one
column at a time.

The degree-2 coaction is represented as a matrix over the word bases whose
entries are quadratic noncommutative polynomials; sandwiching it between the
two projector combinations and subtracting reads off scalar relations
without any hand-transcribed index signs (the Koszul factor lives in the
coaction entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .homs import RelationSet, relation_set
from .linalg import Matrix, _cleared, frac
from .rewrite import NCPoly, matrix_alphabet
from .spaces import QuantumObject


class RepeatedCoefficient(Exception):
    """Projector coefficients must be pairwise distinct."""


@dataclass(frozen=True)
class BMatrix:
    """sum_k lambda_k P_k for an object's decomposition; the lambda_k are
    pairwise distinct, so the eigenspaces recover the components."""

    object: QuantumObject
    coefficients: tuple[Fraction, ...]
    matrix: Matrix


def build_B(obj: QuantumObject, coefficients) -> BMatrix:
    coeffs = tuple(frac(c) for c in coefficients)
    if len(coeffs) != obj.s:
        raise ValueError(f"need {obj.s} coefficients, got {len(coeffs)}")
    if len(set(coeffs)) != len(coeffs):
        raise RepeatedCoefficient(f"coefficients {coeffs} are not pairwise distinct")
    projs = obj.projectors()
    dim = obj.space.dim**2
    total = Matrix.zeros(dim, dim)
    for lam, p in zip(coeffs, projs):
        total = total + p.scale(lam)
    return BMatrix(obj, coeffs, total)


def normalized_B(obj: QuantumObject, lam) -> BMatrix:
    """The normalized form P_1 - lam P_2 (two-component objects)."""
    if obj.s != 2:
        raise ValueError("normalized form needs a two-component object")
    return build_B(obj, (Fraction(1), -frac(lam)))


def yang_baxter_check(b: BMatrix) -> bool:
    """Exact equality B12 B23 B12 = B23 B12 B23 on the tensor cube.

    B12 acts on the first two factors of V (x) V (x) V and B23 on the last
    two.  Both sides are compared column by column over the n**3 basis
    words, using the nonzero columns of B scaled to integers by one common
    denominator (both sides scale alike, so the verdict is unchanged).
    """
    n = b.object.space.dim
    nn = n * n
    scaled = _cleared(
        {(r, c): x for r, row in enumerate(b.matrix.data) for c, x in enumerate(row) if x}
    )
    cols: list[dict[int, int]] = [{} for _ in range(nn)]
    for (r, c), x in scaled.items():
        cols[c][r] = x

    def b12(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            pair, last = divmod(idx, n)
            for r, y in cols[pair].items():
                key = r * n + last
                out[key] = out.get(key, 0) + x * y
        return out

    def b23(v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for idx, x in v.items():
            first, pair = divmod(idx, nn)
            for r, y in cols[pair].items():
                key = first * nn + r
                out[key] = out.get(key, 0) + x * y
        return out

    for word in range(n * nn):
        e = {word: 1}
        diff = b12(b23(b12(e)))
        for k, x in b23(b12(b23(e))).items():
            diff[k] = diff.get(k, 0) - x
        if any(diff.values()):
            return False
    return True


def coaction_degree2(src: QuantumObject, tgt: QuantumObject):
    """Matrix of the degree-2 covering coaction over the word bases.

    Entry at (row word (C, D), column word (K, L)) is
    (-1)**(par(D)*(par(C)+par(K))) t_C^K t_D^L.
    """
    n, m = src.space.dim, tgt.space.dim
    alphabet = matrix_alphabet(src.space, tgt.space)
    pv, pw = src.space.parities, tgt.space.parities
    table = [[None] * (m * m) for _ in range(n * n)]
    for c, d in product(range(n), repeat=2):
        for k, l in product(range(m), repeat=2):
            sign = -1 if (pv[d] * (pv[c] + pw[k])) % 2 else 1
            table[c * n + d][k * m + l] = NCPoly.monomial(
                alphabet, (c * m + k, d * m + l), sign
            )
    return alphabet, table


def rmatrix_relation_span(b_src: BMatrix, b_tgt: BMatrix) -> RelationSet:
    """Span of the entries of B_source . coaction - coaction . B_target.

    With shared pairwise-distinct coefficients (matching component roles)
    this equals the defining relation span of the matrix-entry algebra; with
    mismatched coefficients it generally differs.
    """
    src, tgt = b_src.object, b_tgt.object
    n, m = src.space.dim, tgt.space.dim
    alphabet, delta = coaction_degree2(src, tgt)
    ba, bb = b_src.matrix, b_tgt.matrix
    polys = []
    for i in range(n * n):
        for j in range(m * m):
            acc = NCPoly.zero(alphabet)
            for k in range(n * n):
                if ba.data[i][k]:
                    acc = acc + delta[k][j].scale(ba.data[i][k])
            for k in range(m * m):
                if bb.data[k][j]:
                    acc = acc - delta[i][k].scale(bb.data[k][j])
            if not acc.is_zero:
                polys.append(acc.monic())
    return relation_set(alphabet, polys)
