"""Shared builders for randomized, always-admissible test instances."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd

from qlincat import (
    Extraction,
    GradedSpace,
    NotComplementary,
    make_general,
    make_sudbery,
    space_of,
)
from qlincat.linalg import _echelon
from qlincat.rewrite import relation_rows

MIXED_SHAPES = [(0, 0), (0, 1), (1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1)]


def rand_nonzero(rng: random.Random, lo: int = -5, hi: int = 5, den: int = 4) -> Fraction:
    while True:
        n = rng.randint(lo, hi)
        if n:
            return Fraction(n, rng.randint(1, den))


def rand_space(rng: random.Random, shapes=MIXED_SHAPES) -> GradedSpace:
    return space_of(rng.choice(shapes))


def rand_reciprocal(rng: random.Random, space: GradedSpace):
    """A reciprocal parameter matrix with the parity diagonal."""
    n = space.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        m[a][a] = Fraction((-1) ** space.parities[a])
        for b in range(a + 1, n):
            r = rand_nonzero(rng)
            m[a][b] = r
            m[b][a] = 1 / r
    return tuple(tuple(row) for row in m)


def rand_sudbery(rng: random.Random, space: GradedSpace, name: str = ""):
    """Admissible two-parameter object with independent random p and q."""
    while True:
        q = rand_reciprocal(rng, space)
        p = rand_reciprocal(rng, space)
        try:
            return make_sudbery(space, q, p, name)
        except NotComplementary:
            continue


def rand_general(rng: random.Random, space: GradedSpace, name: str = ""):
    """Two-component object whose components are spanned by dense random
    vectors, so its relations are not homogeneous in any index grading."""
    n2 = space.dim**2
    while True:
        vecs = [tuple(rand_nonzero(rng) for _ in range(n2)) for _ in range(n2)]
        k = rng.randint(1, n2 - 1)
        try:
            return make_general(space, [vecs[:k], vecs[k:]], name)
        except NotComplementary:
            continue


def rand_constant(rng: random.Random) -> Fraction:
    """A random quantum constant, never 0 or -1."""
    while True:
        c = rand_nonzero(rng)
        if c not in (-1, 1):
            return c


def sudbery_with_constant(
    rng: random.Random,
    space: GradedSpace,
    constant: Fraction,
    name: str = "",
):
    """Object whose ratios realize the given constant under a random basis order."""
    n = space.dim
    order = list(range(n))
    rng.shuffle(order)
    positions = [0] * n
    for rank_, a in enumerate(order):
        positions[a] = rank_
    q = rand_reciprocal(rng, space)
    p = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        p[a][a] = Fraction((-1) ** space.parities[a])
        for b in range(n):
            if a != b:
                s = (positions[b] > positions[a]) - (positions[b] < positions[a])
                p[a][b] = q[a][b] * constant**s
    return make_sudbery(space, q, tuple(tuple(r) for r in p), name)


def even2_sudbery(p21, q21, name: str = ""):
    """Purely even dim-2 object from the two upper parameters p^{21}, q^{21}."""
    p21, q21 = Fraction(p21), Fraction(q21)
    one = Fraction(1)
    q = ((one, 1 / q21), (q21, one))
    p = ((one, 1 / p21), (p21, one))
    return make_sudbery(space_of((0, 0)), q, p, name)


def ordering_by_enumeration(obj) -> Extraction | None:
    """Brute-force reference for ``pbw_extract_constant`` (small dims only):
    try every candidate constant against every basis ordering."""
    if obj.qp is None:
        return None
    q, p = obj.qp
    n = obj.space.dim
    if n <= 1:
        return Extraction(Fraction(1), tuple(range(n)), unconstrained=True)
    candidates = {p[a][b] / q[a][b] for a in range(n) for b in range(n) if a != b}
    candidates |= {1 / c for c in candidates}
    for c in sorted(candidates):
        if c == 0:
            continue
        for positions in permutations(range(n)):
            ok = True
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    s = (positions[b] > positions[a]) - (positions[b] < positions[a])
                    if p[a][b] != q[a][b] * c**s:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return Extraction(c, tuple(positions))
    return None


def rank_bareiss(m) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers.

    Independent of the package's elimination engine (dense, leftmost-column
    pivots, exact division by the previous pivot), so tests compare ranks
    against it.
    """
    rows = []
    for row in m.data:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append([int(x * den) for x in row])
    nr, nc = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], rows[r])]
        prev = piv
        r += 1
    return r


def placement_oracle(hom, degree: int) -> int:
    """Reference for ``dimension_oracle``: the word count minus the rank of
    every placement u r v of a relation r between words u and v whose
    lengths sum to degree - 2.

    It shares the package's elimination engine but none of the oracle's
    degree recursion, so tests compare the two dimensions.
    """
    n = hom.alphabet.size
    rel_rows = [list(row.items()) for row in relation_rows(hom.relations)]
    rows: list[dict[int, int]] = []
    for i in range(degree - 1):
        tail = degree - 2 - i
        for u in product(range(n), repeat=i):
            upre = 0
            for g in u:
                upre = upre * n + g
            upre *= n ** (tail + 2)
            for v in product(range(n), repeat=tail):
                vidx = 0
                for g in v:
                    vidx = vidx * n + g
                for rel in rel_rows:
                    rows.append({upre + col * n**tail + vidx: c for col, c in rel})
    return n**degree - len(_echelon(rows))
