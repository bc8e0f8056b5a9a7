"""Seeded known-answer inputs for the benchmark, standard library only.

Every pair of objects is described by plain data: a parity shape and two
reciprocal parameter matrices (q, p) of exact rationals.  A YES pair shares
one quantum constant c, each object realising it under its own random basis
order, so the PBW criterion holds.  A NO pair has independent random p and
q on both sides; it is kept only when the union of its off-diagonal ratios
p^{AB}/q^{AB} does not fit inside {c, 1/c} for any single c, which rules
the criterion out without asking the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

Params = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class ObjectSpec:
    """Inputs of one two-parameter object."""

    parities: tuple[int, ...]
    q: Params
    p: Params

    @property
    def dim(self) -> int:
        return len(self.parities)


@dataclass(frozen=True)
class PairSpec:
    """Source and target object with the known PBW verdict."""

    src: ObjectSpec
    tgt: ObjectSpec
    pbw: bool


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        num = rng.randint(-5, 5)
        if num:
            return Fraction(num, rng.randint(1, 4))


def _constant(rng: random.Random) -> Fraction:
    while True:
        c = _nonzero(rng)
        if c not in (1, -1):
            return c


def _reciprocal(rng: random.Random, parities) -> list[list[Fraction]]:
    n = len(parities)
    m = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        m[a][a] = Fraction((-1) ** parities[a])
        for b in range(a + 1, n):
            r = _nonzero(rng)
            m[a][b] = r
            m[b][a] = 1 / r
    return m


def _complementary(q, p) -> bool:
    n = len(q)
    return all(q[a][b] + p[a][b] != 0 for a in range(n) for b in range(n))


def _freeze(m) -> Params:
    return tuple(tuple(row) for row in m)


def object_with_constant(rng: random.Random, parities, c: Fraction) -> ObjectSpec:
    """Object whose ratios are c**sign(pos(B) - pos(A)) for a random order."""
    n = len(parities)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pos = [0] * n
        for rank, a in enumerate(order):
            pos[a] = rank
        q = _reciprocal(rng, parities)
        p = [row[:] for row in q]
        for a in range(n):
            for b in range(n):
                if a != b:
                    p[a][b] = q[a][b] * c ** ((pos[b] > pos[a]) - (pos[b] < pos[a]))
        if _complementary(q, p):
            return ObjectSpec(tuple(parities), _freeze(q), _freeze(p))


def independent_object(rng: random.Random, parities) -> ObjectSpec:
    while True:
        q = _reciprocal(rng, parities)
        p = _reciprocal(rng, parities)
        if _complementary(q, p):
            return ObjectSpec(tuple(parities), _freeze(q), _freeze(p))


def ratios(obj: ObjectSpec) -> set[Fraction]:
    n = obj.dim
    return {obj.p[a][b] / obj.q[a][b] for a in range(n) for b in range(n) if a != b}


def one_constant(objs) -> bool:
    """Do all off-diagonal ratios of the objects lie in one {c, 1/c}?"""
    values = set().union(*(ratios(o) for o in objs))
    if not values:
        return True
    c = next(iter(values))
    return values <= {c, 1 / c}


def yes_pair(rng: random.Random, src_parities, tgt_parities) -> PairSpec:
    c = _constant(rng)
    src = object_with_constant(rng, src_parities, c)
    tgt = object_with_constant(rng, tgt_parities, c if rng.random() < 0.5 else 1 / c)
    return PairSpec(src, tgt, True)


def no_pair(rng: random.Random, src_parities, tgt_parities) -> PairSpec:
    while True:
        src = independent_object(rng, src_parities)
        tgt = independent_object(rng, tgt_parities)
        if not one_constant((src, tgt)):
            return PairSpec(src, tgt, False)


def pair(rng: random.Random, src_parities, tgt_parities, pbw: bool) -> PairSpec:
    make = yes_pair if pbw else no_pair
    return make(rng, src_parities, tgt_parities)


def chain(rng: random.Random, parities, length: int, bad_link: int) -> list[ObjectSpec]:
    """Objects on one space; every link shares a constant except bad_link.

    Objects before and after the bad link realise two constants c and d
    with d outside {c, 1/c}, so exactly that link has a NO verdict.
    """
    c = _constant(rng)
    while True:
        d = _constant(rng)
        if d not in (c, 1 / c):
            break
    return [
        object_with_constant(rng, parities, c if i <= bad_link else d)
        for i in range(length)
    ]


def classical_dimension(parities, degree: int) -> int:
    """Degree-d dimension of the free supercommutative algebra whose
    generators have these parities (odd generators square to zero)."""
    even = sum(1 for x in parities if x % 2 == 0)
    odd = len(parities) - even
    total = 0
    for j in range(min(odd, degree) + 1):
        e = degree - j
        even_part = 1 if e == 0 else (comb(even + e - 1, e) if even else 0)
        total += comb(odd, j) * even_part
    return total


def letter_parities(src: ObjectSpec, tgt: ObjectSpec) -> tuple[int, ...]:
    """Parities of the matrix entries t_A^K, row-major."""
    return tuple((a + k) % 2 for a in src.parities for k in tgt.parities)


def object_json(obj: ObjectSpec, name: str) -> dict:
    """The object as a quantum-object/1 document."""
    return {
        "format": "quantum-object/1",
        "name": name,
        "dim": obj.dim,
        "parities": list(obj.parities),
        "kind": "sudbery",
        "params": {
            "q": [[str(x) for x in row] for row in obj.q],
            "p": [[str(x) for x in row] for row in obj.p],
        },
    }
