"""Z2-graded index bookkeeping: parities, Koszul signs, the degree-2 pairing.

All sign conventions used across the package are fixed here, once:

* transposing graded symbols y, u costs (-1)**(parity(y)*parity(u)), so the
  product in a tensor product of algebras is
  (x (x) y)(u (x) v) = (-1)**(parity(y)*parity(u)) (xu (x) yv);
* the pairing of degree-2 words of the dual bases is
  <e_A e_B, e^C e^D> = (-1)**(par(B)*par(C)) delta_A^C delta_B^D;
* the parity-reversing isomorphism on the tensor square sends
  e^A (x) e^B to (-1)**par(A) (Pi e^A) (x) (Pi e^B); ``pi_image`` applies
  it to an integer row {column: coefficient} over the degree-2 words.

Basis enumeration is lexicographic in index tuples so matrix layouts are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class DegreeMismatch(Exception):
    """Words do not have the degree required by the operation."""


@dataclass(frozen=True)
class GradedSpace:
    """A finite-dimensional Z2-graded space: a parity bit per basis index."""

    parities: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def even_count(self) -> int:
        return self.parities.count(0)

    @property
    def odd_count(self) -> int:
        return self.parities.count(1)


def even_space(n: int) -> GradedSpace:
    return GradedSpace((0,) * n)


def space_of(parities) -> GradedSpace:
    return GradedSpace(tuple(int(p) for p in parities))


def koszul_sign(p1: int, p2: int) -> int:
    """Sign produced by transposing symbols of parities p1 and p2."""
    return -1 if (p1 * p2) % 2 else 1


def koszul_pairing(
    space: GradedSpace, lower: tuple[int, int], upper: tuple[int, int]
) -> Fraction:
    """Pairing of degree-2 words: <e_A e_B, e^C e^D>."""
    if len(lower) != 2 or len(upper) != 2:
        raise DegreeMismatch("koszul_pairing is defined on degree-2 words")
    a, b = lower
    c, d = upper
    if a != c or b != d:
        return Fraction(0)
    return Fraction(koszul_sign(space.parities[b], space.parities[c]))


def koszul_signs(space: GradedSpace) -> tuple[int, ...]:
    """Diagonal of the degree-2 pairing's Gram matrix: the sign
    (-1)**(par(A)*par(B)) at word (A, B), lexicographic in (A, B)."""
    par = space.parities
    return tuple(koszul_sign(par[a], par[b]) for a, b in product(range(space.dim), repeat=2))


def pi_image(space: GradedSpace, row: dict[int, int]) -> dict[int, int]:
    """Apply the parity-reversion isomorphism to a tensor-square row
    {column: coefficient}, word (A, B) at column A*dim + B.

    The coefficient at word (A, B) is multiplied by (-1)**par(A); the map
    is its own inverse.
    """
    n, par = space.dim, space.parities
    return {c: -x if par[c // n] else x for c, x in row.items()}
