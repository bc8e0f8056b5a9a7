"""The graded-dimension oracle and the quantum-constant criterion.

The oracle is ground truth: the exact degree-d quotient dimension, read from
the span's quotient tower (``homs.RelationSet.tower``), which builds I_d =
I_{d-1} V + N_{d-2} R once per span in quotient coordinates (Bergman, 1978;
Polishchuk and Positselski, 2005; Ufnarovski, 1995), N_{d-2} being the
normal words of degree d-2 and R the relation span; a row u r whose suffix
row vanished a degree lower is skipped (Faugere, 2002).  The criterion side
never looks at the ideal: it extracts one constant c from the ratios
p^{AB}/q^{AB} of each object (values {c, 1/c} in a transitive comparison
pattern) and asks whether the two constants agree up to inverse.  Tests
confirm the two sides always agree at degree 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .homs import HomAlgebra, hom_algebra
from .spaces import QuantumObject

ORACLE_WORD_LIMIT = 10**6


class TooLarge(Exception):
    """The requested degree would enumerate too many words."""


def classical_dimension(parities, degree: int) -> int:
    """Degree-d dimension of the free supercommutative algebra on the
    given generators (odd ones square to zero)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    pair = tuple(int(p) % 2 for p in parities)
    m = pair.count(0)
    k = pair.count(1)
    total = 0
    for j in range(min(k, degree) + 1):
        e = degree - j
        even_part = 1 if e == 0 else (comb(m + e - 1, e) if m > 0 else 0)
        total += comb(k, j) * even_part
    return total


def _tower_dims(hom: HomAlgebra, top: int) -> list[int]:
    if top < 2:
        raise ValueError("oracle needs degree >= 2")
    n = hom.alphabet.size
    # bound the degree before computing a power; only one letter needs it
    if top >= ORACLE_WORD_LIMIT.bit_length() or n**top > ORACLE_WORD_LIMIT:
        what = f"{n}**{top} words exceed" if n > 1 else f"degree {top} exceeds"
        raise TooLarge(f"{what} the oracle guard")
    return hom.relations.tower.dims(top)


def oracle_dims(hom: HomAlgebra, top: int) -> tuple[tuple[int, int, int], ...]:
    """(degree, exact dimension, classical dimension) for every degree from
    2 to top; raises ValueError for top < 2, which asks for no degree.

    The word guard runs first; then the dimensions are read from the
    relation span's quotient tower (``RelationSet.tower``), which is built
    once per span and extended only by the degrees it does not hold yet.
    """
    return tuple(
        (d, dim, classical_dimension(hom.alphabet.parities, d))
        for d, dim in enumerate(_tower_dims(hom, top), start=2)
    )


def dimension_oracle(hom: HomAlgebra, degree: int) -> int:
    """Exact dimension of the degree-d part of the quotient algebra, behind
    the same guard as ``oracle_dims`` and with no classical count."""
    return _tower_dims(hom, degree)[-1]


@dataclass(frozen=True)
class Extraction:
    """A constant and basis ordering realizing p^{AB} = q^{AB} c^{sign}.

    positions[A] is the rank of the original index A in the realizing order.
    """

    constant: Fraction
    positions: tuple[int, ...]

    @property
    def unconstrained(self) -> bool:
        """A space of dim <= 1, whose constant is arbitrary."""
        return len(self.positions) <= 1


def pbw_extract_constant(obj: QuantumObject) -> Extraction | None:
    """Extract (c, ordering) from a two-parameter object, or None.

    Succeeds iff every off-diagonal ratio p^{AB}/q^{AB} lies in {c, 1/c} for
    a single c and the two-valued pattern is a transitive tournament, i.e.
    realizable as sign(position(B) - position(A)).
    """
    if obj.qp is None:
        return None
    q, p = obj.qp
    n = obj.space.dim
    ratios = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                ratios[(a, b)] = p[a][b] / q[a][b]
    c = next((r for r in ratios.values() if r != 1), Fraction(1))
    cinv = 1 / c
    # tournament: A points at B when the (A, B) ratio equals c
    wins = [0] * n
    for (a, b), r in ratios.items():
        if r == c:
            wins[a] += 1
    order = sorted(range(n), key=lambda a: (-wins[a], a))
    positions = [0] * n
    for rank_, a in enumerate(order):
        positions[a] = rank_
    for (a, b), r in ratios.items():
        want = c if positions[b] > positions[a] else cinv
        if r != want:
            return None
    return Extraction(c, tuple(positions))


@dataclass(frozen=True)
class PBWVerdict:
    criterion_holds: bool
    constant_source: Fraction | None
    constant_target: Fraction | None
    ordering_source: tuple[int, ...] | None
    ordering_target: tuple[int, ...] | None
    oracle_dims: tuple[tuple[int, int, int], ...] = ()


def _compatible(ea: Extraction, eb: Extraction) -> bool:
    if ea.unconstrained or eb.unconstrained:
        return True
    return ea.constant in (eb.constant, 1 / eb.constant)


def pbw_criterion(
    src: QuantumObject,
    tgt: QuantumObject,
    oracle_degree: int | None = 3,
) -> PBWVerdict:
    """Classical-dimension criterion: both constants extract and agree up to
    inverse.  The verdict optionally carries exact quotient dimensions
    against the classical counts up to oracle_degree (at least 2) for
    cross-checking; see ``oracle_dims``."""
    ea = pbw_extract_constant(src)
    eb = pbw_extract_constant(tgt)
    holds = ea is not None and eb is not None and _compatible(ea, eb)
    dims = () if oracle_degree is None else oracle_dims(hom_algebra(src, tgt), oracle_degree)
    return PBWVerdict(
        criterion_holds=holds,
        constant_source=ea.constant if ea else None,
        constant_target=eb.constant if eb else None,
        ordering_source=ea.positions if ea else None,
        ordering_target=eb.positions if eb else None,
        oracle_dims=dims,
    )
