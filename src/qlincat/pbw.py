"""The graded-dimension oracle and the quantum-constant criterion.

The oracle is ground truth: the exact degree-d quotient dimension, built
degree by degree from I_d = I_{d-1} V + V I_{d-1} (Polishchuk and
Positselski, 2005) in quotient coordinates, where each word reduces by its
prefix's normal form (Bergman, 1978; Ufnarovski, 1995).  The criterion side never looks at the ideal: it extracts one
constant c from the ratios p^{AB}/q^{AB} of each object (values {c, 1/c}
in a transitive comparison pattern) and asks whether the two constants
agree up to inverse.  Tests confirm the two sides always agree at degree 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .homs import HomAlgebra, hom_algebra
from .linalg import _back_substituted, _cancel, _insert
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


def oracle_dims(hom: HomAlgebra, top: int) -> tuple[tuple[int, int, int], ...]:
    """(degree, exact dimension, classical dimension) for every degree from
    2 to top; raises ValueError for top < 2, which asks for no degree.

    One pass over the degrees in quotient coordinates, never building the
    echelon of the ideal's degree-d part I_d.  A degree-d word is the
    integer w = p * n + y of its degree-(d-1) prefix p and last letter y,
    and word order is integer order.  So I_{d-1} V splits by last letter
    into n copies of I_{d-1}: w is reducible modulo I_{d-1} V iff p is
    reducible modulo I_{d-1}, and then w equals p's normal form followed
    by y.  Modulo I_{d-1} V the normal words are the n * dim_{d-1} words
    with a normal prefix.

    M_k holds the rows that are new at degree k, so I_k = I_{k-1} V +
    span M_k (M_2 is the relation span).  Then V I_{d-1} = V I_{d-2} V +
    V M_{d-1}, and V I_{d-2} lies in I_{d-1}, so V I_{d-1} lies in
    I_{d-1} V + V M_{d-1}.  Each row x r, r in M_{d-1}, is therefore
    reduced modulo I_{d-1} V, one substitution per word with a reducible
    prefix, and inserted into a fresh echelon M_d:
    dim_d = n * dim_{d-1} - |M_d|.

    ``relation(k, w)`` is None when w is normal at degree k, else the row of
    I_k with pivot w whose other words are normal at degree k.  It is
    memoised: the relation of w's prefix shifted by y, cancelled once per
    pivot column of the back-substituted M_k.  M_2 is the span's cached
    ``RelationSet.back_substituted``; the top degree's M_d is only counted.
    """
    if top < 2:
        raise ValueError("oracle needs degree >= 2")
    n = hom.alphabet.size
    # bound the degree before computing a power; only one letter needs it
    if top >= ORACLE_WORD_LIMIT.bit_length() or n**top > ORACLE_WORD_LIMIT:
        what = f"{n}**{top} words exceed" if n > 1 else f"degree {top} exceeds"
        raise TooLarge(f"{what} the oracle guard")
    new = {2: hom.relations.back_substituted}
    known: dict[int, dict[int, dict[int, int] | None]] = {k: {} for k in range(2, top)}

    def relation(k: int, w: int) -> dict[int, int] | None:
        memo = known[k]
        if w in memo:
            return memo[w]
        row = new[k].get(w)
        if row is None and k > 2:
            p, y = divmod(w, n)
            prefix = relation(k - 1, p)
            if prefix is not None:
                row = {c * n + y: v for c, v in prefix.items()}
                for c in [c for c in row if c in new[k]]:
                    row = _cancel(row, new[k][c], c)
        memo[w] = row
        return row

    dims = [n * n - len(new[2])]
    for d in range(3, top + 1):
        shift = n ** (d - 1)
        pivots: dict[int, dict[int, int]] = {}
        for x in range(n):
            for r in new[d - 1].values():
                row = {x * shift + c: v for c, v in r.items()}
                for c in list(row):
                    p, y = divmod(c, n)
                    prefix = relation(d - 1, p)
                    if prefix is not None:
                        row = _cancel(row, {b * n + y: v for b, v in prefix.items()}, c)
                _insert(pivots, row)
        dims.append(n * dims[-1] - len(pivots))
        if d < top:
            new[d] = _back_substituted(pivots)
    return tuple(
        (d, dim, classical_dimension(hom.alphabet.parities, d))
        for d, dim in enumerate(dims, start=2)
    )


def dimension_oracle(hom: HomAlgebra, degree: int) -> int:
    """Exact dimension of the degree-d part of the quotient algebra."""
    return oracle_dims(hom, degree)[-1][1]


@dataclass(frozen=True)
class Extraction:
    """A constant and basis ordering realizing p^{AB} = q^{AB} c^{sign}.

    positions[A] is the rank of the original index A in the realizing order.
    unconstrained marks spaces (dim <= 1) whose constant is arbitrary.
    """

    constant: Fraction
    positions: tuple[int, ...]
    unconstrained: bool = False


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
    if n <= 1:
        return Extraction(Fraction(1), tuple(range(n)), unconstrained=True)
    ratios = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                ratios[(a, b)] = p[a][b] / q[a][b]
    c = next((r for r in ratios.values() if r != 1), Fraction(1))
    if c == 1:
        if any(r != 1 for r in ratios.values()):
            return None
        return Extraction(Fraction(1), tuple(range(n)))
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
