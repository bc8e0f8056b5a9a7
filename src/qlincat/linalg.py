"""Exact linear algebra over the rationals, on one sparse elimination engine.

Every scalar is a ``fractions.Fraction``; there is no floating point
anywhere in this package.  Every elimination runs through ``_insert``: rows
are ``{column: int}`` dicts with denominators cleared per row and no zero
entry, and the pivot of a row is its largest column.  ``_insert`` consumes
its row: the row is cancelled in place, by the multipliers b/g and a/g of
the two entries a and b at a pivot and their gcd g, until it is stored or
empty, and only the rows that are stored are gcd-normalised, in place.  A
caller whose rows must survive inserts copies: ``_echelon`` drops zero
entries from a copy of each input row, and ``_same_span`` and an object's
joint rank check copy the stored rows they insert.  Object components,
bases, annihilators and relation spans are all stored as such rows;
``_int_rows`` clears dense rational input to them once, where
``spaces.make_general`` reads it.  The forward pass alone gives the rank.
``_back_substituted`` reduces it on integers; ``_reduced_rows`` reads those
rows in natural column order, primitive and positive at their pivots, for
spectral sums and for ``spaces.QuantumObject.bases``, the one cache of each
component's reduced rows, which its annihilator reads too; no ``Fraction``
is made from an echelon.  ``spectral_sum`` returns the braid projector
as one scale and sparse integer columns, which ``rmatrix`` reads as they
are.
``homs.RelationSet.back_substituted`` reads ``_back_substituted`` once per
relation span, for its degree-2 rules and its quotient tower, which reads
it for each degree's new rows.  The largest-column pivot is the leading
word of the monomial order; callers that work in natural column order
(component bases, annihilators and spectral sums) reflect column c to
ncols-1-c so that the leftmost column is pivoted first.  The yes/no checks
form no dense product: ``_same_span`` inserts one span's echelon rows into
a copy of the other's.  There is no linear solver and no kernel routine
here: quotient coordinates are read from the integer back-substitution
(``homs._rules``).  ``Matrix``, an immutable dense value type with no
arithmetic, is left only as the type of ``RelationSet.matrix``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)


class NotComplementary(Exception):
    """The given subspaces do not form a direct-sum decomposition."""


class InvariantViolation(Exception):
    """An exact result contradicts itself; it would be wrong to return it."""


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Immutable dense matrix of Fractions; a value type with no arithmetic."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: Iterable[Iterable]):
        self.data: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(frac(x) for x in row) for row in data
        )
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls([(ZERO,) * cols] * rows)
        m.cols = cols
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return False
        return (self.cols, self.data) == (other.cols, other.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def _cleared(terms: dict) -> dict:
    """The nonzero entries of a rational row, scaled to integers by the
    least common multiple of their denominators, each distinct denominator
    taken once."""
    dens = {c.denominator for c in terms.values()}
    den = lcm(*dens)
    factor = {d: den // d for d in dens}
    return {k: c.numerator * factor[c.denominator] for k, c in terms.items() if c}


def _int_rows(vectors: Iterable[Sequence]) -> list[dict[int, int]]:
    """Dense rational rows as sparse integer rows."""
    return [_cleared({c: x for c, x in enumerate(v) if x}) for v in vectors]


def _normalised(row: dict[int, int]) -> dict[int, int]:
    """The row divided in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _cancel(row: dict[int, int], piv: dict[int, int], col: int) -> None:
    """Make row zero at col in place: with a = row[col], b = piv[col] and
    g = gcd(a, b), row becomes (b/g) row - (a/g) piv, a positive multiple
    of b row - a piv.  The result is not normalised."""
    a, b = row.pop(col), piv[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        for c in row:
            row[c] *= b
    for c, v in piv.items():
        if c == col:
            continue
        nv = row.get(c, 0) - a * v
        if nv:
            row[c] = nv
        elif c in row:
            del row[c]


def _insert(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> dict[int, int] | None:
    """Reduce a sparse integer row with no zero entry against echelon rows
    keyed by their pivot, the largest column; cancelling a pivot adds only
    smaller columns.  Store and return the row, gcd-normalised, if it is new
    to their span, else return None.  The row is consumed: it is reduced in
    place, so a caller whose row must survive passes a copy."""
    while row:
        lead = max(row)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = row = _normalised(row)
            return row
        _cancel(row, piv, lead)
    return None


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward fraction-free elimination: the echelon rows keyed by pivot
    column, so the rank is their number.  Nothing is back-substituted, and
    no row is changed."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(pivots, {c: v for c, v in row.items() if v})
    return pivots


def _back_substituted(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Integer back-substitution of an ``_echelon`` result: each row keeps
    only its own pivot among the pivot columns, gcd-normalised.  Rows are
    reduced in ascending pivot order, so each row is cancelled only against
    rows that are already reduced."""
    done: dict[int, dict[int, int]] = {}
    for lead in sorted(echelon):
        row = echelon[lead]
        hits = [c for c in row if c != lead and c in done]
        if hits:
            row = dict(row)
            for c in hits:
                _cancel(row, done[c], c)
            row = _normalised(row)
        done[lead] = row
    return done


def _reduced_rows(echelon: dict[int, dict[int, int]], ncols: int) -> list[tuple[int, dict]]:
    """The ``_back_substituted`` rows of an ``_echelon`` result over
    reflected columns, in natural column order: (pivot column, row) pairs
    with ascending pivots, each row primitive, positive at its pivot and
    keyed in ascending column order."""
    last = ncols - 1
    out = []
    for lead, row in sorted(_back_substituted(echelon).items(), reverse=True):
        s = 1 if row[lead] > 0 else -1
        out.append((last - lead, {last - c: s * row[c] for c in sorted(row, reverse=True)}))
    return out


def _same_span(ea: dict[int, dict[int, int]], eb: dict[int, dict[int, int]]) -> bool:
    """Do two ``_echelon`` results span the same rows?  Equal ranks, and no
    row of eb is new to a copy of ea; neither argument is changed."""
    if len(ea) != len(eb):
        return False
    pivots = dict(ea)
    return all(_insert(pivots, dict(row)) is None for row in eb.values())


def spectral_sum(bases: Sequence[Sequence[dict[int, int]]], values: Sequence,
                 dim: int) -> tuple[int, tuple[dict[int, int], ...]]:
    """The matrix M with M v = values[k] * v for every integer row v in bases[k],
    as (L, columns): a positive integer L and the nonzero entries of each
    column of L * M, keyed by row in ascending order.

    One elimination of the rows (den v, num v), values[k] = num / den, an
    int or a ``Fraction`` read as it is: when the bases together form a
    basis of the dim-dimensional space, they reduce to the primitive rows
    (p_i e_i, p_i M e_i), so L is the lcm of the pivots p_i and column i
    is the second half of row i times L / p_i.
    Raises InvariantViolation otherwise.
    """
    last, rows = 2 * dim - 1, []
    for b, lam in zip(bases, values):
        num, den = lam.as_integer_ratio()
        rows += ({last - shift - c: k * x for shift, k in ((0, den), (dim, num))
                  for c, x in v.items()} for v in b)
    pairs = _reduced_rows(_echelon(rows), 2 * dim)
    if len(rows) != dim or [pc for pc, _ in pairs] != list(range(dim)):
        raise InvariantViolation(f"the bases do not form a basis of a {dim}-dimensional space")
    scale = lcm(*(row[pc] for pc, row in pairs))
    return scale, tuple({c - dim: x * (scale // row[pc]) for c, x in row.items() if c >= dim}
                        for pc, row in pairs)
