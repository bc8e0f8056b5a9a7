"""Quantum (super)space objects: a graded space with a complementary
decomposition of the tensor square of its dual.

An object carries s complementary subspaces of V' (x) V' (s = 2 being the
I (+) J case), each stored as spanning integer rows {column: int} over the
degree-2 word basis.  Named constructors cover the two-parameter
(Sudbery-type) family, its classical point (both matrices the Koszul
signs) and its one-parameter normalized form, built from the parameters'
numerators and denominators, and ``make_general``, which clears dense
rational vectors.  Parameter matrices are exact rationals, never
indeterminates.  An object's ``kind`` is read off its parameters.

A ``QuantumObject`` cannot exist without a complementary decomposition:
its constructor eliminates each component once, forward only, and reads
the component dimensions and the direct-sum condition from those echelons,
except for a two-parameter object, written down reduced (``_pair_rows``),
whose condition is ``validate_sudbery_params``'s q + p != 0 test.
Each echelon is back-substituted once, to the primitive integer rows
(``linalg._reduced_rows``) of ``QuantumObject.bases``, the one cache of
reduced rows: a basis is those rows, and ``QuantumObject.annihilators``
their kernel, signed by the Koszul pairing (``_annihilator``).
The braid projector (``rmatrix.braid_verdicts``), the hom relations and
the dual object read bases and annihilators and never change them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .graded import GradedSpace, koszul_signs
from .linalg import (
    InvariantViolation,
    NotComplementary,
    _echelon,
    _insert,
    _int_rows,
    _normalised,
    _reduced_rows,
    _same_span,
    frac,
)


class BadParameters(Exception):
    """Parameter matrices violate reciprocity or the diagonal constraint."""


ParamMatrix = tuple[tuple[Fraction, ...], ...]


def _as_param_matrix(m, n: int, label: str) -> ParamMatrix:
    # a tuple of Fraction tuples, as cli._rat_matrix builds it, is kept as it is
    if not (type(m) is tuple and all(type(r) is tuple and {*map(type, r)} <= {Fraction} for r in m)):
        m = tuple(tuple(map(frac, row)) for row in m)
    if len(m) != n or any(len(r) != n for r in m):
        raise BadParameters(f"{label} must be a {n}x{n} matrix")
    return m


@dataclass(frozen=True)
class QuantumObject:
    """A graded space plus a complementary decomposition of V' (x) V'.

    components[k] is a tuple of spanning integer rows {column: int} over
    the lexicographic degree-2 word basis, word (A, B) at column A*dim + B.
    For two-parameter kinds, qp = (Q, P) holds the defining matrices.
    Construction raises ValueError unless every column lies below dim**2,
    and NotComplementary unless the component spans form a direct-sum
    decomposition of V' (x) V'; ``_two_parameter`` builds an object without
    it.  Rows are dicts, so an object is unhashable.
    """

    space: GradedSpace
    components: tuple[tuple[dict[int, int], ...], ...]
    qp: tuple[ParamMatrix, ParamMatrix] | None = None
    normalized: tuple[ParamMatrix, int, Fraction] | None = None
    name: str = ""

    def __post_init__(self):
        dim = self.space.dim**2
        if any(min(row, default=0) < 0 or max(row, default=0) >= dim
               for comp in self.components for row in comp):
            raise ValueError(f"component vectors must have {dim} coordinates")
        total = sum(self.component_dims())
        if total != dim:
            raise NotComplementary(
                f"component dimensions sum to {total}, ambient dimension is {dim}"
            )
        # the largest echelon's rows are independent: only the others' rows are inserted
        joint = dict(big := max(self._echelons, key=len))
        if any(_insert(joint, dict(row)) is None
               for e in self._echelons if e is not big for row in e.values()):
            raise NotComplementary("joint spanning matrix is rank-deficient")

    @property
    def s(self) -> int:
        return len(self.components)

    @cached_property
    def _echelons(self) -> tuple[dict[int, dict[int, int]], ...]:
        """Each component's forward elimination, columns reflected as
        ``linalg._reduced_rows`` reads them."""
        last = self.space.dim**2 - 1
        return tuple(_echelon({last - c: x for c, x in row.items()} for row in comp)
                     for comp in self.components)

    @cached_property
    def kind(self) -> str:
        """Read off ``normalized`` and ``qp``: "classical" when both
        matrices are the Koszul signs."""
        if self.normalized is not None:
            return "normalized"
        if self.qp is None:
            return "general"
        signs = list(koszul_signs(self.space))
        if all([x for row in m for x in row] == signs for m in self.qp):
            return "classical"
        return "sudbery"

    @cached_property
    def bases(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """A row basis of each component: the rows of one ``_reduced_rows``
        of its echelon."""
        dim = self.space.dim**2
        return tuple(tuple(row for _, row in _reduced_rows(e, dim)) for e in self._echelons)

    @cached_property
    def annihilators(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """A basis of each component's Koszul annihilator, as integer rows."""
        signs = koszul_signs(self.space)
        return tuple(tuple(_annihilator(comp, rows, signs))
                     for comp, rows in zip(self.components, self.bases))

    def component_dims(self) -> tuple[int, ...]:
        # a closed-form object holds its bases, and no echelon, from the start
        return tuple(map(len, self.__dict__.get("bases") or self._echelons))


def _annihilator(spanning, rows, signs) -> list[dict[int, int]]:
    """A basis of {g : sum_u g[u] * signs[u] * f[u] = 0 for all spanning f},
    read from the span's basis ``rows`` (``QuantumObject.bases``), each
    keyed in ascending column order, so its first key is its pivot.

    The kernel of F diag(signs) is diag(signs) times the kernel of F.  For
    each free column fc, with L the lcm of the pivots of the rows with an
    entry at fc, the kernel vector v is L at fc and -row[fc] * L / row[pc]
    at each pivot column pc; the basis row is g[u] = signs[fc] * signs[u] *
    v[u], gcd-normalised, and checked by ``_check_pairing``.
    """
    pairs = [(next(iter(row)), row) for row in rows]
    pivots = {pc for pc, _ in pairs}
    basis = []
    for fc in range(len(signs)):
        if fc in pivots:
            continue
        hits = [(pc, row) for pc, row in pairs if fc in row]
        scale = lcm(*(row[pc] for pc, row in hits))
        # each pivot with an entry at fc lies left of it: g is in column order
        g = {pc: -signs[fc] * signs[pc] * row[fc] * (scale // row[pc]) for pc, row in hits}
        basis.append(_normalised({**g, fc: scale}))
    _check_pairing(spanning, basis, signs)
    return basis


def _check_pairing(spanning, basis, signs) -> None:
    """InvariantViolation unless every basis row pairs to zero with every spanning row."""
    # each spanning row's products with every g at once, by the columns where g is nonzero
    index: dict[int, list[tuple[int, int]]] = {}
    for k, g in enumerate(basis):
        for c, x in g.items():
            index.setdefault(c, []).append((k, signs[c] * x))
    for row in spanning:
        dots = [0] * len(basis)
        for c, x in row.items():
            for k, v in index.get(c, ()):
                dots[k] += x * v
        if any(dots):
            raise InvariantViolation("annihilator vector does not annihilate its component")


def validate_sudbery_params(space: GradedSpace, q: ParamMatrix, p: ParamMatrix):
    """Check reciprocity, parity diagonal and complementarity; return the (num, den) tables."""
    n = space.dim
    rq, rp = ([[x.as_integer_ratio() for x in row] for row in m] for m in (q, p))
    for label, m, r in (("q", q, rq), ("p", p, rp)):
        for a in range(n):
            expected = 1 - 2 * space.parities[a]
            if r[a][a] != (expected, 1):
                raise BadParameters(
                    f"{label}[{a}][{a}] = {m[a][a]}, must equal (-1)**parity = {expected}"
                )
            for b in range(n):
                x, y = r[a][b]
                if x == 0:
                    raise BadParameters(f"{label}[{a}][{b}] must be nonzero")
                if b <= a:
                    continue  # x u = y v is symmetric in (a, b): once per pair
                u, v = r[b][a]
                if x * u != y * v:
                    raise BadParameters(
                        f"reciprocity violated: {label}[{a}][{b}]*{label}[{b}][{a}] != 1"
                    )
    for a in range(n):
        for b in range(n):
            (x, y), (u, v) = rq[a][b], rp[a][b]
            if x * v + u * y == 0:
                raise NotComplementary(
                    f"q[{a}][{b}] + p[{a}][{b}] == 0: the two components do not span"
                )
    return rq, rp


def _pair_rows(n: int, r, sign: int):
    """(spanning rows, basis, kernel basis) of q's component (sign -1) or
    p's (sign 1) from its (num, den) table, one row per pair a <= b (by
    reciprocity).  The row den e_ab + sign num e_ba is reduced as it is,
    and -sign num e_ab + den e_ba spans its kernel: ab and ba have one
    Koszul sign.  A diagonal row 2 e_aa reduces to e_aa; with none, e_aa is
    a kernel row.  Kernel rows are sorted as by ``_annihilator``."""
    spans, anns = [], []
    for a in range(n):
        for b in range(a, n):
            num, den = r[a][b]
            if a != b:
                spans.append({a * n + b: den, b * n + a: sign * num})
                anns.append({a * n + b: -sign * num, b * n + a: den})
            elif den + sign * num:
                spans.append({a * n + a: den + sign * num})
            else:
                anns.append({a * n + a: 1})
    anns.sort(key=max)
    bases = (row if len(row) == 2 else dict.fromkeys(row, 1) for row in spans)
    return tuple(spans), tuple(bases), tuple(anns)


def _two_parameter(space: GradedSpace, q, p, normalized, name: str) -> QuantumObject:
    """The object of q and p, built reduced; validation proves the direct sum."""
    n = space.dim
    qp = _as_param_matrix(q, n, "q"), _as_param_matrix(p, n, "p")
    rq, rp = validate_sudbery_params(space, *qp)
    comps, bases, anns = zip(_pair_rows(n, rq, -1), _pair_rows(n, rp, 1))
    signs = koszul_signs(space)
    for rows, kernel in zip(bases, anns):
        _check_pairing(rows, kernel, signs)
    obj = object.__new__(QuantumObject)
    obj.__dict__.update(space=space, components=comps, qp=qp, normalized=normalized,
                        name=name, bases=bases, annihilators=anns)
    return obj


def make_classical(space: GradedSpace, name: str = "") -> QuantumObject:
    """The undeformed object, both matrices the Koszul signs: skew-symmetric
    and symmetric tensors."""
    n, signs = space.dim, koszul_signs(space)
    qc = [signs[a * n:a * n + n] for a in range(n)]
    return make_sudbery(space, qc, qc, name)


def make_sudbery(space: GradedSpace, q, p, name: str = "") -> QuantumObject:
    """Two-parameter object: first component spanned by e^A e^B - q^{AB} e^B e^A,
    second by e^A e^B + p^{AB} e^B e^A."""
    return _two_parameter(space, q, p, None, name)


def make_normalized(space: GradedSpace, q, eps: int, lam, name: str = "") -> QuantumObject:
    """One-parameter normalized object.

    The branch flag eps in {+1, -1} resolves the paired signs in the defining
    relations: the coordinate relations use q^{AB} lam**(eps*sign(A-B)) while
    the parity-reversed coordinates use q^{AB} lam**(-eps*sign(A-B)).  The
    induced two-parameter matrices are therefore

        qhat^{AB} = q^{AB} * lam**(eps*sign(A-B)),
        phat^{AB} = q^{AB} * lam**(-eps*sign(A-B)),

    and the quantum constant extracted from the ratios is lam**(2*eps).
    For a 2-dimensional even space with eps = -1, two objects with upper
    parameters u = q[1][0] and w = q[1][0] reproduce the six cross relations
    of the one-parameter matrix family with parameters (u, w, lam).
    """
    lam = frac(lam)
    if lam == 0:
        raise BadParameters("lam must be nonzero")
    if eps not in (1, -1):
        raise BadParameters("eps must be +1 or -1")
    n = space.dim
    qm = _as_param_matrix(q, n, "q")
    # (qhat, phat): q[a][b] * lam**(t * eps * sign(a - b)) for t = 1, then t = -1
    qp = tuple(tuple(tuple(qm[a][b] * lam ** (t * eps * ((a > b) - (a < b))) for b in range(n))
                     for a in range(n)) for t in (1, -1))
    return _two_parameter(space, *qp, (qm, eps, lam), name)


def make_general(space: GradedSpace, components, name: str = "") -> QuantumObject:
    """Object with user-supplied component spanning vectors (any s >= 2),
    each dense over the degree-2 words and cleared to an integer row."""
    comps = [[tuple(map(frac, v)) for v in comp] for comp in components]
    if len(comps) < 2:
        raise ValueError("need at least two components")
    dim = space.dim**2
    if any(len(v) != dim for comp in comps for v in comp):
        raise ValueError(f"component vectors must have {dim} coordinates")
    rows = tuple(tuple(_int_rows(comp)) for comp in comps)
    return QuantumObject(space, rows, None, None, name)


def dual_object(obj: QuantumObject) -> QuantumObject:
    """The dual object: components are the annihilators, swapped.

    For a two-parameter object the dual is again two-parameter with
    q_dual^{AB} = 1/p^{AB} and p_dual^{AB} = 1/q^{AB}.
    """
    if obj.s != 2:
        raise ValueError("dual_object requires a two-component object")
    n = obj.space.dim
    ann_i, ann_j = obj.annihilators
    qp = None
    if obj.qp is not None:
        q, p = obj.qp
        qd = tuple(tuple(1 / p[a][b] for b in range(n)) for a in range(n))
        pd = tuple(tuple(1 / q[a][b] for b in range(n)) for a in range(n))
        qp = (qd, pd)
    return QuantumObject(obj.space, (ann_j, ann_i), qp, None,
                         f"dual({obj.name})" if obj.name else "")


def objects_equal(a: QuantumObject, b: QuantumObject) -> bool:
    """Same space and the same component subspaces (as spans)."""
    if a.space != b.space or a.s != b.s:
        return False
    return all(_same_span(ea, eb) for ea, eb in zip(a._echelons, b._echelons))
