"""Quadratic relations of the algebra of matrix entries between two
quantum space objects.

Two independent derivations are provided.  The general one runs over every
component: each pair (g, f) with g in a basis of the annihilator of a
source component (``QuantumObject.annihilators``) and f in a basis of the
matching target component (``QuantumObject.bases``), both integer rows
read as they are, contributes the relation

    sum (-1)**(par(B)*par(K)) g^{AB} f_{KL} t_A^K t_B^L = 0.

For two-parameter objects the closed single-relation formula (one relation
per index quadruple, with ratio coefficients) is implemented separately and
must produce the same span, which tests enforce.

A relation span is stored once, as integer rows, eliminated once and
back-substituted once: every reader takes its ``RelationSet.echelon``, its
``back_substituted`` rows, its ``rules``, the degree-2 quotient read off
those rows as integer rewrite rules, or its ``coords``, the one quotient
coordinate table read off the rules, and none of them mutates any of the
four.  Both derivations build the rows on integers, from the objects'
integer rows or clearing each parameter matrix once; ``RelationSet.polys``
is a view for printing.  ``_rules`` is the one routine that reads rewrite
rules off back-substituted rows: the rewrite system and the coalgebra
checks (through ``coords``) read its degree-2 output, and the quotient
tower each degree's, every word b keyed b n by ``_rules`` itself.
``RelationSet.tower`` is the graded quotient by the span, kept and
extended one degree at a time; the dimension oracle reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

from .graded import koszul_sign
from .linalg import (
    InvariantViolation, Matrix, _back_substituted, _cleared, _echelon, _insert, _normalised, _same_span,
)
from .rewrite import Alphabet, IntRule, NCPoly, matrix_alphabet
from .spaces import BadParameters, QuantumObject


class ComponentCountMismatch(Exception):
    """Source and target have different numbers of components."""


class AlphabetMismatch(Exception):
    """Relation sets over different generator alphabets."""


@dataclass(frozen=True)
class RelationSet:
    """A span of quadratic relations, stored as integer rows: word (g, h)
    is column g * n + h, and each row is positive at its largest column,
    the leading word of its relation.  ``rules``, ``coords`` and ``tower``
    serve the rewrite system, the coalgebra checks and the oracle."""

    alphabet: Alphabet
    rows: tuple[dict[int, int], ...]

    @cached_property
    def polys(self) -> tuple[NCPoly, ...]:
        """Each row as a monic polynomial: a view for printing and tests;
        nothing in the package computes with it."""
        n = self.alphabet.size
        return tuple(
            NCPoly(self.alphabet, {divmod(c, n): Fraction(v, lead) for c, v in row.items()})
            for row in self.rows
            for lead in (row[max(row)],)
        )

    @cached_property
    def echelon(self) -> dict[int, dict[int, int]]:
        """The engine's echelon of the rows, so the pivot of an echelon row
        is the leading word of its relation."""
        return _echelon(self.rows)

    @cached_property
    def back_substituted(self) -> dict[int, dict[int, int]]:
        """The echelon's one integer back-substitution: the degree-2
        rules read it and the dimension oracle starts from it."""
        return _back_substituted(self.echelon)

    @cached_property
    def rules(self) -> dict[int, IntRule]:
        """The degree-2 part of the quotient algebra by this span, as one
        integer rule per leading word (``_rules``); the words that are not
        keys are the normal words, a basis of that part."""
        return _rules(self.back_substituted)

    @cached_property
    def coords(self) -> list[tuple[tuple[int, int], ...]]:
        """The quotient coordinates of the degree-2 word codes, as (normal
        word, coordinate) pairs, all scaled by L, the least common multiple
        of the rules' P: a leading word w maps to the pairs (u, r_u L / P_w),
        a normal word w to the one pair (w, L)."""
        scale = lcm(*(p for p, _ in self.rules.values()))
        out = [((w, scale),) for w in range(self.alphabet.size ** 2)]
        for w, (p, rest) in self.rules.items():
            out[w] = tuple((u, r * (scale // p)) for u, r in rest.items())
        return out

    @cached_property
    def tower(self) -> _Tower:
        """The graded quotient by this span (``_Tower``), kept once built."""
        return _Tower(self.alphabet.size, self.back_substituted)

    @property
    def span_dim(self) -> int:
        return len(self.echelon)

    @property
    def matrix(self) -> Matrix:
        """Read-only dense matrix of ``polys`` over the degree-2 words in
        code order, built on each access.  Nothing in the package reads it."""
        n = self.alphabet.size
        if not self.rows:
            return Matrix.zeros(0, n * n)
        zero, words = Fraction(0), [divmod(c, n) for c in range(n * n)]
        return Matrix([[p.terms.get(w, zero) for w in words] for p in self.polys])


def _positive(row: dict[int, int]) -> dict[int, int] | None:
    """The row without its zero entries, negated if negative at its largest
    column; None if nothing is left."""
    row = {c: v for c, v in row.items() if v}
    if not row:
        return None
    return {c: -v for c, v in row.items()} if row[max(row)] < 0 else row


def relation_set(alphabet: Alphabet, polys) -> RelationSet:
    """The span of rational polynomials, each nonzero one cleared once."""
    n = alphabet.size
    rows = (_positive(_cleared({g * n + h: c for (g, h), c in p.terms.items()})) for p in polys)
    return RelationSet(alphabet, tuple(row for row in rows if row is not None))


@dataclass(frozen=True)
class HomAlgebra:
    """Generators t_A^K (parity par(A)+par(K)) with quadratic relations."""

    source: QuantumObject
    target: QuantumObject
    relations: RelationSet

    @property
    def alphabet(self) -> Alphabet:
        return self.relations.alphabet


def derive_relations_general(src: QuantumObject, tgt: QuantumObject) -> RelationSet:
    """Relation span from annihilator bases, component by component.

    The number of relations always equals the sum over components of
    dim(Ann I_k of source) * dim(I_k of target); InvariantViolation is
    raised if this linear independence fails.
    """
    if src.s != tgt.s:
        raise ComponentCountMismatch(f"source has {src.s} components, target {tgt.s}")
    n, m = src.space.dim, tgt.space.dim
    nm, pv = n * m, src.space.parities
    # signs[p][k]: the Koszul sign for par(B) = p and target index K
    signs = [[koszul_sign(p, pk) for pk in tgt.space.parities] for p in (0, 1)]
    rows, expected = [], 0
    for ann, fbasis in zip(src.annihilators, tgt.bases):
        expected += len(ann) * len(fbasis)
        # word (A*m+K, B*m+L) is column (A*m*nm + B*m) + (K*nm + L): each f
        # as its signed (K*nm + L, sign * f_KL) terms for either par(B)
        fs = [[[(c // m * nm + c % m, s[c // m] * x) for c, x in f.items()] for s in signs]
              for f in fbasis]
        for g in ann:
            gs = [(c // n * m * nm + c % n * m, pv[c % n], x) for c, x in g.items()]
            for f in fs:
                row = _positive({base + c: x * y for base, par, x in gs for c, y in f[par]})
                if row is None:
                    raise InvariantViolation("degenerate relation from independent pair")
                rows.append(row)
    rs = RelationSet(matrix_alphabet(src.space, tgt.space), tuple(rows))
    if rs.span_dim != expected:
        raise InvariantViolation("relation span smaller than the component count")
    return rs


def _integer_qp(obj: QuantumObject) -> tuple:
    """(L, L q, L p): the parameter matrices over one common denominator L."""
    if obj.qp is None:
        raise BadParameters("object does not carry two-parameter matrices")
    den = lcm(*(x.denominator for mat in obj.qp for row in mat for x in row))
    return den, *([[x.numerator * den // x.denominator for x in r] for r in mat] for mat in obj.qp)


def derive_relations_sudbery(src: QuantumObject, tgt: QuantumObject) -> RelationSet:
    """Closed-form relation list for two-parameter objects.

    One relation per index quadruple (A, B, K, L):

        t_A^K t_B^L
          - (p_BA + q_BA)/(p^LK + q^LK) * (-1)**(par A par L + par B par K) t_B^L t_A^K
          - (p_BA p^LK - q_BA q^LK)/(p^LK + q^LK) * (-1)**((par A + par B) par K) t_B^K t_A^L
        = 0,

    lower-index parameters being the same numbers as upper-index ones.
    Coincident indices degenerate to the one-row and one-column relations.
    Each relation is stored times L_src L_tgt (p^LK + q^LK), with L the
    common denominator of an object's parameters, so it is an integer row.
    """
    lv, qv, pv = _integer_qp(src)
    lw, qw, pw = _integer_qp(tgt)
    n, m = src.space.dim, tgt.space.dim
    nm, pav, paw = n * m, src.space.parities, tgt.space.parities
    rows = []
    for a, b in product(range(n), repeat=2):
        for k, l in product(range(m), repeat=2):
            c1 = lw * (pv[b][a] + qv[b][a])
            c1 *= koszul_sign(pav[a], paw[l]) * koszul_sign(pav[b], paw[k])
            c2 = pv[b][a] * pw[l][k] - qv[b][a] * qw[l][k]
            c2 *= koszul_sign(pav[a] + pav[b], paw[k])
            row: dict[int, int] = {}
            for code, c in (
                ((a * m + k) * nm + b * m + l, lv * (pw[l][k] + qw[l][k])),
                ((b * m + l) * nm + a * m + k, -c1),
                ((b * m + k) * nm + a * m + l, -c2),
            ):
                row[code] = row.get(code, 0) + c
            if (row := _positive(row)) is not None:
                rows.append(row)
    return RelationSet(matrix_alphabet(src.space, tgt.space), tuple(rows))


def spans_equal(r1: RelationSet, r2: RelationSet) -> bool:
    if r1.alphabet != r2.alphabet:
        raise AlphabetMismatch("relation sets over different alphabets")
    return _same_span(r1.echelon, r2.echelon)


def hom_algebra(src: QuantumObject, tgt: QuantumObject) -> HomAlgebra:
    return HomAlgebra(src, tgt, derive_relations_general(src, tgt))


def _rules(back: dict[int, dict[int, int]], shift: int = 1) -> dict[int, IntRule]:
    """The quotient by the span of ``_back_substituted`` rows over the words
    of one degree, each word its code in base n (at degree 2, column
    g * n + h is the word (g, h)): each row's leading word rewrites to the
    smaller words left in it, P lead = sum r_u u with P > 0, and is keyed
    by its column, each u by u * shift (the tower reads u * n).  The rows
    hold no other leading word, so each rule is already in normal words."""
    out = {}
    for lead, row in back.items():
        pivot = row[lead]
        sign = -1 if pivot > 0 else 1
        out[lead] = (abs(pivot), {u * shift: sign * v for u, v in row.items() if u != lead})
    return out


def _row(ps: list[int], rhss: list[list], xs: tuple, terms: tuple) -> dict[int, int]:
    """The row u r from the tables of u and the first letters and terms of r."""
    scale, row = lcm(*[ps[x] for x in xs]), {}
    for x, y, v in terms:
        k = scale // ps[x] * v
        for bn, rb in rhss[x]:
            w = bn + y
            nv = row.get(w, 0) + k * rb
            if nv:
                row[w] = nv
            elif w in row:
                del row[w]
    return row


class _Tower:
    """The graded quotient by a relation span R, built degree by degree in
    quotient coordinates and kept, so that a later request computes only
    the degrees not yet built.

    A degree-d word is the integer w = p * n + y of its degree-(d-1)
    prefix p and last letter y, and word order is integer order.  So
    I_{d-1} V splits by last letter into n copies of I_{d-1}: w is
    reducible modulo I_{d-1} V iff p is reducible modulo I_{d-1}.

    M_k holds the rows that are new at degree k, reduced modulo I_{k-1} V,
    so I_k = I_{k-1} V + span M_k (M_2 is the span's ``back_substituted``)
    and the words of M_k have normal prefixes.  The normal words N_k, those
    that lead no element of I_k, are then the words p y with p in N_{k-1}
    that are not pivots of M_k, and span a complement of I_k (N_1 = V).

    The ideal in degree d is the sum of the placements u r v (Bergman,
    1978), so I_d = I_{d-1} V + V^{d-2} R.  Every degree-(d-2) word is a
    normal word plus an element of I_{d-2}, and I_{d-2} R lies in
    I_{d-2} V V, inside I_{d-1} V.  Hence I_d = I_{d-1} V + N_{d-2} R:
    degree d inserts one row u r for each u in N_{d-2} and each row r of
    M_2 into a fresh echelon M_d, and dim_d = n * dim_{d-1} - |M_d|.
    Because u is normal, a word u c0 c1 of u r is reducible modulo
    I_{d-1} V iff u c0 is a pivot of M_{d-1}.  Each degree reads M_{d-1}
    once as rules P p = sum r_b b keyed by b n (``_rules`` with shift n);
    one loop over each u's prefixes u x lists each rule's P and (b n, r_b)
    pairs (1 and (u x n, 1) for a normal u x) and handles the rows r led
    by x.  With L the lcm of the P of its prefixes, ``_row`` adds
    (L/P) v r_b at each b y for each term (x, y, v) of r, word x n + y.

    Rows are handled in ascending (u, lead of r) order.  If u a is normal,
    a the first letter of lead(r), ``_insert`` would store u r as built,
    with pivot u lead(r): the words u a y keep their places, a prefix u x
    with x < a keeps its words or rewrites them to smaller ones, each row
    handled before has only smaller words, and cancelling adds none.  So
    degree 3 stores u r as built, and from degree 4 u r is deferred: it is
    counted in |M_d| and kept in ``deferred[d]`` as (u, first letters,
    terms) until a reduction reaches its pivot (``_insert``'s ``build``)
    or degree d is committed.  Degree 3 skips no row, so most are reached.

    A row vanishes if ``_insert`` rejects it or it is skipped.  From
    degree 4 the row u r is skipped if w r vanished at degree d-1, w being
    u without its first letter b (F5's signature criterion, Faugere 2002):
    w is normal because u is, and _insert would reject u r, so no deferred
    row is skipped.  Proof: w r lies in I_{d-2} V plus the span of the rows
    w' r' handled before it at degree d-1 (for a skipped row by
    induction), so b w r lies in I_{d-1} V plus the span of the b w' r'.
    Each b w' r' differs from NF(b w') r' by an element of I_{d-2} V V,
    inside I_{d-1} V, and each word v of NF(b w') is normal with
    v <= b w' <= u, so v r' is a row handled before u r (if w' = w then
    v = u and r' comes before r).  Skipped rows leave every M_k as it is.
    ``vanished`` maps each normal word of the top degree to the leading
    words of the relations whose rows vanished (none kept for degree 2).

    A finished degree k is committed lazily: its deferred rows are built,
    its echelon back-substituted into ``new[k]`` and read as rules once,
    the first time a row of degree k+1 must be built (an inserted row, one
    whose prefix u x is reducible and that is not skipped, or a deferred
    row that a reduction reaches), or M_k is asked for (``committed``), or
    a higher degree is committed; degrees are committed in ascending
    order.  Only the lowest uncommitted degree can build a row, so one
    rule table is kept, that of the highest committed degree, and one memo
    of the P and (b n, r_b) lists of each u whose row it built.  Until
    then degree k keeps ``echelons[k]``, its forward echelon less the rows
    in ``deferred[k]``, and its leading words, the keys of both, are all
    the next degrees read of it: whether a prefix is reducible, and N_k.
    A YES pair skips or defers every row past degree 3, so it commits no
    degree past 2.

    ``new[k]`` is the back-substituted M_k of each committed degree k and
    ``normal[k]`` the list N_k, built when a degree first needs it and
    checked to hold dim_k words (``InvariantViolation`` otherwise); the top
    degree also keeps ``vanished`` until a request extends past it.  A
    degree is committed only once complete, and an interrupted commit
    stores nothing but the memo."""

    def __init__(self, n: int, back: dict[int, dict[int, int]]):
        self.n = n
        self.new = {2: back}
        self.normal = {1: list(range(n))}
        self.echelons: dict[int, dict[int, dict[int, int]]] = {}
        self.deferred: dict[int, dict[int, tuple]] = {}
        self.vanished: dict[int, set[int]] = {}
        self._dims = [n * n - len(back)]
        # the highest committed degree's rules, and the memo of the next degree's tables by u
        self._prefix_rules = _rules(back, n)
        self._tables: dict[int, tuple[list[int], list[list]]] = {}
        # each row r of M_2 by first letter of lead: (lead, first letters, terms (x, y, v))
        self._groups: list[list[tuple]] = [[] for _ in range(n)]
        for lead, r in back.items():
            self._groups[lead // n].append(
                (lead, tuple({c // n for c in r}), tuple((c // n, c % n, v) for c, v in r.items())))

    def _table(self, u: int) -> tuple[list[int], list[list]]:
        """The P and (b n, r_b) lists of each prefix u x by letter x, (1,
        [(u x n, 1)]) for a normal one, from the highest committed
        degree's rules; kept in the memo until the next degree commits."""
        n, rules, ps, rhss = self.n, self._prefix_rules, [], []
        for p in range(u * n, u * n + n):
            rule = rules.get(p)
            ps.append(rule[0] if rule else 1)
            rhss.append([*rule[1].items()] if rule else [(p * n, 1)])
        self._tables[u] = table = (ps, rhss)
        return table

    def _build_deferred(self, d: int) -> None:
        """Build every row degree d still defers into its echelon; degree
        d-1 must be committed.  Nothing is stored unless all are built."""
        tables = self._tables
        self.echelons[d].update({
            w: _normalised(_row(*(tables.get(u) or self._table(u)), xs, terms))
            for w, (u, xs, terms) in self.deferred[d].items()})
        self.deferred[d].clear()

    def committed(self, k: int) -> dict[int, dict[int, int]]:
        """The back-substituted M_k of a finished degree k, committing
        first, in ascending order, each degree up to k not yet committed."""
        new = self.new
        while k not in new:
            d = len(new) + 2
            self._build_deferred(d)
            back = _back_substituted(self.echelons[d])
            rules = _rules(back, self.n)
            new[d], self._prefix_rules, self._tables = back, rules, {}
            del self.echelons[d], self.deferred[d]
        return new[k]

    def _leads(self, k: int) -> tuple[dict, dict]:
        """Two dicts whose keys together are the leading words of M_k."""
        return (self.new[k], {}) if k in self.new else (self.echelons[k], self.deferred[k])

    def dims(self, top: int) -> list[int]:
        """The quotient dimensions at degrees 2 to top, extending the tower
        by each degree it does not hold yet."""
        n, new, normal, groups = self.n, self.new, self.normal, self._groups
        while len(self._dims) < top - 1:
            d = len(self._dims) + 2
            if d - 2 not in normal:
                lead, more = self._leads(d - 2)
                words = [w for p in normal[d - 3] for w in range(p * n, p * n + n)
                         if w not in lead and w not in more]
                if len(words) != self._dims[d - 4]:
                    raise InvariantViolation(f"degree {d - 2} has {len(words)} normal words, "
                                             f"not its dimension {self._dims[d - 4]}")
                normal[d - 2] = words
            lead, more = self._leads(d - 1)
            pivots, deferred, vanished, shift = {}, {}, {}, n ** (d - 3)
            def build(word):
                if (args := deferred.pop(word, None)) is not None:
                    u, xs, terms = args
                    table = self._tables.get(u) or self._table(u)
                    pivots[word] = row = _normalised(_row(*table, xs, terms))
                    return row
            hook = build if d > 3 else None
            for u in normal[d - 2]:
                prev = self.vanished.get(u % shift)
                gone = set(prev) if prev else set()
                table, base = None, u * n * n
                for p, group in zip(range(u * n, u * n + n), groups):
                    if p in lead or p in more:
                        for row_lead, xs, terms in group:
                            if row_lead in gone:
                                continue
                            if table is None:
                                if d - 1 not in new:
                                    self.committed(d - 1)
                                table = self._tables.get(u) or self._table(u)
                            if _insert(pivots, _row(*table, xs, terms), hook) is None:
                                gone.add(row_lead)
                    elif d > 3:
                        for row_lead, xs, terms in group:
                            if row_lead not in gone:
                                deferred[base + row_lead] = (u, xs, terms)
                    else:
                        table = table or self._table(u)
                        for row_lead, xs, terms in group:
                            pivots[base + row_lead] = _normalised(_row(*table, xs, terms))
                if gone:
                    vanished[u] = gone
            if d == 3:
                # degree 3 defers no row, so nothing reads its tables again
                self._tables = {}
            self.echelons[d], self.deferred[d], self.vanished = pivots, deferred, vanished
            self._dims.append(n * self._dims[-1] - len(pivots) - len(deferred))
        return self._dims[: top - 1]
