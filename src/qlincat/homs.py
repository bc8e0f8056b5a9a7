"""Quadratic relations of the algebra of matrix entries between two
quantum space objects.

Two independent derivations are provided.  The general one runs over every
component: each pair (g, f) with g in a basis of the annihilator of a
source component (``QuantumObject.annihilators``) and f in a basis of the
matching target component (``QuantumObject.bases``) contributes the
relation

    sum (-1)**(par(B)*par(K)) g^{AB} f_{KL} t_A^K t_B^L = 0.

For two-parameter objects the closed single-relation formula (one relation
per index quadruple, with ratio coefficients) is implemented separately and
must produce the same span, which tests enforce.

A relation span is stored once, as polynomials, eliminated once and
back-substituted once: every reader takes its ``RelationSet.echelon``, its
``back_substituted`` rows or its ``rules``, the degree-2 quotient read off
those rows as integer rewrite rules, and none of them mutates any of the
three.  ``_rules`` is the one degree-2 quotient routine: the rewrite
system, the coalgebra coordinates and the determinant's area form all read
its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .graded import koszul_sign
from .linalg import InvariantViolation, Matrix, _back_substituted, _cleared, _echelon, _same_span
from .rewrite import Alphabet, IntRule, NCPoly, Word, matrix_alphabet
from .spaces import QuantumObject


class ComponentCountMismatch(Exception):
    """Source and target have different numbers of components."""


class AlphabetMismatch(Exception):
    """Relation sets over different generator alphabets."""


@dataclass(frozen=True)
class RelationSet:
    """A span of quadratic relations, stored as nonzero polynomials."""

    alphabet: Alphabet
    polys: tuple[NCPoly, ...]

    @cached_property
    def echelon(self) -> dict[int, dict[int, int]]:
        """The engine's echelon of the span: word (g, h) is column g * n + h,
        so the pivot of a row is the leading word of its relation."""
        n = self.alphabet.size
        return _echelon(
            _cleared({g * n + h: c for (g, h), c in p.terms.items()}) for p in self.polys
        )

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

    @property
    def span_dim(self) -> int:
        return len(self.echelon)

    @property
    def matrix(self) -> Matrix:
        """Read-only dense coefficient matrix over the lexicographic degree-2
        word basis, built on each access.  Nothing in the package reads it."""
        words = list(product(range(self.alphabet.size), repeat=2))
        if not self.polys:
            return Matrix.zeros(0, len(words))
        zero = Fraction(0)
        return Matrix([[p.terms.get(w, zero) for w in words] for p in self.polys])


def relation_set(alphabet: Alphabet, polys) -> RelationSet:
    return RelationSet(alphabet, tuple(p for p in polys if not p.is_zero))


@dataclass(frozen=True)
class HomAlgebra:
    """Generators t_A^K (parity par(A)+par(K)) with quadratic relations."""

    source: QuantumObject
    target: QuantumObject
    alphabet: Alphabet
    relations: RelationSet


def derive_relations_general(src: QuantumObject, tgt: QuantumObject) -> RelationSet:
    """Relation span from annihilator bases, component by component.

    The number of relations always equals the sum over components of
    dim(Ann I_k of source) * dim(I_k of target); InvariantViolation is
    raised if this linear independence fails.
    """
    if src.s != tgt.s:
        raise ComponentCountMismatch(f"source has {src.s} components, target {tgt.s}")
    n, m = src.space.dim, tgt.space.dim
    alphabet = matrix_alphabet(src.space, tgt.space)
    polys: list[NCPoly] = []
    expected = 0
    for ann, fbasis in zip(src.annihilators, tgt.bases):
        expected += len(ann) * len(fbasis)
        for g in ann:
            for f in fbasis:
                terms: dict[Word, Fraction] = {}
                for a, b in product(range(n), repeat=2):
                    gc = g[a * n + b]
                    if not gc:
                        continue
                    for k, l in product(range(m), repeat=2):
                        fc = f[k * m + l]
                        if not fc:
                            continue
                        sign = koszul_sign(src.space.parities[b], tgt.space.parities[k])
                        w = (a * m + k, b * m + l)
                        terms[w] = terms.get(w, Fraction(0)) + sign * gc * fc
                poly = NCPoly(alphabet, terms)
                if poly.is_zero:
                    raise InvariantViolation("degenerate relation from independent pair")
                polys.append(poly.monic())
    rs = relation_set(alphabet, polys)
    if rs.span_dim != expected:
        raise InvariantViolation("relation span smaller than the component count")
    return rs


def _require_qp(obj: QuantumObject) -> tuple:
    if obj.qp is None:
        from .spaces import BadParameters

        raise BadParameters("object does not carry two-parameter matrices")
    return obj.qp


def derive_relations_sudbery(src: QuantumObject, tgt: QuantumObject) -> RelationSet:
    """Closed-form relation list for two-parameter objects.

    One relation per index quadruple (A, B, K, L):

        t_A^K t_B^L
          - (p_BA + q_BA)/(p^LK + q^LK) * (-1)**(par A par L + par B par K) t_B^L t_A^K
          - (p_BA p^LK - q_BA q^LK)/(p^LK + q^LK) * (-1)**((par A + par B) par K) t_B^K t_A^L
        = 0,

    lower-index parameters being the same numbers as upper-index ones.
    Coincident indices degenerate to the one-row and one-column relations.
    """
    qv, pv = _require_qp(src)
    qw, pw = _require_qp(tgt)
    n, m = src.space.dim, tgt.space.dim
    pav, paw = src.space.parities, tgt.space.parities
    alphabet = matrix_alphabet(src.space, tgt.space)
    polys = []
    for a, b in product(range(n), repeat=2):
        for k, l in product(range(m), repeat=2):
            denom = pw[l][k] + qw[l][k]
            c1 = (pv[b][a] + qv[b][a]) / denom
            c1 *= koszul_sign(pav[a], paw[l]) * koszul_sign(pav[b], paw[k])
            c2 = (pv[b][a] * pw[l][k] - qv[b][a] * qw[l][k]) / denom
            c2 *= koszul_sign(pav[a] + pav[b], paw[k])
            terms: dict[Word, Fraction] = {}
            for w, c in (
                ((a * m + k, b * m + l), Fraction(1)),
                ((b * m + l, a * m + k), -c1),
                ((b * m + k, a * m + l), -c2),
            ):
                terms[w] = terms.get(w, Fraction(0)) + c
            poly = NCPoly(alphabet, terms)
            if not poly.is_zero:
                polys.append(poly.monic())
    return relation_set(alphabet, polys)


def spans_equal(r1: RelationSet, r2: RelationSet) -> bool:
    if r1.alphabet != r2.alphabet:
        raise AlphabetMismatch("relation sets over different alphabets")
    return _same_span(r1.echelon, r2.echelon)


def bilinear_form_relations(obj: QuantumObject) -> RelationSet:
    """Relations for coefficients t_{AB} of an even bilinear form, i.e. the
    hom relations into the dual object (the upper index runs over the dual
    basis)."""
    if obj.s != 2:
        raise ValueError("bilinear forms need a two-component object")
    from .spaces import dual_object

    return derive_relations_general(obj, dual_object(obj))


def hom_algebra(src: QuantumObject, tgt: QuantumObject) -> HomAlgebra:
    rels = derive_relations_general(src, tgt)
    return HomAlgebra(src, tgt, rels.alphabet, rels)


def _rules(back: dict[int, dict[int, int]]) -> dict[int, IntRule]:
    """The degree-2 quotient by the span of ``_back_substituted`` rows whose
    column g * n + h is the word (g, h): each row's leading word rewrites
    to the smaller words left in it, P lead = sum r_u u with P > 0, and is
    keyed by its column.  The rows hold no other leading word, so each rule
    is already in normal words."""
    out = {}
    for lead, row in back.items():
        pivot = row[lead]
        sign = -1 if pivot > 0 else 1
        out[lead] = (abs(pivot), {u: sign * v for u, v in row.items() if u != lead})
    return out
