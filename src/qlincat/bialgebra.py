"""Executable coalgebra structure on the matrix-entry algebras: the
comultiplication homomorphism property, coassociativity, the counit, and
the 2x2 determinant with its multiplicativity.

Every reduction happens in degree-2 quotient coordinates (these are always
of classical dimension), so none of the checks here assume the PBW property
of the algebras involved.  They read the integer forms as they are: a word
(g, h) over n letters is its code g * n + h, Delta expands each
``RelationSet.rows`` row into pairs of factor codes, and each span's one
integer coordinate table (``RelationSet.coords``) reduces it, once per
triple; coassociativity reads the verdicts of two triples.  The
determinant's area form is read off the object's cached annihilator of
its second component, which on a purely even object is its own Pi-image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Sequence

from .graded import koszul_sign
from .homs import HomAlgebra, hom_algebra
from .linalg import _cleared
from .rewrite import NCPoly, matrix_alphabet
from .spaces import QuantumObject


class WrongShape(Exception):
    """Operation requires purely even two-dimensional two-parameter objects."""


@dataclass(frozen=True)
class ComposableTriple:
    """The three matrix-entry algebras of a composable pair of arrows
    a -> b -> c: the objects are the homs' ends, and ValueError is raised
    unless those ends meet."""

    hom_ab: HomAlgebra
    hom_bc: HomAlgebra
    hom_ac: HomAlgebra

    def __post_init__(self):
        if (
            self.hom_bc.source != self.hom_ab.target
            or self.hom_ac.source != self.hom_ab.source
            or self.hom_ac.target != self.hom_bc.target
        ):
            raise ValueError("hom algebras are not a composable pair and its composite")

    @cached_property
    def _delta_ok(self) -> bool:
        """The comultiplication verdict, computed once."""
        ab, bc = self.hom_ab, self.hom_bc
        c1, c2 = ab.relations.coords, bc.relations.coords
        return all(_reduces_to_zero(_delta_bidegree(row, ab.source, ab.target, bc.target), c1, c2)
                   for row in self.hom_ac.relations.rows)


def composable_triple(a: QuantumObject, b: QuantumObject, c: QuantumObject) -> ComposableTriple:
    return ComposableTriple(hom_algebra(a, b), hom_algebra(b, c), hom_algebra(a, c))


def _delta_bidegree(
    row: dict[int, int], a: QuantumObject, b: QuantumObject, c: QuantumObject
) -> dict[tuple[int, int], int]:
    """Coefficients of Delta(r) for a row r over the degree-2 word codes of
    hom(a, c), keyed by pairs of hom(a, b) and hom(b, c) word codes.

    r is quadratic in the entries u_A^S of the composite algebra; the
    comultiplication is u_A^S -> sum_K t_A^K (x) s_K^S and products in the
    tensor square pick up the transposition sign
    (-1)**((par K + par S) * (par B + par L)).
    """
    n, m, l = a.space.dim, b.space.dim, c.space.dim
    pa, pb, pc = a.space.parities, b.space.parities, c.space.parities
    out: dict[tuple[int, int], int] = {}
    for w, coeff in row.items():
        (aa, s), (bb, t) = (divmod(g, l) for g in divmod(w, n * l))
        for k in range(m):
            # t_A^K t_B^L and s_K^S s_L^T as codes, L still to be added
            left = (aa * m + k) * n * m + bb * m
            right = (k * l + s) * m * l + t
            for ll in range(m):
                sign = koszul_sign(pb[k] + pc[s], pa[bb] + pb[ll])
                key = (left + ll, right + ll * l)
                out[key] = out.get(key, 0) + coeff * sign
    return {k: v for k, v in out.items() if v}


def _reduces_to_zero(
    expansion: dict[tuple[int, int], int], c1: list[dict[int, int]], c2: list[dict[int, int]]
) -> bool:
    """Is the integer expansion zero in the tensor product of the two
    quotients?"""
    out: dict[tuple[int, int], int] = {}
    for (w1, w2), c in expansion.items():
        for bw1, x1 in c1[w1].items():
            cx = c * x1
            for bw2, x2 in c2[w2].items():
                key = (bw1, bw2)
                out[key] = out.get(key, 0) + cx * x2
    return not any(out.values())


def comultiplication_check(triple: ComposableTriple) -> bool:
    """Delta maps every defining relation of the composite algebra into the
    two-sided relation space of the factor algebras."""
    return triple._delta_ok


def coassociativity_check(abc: ComposableTriple, acd: ComposableTriple) -> bool:
    """Both iterated comultiplications A_ad -> A_ab (x) A_bc (x) A_cd are
    one well-defined map: True iff Delta_abc and Delta_acd are well defined.

    Proof that this suffices.  (Delta_abc (x) 1) Delta_acd and
    (1 (x) Delta_bcd) Delta_abd are algebra maps out of T(V_ad) that agree
    on generators (u_A^S -> sum t_A^K (x) s_K^L (x) r_L^S), so they agree on
    T(V_ad); comparing them there reads no relation.  If Delta_acd maps R_ad
    into the relation ideal of A_ac (x) A_cd and Delta_abc does so for R_ac,
    the first route maps R_ad into the ideal of the threefold product, so
    the second, equal to it on T(V_ad), kills R_ad too, and both give the
    same map on A_ad.

    ValueError unless acd's first factor is abc's composite (three objects
    a -> b -> c give acd = (a, c, c) from hom(a, c) and hom(c, c)).
    """
    if acd.hom_ab != abc.hom_ac:
        raise ValueError("acd's first factor is not the composite of abc")
    return abc._delta_ok and acd._delta_ok


def counit_substitution_ok(hom: HomAlgebra, values: Sequence[Sequence]) -> bool:
    """Do all defining relations vanish under t_A^K -> values[A][K]?  The
    values are rows of rationals (``int`` or ``Fraction``), scaled to
    integers by their common denominator L, which scales each relation's
    value by L**2 and changes no answer."""
    m, n = hom.target.space.dim, hom.alphabet.size
    den = lcm(*(x.denominator for row in values for x in row))
    # value[g]: L times the value of generator g = A * m + K
    value = [values[g // m][g % m] for g in range(n)]
    value = [x.numerator * (den // x.denominator) for x in value]
    return not any(
        sum(c * value[w // n] * value[w % n] for w, c in row.items())
        for row in hom.relations.rows
    )


def counit_check(endo: HomAlgebra) -> bool:
    """Counit on the endomorphism algebra hom(x, x) of one object:
    t_A^B -> delta_A^B must kill every defining relation.  Composed with the
    comultiplication on either side it returns each generator t_A^S by
    construction.  ValueError unless source and target are one object."""
    if endo.source != endo.target:
        raise ValueError("the counit needs an endomorphism algebra")
    n = endo.source.space.dim
    identity = [[int(a == b) for b in range(n)] for a in range(n)]
    return counit_substitution_ok(endo, identity)


def _xi_quotient_coefficients(obj: QuantumObject) -> dict[tuple[int, int], Fraction]:
    """Coefficients gamma with [xi^a xi^b] = gamma_{ab} [xi^1 xi^2] in the
    degree-2 part of the parity-reversed coordinate algebra of a purely
    even object, the quotient by the Pi-image of the second component.
    On an even object Pi is the identity and every Koszul sign is +1, so
    that part is V (x) V modulo the component, and its quotient map is, up
    to scale, the one vector phi of the component's cached annihilator
    (``QuantumObject.annihilators``).  It must be spanned by the area form
    [xi^1 xi^2]: gamma_{ab} is phi_{ab} / phi_{01}, word (0, 1) being code 1."""
    phis = obj.annihilators[1]
    if len(phis) != 1 or not phis[0].get(1):
        raise WrongShape("area form is degenerate for this object")
    (phi,) = phis
    n = obj.space.dim
    return {(a, b): Fraction(phi.get(a * n + b, 0), phi[1]) for a, b in product(range(n), repeat=2)}


def _check_det_shape(obj: QuantumObject) -> None:
    if obj.space.dim != 2 or any(obj.space.parities) or obj.qp is None:
        raise WrongShape("determinant needs purely even dim-2 two-parameter objects")


def determinant_2x2(src: QuantumObject, tgt: QuantumObject) -> NCPoly:
    """Coefficient of the source area form in the coaction image of the
    target area form: for parameters (q, p) this is ad - p^{21} cb.

    Rescaling the area forms by f_src and f_tgt multiplies it by
    f_src / f_tgt (the coboundary freedom); callers that want that pass
    ``det.scale(f_src / f_tgt)`` to ``determinant_multiplicativity``.
    """
    _check_det_shape(src)
    _check_det_shape(tgt)
    alphabet = matrix_alphabet(src.space, tgt.space)
    # purely even entries: the coaction product picks up no transposition
    # signs, and each (a, b) gives its own word t_a^1 t_b^2
    gammas = _xi_quotient_coefficients(src)
    m = tgt.space.dim
    return NCPoly(alphabet, {
        (a * m + 0, b * m + 1): gammas[(a, b)]
        for a, b in product(range(2), repeat=2) if gammas[(a, b)]
    })


def determinant_multiplicativity(
    hom_ab: HomAlgebra,
    hom_bc: HomAlgebra,
    dets: tuple[NCPoly, NCPoly, NCPoly] | None = None,
) -> bool:
    """Delta(det over the composite) equals det (x) det in the degree-2
    quotient coordinates of hom(a, b) and hom(b, c), which must be
    composable (ValueError if not); hom(a, c) is never read.

    dets = (det_ab, det_bc, det_ac) passes the three determinants instead
    of computing them: already computed by the caller, rescaled by a
    consistent coboundary, or corrupted for negative controls.
    """
    a, b, c = hom_ab.source, hom_ab.target, hom_bc.target
    if hom_bc.source != b:
        raise ValueError("hom algebras are not composable")
    if dets is None:
        dets = (determinant_2x2(a, b), determinant_2x2(b, c), determinant_2x2(a, c))
    # each determinant's terms keyed by word codes
    det_ab, det_bc, det_ac = ({g * d.alphabet.size + h: x for (g, h), x in d.terms.items()}
                              for d in dets)
    # Delta(det_ac) - det_ab (x) det_bc, cleared to integers, reduces to
    # zero iff both sides agree
    diff = _delta_bidegree(det_ac, a, b, c)
    for (w1, x1), (w2, x2) in product(det_ab.items(), det_bc.items()):
        diff[w1, w2] = diff.get((w1, w2), 0) - x1 * x2
    return _reduces_to_zero(_cleared(diff), hom_ab.relations.coords, hom_bc.relations.coords)
