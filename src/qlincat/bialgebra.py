"""Executable coalgebra structure on the matrix-entry algebras: the
comultiplication homomorphism property, coassociativity, the counit, and
the 2x2 determinant with its multiplicativity.

Every reduction happens in degree-2 quotient coordinates (these are always
of classical dimension), so no check assumes the PBW property of the
algebras involved.  Delta's image of each degree-2 word of hom(a, c) over
both factors' coordinate tables is built once per triple and kept only while
the rows that read it are reduced (``_delta_rows``); coassociativity reads
the verdicts of two triples.  The determinant's area form is read off the
object's cached annihilator of its second component, which on a purely even
object is its own Pi-image.
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
        ab, bc, ac = self.hom_ab, self.hom_bc, self.hom_ac
        if bc.source != ab.target or ac.source != ab.source or ac.target != bc.target:
            raise ValueError("hom algebras are not a composable pair and its composite")

    @cached_property
    def _delta_ok(self) -> bool:
        """The comultiplication verdict, computed once: Delta of each row of
        hom(a, c) must vanish in Q(ab)_2 (x) Q(bc)_2.

        It does for the spans ``derive_relations_general`` builds, so the
        check guards the implementation.  Such a row is r(g, f) =
        sum (-1)**(pB pS) g^AB f_ST u_A^S u_B^T, g in the Koszul annihilator
        of I_k(a), f in I_k(c), pX = par X.  Delta(u_A^S u_B^T) is
        sum_KL (-1)**((pK + pS)(pB + pL)) t_A^K t_B^L (x) s_K^S s_L^T, and
        pB pS + (pK + pS)(pB + pL) = pB pK + pL pS + pK pL mod 2: the signs
        of a hom(a, b) relation at t_A^K t_B^L and of a hom(b, c) relation at
        s_K^S s_L^T, and the Koszul pairing's weight at (K, L).  Take a basis
        beta_j of V_b (x) V_b adapted to b's components and its dual basis
        beta^j under that pairing: sum_j beta_j,KL beta^j,K'L' =
        (-1)**(pK pL) delta_KK' delta_LL', so Delta r(g, f) =
        sum_j r_ab(g, beta_j) (x) r_bc(beta^j, f).  If beta_j is in I_k(b),
        r_ab(g, beta_j) is a relation of hom(a, b); if not, beta^j
        annihilates I_k(b) and r_bc(beta^j, f) is a relation of hom(b, c).
        The counit on hom(x, x) sends r(g, f) to the pairing of g and f: 0.
        """
        # by smallest word: a two-parameter row pairs a word with few others,
        # so each word's image is held for a few rows, not across the span
        rows = sorted(self.hom_ac.relations.rows, key=min)
        return not any(any(delta.values()) for delta in _delta_rows(self.hom_ab, self.hom_bc, rows))


def composable_triple(a: QuantumObject, b: QuantumObject, c: QuantumObject) -> ComposableTriple:
    return ComposableTriple(hom_algebra(a, b), hom_algebra(b, c), hom_algebra(a, c))


def _delta_rows(ab: HomAlgebra, bc: HomAlgebra, rows: Sequence[dict[int, int]]):
    """The tensor reducer at two factors and degree 2: Delta of each row over
    hom(a, c) word codes in turn, signs from one table per call, factor words
    read from their spans' ``coords``, normal words (v1, v2) keyed
    v1 (m l)**2 + v2.  Delta is linear, so a row's image is the sum of its
    words' images; each word's image is built when the first row that reads
    it comes and dropped after the last."""
    pa, pb, pc = (x.space.parities for x in (ab.source, ab.target, bc.target))
    n, m, l = len(pa), len(pb), len(pc)
    c1, c2 = ab.relations.coords, bc.relations.coords
    nl, nm, ml, base = n * l, n * m, m * l, (m * l) ** 2
    # signs[pK + pS][pB]: the transposition signs over L
    signs = [[[koszul_sign(x, y + q) for q in pb] for y in (0, 1)] for x in (0, 1, 2)]
    last = {w: i for i, row in enumerate(rows) for w in row}
    images: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        out: dict[int, int] = {}
        for w, x in row.items():
            image = images.get(w)
            if image is None:
                (aa, s), (bb, t) = (divmod(g, l) for g in divmod(w, nl))
                image = images[w] = {}
                for k in range(m):
                    # the factor words t_A^K t_B^L and s_K^S s_L^T over L
                    left, right = (aa * m + k) * nm + bb * m, (k * l + s) * ml + t
                    for sign, terms1, terms2 in zip(signs[pb[k] + pc[s]][pa[bb]],
                                                    c1[left: left + m], c2[right: right + ml: l]):
                        for v1, x1 in terms1:
                            key, y = v1 * base, sign * x1
                            for v2, x2 in terms2:
                                image[key + v2] = image.get(key + v2, 0) + y * x2
            if last[w] == i:
                del images[w]
            for key, v in image.items():
                out[key] = out.get(key, 0) + x * v
        yield out


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


def determinant_2x2(src: QuantumObject, tgt: QuantumObject) -> NCPoly:
    """Coefficient of the source area form in the coaction image of the
    target area form: for parameters (q, p) this is ad - p^{21} cb.

    Rescaling the area forms by f_src and f_tgt multiplies it by
    f_src / f_tgt (the coboundary freedom); callers that want that pass
    ``det.scale(f_src / f_tgt)`` to ``determinant_multiplicativity``.
    """
    if any(obj.space.dim != 2 or any(obj.space.parities) or obj.qp is None for obj in (src, tgt)):
        raise WrongShape("determinant needs purely even dim-2 two-parameter objects")
    # purely even entries: the coaction product picks up no transposition
    # signs, and each (a, b) gives its own word t_a^1 t_b^2
    gammas = _xi_quotient_coefficients(src)
    return NCPoly(matrix_alphabet(src.space, tgt.space), {
        (a * 2 + 0, b * 2 + 1): gammas[(a, b)]
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
    # each determinant over word codes, times L, the lcm of all their denominators
    den = lcm(*(x.denominator for d in dets for x in d.terms.values()))
    det_ab, det_bc, det_ac = ({g * d.alphabet.size + h: x.numerator * (den // x.denominator)
                               for (g, h), x in d.terms.items()} for d in dets)
    # L Delta(L det_ac) - (L det_ab) (x) (L det_bc), reduced, is zero iff they agree
    (diff,) = _delta_rows(hom_ab, hom_bc, [{w: den * x for w, x in det_ac.items()}])
    c1, c2, base = hom_ab.relations.coords, hom_bc.relations.coords, hom_bc.alphabet.size ** 2
    for (w1, x1), (w2, x2) in product(det_ab.items(), det_bc.items()):
        for (v1, y1), (v2, y2) in product(c1[w1], c2[w2]):
            diff[v1 * base + v2] = diff.get(v1 * base + v2, 0) - x1 * x2 * y1 * y2
    return not any(diff.values())
