"""Noncommutative polynomials over a matrix-entry alphabet, the row-major
monomial order, normal forms, and the cubic-overlap confluence check.

Letters are the generators t_A^K of a matrix of noncommuting entries,
numbered row-major (letter id = A * cols + K), so the natural integer order
on ids is exactly the row-major generator order.  Words of equal degree are
compared lexicographically; shorter words come first.  A degree-d word is
encoded in base n, the alphabet size, so integer order is word order at
fixed degree.  Rewrite rules are a relation set's ``rules``, the integer
degree-2 quotient ``homs`` reads off the span's back-substituted rows:
nothing here eliminates or clears a rule.

``normal_form`` (through ``_reduced``) and ``confluence_check`` (in a
degree-3 loop of its own) both cancel the largest word of an integer row
at that word's leftmost reducible pair; ``confluence_check`` stops at the
first largest word that no rule reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from string import ascii_letters

from .graded import GradedSpace
from .linalg import frac

Word = tuple[int, ...]
# An integer rewrite rule, P * lead = sum r_u * u with P > 0: (P, {u: r_u}),
# words of degree 2 encoded as g * n + h.
IntRule = tuple[int, dict[int, int]]


@dataclass(frozen=True)
class Alphabet:
    """Generator alphabet: a parity and a printable name per letter."""

    parities: tuple[int, ...]
    names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.parities)

    def format_word(self, word: Word) -> str:
        return "".join(self.names[g] for g in word) if word else "1"


def matrix_alphabet(source: GradedSpace, target: GradedSpace) -> Alphabet:
    """Alphabet of matrix entries t_A^K with parity par(A) + par(K)."""
    n, m = source.dim, target.dim
    parities = []
    names = []
    for a in range(n):
        for k in range(m):
            parities.append((source.parities[a] + target.parities[k]) % 2)
            if n * m <= 26:
                names.append(ascii_letters[a * m + k])
            else:
                names.append(f"t[{a},{k}]")
    return Alphabet(tuple(parities), tuple(names))


def word_key(word: Word):
    return (len(word), word)


class NCPoly:
    """A finite Fraction-linear combination of words in an alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        clean: dict[Word, Fraction] = {}
        for word, coeff in (terms or {}).items():
            c = frac(coeff)
            if c:
                clean[tuple(word)] = c
        self.terms = clean

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet, {})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff=1) -> "NCPoly":
        return cls(alphabet, {tuple(word): frac(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return NCPoly(self.alphabet, terms)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        c = frac(c)
        return NCPoly(self.alphabet, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return format_poly(self)


def format_poly(p: NCPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for word, coeff in p.sorted_terms():
        mono = p.alphabet.format_word(word)
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        # the empty word is the constant term, printed as its coefficient
        body = str(mag) if not word else mono if mag == 1 else f"{mag} {mono}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def nonordered_degree2_words(alphabet: Alphabet) -> set[Word]:
    """Left sides a complete quadratic system must have: descending pairs
    plus squares of odd letters (an odd variable may not repeat)."""
    out = set()
    for g in range(alphabet.size):
        for h in range(alphabet.size):
            if g > h:
                out.add((g, h))
        if alphabet.parities[g] == 1:
            out.add((g, g))
    return out


@dataclass(frozen=True)
class RewriteSystem:
    """Quadratic rules: each leading degree-2 word (g, h), keyed by its code
    g * n + h, rewrites to strictly smaller words, P lead = sum r_u u with
    P > 0.  The rules are the relation set's own ``rules``: shared, never
    copied, and read only.

    When the leading words are not exactly the non-ordered degree-2 words the
    defect is read off the rules (missing / unexpected leaders) rather than
    raised; the system still rewrites best-effort.
    """

    alphabet: Alphabet
    rules: dict[int, IntRule]

    @property
    def _leaders(self) -> set[Word]:
        return {divmod(lead, self.alphabet.size) for lead in self.rules}

    @property
    def missing_leaders(self) -> tuple[Word, ...]:
        return tuple(sorted(nonordered_degree2_words(self.alphabet) - self._leaders))

    @property
    def unexpected_leaders(self) -> tuple[Word, ...]:
        return tuple(sorted(self._leaders - nonordered_degree2_words(self.alphabet)))

    @property
    def complete(self) -> bool:
        return not self.missing_leaders and not self.unexpected_leaders


def build_rewrite_system(relations) -> RewriteSystem:
    """Each leading word rewrites to the smaller words it equals in the
    degree-2 quotient (``relations.rules``)."""
    return RewriteSystem(relations.alphabet, relations.rules)


def normal_form(p: NCPoly, system: RewriteSystem) -> NCPoly:
    """Rewrite p until no rule left side occurs as a subword.

    Each homogeneous component is cleared to integers and reduced by
    ``_reduced``: the largest word first, at its leftmost reducible pair.
    Terminates because each step replaces a word by smaller ones.  Raises
    ValueError when p is over another alphabet or holds a letter outside it.
    """
    if p.alphabet != system.alphabet:
        raise ValueError("polynomial and rewrite system have different alphabets")
    n = system.alphabet.size
    components: dict[int, dict[int, Fraction]] = {}
    for word, c in p.terms.items():
        code = 0
        for g in word:
            if not 0 <= g < n:
                raise ValueError(f"letter {g} of word {word} is not in the alphabet")
            code = code * n + g
        components.setdefault(len(word), {})[code] = c
    out: dict[Word, Fraction] = {}
    for degree, terms in components.items():
        den = lcm(*(c.denominator for c in terms.values()))
        row = {code: int(c * den) for code, c in terms.items()}
        normal, scale = _reduced(row, system.rules, n, degree)
        for code, v in normal.items():
            word = []
            for _ in range(degree):
                code, g = divmod(code, n)
                word.append(g)
            out[tuple(reversed(word))] = Fraction(v, scale * den)
    return NCPoly(p.alphabet, out)


def _pair_shifts(n: int, degree: int) -> list[int]:
    """The place value n^k of each adjacent pair of a degree-d word
    encoded in base n, leftmost pair first."""
    return [n**k for k in range(degree - 2, -1, -1)]


def _reduced(
    row: dict[int, int], rules: dict[int, IntRule], n: int, degree: int
) -> tuple[dict[int, int], int]:
    """Reduce an integer row of degree-d words encoded in base n; the row
    is consumed.  Returns (normal, scale) with normal equal to scale times
    the normal form of the row.

    The largest word is cancelled at its leftmost reducible pair, the pair
    with place value ``shift``: P times the word is replaced by the sum of
    r_u (base + u shift) with the pair's rule P lead = sum r_u u.  The row
    is scaled by P over gcd(P, coefficient), and so is the scale.  A
    rewrite adds only smaller words, so a largest word that no rule reduces
    is normal.
    """
    n2 = n * n
    shifts = _pair_shifts(n, degree)
    normal: dict[int, int] = {}
    scale = 1
    while row:
        w = max(row)
        for shift in shifts:
            pair = w // shift % n2
            rule = rules.get(pair)
            if rule is not None:
                break
        else:
            normal[w] = row.pop(w)
            continue
        p, rest = rule
        a = row.pop(w)
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            row = {k: p * v for k, v in row.items()}
            normal = {k: p * v for k, v in normal.items()}
            scale *= p
        base = w - pair * shift
        for u, r in rest.items():
            k = base + u * shift
            v = row.get(k, 0) + a * r
            if v:
                row[k] = v
            else:
                del row[k]
    return normal, scale


@dataclass(frozen=True)
class Overlap:
    word: Word
    resolved: bool


def confluence_check(system: RewriteSystem) -> list[Overlap]:
    """Resolve every cubic overlap x y z (with xy and yz both rule left
    sides) two ways: the overlap is resolved when the difference
    rule[xy] z - x rule[yz] has normal form zero.  Normal forms are linear,
    so this is the comparison of the two normal forms, made with one.

    The difference, scaled by P_xy P_yz, is one integer row over degree-3
    words encoded in base n.  Each step cancels its largest word w by
    ``left`` (pair w // n, base w % n) or else ``right`` (pair w % n^2,
    base w - pair), two tables read from ``system.rules`` once per call.
    Which is tried first never matters while no replacement word of a rule
    is a leading word, as for a span's ``rules`` (back-substituted rows): a
    left rewrite leaves words whose first pair is normal, a right one words
    whose last pair is normal, and the starting row holds only such words,
    so no word of the row is ever reducible at both pairs.  A rewrite adds
    only smaller words, so a largest word that no rule reduces keeps its
    coefficient: the overlap is unresolved.  An emptied row is resolved.

    An empty failure list means the normal form is path-independent in
    degree 3, which for quadratic systems settles linear independence of the
    ordered monomials in every degree.
    """
    n = system.alphabet.size
    n2 = n * n
    left, right = [None] * n2, [None] * n2
    for lead, (p, rest) in system.rules.items():
        left[lead] = (p, tuple((u * n, r) for u, r in rest.items()))
        right[lead] = (p, tuple(rest.items()))
    reports = []
    for xy in sorted(system.rules):
        x, y = divmod(xy, n)
        p_xy, rest_xy = left[xy]
        for z in range(n):
            if right[y * n + z] is None:
                continue
            p_yz, rest_yz = right[y * n + z]
            row = {u + z: p_yz * r for u, r in rest_xy}
            for u, r in rest_yz:
                k = x * n2 + u
                v = row.get(k, 0) - p_xy * r
                if v:
                    row[k] = v
                else:
                    del row[k]
            while row:
                w = max(row)
                rule, base = left[w // n], w % n
                if rule is None:
                    rule, base = right[w % n2], w - w % n2
                    if rule is None:
                        break
                p, rest = rule
                a = row.pop(w)
                if p > 1:
                    g = gcd(a, p)
                    a //= g
                    if p > g:
                        m = p // g
                        for k in row:
                            row[k] *= m
                for u, r in rest:
                    k = base + u
                    v = row.get(k, 0) + a * r
                    if v:
                        row[k] = v
                    else:
                        del row[k]
            reports.append(Overlap((x, y, z), not row))
    return reports


def failed_overlaps(reports: list[Overlap]) -> list[Overlap]:
    return [r for r in reports if not r.resolved]
