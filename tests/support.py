"""Shared builders for randomized, always-admissible test instances."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from typing import Sequence

from qlincat import cli, linalg
from qlincat import (
    Extraction,
    GradedSpace,
    NotComplementary,
    make_general,
    make_normalized,
    make_sudbery,
    space_of,
)
from qlincat.bialgebra import WrongShape
from qlincat.graded import koszul_sign, koszul_signs, pi_image
from qlincat.homs import HomAlgebra, relation_set
from qlincat.linalg import (
    ZERO,
    InvariantViolation,
    Matrix,
    _cleared,
    _echelon,
    _int_rows,
    _reduced_rows,
    _same_span,
    frac,
)
from qlincat.rewrite import NCPoly, format_poly, matrix_alphabet, word_key

MIXED_SHAPES = [(0, 0), (0, 1), (1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1)]
ONE = Fraction(1)
Vector = tuple[Fraction, ...]


def identity(n: int) -> Matrix:
    """The n x n identity ``Matrix``."""
    return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def rand_nonzero(rng: random.Random, lo: int = -5, hi: int = 5, den: int = 4) -> Fraction:
    while True:
        n = rng.randint(lo, hi)
        if n:
            return Fraction(n, rng.randint(1, den))


def rand_reciprocal(rng: random.Random, space: GradedSpace):
    """A reciprocal parameter matrix with the parity diagonal."""
    n = space.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        m[a][a] = Fraction((-1) ** space.parities[a])
        for b in range(a + 1, n):
            r = rand_nonzero(rng)
            m[a][b] = r
            m[b][a] = 1 / r
    return tuple(tuple(row) for row in m)


def rand_sudbery(rng: random.Random, space: GradedSpace, name: str = ""):
    """Admissible two-parameter object with independent random p and q."""
    while True:
        q = rand_reciprocal(rng, space)
        p = rand_reciprocal(rng, space)
        try:
            return make_sudbery(space, q, p, name)
        except NotComplementary:
            continue


def rand_general(rng: random.Random, space: GradedSpace, name: str = ""):
    """Two-component object whose components are spanned by dense random
    vectors, so its relations are not homogeneous in any index grading."""
    n2 = space.dim**2
    while True:
        vecs = [tuple(rand_nonzero(rng) for _ in range(n2)) for _ in range(n2)]
        k = rng.randint(1, n2 - 1)
        try:
            return make_general(space, [vecs[:k], vecs[k:]], name)
        except NotComplementary:
            continue


def dense(row: dict[int, int], ncols: int) -> Vector:
    """A sparse integer row {column: int} as a dense ``Fraction`` vector."""
    return tuple(Fraction(row.get(c, 0)) for c in range(ncols))


def dense_pair_spans(space: GradedSpace, q, p):
    """Dense ``Fraction`` reference for ``spaces._pair_spans``: one vector
    e_ab - q^{ab} e_ba and one vector e_ab + p^{ab} e_ba per unordered pair
    a <= b, zero vectors dropped."""
    n = space.dim
    minus, plus = [], []
    for a in range(n):
        for b in range(a, n):
            for out, sign, m in ((minus, -1, q), (plus, 1, p)):
                vec = [Fraction(0)] * (n * n)
                vec[a * n + b] += 1
                vec[b * n + a] += sign * m[a][b]
                if any(vec):
                    out.append(tuple(vec))
    return tuple(minus), tuple(plus)


def pair_spans_reference(space: GradedSpace, q, p):
    """Span reference for ``dense_pair_spans``: one vector e_ab - q^{ab} e_ba
    and one vector e_ab + p^{ab} e_ba for every ordered pair (a, b), zero
    vectors dropped, so n**2 vectors in all, about half of them multiples
    of the others by reciprocity."""
    n = space.dim
    minus, plus = [], []
    for a, b in product(range(n), repeat=2):
        for out, sign, m in ((minus, -1, q), (plus, 1, p)):
            vec = [Fraction(0)] * (n * n)
            vec[a * n + b] += 1
            vec[b * n + a] += sign * m[a][b]
            if any(vec):
                out.append(tuple(vec))
    return tuple(minus), tuple(plus)


def rand_normalized(rng: random.Random, space: GradedSpace, name: str = ""):
    """Admissible one-parameter normalized object with random q, eps and lam."""
    while True:
        q = rand_reciprocal(rng, space)
        try:
            return make_normalized(space, q, rng.choice([1, -1]), rand_nonzero(rng), name)
        except NotComplementary:
            continue


def rand_constant(rng: random.Random) -> Fraction:
    """A random quantum constant, never 0 or -1."""
    while True:
        c = rand_nonzero(rng)
        if c not in (-1, 1):
            return c


def sudbery_with_constant(
    rng: random.Random,
    space: GradedSpace,
    constant: Fraction,
    name: str = "",
):
    """Object whose ratios realize the given constant under a random basis order."""
    n = space.dim
    order = list(range(n))
    rng.shuffle(order)
    positions = [0] * n
    for rank_, a in enumerate(order):
        positions[a] = rank_
    q = rand_reciprocal(rng, space)
    p = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        p[a][a] = Fraction((-1) ** space.parities[a])
        for b in range(n):
            if a != b:
                s = (positions[b] > positions[a]) - (positions[b] < positions[a])
                p[a][b] = q[a][b] * constant**s
    return make_sudbery(space, q, tuple(tuple(r) for r in p), name)


def criterion_pair(rng: random.Random, kind: str, src_shape, tgt_shape):
    """A YES pair (constants equal up to inverse), a NO pair (constants that
    are not), or a non-homogeneous general source with a two-parameter target."""
    src_space, tgt_space = space_of(src_shape), space_of(tgt_shape)
    if kind == "general":
        return rand_general(rng, src_space), rand_sudbery(rng, tgt_space)
    c = rand_constant(rng)
    other = rng.choice([c, 1 / c])
    if kind == "no":
        while other in (c, 1 / c):
            other = rand_constant(rng)
    return sudbery_with_constant(rng, src_space, c), sudbery_with_constant(rng, tgt_space, other)


def even2_sudbery(p21, q21, name: str = ""):
    """Purely even dim-2 object from the two upper parameters p^{21}, q^{21}."""
    p21, q21 = Fraction(p21), Fraction(q21)
    one = Fraction(1)
    q = ((one, 1 / q21), (q21, one))
    p = ((one, 1 / p21), (p21, one))
    return make_sudbery(space_of((0, 0)), q, p, name)


def scale_diagonal_word(hom: HomAlgebra, factor) -> HomAlgebra:
    """hom with one coefficient scaled: the first term, in the first relation
    that has one, whose letters are both diagonal entries t_A^A t_B^B.  The
    identity substitution sends exactly those words to 1, so it no longer
    kills that relation."""
    m = hom.target.space.dim
    diagonal = {a * m + a for a in range(m)}
    polys = list(hom.relations.polys)
    for i, poly in enumerate(polys):
        word = next((w for w in poly.terms if set(w) <= diagonal), None)
        if word is not None:
            terms = dict(poly.terms)
            terms[word] *= factor
            polys[i] = NCPoly(poly.alphabet, terms)
            return HomAlgebra(hom.source, hom.target, relation_set(hom.alphabet, polys))
    raise ValueError("no relation has a word of two diagonal entries")


def scale_relation_coefficient(hom: HomAlgebra, rng: random.Random, factor=7) -> HomAlgebra:
    """hom with one coefficient scaled by factor: a random term of a random
    relation that has at least two terms.  A one-term relation, such as an
    odd letter's square, spans the same line when scaled."""
    polys = list(hom.relations.polys)
    i = rng.choice([i for i, poly in enumerate(polys) if len(poly.terms) >= 2])
    terms = dict(polys[i].terms)
    word = rng.choice(sorted(terms))
    terms[word] *= factor
    polys[i] = NCPoly(polys[i].alphabet, terms)
    return HomAlgebra(hom.source, hom.target, relation_set(hom.alphabet, polys))


def ordering_by_enumeration(obj) -> Extraction | None:
    """Brute-force reference for ``pbw_extract_constant`` (small dims only):
    try every candidate constant against every basis ordering."""
    if obj.qp is None:
        return None
    q, p = obj.qp
    n = obj.space.dim
    if n <= 1:
        return Extraction(Fraction(1), tuple(range(n)))
    candidates = {p[a][b] / q[a][b] for a in range(n) for b in range(n) if a != b}
    candidates |= {1 / c for c in candidates}
    for c in sorted(candidates):
        if c == 0:
            continue
        for positions in permutations(range(n)):
            ok = True
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    s = (positions[b] > positions[a]) - (positions[b] < positions[a])
                    if p[a][b] != q[a][b] * c**s:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return Extraction(c, tuple(positions))
    return None


class FractionArithmetic(Exception):
    """A ``Fraction`` operation ran under ``forbid_fraction_arithmetic``."""


class FractionMade(Exception):
    """A module under ``forbid_new_fractions`` made a ``Fraction``."""


def forbid_fraction_arithmetic(monkeypatch):
    """Make every ``Fraction`` sum, difference, product, quotient and
    negation raise ``FractionArithmetic``."""
    def refuse(*args):
        raise FractionArithmetic

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)


class _SeesFractions(type):
    def __instancecheck__(cls, obj):
        return isinstance(obj, Fraction)


class _Unbuildable(metaclass=_SeesFractions):
    """A stand-in for ``Fraction``: isinstance still sees every Fraction,
    but calling it raises ``FractionMade``."""

    def __new__(cls, *args):
        raise FractionMade


def forbid_new_fractions(monkeypatch, *modules):
    """Make every ``Fraction(...)`` call in the given modules raise
    ``FractionMade``; isinstance checks against their ``Fraction`` still hold."""
    for module in modules:
        monkeypatch.setattr(module, "Fraction", _Unbuildable)


def _rref_rows(vectors: Sequence[Sequence], ncols: int) -> list[tuple[int, Vector]]:
    """The reduced echelon form of the vectors: (pivot column, dense row)
    pairs with ascending pivots, each pivot entry 1, read from the engine's
    integer reduced rows (``linalg._reduced_rows``) over reflected columns."""
    out, last = [], ncols - 1
    reflected = ({last - c: x for c, x in row.items()} for row in _int_rows(vectors))
    for pc, row in _reduced_rows(_echelon(reflected), ncols):
        v = [ZERO] * ncols
        for c, x in row.items():
            v[c] = Fraction(x, row[pc])
        out.append((pc, tuple(v)))
    return out


def rank(m: Matrix) -> int:
    """The package engine's rank: the number of forward echelon rows."""
    return len(_echelon(_int_rows(m.data)))


def row_spans_equal(a, b) -> bool:
    """Do two lists of rational vectors span the same rows?  The package
    engine's span comparison (``linalg._same_span``) on their echelons."""
    return _same_span(_echelon(_int_rows(a)), _echelon(_int_rows(b)))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space {v : m v = 0}; checks rank-nullity
    against an independent forward rank and that m annihilates the basis,
    both on the cleared integer rows of m."""
    pairs = _rref_rows(m.data, m.cols)
    pivot_set = {pc for pc, _ in pairs}
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[fc] = ONE
        for pc, row in pairs:
            v[pc] = -row[fc]
        basis.append(tuple(v))
    rows = _int_rows(m.data)
    if len(basis) != m.cols - len(_echelon(rows)):
        raise InvariantViolation("rank-nullity violated")
    for v in basis:
        w = _cleared(dict(enumerate(v)))
        if any(sum(x * w.get(c, 0) for c, x in row.items()) for row in rows):
            raise InvariantViolation("kernel vector not annihilated")
    return basis


def annihilator(
    spanning: Sequence[Sequence],
    dim: int,
    signs: Sequence[int] | None = None,
) -> list[Vector]:
    """Basis of {g : <g, f> = 0 for all f in the span}.

    The pairing is <g, f> = sum_u g[u] * signs[u] * f[u]; by default every
    sign is 1 (standard dual pairing).  Reference for
    ``QuantumObject.annihilators``, which reads the same basis from the
    component's own reduced echelon rows.
    """
    vecs = [tuple(frac(x) for x in f) for f in spanning]
    for f in vecs:
        if len(f) != dim:
            raise ValueError("vector length mismatch")
    if not vecs:
        return [tuple(ONE if i == j else ZERO for i in range(dim)) for j in range(dim)]
    if signs is not None:
        vecs = [tuple(s * x for s, x in zip(signs, f)) for f in vecs]
    return kernel_basis(Matrix(vecs))


def rank_bareiss(m) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers.

    Independent of the package's elimination engine (dense, leftmost-column
    pivots, exact division by the previous pivot), so tests compare ranks
    against it.
    """
    rows = []
    for row in m.data:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append([int(x * den) for x in row])
    nr, nc = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(rows[i], rows[r])]
        prev = piv
        r += 1
    return r


def poly_json(poly: NCPoly) -> list:
    """A polynomial's terms as the CLI's ``--json`` reports list them, in
    descending word order."""
    return [{"word": list(word), "coeff": str(coeff)} for word, coeff in poly.sorted_terms()]


def hom_output_reference(rels, form: str, equal: bool | None = None) -> tuple[str, str]:
    """What ``qlincat hom --form F`` prints in text and with ``--json`` when
    ``rels`` is the span of its first form, ``form``, built from the monic
    view ``rels.polys``; ``equal`` is the span comparison of ``--form both``."""
    polys = rels.polys
    lines = [f"relations ({form}): {len(polys)}, span dim {rels.span_dim}"]
    lines += [f"  {format_poly(p)} = 0" for p in polys]
    report = {"relations": [{"terms": poly_json(p)} for p in polys], "span_dim": rels.span_dim}
    if equal is not None:
        lines.append(f"general and closed-form spans equal: {'yes' if equal else 'NO'}")
        report["spans_equal"] = equal
    return "\n".join(lines) + "\n", json.dumps(report, sort_keys=True, indent=2) + "\n"


def relation_int_rows(rels) -> list[dict[int, int]]:
    """Each relation as an integer row, denominators cleared, word (g, h)
    at column g * n + h: the test suite's own copy of the encoding that
    ``RelationSet.echelon`` eliminates."""
    n = rels.alphabet.size
    rows = []
    for p in rels.polys:
        den = lcm(*(c.denominator for c in p.terms.values()))
        rows.append({g * n + h: int(c * den) for (g, h), c in p.terms.items()})
    return rows


def fraction_rules(system) -> dict:
    """The system's integer rules P lead = sum r_u u as ``Fraction``
    polynomials, keyed by the leading word: lead -> sum (r_u / P) u."""
    al = system.alphabet
    n = al.size
    return {
        divmod(lead, n): NCPoly(al, {divmod(u, n): Fraction(r, p) for u, r in rest.items()})
        for lead, (p, rest) in system.rules.items()
    }


def reduce_once(word, rules):
    """Leftmost reducible adjacent pair of a word and its rule, or None if
    the word is normal; rules are keyed by leading word, as from
    ``fraction_rules``."""
    for i in range(len(word) - 1):
        rule = rules.get((word[i], word[i + 1]))
        if rule is not None:
            return i, rule
    return None


def normal_form_reference(p: NCPoly, system) -> NCPoly:
    """Reference for ``normal_form``: every term is rewritten on its own, on
    a stack of ``Fraction`` terms, always at its leftmost reducible pair,
    and equal words are combined only once they are normal.  It shares no
    code with the package's integer reducer, so tests compare the two; its
    work grows with the number of rewrite paths, so keep it to small
    systems."""
    rules = fraction_rules(system)
    out: dict = {}
    stack = list(p.terms.items())
    while stack:
        word, coeff = stack.pop()
        hit = reduce_once(word, rules)
        if hit is None:
            out[word] = out.get(word, Fraction(0)) + coeff
            continue
        i, rule = hit
        for w2, c2 in rule.terms.items():
            stack.append((word[:i] + w2 + word[i + 2:], coeff * c2))
    return NCPoly(p.alphabet, out)


def placement_oracle(hom, degree: int) -> int:
    """Reference for ``dimension_oracle``: the word count minus the rank of
    every placement u r v of a relation r between words u and v whose
    lengths sum to degree - 2.

    It shares the package's elimination engine but neither its encoding of
    relations as rows nor the oracle's degree recursion, so tests compare
    the two dimensions.
    """
    n = hom.alphabet.size
    rel_rows = [list(row.items()) for row in relation_int_rows(hom.relations)]
    rows: list[dict[int, int]] = []
    for i in range(degree - 1):
        tail = degree - 2 - i
        for u in product(range(n), repeat=i):
            upre = 0
            for g in u:
                upre = upre * n + g
            upre *= n ** (tail + 2)
            for v in product(range(n), repeat=tail):
                vidx = 0
                for g in v:
                    vidx = vidx * n + g
                for rel in rel_rows:
                    rows.append({upre + col * n**tail + vidx: c for col, c in rel})
    return n**degree - len(_echelon(rows))


def _normalised_reference(row: dict[int, int]) -> dict[int, int]:
    # a copy of ``linalg._normalised``, so that a change to it shows
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def rat_reference(value, path: str) -> Fraction:
    """``cli._rat`` without its plain-string fast path: every value goes
    through the general path's checks, in their order."""
    too_long = f"{path}: numerator and denominator may have at most {cli.MAX_DIGITS} digits each"
    if isinstance(value, cli._LongInteger):
        raise cli.ObjectSpecError(too_long)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise cli.ObjectSpecError(f"{path}: expected a rational string, got {value!r}")
    if isinstance(value, str) and cli._EXPONENT.fullmatch(value):
        raise cli.ObjectSpecError(f"{path}: exponent notation is not accepted: {value!r}")
    text = str(value)
    if len(text.strip()) > 2 * cli.MAX_DIGITS + 3:
        raise cli.ObjectSpecError(too_long)
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise cli.ObjectSpecError(f"{path}: not a rational: {value!r} ({exc})") from exc
    if len(str(abs(r.numerator))) > cli.MAX_DIGITS or len(str(r.denominator)) > cli.MAX_DIGITS:
        raise cli.ObjectSpecError(too_long)
    return r


def cancel_reference(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """The elimination step that normalises every intermediate row: a new
    row piv[col] * row - row[col] * piv, which is zero at col,
    gcd-normalised."""
    a, b = row[col], piv[col]
    new = {c: b * v for c, v in row.items() if c != col}
    for c, v in piv.items():
        if c == col:
            continue
        nv = new.get(c, 0) - a * v
        if nv:
            new[c] = nv
        elif c in new:
            del new[c]
    return _normalised_reference(new)


def insert_reference(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> dict | None:
    """``linalg._insert`` on ``cancel_reference`` steps: the stored row, or
    None if the row reduces to zero."""
    work = {c: v for c, v in row.items() if v}
    while work:
        lead = max(work)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = work = _normalised_reference(work)
            return work
        work = cancel_reference(work, piv, lead)
    return None


def echelon_reference(rows) -> dict[int, dict[int, int]]:
    """Reference for ``linalg._echelon``: the same rows, values and key
    order, from ``cancel_reference`` steps."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        insert_reference(pivots, row)
    return pivots


def back_substituted_reference(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reference for ``linalg._back_substituted`` from ``cancel_reference``
    steps."""
    done: dict[int, dict[int, int]] = {}
    for lead in sorted(echelon):
        row = echelon[lead]
        for c in [c for c in row if c != lead and c in done]:
            row = cancel_reference(row, done[c], c)
        done[lead] = row
    return done


def tower_reference(n: int, back: dict[int, dict[int, int]], top: int):
    """Reference for ``homs._Tower`` up to degree top, with one
    ``cancel_reference`` per word u c0 c1 of a row u r whose prefix u c0
    leads a row of M_{d-1}, by that row followed by c1, and no row skipped:
    the dimensions from degree 2, the back-substituted M_k of each degree,
    and for each degree d from 3 the forward echelon of M_d and the rows
    (u, leading word of r) that reduce to zero."""
    new, normal, dims = {2: back}, {1: list(range(n))}, [n * n - len(back)]
    echelons, rejected = {}, {}
    for d in range(3, top + 1):
        if d - 2 not in normal:
            normal[d - 2] = [w for p in normal[d - 3] for w in range(p * n, p * n + n)
                             if w not in new[d - 2]]
        prev, shift, pivots, zero = new[d - 1], n * n, {}, set()
        for u in normal[d - 2]:
            for lead, r in back.items():
                row = {u * shift + c: v for c, v in r.items()}
                for c in list(row):
                    p, y = divmod(c, n)
                    if p in prev:
                        row = cancel_reference(row, {b * n + y: v for b, v in prev[p].items()}, c)
                if insert_reference(pivots, row) is None:
                    zero.add((u, lead))
        dims.append(n * dims[-1] - len(pivots))
        echelons[d], rejected[d] = pivots, zero
        new[d] = back_substituted_reference(pivots)
    return dims, new, echelons, rejected


def kron(a, b):
    """Dense Kronecker product of two ``Matrix`` values."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            out.append(
                [
                    a.data[i][j] * b.data[k][l]
                    for j in range(a.cols)
                    for l in range(b.cols)
                ]
            )
    return Matrix(out)


def transpose(m):
    """Dense transpose of a ``Matrix``."""
    return Matrix(zip(*m.data)) if m.rows else Matrix([])


def matmul(a, b):
    """Dense product of two ``Matrix`` values."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    out = []
    for row in a.data:
        acc = [Fraction(0)] * b.cols
        for x, brow in zip(row, b.data):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return Matrix(out)


def mat_add(a, b):
    """Entrywise sum of two ``Matrix`` values of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in sum")
    return Matrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, b.data)])


def mat_scale(m, c):
    """The ``Matrix`` m with every entry multiplied by c."""
    c = frac(c)
    return Matrix([[c * x for x in row] for row in m.data])


def mat_apply(m, v) -> tuple:
    """The vector m v."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch in apply")
    return tuple(sum((a * frac(x) for a, x in zip(row, v)), Fraction(0)) for row in m.data)


def inverse(m):
    """Dense inverse of a square ``Matrix``: the right half of the reduced
    echelon form of (m | 1); ValueError if m is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    one, zero = Fraction(1), Fraction(0)
    aug = [row + tuple(one if i == j else zero for j in range(n)) for i, row in enumerate(m.data)]
    pairs = _rref_rows(aug, 2 * n)
    if len(pairs) != n or any(pc >= n for pc, _ in pairs):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for _, row in pairs])


def row_basis(vectors) -> list:
    """The nonzero rows of the reduced echelon form of the vectors."""
    return [row for _, row in _rref_rows(vectors, len(vectors[0]))] if vectors else []


def dense_spectral_sum(scale: int, columns) -> Matrix:
    """The dense ``Fraction`` matrix of a ``linalg.spectral_sum`` result:
    entry (r, c) is columns[c][r] / scale."""
    dim = len(columns)
    return Matrix([[Fraction(col.get(r, 0), scale) for col in columns] for r in range(dim)])


def dense_b(obj, coefficients) -> Matrix:
    """The dense ``Fraction`` matrix of sum_k lambda_k P_k, read densely
    from ``linalg.spectral_sum`` over the object's bases."""
    return dense_spectral_sum(*linalg.spectral_sum(obj.bases, coefficients, obj.space.dim**2))


def projectors(obj) -> list[Matrix]:
    """P_k onto component k along the others: the 0/1 ``spectral_sum``
    over the object's bases, read densely."""
    return [dense_b(obj, [int(k == j) for j in range(obj.s)]) for k in range(obj.s)]


def projectors_reference(components, dim):
    """Reference for ``projectors`` on an object's component rows: C has
    the component bases as columns, and P_k is the k-th column block of C
    times the k-th row block of C^{-1}, by a dense inverse and dense
    products."""
    bases = [row_basis([dense(v, dim) for v in comp]) for comp in components]
    c = transpose(Matrix([v for b in bases for v in b]))
    ci = inverse(c)
    out = []
    start = 0
    for b in bases:
        stop = start + len(b)
        if start == stop:
            out.append(Matrix.zeros(dim, dim))
        else:
            block = Matrix([row[start:stop] for row in c.data])
            out.append(matmul(block, Matrix(ci.data[start:stop])))
        start = stop
    return out


def b_matrix_reference(obj, coefficients):
    """Reference for ``dense_b``: sum_k lambda_k P_k as a dense sum of the
    scaled ``projectors_reference`` matrices."""
    dim = obj.space.dim**2
    total = Matrix.zeros(dim, dim)
    for lam, p in zip(coefficients, projectors_reference(obj.components, dim)):
        total = mat_add(total, mat_scale(p, lam))
    return total


def dense_yang_baxter(obj, m: Matrix) -> bool:
    """Reference for ``braid_verdicts``: the braid relation of a dense
    matrix m on the object's tensor square, B12 = m (x) 1 and B23 = 1 (x) m
    as dense n**3 x n**3 matrices, and the two triple products compared."""
    eye = identity(obj.space.dim)
    b12 = kron(m, eye)
    b23 = kron(eye, m)
    return matmul(matmul(b12, b23), b12) == matmul(matmul(b23, b12), b23)


def hecke_pair(obj) -> tuple[dict, dict]:
    """Reference for the two operators ``braid_verdicts`` reads, L**3 X and
    L**3 Y with X = P12 P23 P12 - P23 P12 P23 and Y = P12 - P23, as sparse
    integer matrices {(row, column): entry} on the tensor cube, zero entries
    dropped: L P = L P_1 from the 0/1 ``spectral_sum``, and P12 = P (x) 1 and
    P23 = 1 (x) P multiplied as whole matrices."""
    n = obj.space.dim
    scale, cols = linalg.spectral_sum(obj.bases, (1, 0), n * n)
    p12, p23 = {}, {}
    for pair, col in enumerate(cols):
        for r, v in col.items():
            for k in range(n):
                p12[r * n + k, pair * n + k] = v
                p23[k * n * n + r, k * n * n + pair] = v

    def mul(a, b):
        rows = {}
        for (i, j), v in b.items():
            rows.setdefault(i, []).append((j, v))
        out = {}
        for (i, k), v in a.items():
            for j, w in rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + v * w
        return out

    def diff(a, b, factor=1):
        out = {key: factor * v for key, v in a.items()}
        for key, v in b.items():
            out[key] = out.get(key, 0) - factor * v
        return {key: v for key, v in out.items() if v}

    x = diff(mul(mul(p12, p23), p12), mul(mul(p23, p12), p23))
    return x, diff(p12, p23, scale * scale)


def quotient_coords(rels) -> dict:
    """Fraction coordinates of every degree-2 word in the quotient by a
    relation span, read from its ``back_substituted`` rows rather than its
    ``rules``: a row c * lead + sum v_u u = 0 sends lead to
    {u: -v_u / c}, and a word that leads no row is its own coordinate."""
    n = rels.alphabet.size
    back = rels.back_substituted
    coords = {}
    for w in range(n * n):
        row = back.get(w)
        if row is None:
            coords[divmod(w, n)] = {divmod(w, n): Fraction(1)}
        else:
            coords[divmod(w, n)] = {
                divmod(u, n): Fraction(-v, row[w]) for u, v in row.items() if u != w
            }
    return coords


def delta_bidegree_reference(terms, a, b, c) -> dict:
    """Coefficients of Delta(poly) in Fractions over pairs of degree-2 word
    tuples, from the terms of poly over the composite's word tuples:
    u_A^S -> sum_K t_A^K (x) s_K^S, with the transposition sign
    (-1)**((par K + par S) * (par B + par L)) on t_A^K t_B^L (x) s_K^S s_L^T.
    Independent of the package's expansion over word codes."""
    m, l = b.space.dim, c.space.dim
    pa, pb, pc = a.space.parities, b.space.parities, c.space.parities
    out = {}
    for (g1, g2), coeff in terms.items():
        aa, s = divmod(g1, l)
        bb, t = divmod(g2, l)
        for k, ll in product(range(m), repeat=2):
            sign = koszul_sign(pb[k] + pc[s], pa[bb] + pb[ll])
            key = ((aa * m + k, bb * m + ll), (k * l + s, ll * l + t))
            out[key] = out.get(key, Fraction(0)) + coeff * sign
    return {k: v for k, v in out.items() if v}


def _reduce_bidegree(expansion, q1, q2):
    """An expansion over pairs of degree-2 words reduced in the quotient
    coordinates of both factors, in Fractions; zero entries dropped."""
    out = {}
    for (w1, w2), c in expansion.items():
        for bw1, c1 in q1[w1].items():
            for bw2, c2 in q2[w2].items():
                key = (bw1, bw2)
                out[key] = out.get(key, Fraction(0)) + c * c1 * c2
    return {k: v for k, v in out.items() if v}


def _objects(triple):
    """The objects a, b, c of a triple: the ends of its homs."""
    return triple.hom_ab.source, triple.hom_ab.target, triple.hom_bc.target


def delta_images_reference(triple) -> list[dict]:
    """Delta of each relation of hom(a, c), a monic ``RelationSet.polys``
    entry, reduced in the Fraction coordinates of both factors: keyed by
    pairs of normal degree-2 word tuples, zero entries dropped."""
    q1 = quotient_coords(triple.hom_ab.relations)
    q2 = quotient_coords(triple.hom_bc.relations)
    return [_reduce_bidegree(delta_bidegree_reference(rel.terms, *_objects(triple)), q1, q2)
            for rel in triple.hom_ac.relations.polys]


def comultiplication_reference(triple) -> bool:
    """Reference for ``comultiplication_check`` on Fraction coordinates."""
    return not any(delta_images_reference(triple))


def determinant_reference(triple, dets) -> bool:
    """Reference for ``determinant_multiplicativity``: both sides reduced
    separately in Fraction coordinates and compared."""
    det_ab, det_bc, det_ac = dets
    q1 = quotient_coords(triple.hom_ab.relations)
    q2 = quotient_coords(triple.hom_bc.relations)
    lhs = _reduce_bidegree(
        delta_bidegree_reference(det_ac.terms, *_objects(triple)), q1, q2
    )
    rhs_raw = {}
    for w1, c1 in det_ab.terms.items():
        for w2, c2 in det_bc.terms.items():
            rhs_raw[(w1, w2)] = rhs_raw.get((w1, w2), Fraction(0)) + c1 * c2
    return lhs == _reduce_bidegree(rhs_raw, q1, q2)


def coassociativity_reference(abc, acd) -> bool:
    """Reference for ``coassociativity_check`` that never reads hom(a, c):
    (Delta (x) 1) Delta of each hom(a, d) relation, expanded over the words
    of tridegree (2, 2, 2) in hom(a, b) (x) hom(b, c) (x) hom(c, d) and
    reduced in the Fraction coordinates of the three factors, one factor at
    a time.  A generator goes to u_A^S -> sum t_A^K (x) s_K^L (x) r_L^S,
    and (x1 (x) y1 (x) z1)(x2 (x) y2 (x) z2) = (-1)**(|y1| |x2| + |z1| |x2|
    + |z1| |y2|) x1 x2 (x) y1 y2 (x) z1 z2."""
    (a, b, c), d = _objects(abc), acd.hom_bc.target
    m, l, e = b.space.dim, c.space.dim, d.space.dim
    pa, pb, pc, pd = (o.space.parities for o in (a, b, c, d))
    factors = [quotient_coords(h.relations) for h in (abc.hom_ab, abc.hom_bc, acd.hom_bc)]
    for rel in acd.hom_ac.relations.polys:
        expansion = {}
        for (g1, g2), coeff in rel.terms.items():
            (aa, s), (bb, t) = divmod(g1, e), divmod(g2, e)
            for k1, k2, l1, l2 in product(range(m), range(m), range(l), range(l)):
                x2, z1 = pa[bb] + pb[k2], pc[l1] + pd[s]
                y1, y2 = pb[k1] + pc[l1], pb[k2] + pc[l2]
                sign = -1 if (y1 * x2 + z1 * x2 + z1 * y2) % 2 else 1
                key = ((aa * m + k1, bb * m + k2), (k1 * l + l1, k2 * l + l2),
                       (l1 * e + s, l2 * e + t))
                expansion[key] = expansion.get(key, Fraction(0)) + coeff * sign
        for i, coords in enumerate(factors):
            reduced = {}
            for key, v in expansion.items():
                for w, x in coords[key[i]].items():
                    k = key[:i] + (w,) + key[i + 1:]
                    reduced[k] = reduced.get(k, Fraction(0)) + v * x
            expansion = {k: v for k, v in reduced.items() if v}
        if expansion:
            return False
    return True


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise ValueError("row count mismatch")
    pairs = _rref_rows([row + (frac(x),) for row, x in zip(m.data, b)], m.cols + 1)
    x = [Fraction(0)] * m.cols
    for pc, row in pairs:
        if pc == m.cols:
            return None
        x[pc] = row[m.cols]
    return tuple(x)


def xi_quotient_reference(obj):
    """Reference for ``bialgebra._xi_quotient_coefficients``: for each word
    (a, b), solve e_ab = gamma_ab e_01 + (relation span) with a dense
    transpose and one ``solve`` per word."""
    n = obj.space.dim
    rel_vectors = [dense(pi_image(obj.space, v), n * n) for v in obj.components[1]]
    base = row_basis(rel_vectors)
    area = [Fraction(0)] * (n * n)
    area[0 * n + 1] = Fraction(1)
    columns = [tuple(area)] + [tuple(v) for v in base]
    mat = transpose(Matrix(columns))
    gammas = {}
    for a, b in product(range(n), repeat=2):
        target = [Fraction(0)] * (n * n)
        target[a * n + b] = Fraction(1)
        x = solve(mat, target)
        if x is None:
            raise WrongShape("area form is degenerate for this object")
        gammas[(a, b)] = x[0]
    return gammas


def monic(p: NCPoly) -> NCPoly:
    """p divided by its coefficient at its largest word (zero stays zero)."""
    if p.is_zero:
        return p
    return p.scale(1 / p.terms[max(p.terms, key=word_key)])


def coaction_degree2(src, tgt):
    """Matrix of the degree-2 covering coaction over the word bases.

    Entry at (row word (C, D), column word (K, L)) is
    (-1)**(par(D)*(par(C)+par(K))) t_C^K t_D^L.
    """
    n, m = src.space.dim, tgt.space.dim
    alphabet = matrix_alphabet(src.space, tgt.space)
    pv, pw = src.space.parities, tgt.space.parities
    table = [[None] * (m * m) for _ in range(n * n)]
    for c, d in product(range(n), repeat=2):
        for k, l in product(range(m), repeat=2):
            sign = -1 if (pv[d] * (pv[c] + pw[k])) % 2 else 1
            table[c * n + d][k * m + l] = NCPoly(alphabet, {(c * m + k, d * m + l): sign})
    return alphabet, table


def rmatrix_relation_span_reference(src, b_src: Matrix, tgt, b_tgt: Matrix):
    """The relations in projector form: the entries of
    B_source . coaction - coaction . B_target, for dense matrices B on the
    two objects' tensor squares, summed as polynomials over the
    ``coaction_degree2`` table.  With shared pairwise-distinct coefficients
    this spans the relations of the matrix-entry algebra."""
    n, m = src.space.dim, tgt.space.dim
    alphabet, delta = coaction_degree2(src, tgt)
    polys = []
    for i in range(n * n):
        for j in range(m * m):
            acc = NCPoly(alphabet)
            for k in range(n * n):
                if b_src.data[i][k]:
                    acc = acc + delta[k][j].scale(b_src.data[i][k])
            for k in range(m * m):
                if b_tgt.data[k][j]:
                    acc = acc - delta[i][k].scale(b_tgt.data[k][j])
            if not acc.is_zero:
                polys.append(monic(acc))
    return relation_set(alphabet, polys)


def projector_form_span(src, tgt, c_src, c_tgt):
    """``rmatrix_relation_span_reference`` of the reference matrices
    sum_k c_k P_k (``b_matrix_reference``) of the two objects."""
    return rmatrix_relation_span_reference(
        src, b_matrix_reference(src, c_src), tgt, b_matrix_reference(tgt, c_tgt)
    )


def derive_relations_general_reference(src, tgt) -> tuple[NCPoly, ...]:
    """Reference for ``derive_relations_general``: each relation summed over
    Fractions from the reference annihilators (``annihilator``) of the
    source components and the reduced echelon rows (``row_basis``) of the
    target components, made monic."""
    n, m = src.space.dim, tgt.space.dim
    alphabet = matrix_alphabet(src.space, tgt.space)
    signs = koszul_signs(src.space)
    polys = []
    for comp, tcomp in zip(src.components, tgt.components):
        ann = annihilator([dense(v, n * n) for v in comp], n * n, signs)
        fbasis = row_basis([dense(v, m * m) for v in tcomp])
        for g in ann:
            for f in fbasis:
                terms: dict = {}
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
                polys.append(monic(NCPoly(alphabet, terms)))
    return tuple(polys)


def derive_relations_sudbery_reference(src, tgt) -> tuple[NCPoly, ...]:
    """Reference for ``derive_relations_sudbery``: the closed form with
    Fraction coefficients, each nonzero relation made monic."""
    (qv, pv), (qw, pw) = src.qp, tgt.qp
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
            terms: dict = {}
            for w, c in (
                ((a * m + k, b * m + l), Fraction(1)),
                ((b * m + l, a * m + k), -c1),
                ((b * m + k, a * m + l), -c2),
            ):
                terms[w] = terms.get(w, Fraction(0)) + c
            poly = NCPoly(alphabet, terms)
            if not poly.is_zero:
                polys.append(monic(poly))
    return tuple(polys)
