import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qlincat import homs
from qlincat.graded import even_space, space_of
from qlincat.homs import derive_relations_general, relation_set
from qlincat.linalg import _cleared, _echelon, _insert
from qlincat.pbw import classical_dimension, dimension_oracle
from qlincat.rewrite import (
    Alphabet,
    NCPoly,
    Overlap,
    build_rewrite_system,
    confluence_check,
    failed_overlaps,
    format_poly,
    nonordered_degree2_words,
    word_key,
)
from qlincat.homs import hom_algebra
from qlincat.spaces import make_classical, make_sudbery

from support import (
    MIXED_SHAPES,
    criterion_pair,
    even2_sudbery,
    fraction_rules,
    normal_form_reference,
    rand_general,
    rand_nonzero,
    rand_sudbery,
    reduce_once,
    relation_int_rows,
    sudbery_with_constant,
)


def test_word_key_orders_by_degree_then_letters():
    # letter ids are row-major, so (row 0, col 0) < (row 0, col 1)
    assert word_key((0,)) < word_key((1,))
    assert word_key((1, 0)) > word_key((0, 1))
    assert word_key((0, 1)) == word_key((0, 1))
    # degree dominates
    assert word_key((3, 3)) < word_key((0, 0, 0))


def test_classical_rules_are_signed_swaps():
    cl = make_classical(space_of((0, 1)))
    rels = derive_relations_general(cl, cl)
    system = build_rewrite_system(rels)
    assert system.complete
    al = system.alphabet
    for (g, h), rhs in fraction_rules(system).items():
        if g == h:
            assert al.parities[g] == 1 and rhs.is_zero
        else:
            sign = (-1) ** (al.parities[g] * al.parities[h])
            assert rhs == NCPoly(al, {(h, g): sign})


def test_fixed_pair_rule_for_leading_word():
    # inverting ad - 5/9 da - (-7/9) cb = 0 for its leading word gives
    # da -> 9/5 ad + 7/5 cb; the stored rule is the fully reduced image of
    # that right side (cb is itself a leader), so they rewrite identically
    src = even2_sudbery(2, 3)
    tgt = even2_sudbery(4, 5)
    system = build_rewrite_system(derive_relations_general(src, tgt))
    assert system.complete and len(system.rules) == 6
    a, b, c, d = 0, 1, 2, 3
    inverted = NCPoly(
        system.alphabet, {(a, d): Fraction(9, 5), (c, b): Fraction(7, 5)}
    )
    nf = normal_form_reference(inverted, system)
    assert fraction_rules(system)[(d, a)] == nf
    assert normal_form_reference(NCPoly(system.alphabet, {(d, a): 1}), system) == nf


def test_dependent_extra_relation_same_system():
    src = even2_sudbery(2, 3)
    rels = derive_relations_general(src, src)
    extra = rels.polys[0] + rels.polys[1].scale(3)
    padded = relation_set(rels.alphabet, list(rels.polys) + [extra])
    assert build_rewrite_system(padded).rules == build_rewrite_system(rels).rules


def test_degree2_defect_reported():
    al = Alphabet((0, 0), ("a", "b"))
    # ordered word ab leads; non-ordered ba has no rule
    bad = relation_set(al, [NCPoly(al, {(0, 1): 1, (0, 0): -1})])
    system = build_rewrite_system(bad)
    assert not system.complete
    assert (0, 1) in system.unexpected_leaders
    assert (1, 0) in system.missing_leaders
    # still rewrites best effort: abb -> aab -> aaa
    nf = normal_form_reference(NCPoly(al, {(0, 1, 1): 1}), system)
    assert nf == NCPoly(al, {(0, 0, 0): 1})


def test_leader_defects_follow_the_rules():
    # the defects are read off the rules, so a system with new rules and
    # nothing else replaced reports them: a rule keyed by the ordered pair
    # ab (code 1) is unexpected in a system that was complete
    src = even2_sudbery(2, 3)
    system = build_rewrite_system(derive_relations_general(src, src))
    assert system.complete and 1 not in system.rules
    extra = replace(system, rules={**system.rules, 1: (1, {0: 1})})
    assert extra.unexpected_leaders == ((0, 1),)
    assert extra.missing_leaders == ()
    assert not extra.complete


def test_normal_form_fixpoint_on_ordered_word():
    src = even2_sudbery(2, 3)
    system = build_rewrite_system(derive_relations_general(src, src))
    p = NCPoly(system.alphabet, {(0, 1, 3): 1})
    assert normal_form_reference(p, system) == p


def test_rule_right_sides_strictly_smaller():
    rng = random.Random(41)
    for _ in range(6):
        src = rand_sudbery(rng, space_of((0, 1)))
        tgt = rand_sudbery(rng, space_of((0, 1)))
        system = build_rewrite_system(derive_relations_general(src, tgt))
        for lhs, rhs in fraction_rules(system).items():
            for w in rhs.terms:
                assert word_key(w) < word_key(lhs)


def test_single_step_strictly_decreases():
    src = even2_sudbery(2, 3)
    rules = fraction_rules(build_rewrite_system(derive_relations_general(src, src)))
    rng = random.Random(4)
    for _ in range(30):
        word = tuple(rng.randrange(4) for _ in range(4))
        for i in range(3):
            rule = rules.get((word[i], word[i + 1]))
            if rule is None:
                continue
            for w2 in rule.terms:
                new = word[:i] + w2 + word[i + 2:]
                assert word_key(new) < word_key(word)


def test_odd_square_rewrites_to_zero():
    src = make_sudbery(
        space_of((0, 1)),
        [[1, 2], [Fraction(1, 2), -1]],
        [[1, 3], [Fraction(1, 3), -1]],
    )
    tgt = make_classical(even_space(1))
    system = build_rewrite_system(derive_relations_general(src, tgt))
    assert system.complete
    odd_letter = 1  # t_1^0 has parity 1
    assert system.alphabet.parities[odd_letter] == 1
    square = NCPoly(system.alphabet, {(odd_letter, odd_letter): 1})
    assert normal_form_reference(square, system).is_zero


def _degree3_ideal(rels):
    """Echelon of the degree-3 part of the ideal: each relation row times a
    letter on the left and on the right, word (g, h, k) at column
    g n^2 + h n + k."""
    n = rels.alphabet.size
    rows = []
    for row in relation_int_rows(rels):
        for x in range(n):
            rows.append({x * n * n + c: v for c, v in row.items()})
            rows.append({c * n + x: v for c, v in row.items()})
    return _echelon(rows)


def _in_ideal(ideal, p: NCPoly) -> bool:
    n = p.alphabet.size
    row = _cleared({(g * n + h) * n + k: c for (g, h, k), c in p.terms.items()})
    return _insert(dict(ideal), row) is None


def test_normal_form_soundness_degree3():
    rng = random.Random(77)
    src = rand_sudbery(rng, even_space(2))
    tgt = rand_sudbery(rng, even_space(2))
    rels = derive_relations_general(src, tgt)
    system = build_rewrite_system(rels)
    ideal = _degree3_ideal(rels)
    for _ in range(10):
        word = tuple(rng.randrange(4) for _ in range(3))
        p = NCPoly(system.alphabet, {word: 1})
        assert _in_ideal(ideal, p - normal_form_reference(p, system))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["yes", "no", "general"]),
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.integers(0, 2**32 - 1),
)
def test_normal_form_is_sound(kind, src_shape, tgt_shape, seed):
    # every rewrite step subtracts a multiple of a relation, so p - nf(p)
    # lies in the degree-3 part of the ideal, complete system or not
    rng = random.Random(seed)
    src, tgt = criterion_pair(rng, kind, src_shape, tgt_shape)
    rels = hom_algebra(src, tgt).relations
    system = build_rewrite_system(rels)
    al = system.alphabet
    ideal = _degree3_ideal(rels)
    p = NCPoly(
        al,
        {tuple(rng.randrange(al.size) for _ in range(3)): rand_nonzero(rng) for _ in range(4)},
    )
    diff = p - normal_form_reference(p, system)
    assert _in_ideal(ideal, diff)
    if kind == "yes":
        # control: on a PBW pair the ordered words are independent modulo
        # the ideal, so one of them added to the difference leaves it
        rules = fraction_rules(system)
        ordered = [
            w
            for w in product(range(al.size), repeat=3)
            if reduce_once(w, rules) is None
        ]
        word = rng.choice(ordered)
        assert not _in_ideal(ideal, diff + NCPoly(al, {word: 1}))


def test_confluence_classical():
    cl = make_classical(space_of((0, 1)))
    system = build_rewrite_system(derive_relations_general(cl, cl))
    assert not failed_overlaps(confluence_check(system))


def test_confluence_matches_oracle():
    rng = random.Random(53)
    hits = {True: 0, False: 0}
    for _ in range(10):
        sp = space_of(rng.choice([(0, 0), (0, 1)]))
        if rng.random() < 0.5:
            c = Fraction(rng.choice([2, 3, 5]), rng.choice([1, 2]))
            if c == 1:
                c = Fraction(3)
            src = sudbery_with_constant(rng, sp, c)
            tgt = sudbery_with_constant(rng, sp, rng.choice([c, 1 / c]))
        else:
            src = rand_sudbery(rng, sp)
            tgt = rand_sudbery(rng, sp)
        hom = hom_algebra(src, tgt)
        system = build_rewrite_system(hom.relations)
        assert system.complete
        confluent = not failed_overlaps(confluence_check(system))
        classical = dimension_oracle(hom, 3) == classical_dimension(
            hom.alphabet.parities, 3
        )
        assert confluent == classical
        hits[confluent] += 1
    assert hits[True] and hits[False], "sweep must exercise both outcomes"


def test_branching_word_three_rows():
    # cba with the three letters on three distinct rows: both branch orders
    # normalize to the same combination of ordered monomials from the
    # 3 x 3 letter sublattice
    rng = random.Random(61)
    sp = even_space(3)
    c_const = Fraction(2)
    src = sudbery_with_constant(rng, sp, c_const)
    tgt = sudbery_with_constant(rng, sp, c_const)
    hom = hom_algebra(src, tgt)
    system = build_rewrite_system(hom.relations)
    assert not failed_overlaps(confluence_check(system))
    a = 0 * 3 + 0
    b = 1 * 3 + 1
    c = 2 * 3 + 2
    word = (c, b, a)
    al = system.alphabet
    rules = fraction_rules(system)
    # branch 1: rewrite the left pair (c, b) first
    left_first = NCPoly(al)
    for w2, c2 in rules[(c, b)].terms.items():
        left_first = left_first + NCPoly(al, {w2 + (a,): c2})
    # branch 2: rewrite the right pair (b, a) first
    right_first = NCPoly(al)
    for w2, c2 in rules[(b, a)].terms.items():
        right_first = right_first + NCPoly(al, {(c,) + w2: c2})
    nf_left = normal_form_reference(left_first, system)
    nf_right = normal_form_reference(right_first, system)
    assert nf_left == nf_right
    assert nf_left == normal_form_reference(NCPoly(al, {word: 1}), system)
    lattice = {r * 3 + k for r in range(3) for k in range(3)}
    nonordered = nonordered_degree2_words(al)
    for w in nf_left.terms:
        assert set(w) <= lattice
        for i in range(len(w) - 1):
            assert (w[i], w[i + 1]) not in nonordered


def test_normal_form_terminates_higher_degrees():
    # degree-5 words on a confluent system: full reduction to ordered words
    rng = random.Random(97)
    src = sudbery_with_constant(rng, space_of((0, 1)), Fraction(3))
    tgt = sudbery_with_constant(rng, space_of((0, 1)), Fraction(1, 3))
    system = build_rewrite_system(derive_relations_general(src, tgt))
    assert not failed_overlaps(confluence_check(system))
    reducible = set(fraction_rules(system))
    for _ in range(10):
        word = tuple(rng.randrange(4) for _ in range(5))
        nf = normal_form_reference(NCPoly(system.alphabet, {word: 1}), system)
        for w in nf.terms:
            for i in range(len(w) - 1):
                assert (w[i], w[i + 1]) not in reducible


def test_overlap_is_a_frozen_slotted_value():
    # confluence_check makes one per overlap, tens of thousands on a large pair
    a, b = Overlap((0, 1, 2), True), Overlap((0, 1, 2), True)
    assert a == b and hash(a) == hash(b)
    assert a != Overlap((0, 1, 2), False) and a != Overlap((0, 1, 3), True)
    assert len({a, b, Overlap((0, 1, 2), False)}) == 2
    assert repr(a) == "Overlap(word=(0, 1, 2), resolved=True)"
    assert Overlap.__slots__ == ("word", "resolved") and not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        a.resolved = False
    # no attribute can be added either (CPython 3.11's frozen slotted
    # dataclass raises TypeError here, later versions an AttributeError)
    with pytest.raises((AttributeError, TypeError)):
        a.note = "x"
    assert not hasattr(a, "note")
    assert a.resolved is True


def test_failed_overlaps_on_mismatched_constants():
    src = even2_sudbery(2, 1)  # ratio constant 2
    tgt = even2_sudbery(3, 1)  # ratio constant 3
    system = build_rewrite_system(derive_relations_general(src, tgt))
    assert system.complete
    assert failed_overlaps(confluence_check(system))


def two_normal_form_verdicts(system):
    """The definition the check stands for: overlap x y z is resolved when
    rule[xy] z and x rule[yz] have the same normal form.  The normal forms
    come from the reference, which shares no code with the reducer that
    ``confluence_check`` uses."""
    al = system.alphabet
    rules = fraction_rules(system)
    lefts = sorted(rules, key=word_key)
    verdicts = []
    for xy in lefts:
        for yz in (w for w in lefts if w[0] == xy[1]):
            x, z = xy[0], yz[1]
            via_left = NCPoly(al, {w + (z,): c for w, c in rules[xy].terms.items()})
            via_right = NCPoly(al, {(x,) + w: c for w, c in rules[yz].terms.items()})
            verdicts.append(
                ((x, xy[1], z),
                 normal_form_reference(via_left, system) == normal_form_reference(via_right, system))
            )
    return verdicts


def _verdicts(system):
    return [(r.word, r.resolved) for r in confluence_check(system)]


def _drop_rule(system, lead):
    """The system without the rule of one leading word code, in a new
    dict: that word goes missing.  The leader defects are read off the
    rules, so the new system is incomplete with nothing else replaced; a
    system that stored them would keep its stale ``missing_leaders`` and
    report itself complete."""
    return replace(system, rules={w: r for w, r in system.rules.items() if w != lead})


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["yes", "no", "general"]),
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.integers(0, 2**32 - 1),
)
def test_confluence_matches_two_normal_forms(kind, src_shape, tgt_shape, seed):
    rng = random.Random(seed)
    if kind == "general":
        # dense rules with unequal denominators on both sides; the target
        # stays at dimension 2 so that the Fraction reference stays fast
        src = rand_general(rng, space_of(src_shape))
        tgt = rand_general(rng, space_of(tgt_shape[:2]))
    else:
        src, tgt = criterion_pair(rng, kind, src_shape, tgt_shape)
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    assert _verdicts(system) == two_normal_form_verdicts(system)
    incomplete = _drop_rule(system, rng.choice(sorted(system.rules)))
    assert not incomplete.complete
    assert _verdicts(incomplete) == two_normal_form_verdicts(incomplete)


def _assert_replacement_words_are_normal(kind, src_shape, tgt_shape, seed, read):
    """No replacement word of a rule read off the span is a leading word:
    the precondition under which ``confluence_check`` may try a word's
    ``left`` rule before its ``right`` one."""
    src, tgt = criterion_pair(random.Random(seed), kind, src_shape, tgt_shape)
    rules = read(hom_algebra(src, tgt).relations)
    assert not any(u in rules for _, rest in rules.values() for u in rest)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["yes", "no", "general"]),
    st.sampled_from(MIXED_SHAPES),
    st.sampled_from(MIXED_SHAPES),
    st.integers(0, 2**32 - 1),
)
def test_rule_replacement_words_are_never_leading_words(kind, src_shape, tgt_shape, seed):
    _assert_replacement_words_are_normal(
        kind, src_shape, tgt_shape, seed, lambda rels: rels.rules
    )


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_replacement_property_fails_on_rules_from_forward_rows(kind):
    with pytest.raises(AssertionError):
        _assert_replacement_words_are_normal(
            kind, (0, 0), (0, 1), 0, lambda rels: homs._rules(rels.echelon)
        )


def test_confluence_general_rules_clear_to_non_unit_denominators():
    rng = random.Random(5)
    src = rand_general(rng, space_of((0, 1)))
    tgt = rand_general(rng, space_of((0, 0)))
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    assert any(p > 1 for p, _ in system.rules.values())
    assert _verdicts(system) == two_normal_form_verdicts(system)


@pytest.mark.parametrize("seed", range(6))
def test_confluence_fails_on_one_scaled_rule_coefficient(seed):
    rng = random.Random(seed)
    src, tgt = criterion_pair(rng, "yes", rng.choice(MIXED_SHAPES), rng.choice(MIXED_SHAPES))
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    assert system.complete and not failed_overlaps(confluence_check(system))
    lead = max(w for w, (_, rest) in system.rules.items() if rest)
    p, rest = system.rules[lead]
    word = max(rest)
    broken = replace(system, rules={**system.rules, lead: (p, {**rest, word: 3 * rest[word]})})
    verdicts = _verdicts(broken)
    assert not all(resolved for _, resolved in verdicts)
    assert verdicts == two_normal_form_verdicts(broken)


def test_confluence_makes_no_normal_form(monkeypatch):
    # the overlaps are decided on integers: no normal form, no polynomial
    # and no Fraction arithmetic once the rules are built
    src = even2_sudbery(2, 1)
    systems = [
        build_rewrite_system(derive_relations_general(src, tgt))
        for tgt in (even2_sudbery(2, 1), even2_sudbery(3, 1))  # YES, then NO
    ]

    def forbidden(*args):
        raise AssertionError("confluence_check left the integers")

    monkeypatch.setattr(NCPoly, "__init__", forbidden)
    for op in ("add", "sub", "mul", "truediv", "radd", "rsub", "rmul", "rtruediv", "neg"):
        monkeypatch.setattr(Fraction, f"__{op}__", forbidden)
    reports = [r for system in systems for r in confluence_check(system)]
    monkeypatch.undo()
    assert {r.resolved for r in reports} == {True, False}


def test_rules_are_cleared_once(monkeypatch):
    # the span's rules are read off its back-substituted rows once and
    # shared by every reader: no reader clears or copies them again
    calls = []
    real = homs._rules
    monkeypatch.setattr(homs, "_rules", lambda back: calls.append(back) or real(back))
    src, tgt = criterion_pair(random.Random(0), "yes", (0, 1), (0, 0))
    rels = hom_algebra(src, tgt).relations
    system = build_rewrite_system(rels)
    assert system.rules is rels.rules
    assert not failed_overlaps(confluence_check(system))
    normal_form_reference(NCPoly(system.alphabet, {(3, 2, 1, 0): 1}), system)
    confluence_check(build_rewrite_system(rels))
    assert len(calls) == 1
    # a replaced system reads its own rules, not the shared ones
    lead = max(w for w, (_, rest) in system.rules.items() if rest)
    p, rest = system.rules[lead]
    scaled = {u: 3 * r for u, r in rest.items()}
    broken = replace(system, rules={**system.rules, lead: (p, scaled)})
    assert failed_overlaps(confluence_check(broken))
    assert not failed_overlaps(confluence_check(system))
    assert len(calls) == 1


def test_confluence_matches_the_oracle_on_sixteen_letters():
    # the benchmark's large pairs: on a complete system the overlaps all
    # resolve iff the degree-3 dimension is classical
    rng = random.Random(0)
    for shape in [(0, 0, 0, 1), (0, 0, 1, 1)]:
        for kind in ("yes", "no"):
            src, tgt = criterion_pair(rng, kind, shape, shape)
            hom = hom_algebra(src, tgt)
            system = build_rewrite_system(hom.relations)
            verdicts = _verdicts(system)
            assert system.complete and len(verdicts) > 500
            classical = dimension_oracle(hom, 3) == classical_dimension(hom.alphabet.parities, 3)
            assert all(ok for _, ok in verdicts) == classical == (kind == "yes")


def test_a_constant_term_prints_as_its_coefficient():
    hom = hom_algebra(make_classical(even_space(2)), make_classical(even_space(2)))
    system = build_rewrite_system(hom.relations)
    al = hom.alphabet
    # ba rewrites to ab in the classical algebra; the constant stays as it is
    assert format_poly(normal_form_reference(NCPoly(al, {(1, 0): 1, (): 3}), system)) == "ab + 3"
    for c, text in [(3, "3"), (Fraction(-1, 2), "-1/2"), (1, "1"), (-1, "-1")]:
        assert format_poly(normal_form_reference(NCPoly(al, {(): c}), system)) == text
    assert str(NCPoly(al, {(0, 1): -1, (): Fraction(-1, 2)})) == "-ab - 1/2"
