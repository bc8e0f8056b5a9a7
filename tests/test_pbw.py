import random
from copy import deepcopy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qlincat import homs, linalg, pbw
from qlincat.graded import even_space, space_of
from qlincat.homs import HomAlgebra, hom_algebra, relation_set
from qlincat.linalg import InvariantViolation, Matrix, _echelon
from qlincat.pbw import (
    TooLarge,
    classical_dimension,
    dimension_oracle,
    oracle_dims,
    pbw_criterion,
    pbw_extract_constant,
)
from qlincat.rewrite import build_rewrite_system, confluence_check, failed_overlaps
from qlincat.spaces import make_classical, make_sudbery

from support import (
    MIXED_SHAPES,
    criterion_pair,
    even2_sudbery,
    ordering_by_enumeration,
    placement_oracle,
    rand_constant,
    rank_bareiss,
    rand_sudbery,
    sudbery_with_constant,
    tower_reference,
)


def test_classical_dimension_even():
    assert classical_dimension((0, 0, 0, 0), 3) == 20


def test_classical_dimension_odd_only():
    assert classical_dimension((1, 1), 3) == 0


def test_classical_dimension_mixed():
    assert classical_dimension((0, 0, 1, 1), 2) == 8


def test_classical_dimension_edges():
    assert classical_dimension((), 0) == 1
    assert classical_dimension((), 2) == 0
    assert classical_dimension((1, 1, 1), 2) == 3


def test_oracle_matches_classical_for_undeformed():
    cl = make_classical(even_space(2))
    hom = hom_algebra(cl, cl)
    assert dimension_oracle(hom, 3) == 20
    assert dimension_oracle(hom, 2) == 10


def test_oracle_degree2_equals_words_minus_relations():
    rng = random.Random(71)
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        src = rand_sudbery(rng, space_of(parities))
        tgt = rand_sudbery(rng, space_of(parities))
        hom = hom_algebra(src, tgt)
        n = hom.alphabet.size
        assert dimension_oracle(hom, 2) == n * n - len(hom.relations.polys)


def test_oracle_degree2_always_classical():
    rng = random.Random(72)
    for _ in range(8):
        parities = rng.choice([(0, 0), (0, 1), (1, 1), (0, 0, 1)])
        src = rand_sudbery(rng, space_of(parities))
        tgt = rand_sudbery(rng, space_of(parities))
        hom = hom_algebra(src, tgt)
        assert dimension_oracle(hom, 2) == classical_dimension(hom.alphabet.parities, 2)


def test_oracle_monotone_below_classical():
    rng = random.Random(73)
    for _ in range(6):
        src = rand_sudbery(rng, even_space(2))
        tgt = rand_sudbery(rng, even_space(2))
        hom = hom_algebra(src, tgt)
        for d in (2, 3):
            assert dimension_oracle(hom, d) <= classical_dimension(
                hom.alphabet.parities, d
            )


def test_sparse_rank_agrees_with_dense():
    rng = random.Random(99)
    for _ in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 10)
        dense = [[0] * cols for _ in range(rows)]
        sparse = []
        for i in range(rows):
            row = {}
            for j in range(cols):
                if rng.random() < 0.4:
                    v = rng.randint(-5, 5)
                    dense[i][j] = v
                    if v:
                        row[j] = v
            sparse.append(row)
        assert len(_echelon(sparse)) == rank_bareiss(Matrix(dense))


def test_oracle_guard():
    cl = make_classical(even_space(3))
    hom = hom_algebra(cl, cl)
    with pytest.raises(TooLarge):
        dimension_oracle(hom, 8)
    with pytest.raises(ValueError):
        dimension_oracle(hom, 1)


def test_dimension_oracle_counts_no_classical_dimension(monkeypatch):
    # one exact dimension per call, read off the tower behind the guard
    sudbery = sudbery_with_constant(random.Random(3), even_space(2), Fraction(3, 2))
    hom = hom_algebra(sudbery, sudbery)
    expected = [dim for _, dim, _ in oracle_dims(hom, 6)]

    def no_classical(*args):
        raise AssertionError("classical dimension counted")

    monkeypatch.setattr(pbw, "classical_dimension", no_classical)
    assert [dimension_oracle(hom, d) for d in range(2, 7)] == expected


def _unreduced(hom):
    """The same hom algebra over a new relation set whose echelon is not
    computed yet."""
    return HomAlgebra(hom.source, hom.target, relation_set(hom.alphabet, hom.relations.polys))


def _no_elimination(*args):
    raise AssertionError("eliminated before the guard")


def test_oracle_guards_raise_before_elimination(monkeypatch):
    cl = make_classical(even_space(3))
    one = make_classical(even_space(1))
    cases = [
        (_unreduced(hom_algebra(cl, cl)), 8),
        (_unreduced(hom_algebra(one, one)), 20),
        (_unreduced(hom_algebra(one, one)), 10**12),
        (_unreduced(hom_algebra(cl, cl)), 10**12),
    ]
    # the oracle's elimination: the relation span's echelon, its cached
    # back-substitution and the quotient tower's back-substitutions, rows
    # and inserts
    for name in ("_echelon", "_back_substituted", "_row", "_insert"):
        monkeypatch.setattr(homs, name, _no_elimination)
    for hom, degree in cases:
        for oracle in (dimension_oracle, oracle_dims):
            with pytest.raises(TooLarge):
                oracle(hom, degree)
            with pytest.raises(ValueError, match="degree >= 2"):
                oracle(hom, 1)
        assert not {"echelon", "back_substituted", "tower"} & set(vars(hom.relations))


def test_one_letter_oracle_below_the_degree_bound():
    one = make_classical(even_space(1))
    dims = oracle_dims(hom_algebra(one, one), 19)
    assert dims == tuple((d, 1, 1) for d in range(2, 20))


def test_oracle_dims_is_one_pass(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(1)
        raise AssertionError("the oracle eliminated from scratch")

    hom = hom_algebra(even2_sudbery(2, 1), even2_sudbery(3, 1))
    # the oracle starts from the relation span's echelon, computed once when
    # the span was derived; after that it inserts only each degree's new
    # rows, one at a time, and never eliminates a set of rows from scratch
    for module in (homs, linalg):
        monkeypatch.setattr(module, "_echelon", counting)
    dims = oracle_dims(hom, 5)
    assert [d for d, _, _ in dims] == [2, 3, 4, 5]
    assert not calls


def _assert_oracle_matches_placements(src, tgt, top=4):
    # every alphabet from MIXED_SHAPES has at most 9 letters: 9**4 < 10**4
    hom = hom_algebra(src, tgt)
    reference = [placement_oracle(hom, d) for d in range(2, top + 1)]
    assert [dim for _, dim, _ in oracle_dims(hom, top)] == reference
    assert [dimension_oracle(hom, d) for d in range(2, top + 1)] == reference


@st.composite
def oracle_pairs(draw, kinds=("yes", "no", "general")):
    kind = draw(st.sampled_from(kinds))
    # dense general relations grow long coefficients: keep those at 4 letters
    shapes = [s for s in MIXED_SHAPES if len(s) == 2] if kind == "general" else MIXED_SHAPES
    src_shape, tgt_shape = draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return criterion_pair(rng, kind, src_shape, tgt_shape)


@settings(max_examples=15, deadline=None)
@given(oracle_pairs())
def test_oracle_matches_placement_oracle(pair):
    _assert_oracle_matches_placements(*pair)


# the degree each kind of four-letter pair is checked to: dense general
# relations grow long coefficients, and their degree 6 takes seconds
DEEP = {"yes": 6, "no": 6, "general": 5}


@st.composite
def deep_oracle_pairs(draw):
    kind = draw(st.sampled_from(sorted(DEEP)))
    shapes = [s for s in MIXED_SHAPES if len(s) == 2]
    src_shape, tgt_shape = draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return criterion_pair(rng, kind, src_shape, tgt_shape), DEEP[kind]


@settings(max_examples=10, deadline=None)
@given(deep_oracle_pairs())
def test_oracle_matches_placement_oracle_past_degree_4(case):
    # degree 5 is the first to insert rows u r for u a normal word built
    # from the tower's own new rows M_3
    pair, top = case
    _assert_oracle_matches_placements(*pair, top=top)


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_oracle_property_fails_without_left_multiples(monkeypatch, kind):
    # the tower then keeps only I_{d-1} V and drops the rows N_{d-2} R:
    # every tower is built with no relation row to multiply
    real = homs._Tower.__init__

    def without_relations(tower, n, back):
        real(tower, n, back)
        tower._groups = [[] for _ in range(n)]

    monkeypatch.setattr(homs._Tower, "__init__", without_relations)
    src, tgt = criterion_pair(random.Random(7), kind, (0, 1), (0, 0))
    for top in (4, DEEP[kind]):
        with pytest.raises(AssertionError):
            _assert_oracle_matches_placements(src, tgt, top)


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_oracle_property_fails_without_prefix_substitution(monkeypatch, kind):
    # the tower then reads no substitution rule, so words u c0 c1 whose
    # prefix u c0 leads a row of M_{d-1} stay in the rows u r, which are not
    # reduced modulo I_{d-1} V; past degree 4 the tower's invariant may
    # catch them first
    monkeypatch.setattr(homs, "_rules", lambda back, shift=1: {})
    src, tgt = criterion_pair(random.Random(7), kind, (0, 1), (0, 0))
    with pytest.raises(AssertionError):
        _assert_oracle_matches_placements(src, tgt)
    with pytest.raises((AssertionError, InvariantViolation)):
        _assert_oracle_matches_placements(src, tgt, DEEP[kind])


# the degree the tower is compared with its reference to, by alphabet size
REFERENCE_TOP = {4: 6, 6: 5, 9: 4, 16: 4}


def _record(tower) -> set:
    """The tower's record of its top degree as (u, leading word of r) rows."""
    return {(u, lead) for u, leads in tower.vanished.items() for lead in leads}


def _top_echelon(tower) -> dict:
    """The top degree's rows with every deferred row built: its forward
    echelon, committing the degree below first, or M_d once committed."""
    d = len(tower._dims) + 1
    if d in tower.new:
        return tower.new[d]
    tower.committed(d - 1)
    tower._build_deferred(d)
    return tower.echelons[d]


def _assert_tower_matches_reference(src, tgt):
    hom = hom_algebra(src, tgt)
    n, back = hom.alphabet.size, hom.relations.back_substituted
    top = REFERENCE_TOP[n]
    dims, new, echelons, rejected, _ = tower_reference(n, back, top)
    tower = homs._Tower(n, back)
    # one degree at a time, so that each degree reads the record of the last
    for d in range(3, top + 1):
        assert tower.dims(d) == dims[: d - 1], "dims"
        # each M_k is the reference's, up to the sign of each row, and each
        # committed M_k is in the reference's key order; the top echelon
        # stores a deferred row only when it is built, so its keys are a set
        for k in range(2, d + 1):
            got, rows = (tower.committed(k), new[k]) if k < d else (_top_echelon(tower), echelons[d])
            assert (list(got) == list(rows)) if k < d else (got.keys() == rows.keys()), "M_k"
            for lead, row in rows.items():
                assert got[lead] in (row, {c: -v for c, v in row.items()}), "M_k"
        # the rows skipped or rejected are those the unskipped reference rejects
        assert _record(tower) == rejected[d], "record"


@settings(max_examples=15, deadline=None)
@given(oracle_pairs())
@example(criterion_pair(random.Random(2), "general", (0, 0, 1), (0, 0, 1)))
def test_tower_matches_its_per_word_substitution_reference(pair):
    _assert_tower_matches_reference(*pair)


@pytest.mark.parametrize("kind", ["yes", "no"])
@pytest.mark.parametrize("shape", [(0, 0, 0, 1), (0, 0, 1, 1)])
def test_tower_matches_its_reference_at_16_letters(shape, kind):
    # the benchmark's large hom shapes: rules pre-shifted to b * 16 and
    # words read as (first letter, last letter) pairs at base 16
    _assert_tower_matches_reference(*criterion_pair(random.Random(7), kind, shape, shape))


def _assert_deferred_rows_are_stored_as_built(src, tgt):
    """Every row u r that the top degree defers, keyed by the word u lead(r),
    is one that the reference stores as built with that pivot, and none
    is in the record of vanished rows."""
    hom = hom_algebra(src, tgt)
    n, back = hom.alphabet.size, hom.relations.back_substituted
    top = REFERENCE_TOP[n]
    *_, as_built = tower_reference(n, back, top)
    tower = homs._Tower(n, back)
    for d in range(3, top + 1):
        tower.dims(d)
        deferred = {divmod(word, n * n): word for word in tower.deferred[d]}
        assert all(as_built[d].get(row) == word for row, word in deferred.items()), "deferred"
        assert not deferred.keys() & _record(tower), "deferred"


@settings(max_examples=15, deadline=None)
@given(oracle_pairs())
def test_deferred_rows_are_rows_the_reference_stores_as_built(pair):
    _assert_deferred_rows_are_stored_as_built(*pair)


# the general seed-7 pair to (0, 0) has no degree-3 normal word, so nothing to defer
@pytest.mark.parametrize("kind, tgt_shape", [("no", (0, 0)), ("general", (0, 1))])
def test_deferral_property_fails_when_a_reducible_prefix_is_deferred(monkeypatch, kind, tgt_shape):
    # from degree 4 each tower handles every row r a second time, with the
    # rows of the next letter a + 1, so it defers u r whenever u (a + 1) is
    # normal, u a reducible or not (on YES pairs every row of reducible
    # prefix is skipped from degree 4)
    real = homs._Tower.dims

    def next_letter(tower, top):
        if len(tower._dims) == 2:
            groups = tower._groups
            tower._groups = [[]] + [groups[x - 1] + groups[x] for x in range(1, len(groups))]
        return real(tower, top)

    monkeypatch.setattr(homs._Tower, "dims", next_letter)
    with pytest.raises(AssertionError, match="deferred"):
        _assert_deferred_rows_are_stored_as_built(
            *criterion_pair(random.Random(7), kind, (0, 1), tgt_shape))


def _assert_top_builds_no_row(src, tgt, monkeypatch):
    # past degree 3 every row of a reducible prefix is skipped and no
    # reduction reaches a deferred row, so the top degree builds no row
    hom = hom_algebra(src, tgt)
    n, tower, real = hom.alphabet.size, hom.relations.tower, homs._row
    for d in range(4, REFERENCE_TOP[n] + 1):
        tower.dims(d - 1)
        _top_echelon(tower)
        built = []
        with monkeypatch.context() as mp:
            mp.setattr(homs, "_row", lambda *args: built.append(args) or real(*args))
            tower.dims(d)
        assert not built
        assert len(tower.deferred[d]) == n * tower.dims(d)[-2] - tower.dims(d)[-1]


@settings(max_examples=15, deadline=None)
@given(oracle_pairs(kinds=["yes"]))
def test_a_yes_pair_builds_no_row_at_a_top_degree_past_3(pair):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_top_builds_no_row(*pair, monkeypatch)


@pytest.mark.parametrize("kind", ["no", "general"])
def test_no_row_known_answer_fails_off_yes_pairs(monkeypatch, kind):
    # the (R, G_3) obstructions are rows of reducible prefix that no record
    # names: they are built, and reduce through deferred rows
    with pytest.raises(AssertionError):
        _assert_top_builds_no_row(*criterion_pair(random.Random(7), kind, (0, 1), (0, 0)), monkeypatch)


def test_only_a_degree_that_defers_passes_the_build_hook(monkeypatch):
    # degree 3 stores every row of normal prefix as built, so its inserts
    # get no hook; degree 4 of a NO pair inserts rows and passes it
    real, hooks = homs._insert, []
    monkeypatch.setattr(homs, "_insert", lambda pivots, row, build=None: (
        hooks.append(build), real(pivots, row, build))[1])
    hom = hom_algebra(*criterion_pair(random.Random(7), "no", (0, 1), (0, 0)))
    oracle_dims(hom, 3)
    assert hooks and not any(hooks)
    oracle_dims(hom, 4)
    assert any(hooks)


def _extensions_past_degree_3(src, tgt, monkeypatch) -> dict[str, int]:
    """The eliminations a tower runs when it is extended one degree at a
    time from degree 3 to the reference top."""
    hom = hom_algebra(src, tgt)
    n, tower = hom.alphabet.size, hom.relations.tower
    tower.dims(3)
    with monkeypatch.context() as mp:
        calls = _counting_eliminations(mp)
        for d in range(4, REFERENCE_TOP[n] + 1):
            tower.dims(d)
    return calls


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_yes_pairs_commit_no_degree_past_3(seed):
    # every row past degree 3 is skipped or deferred, so no degree is ever
    # committed: no row is built and nothing is back-substituted
    with pytest.MonkeyPatch.context() as monkeypatch:
        for src_shape, tgt_shape in product(MIXED_SHAPES, MIXED_SHAPES):
            pair = criterion_pair(random.Random(seed), "yes", src_shape, tgt_shape)
            calls = _extensions_past_degree_3(*pair, monkeypatch)
            assert calls["_row"] == calls["_back_substituted"] == 0, (src_shape, tgt_shape)


def test_commit_known_answer_fails_on_a_no_pair(monkeypatch):
    # a NO pair inserts rows of reducible prefix: it commits degrees, and
    # builds rows to do so
    calls = _extensions_past_degree_3(*criterion_pair(random.Random(7), "no", (0, 1), (0, 0)), monkeypatch)
    assert calls["_row"] > 0
    assert calls["_back_substituted"] > 0


def _assert_request_order_is_irrelevant(src, tgt):
    # requests 5, 2, 4, 3, 6 (those up to the reference top), each alone
    # or followed by a commit through the accessor, against a fresh tower
    # asked for the top once: the same dims and the same committed M_k,
    # keys in the same order
    hom = hom_algebra(src, tgt)
    n, back = hom.alphabet.size, hom.relations.back_substituted
    top = REFERENCE_TOP[n]
    once = homs._Tower(n, back)
    want = once.dims(top)
    for commit in (False, True):
        tower = homs._Tower(n, back)
        for d in (d for d in (5, 2, 4, 3, 6) if d <= top):
            assert tower.dims(d) == want[: d - 1]
            if commit:
                tower.committed(d)
        assert tower.dims(top) == want
        for k in range(2, top + 1):
            got, rows = tower.committed(k), once.committed(k)
            assert got == rows and list(got) == list(rows), k


@settings(max_examples=15, deadline=None)
@given(oracle_pairs())
def test_interleaved_requests_commit_what_one_request_does(pair):
    _assert_request_order_is_irrelevant(*pair)


# a YES pair builds every row past degree 3 at a commit, whatever the
# order, each from the same stale tables
@pytest.mark.parametrize("kind", ["no", "general"])
def test_request_order_property_fails_when_the_table_memo_outlives_its_degree(monkeypatch, kind):
    # a memo that no commit resets: a row built after a commit reads the
    # table of the same code u at a lower degree, so what it holds depends
    # on which rows were built before the commit
    monkeypatch.setattr(homs._Tower, "_tables", property(
        lambda tower: vars(tower).setdefault("kept", {}), lambda tower, tables: None), raising=False)
    with pytest.raises((AssertionError, InvariantViolation)):
        _assert_request_order_is_irrelevant(*criterion_pair(random.Random(7), kind, (0, 1), (0, 0)))


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_tower_reference_property_fails_on_unshifted_rules(monkeypatch, kind):
    # each rule b keyed as b, not b * n: a word p y of a reducible prefix p
    # then adds r_b at b + y, a word of the wrong degree
    real = homs._rules
    monkeypatch.setattr(homs, "_rules", lambda back, shift=1: real(back))
    with pytest.raises((AssertionError, InvariantViolation)):
        _assert_tower_matches_reference(*criterion_pair(random.Random(7), kind, (0, 1), (0, 0)))


def _assert_shifted_rules_match(src, tgt):
    # the tower's new rows M_2 to M_5 (M_4 at 9 letters), each read plain
    # and shifted: the same rules in the same order, each word u keyed u * n
    hom = hom_algebra(src, tgt)
    n, tower = hom.alphabet.size, hom.relations.tower
    top = min(6, REFERENCE_TOP[n] + 1)
    tower.dims(top)
    for k in range(2, top):
        plain, shifted = homs._rules(tower.committed(k)), homs._rules(tower.committed(k), n)
        assert list(shifted) == list(plain)
        for lead, (pivot, rest) in plain.items():
            assert shifted[lead] == (pivot, {u * n: r for u, r in rest.items()})


@settings(max_examples=15, deadline=None)
@given(oracle_pairs())
def test_shifted_rules_are_the_plain_rules_with_every_word_times_n(pair):
    _assert_shifted_rules_match(*pair)


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_tower_reference_property_fails_without_the_lcm_scale(monkeypatch, kind):
    # each row u r then keeps the words with a normal prefix unscaled, and a
    # word p y whose pivot P exceeds 1 adds (1 // P) v r_b = 0 at each b y
    monkeypatch.setattr(homs, "lcm", lambda *pivots: 1)
    with pytest.raises((AssertionError, InvariantViolation)):
        _assert_tower_matches_reference(*criterion_pair(random.Random(7), kind, (0, 1), (0, 0)))


def _skipping(monkeypatch, rule):
    """Each extension of a tower skips the rows that ``rule(tower)`` names,
    a record in place of the one the tower committed."""
    real = homs._Tower.dims

    def dims(tower, top):
        tower.vanished = rule(tower)
        return real(tower, top)

    monkeypatch.setattr(homs._Tower, "dims", dims)


def _any_vanished_row(tower) -> dict:
    # u r is skipped if any row of its suffix vanished, whatever its r
    return {w: set(tower.committed(2)) for w in tower.vanished}


def _reducible_suffix(tower) -> dict:
    # the refuted leading-word rule: u r is skipped if the last d-2 letters
    # of u x are reducible, x the first letter of r's leading word; w x is
    # reducible iff it is a pivot of M_{d-2}, as w is normal
    n, d = tower.n, len(tower._dims) + 2
    if d < 4:
        return {}
    pivots = tower.committed(d - 2)
    return {w: {lead for lead in tower.committed(2) if w * n + lead // n in pivots}
            for w in tower.normal[d - 3]}


@pytest.mark.parametrize("rule, kind, tgt_shape", [
    (_any_vanished_row, "yes", (0, 0)),
    (_any_vanished_row, "no", (0, 0)),
    (_any_vanished_row, "general", (0, 1)),
    # on the seed-7 YES pairs the refuted rule changes nothing this property reads
    (_reducible_suffix, "no", (0, 0)),
    (_reducible_suffix, "general", (0, 1)),
])
def test_tower_reference_property_fails_on_a_wider_skip(monkeypatch, rule, kind, tgt_shape):
    # both rules skip rows that do not vanish, which changes the dims
    _skipping(monkeypatch, rule)
    with pytest.raises(AssertionError, match="dims"):
        _assert_tower_matches_reference(*criterion_pair(random.Random(7), kind, (0, 1), tgt_shape))


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_tower_reference_property_fails_when_rejected_rows_go_unrecorded(monkeypatch, kind):
    # every insert then reads as new: the record holds only skipped rows,
    # so nothing is ever skipped and only the record differs
    real = homs._insert
    monkeypatch.setattr(homs, "_insert", lambda pivots, row, build=None: real(pivots, row, build) or row)
    with pytest.raises(AssertionError, match="record"):
        _assert_tower_matches_reference(*criterion_pair(random.Random(7), kind, (0, 1), (0, 0)))


def _assert_inserts_reduce_to_zero_only_at_degree_3(src, tgt):
    # past degree 3 every row that vanishes is one the record skips
    hom = hom_algebra(src, tgt)
    n, tower = hom.alphabet.size, hom.relations.tower
    oracle_dims(hom, 3)
    for d in range(4, REFERENCE_TOP[n] + 1):
        prev, shift = tower.vanished, n ** (d - 3)
        oracle_dims(hom, d)
        assert {u: prev[u % shift] for u in tower.normal[d - 2] if u % shift in prev} == tower.vanished


@settings(max_examples=15, deadline=None)
@given(oracle_pairs(kinds=["yes"]))
def test_yes_pairs_reduce_no_inserted_row_to_zero_past_degree_3(pair):
    _assert_inserts_reduce_to_zero_only_at_degree_3(*pair)


@pytest.mark.parametrize("kind", ["no", "general"])
def test_zero_row_known_answer_fails_off_yes_pairs(kind):
    # the (R, G_3) obstructions: rows that no record names still vanish
    with pytest.raises(AssertionError):
        _assert_inserts_reduce_to_zero_only_at_degree_3(
            *criterion_pair(random.Random(7), kind, (0, 1), (0, 0)))


def _assert_order_independent(hom, rng):
    # pbw.oracle_dims, not the imported name, so that a control can wrap it;
    # the fresh spans stay alive, so no two of them share an id
    top = 5 if hom.alphabet.size <= 4 else 4
    degrees = list(range(2, top + 1))
    fresh = [_unreduced(hom) for _ in degrees]
    want = {d: pbw.oracle_dims(span, d) for d, span in zip(degrees, fresh)}
    for order in (degrees, degrees[::-1], rng.sample(degrees, len(degrees))):
        for span in (hom, _unreduced(hom)):
            for d in order:
                assert pbw.oracle_dims(span, d) == want[d]
                assert dimension_oracle(span, d) == want[d][-1][1]


@settings(max_examples=15, deadline=None)
@given(oracle_pairs(), st.randoms(use_true_random=False))
def test_oracle_dims_do_not_depend_on_the_requested_degree(pair, rng):
    _assert_order_independent(hom_algebra(*pair), rng)


def test_degree_property_fails_when_results_leak_across_degrees(monkeypatch):
    # an oracle that remembers the first answer per hom algebra, whatever
    # the degree asked for
    real, seen = pbw.oracle_dims, {}
    monkeypatch.setattr(pbw, "oracle_dims", lambda hom, top: seen.setdefault(id(hom), real(hom, top)))
    hom = hom_algebra(*criterion_pair(random.Random(7), "yes", (0, 1), (0, 0)))
    with pytest.raises(AssertionError):
        _assert_order_independent(hom, random.Random(7))


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_order_property_fails_when_the_top_echelon_is_kept_unreduced(monkeypatch, kind):
    # each finished degree then keeps its forward echelon, whose rows still
    # hold other pivot columns: a substitution leaves words with a reducible
    # prefix, some become pivots of the next degree, and its normal words
    # no longer number its dimension
    monkeypatch.setattr(homs, "_back_substituted", lambda echelon: echelon)
    hom = hom_algebra(*criterion_pair(random.Random(7), kind, (0, 0), (0, 1)))
    with pytest.raises(InvariantViolation, match="normal words"):
        _assert_order_independent(hom, random.Random(7))


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_tower_invariant_raises_when_substitution_is_skipped(monkeypatch, kind):
    # with no substitution rule read, words u c0 c1 with u c0 a pivot of
    # M_{d-1} stay in the rows u r: pivots of M_3 with a reducible prefix
    # leave N_3 longer than dim_3
    monkeypatch.setattr(homs, "_rules", lambda back, shift=1: {})
    hom = hom_algebra(*criterion_pair(random.Random(7), kind, (0, 0), (0, 1)))
    oracle_dims(hom, 4)
    with pytest.raises(InvariantViolation, match="degree 3 has .* normal words"):
        oracle_dims(hom, 5)


def _counting_eliminations(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(["_insert", "_row", "_rules", "_back_substituted"], 0)
    for name in calls:
        def counting(*args, real=getattr(homs, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(homs, name, counting)
    return calls


def _assert_tower_is_extended(hom, monkeypatch):
    n = hom.alphabet.size
    dims = [dim for _, dim, _ in oracle_dims(hom, 5)]
    tower = hom.relations.tower
    record, committed = tower.vanished, set(tower.new)
    unbuilt = {k: len(rows) for k, rows in tower.deferred.items()}
    calls = _counting_eliminations(monkeypatch)
    for d in range(2, 6):
        dimension_oracle(hom, d)
    assert calls == {"_insert": 0, "_row": 0, "_rules": 0, "_back_substituted": 0}
    dimension_oracle(hom, 6)
    # the rows u r for every normal word u of degree 4 and every r in M_2
    # but those the degree-5 record names for the suffix of u, each built
    # or still deferred (building first the deferred rows of each degree
    # it commits), and one back-substitution and one read of rules per
    # degree it commits
    commits = set(tower.new) - committed
    skipped = sum(len(record.get(u % n**3, ())) for u in tower.normal[4])
    built = calls["_row"] - sum(unbuilt[k] for k in commits)
    assert built + len(tower.deferred[6]) == dims[-2] * (n * n - dims[0]) - skipped
    assert calls["_insert"] <= built
    assert calls["_back_substituted"] == len(commits)
    assert calls["_rules"] == len(commits)


@pytest.mark.parametrize("kind", ["yes", "no", "general"])
def test_a_warmed_tower_answers_every_degree_without_eliminating(monkeypatch, kind):
    hom = hom_algebra(*criterion_pair(random.Random(7), kind, (0, 0), (0, 1)))
    _assert_tower_is_extended(hom, monkeypatch)


def test_tower_property_fails_when_the_tower_restarts_at_degree_2(monkeypatch):
    monkeypatch.setattr(homs.RelationSet, "tower", property(
        lambda rels: homs._Tower(rels.alphabet.size, rels.back_substituted)))
    hom = hom_algebra(*criterion_pair(random.Random(7), "yes", (0, 0), (0, 1)))
    with pytest.raises(AssertionError):
        _assert_tower_is_extended(hom, monkeypatch)


def test_an_error_while_extending_commits_no_partial_degree(monkeypatch):
    # a pair whose degree-3 record is not empty, so that degree 4 skips rows
    hom = hom_algebra(*criterion_pair(random.Random(7), "no", (0, 0), (0, 1)))
    n, fresh = hom.alphabet.size, _unreduced(hom)
    [(_, dim2, _), _] = oracle_dims(fresh, 3)
    record3, rows = fresh.relations.tower.vanished, n * n - dim2
    oracle_dims(fresh, 4)
    # degree 3 builds n |M_2| rows, and degree 4 has dim_2 |M_2| rows but
    # those the degree-3 record names, each built or deferred: stop
    # halfway through the rows degree 4 builds
    rows4 = sum(rows - len(record3.get(u % n, ())) for u in fresh.relations.tower.normal[2])
    assert 0 < rows4 < dim2 * rows
    built4 = rows4 - len(fresh.relations.tower.deferred[4])
    assert built4 > 1
    limit = n * rows + built4 // 2
    real, calls = homs._row, []

    def interrupted(*args):
        calls.append(1)
        if len(calls) > limit:
            raise RuntimeError("interrupted halfway through degree 4")
        return real(*args)

    monkeypatch.setattr(homs, "_row", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        oracle_dims(hom, 5)
    # degree 3 stays the top, with its own record
    assert _top_echelon(hom.relations.tower).keys() == fresh.relations.tower.committed(3).keys()
    assert hom.relations.tower.vanished == record3
    monkeypatch.undo()
    for d in (5, 2, 4, 3, 6):
        assert oracle_dims(hom, d) == oracle_dims(_unreduced(hom), d)


def _assert_an_interrupted_commit_stores_nothing(monkeypatch, hom, commit):
    # a degree-4 top whose deferred rows ``commit(tower)`` builds: stop
    # halfway through building them, then ask again
    tower = hom.relations.tower
    oracle_dims(hom, 4)
    before = deepcopy((tower.echelons[4], tower.deferred[4], tower.vanished))
    unbuilt = len(tower.deferred[4])
    assert unbuilt > 1
    real, calls = homs._row, []

    def interrupted(*args):
        calls.append(1)
        if len(calls) > unbuilt // 2:
            raise RuntimeError("interrupted while building deferred rows")
        return real(*args)

    monkeypatch.setattr(homs, "_row", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        commit(tower)
    assert (tower.echelons[4], tower.deferred[4], tower.vanished) == before
    assert 4 not in tower.new
    assert len(tower._dims) == 3
    monkeypatch.undo()
    for d in (5, 6, 4):
        assert oracle_dims(hom, d) == oracle_dims(_unreduced(hom), d)


@pytest.mark.parametrize("kind", ["yes", "no"])
def test_an_error_while_building_deferred_rows_commits_nothing(monkeypatch, kind):
    # M_4 asked for: degree 3, if not yet committed, is first, with no row to build
    hom = hom_algebra(*criterion_pair(random.Random(7), kind, (0, 0), (0, 1)))
    _assert_an_interrupted_commit_stores_nothing(monkeypatch, hom, lambda tower: tower.committed(4))


def test_an_error_in_a_commit_started_by_an_insert_commits_nothing(monkeypatch):
    # degree 5 of a NO pair inserts a row of reducible prefix, so it
    # commits degree 4 before it builds any row of its own
    hom = hom_algebra(*criterion_pair(random.Random(7), "no", (0, 0), (0, 1)))
    _assert_an_interrupted_commit_stores_nothing(monkeypatch, hom, lambda tower: tower.dims(5))


def test_guards_leave_a_warmed_tower_unchanged(monkeypatch):
    cl = make_classical(even_space(3))
    hom = hom_algebra(cl, cl)
    oracle_dims(hom, 4)
    before = deepcopy(vars(hom.relations.tower))
    for name in ("_echelon", "_back_substituted", "_row", "_insert", "_rules"):
        monkeypatch.setattr(homs, name, _no_elimination)
    for oracle in (dimension_oracle, oracle_dims):
        with pytest.raises(TooLarge):
            oracle(hom, 7)
        with pytest.raises(ValueError, match="degree >= 2"):
            oracle(hom, 1)
    assert vars(hom.relations.tower) == before


@pytest.mark.parametrize("shape, top", [((0, 0), 8), ((0, 0, 1), 5)])
def test_oracle_known_answers_at_stretch_sizes(shape, top):
    rng = random.Random(131)
    dims = oracle_dims(hom_algebra(*criterion_pair(rng, "yes", shape, shape)), top)
    assert [d for d, _, _ in dims] == list(range(2, top + 1))
    assert all(dim == cl for _, dim, cl in dims)
    dims = oracle_dims(hom_algebra(*criterion_pair(rng, "no", shape, shape)), top)
    assert any(dim < cl for _, dim, cl in dims)


def test_extract_classical_is_one_identity_order():
    for parities in [(0, 0), (0, 1), (0, 0, 1)]:
        ext = pbw_extract_constant(make_classical(space_of(parities)))
        assert ext is not None
        assert ext.constant == 1
        assert ext.positions == tuple(range(len(parities)))


def test_extract_dim2_always_succeeds():
    rng = random.Random(81)
    for _ in range(10):
        obj = rand_sudbery(rng, space_of(rng.choice([(0, 0), (0, 1), (1, 1)])))
        ext = pbw_extract_constant(obj)
        assert ext is not None
        q, p = obj.qp
        ratio = p[0][1] / q[0][1]
        assert ext.constant in (ratio, 1 / ratio) or ratio == 1


def test_extract_nontransitive_fails():
    one = Fraction(1)
    q = [[one] * 3 for _ in range(3)]
    p = [
        [one, Fraction(2), Fraction(1, 2)],
        [Fraction(1, 2), one, Fraction(2)],
        [Fraction(2), Fraction(1, 2), one],
    ]
    obj = make_sudbery(even_space(3), q, p)
    assert pbw_extract_constant(obj) is None
    assert ordering_by_enumeration(obj) is None


def test_extract_mixed_ratio_values_fails():
    one = Fraction(1)
    q = [[one] * 3 for _ in range(3)]
    p = [
        [one, Fraction(2), Fraction(3)],
        [Fraction(1, 2), one, Fraction(2)],
        [Fraction(1, 3), Fraction(1, 2), one],
    ]
    obj = make_sudbery(even_space(3), q, p)
    assert pbw_extract_constant(obj) is None


def test_extract_ordering_soundness():
    rng = random.Random(91)
    for _ in range(12):
        parities = rng.choice([(0, 0), (0, 1), (0, 0, 0), (0, 1, 1)])
        c = rand_constant(rng)
        obj = sudbery_with_constant(rng, space_of(parities), c)
        ext = pbw_extract_constant(obj)
        assert ext is not None
        q, p = obj.qp
        n = obj.space.dim
        pos = ext.positions
        for a in range(n):
            for b in range(n):
                s = (pos[b] > pos[a]) - (pos[b] < pos[a])
                assert p[a][b] == q[a][b] * ext.constant**s


def test_extract_agrees_with_enumeration():
    rng = random.Random(92)
    for _ in range(10):
        parities = rng.choice([(0, 0), (0, 0, 1), (0, 0, 0, 1)])
        sp = space_of(parities)
        if rng.random() < 0.5:
            obj = sudbery_with_constant(rng, sp, rand_constant(rng))
        else:
            obj = rand_sudbery(rng, sp)
        fast = pbw_extract_constant(obj)
        slow = ordering_by_enumeration(obj)
        assert (fast is None) == (slow is None)


def test_extract_dim1_unconstrained():
    obj = rand_sudbery(random.Random(3), even_space(1))
    ext = pbw_extract_constant(obj)
    assert ext is not None and ext.unconstrained
    # a dim-1 source composes with anything that extracts
    other = sudbery_with_constant(random.Random(5), even_space(2), Fraction(7))
    verdict = pbw_criterion(obj, other, oracle_degree=3)
    assert verdict.criterion_holds
    d, dim, cl = verdict.oracle_dims[-1]
    assert dim == cl


def test_criterion_reflexive():
    rng = random.Random(15)
    obj = rand_sudbery(rng, even_space(2))
    verdict = pbw_criterion(obj, obj, oracle_degree=None)
    assert verdict.criterion_holds == (pbw_extract_constant(obj) is not None)


def test_criterion_normalized_pair():
    from qlincat.spaces import make_normalized

    sp = even_space(2)
    q = [[1, Fraction(1, 3)], [3, 1]]
    a = make_normalized(sp, q, +1, 5)
    b = make_normalized(sp, [[1, Fraction(1, 2)], [2, 1]], +1, 5)
    verdict = pbw_criterion(a, b, oracle_degree=3)
    assert verdict.criterion_holds
    for _, dim, cl in verdict.oracle_dims:
        assert dim == cl
    # opposite branch still matches: constants are mutually inverse
    b_minus = make_normalized(sp, [[1, Fraction(1, 2)], [2, 1]], -1, 5)
    verdict = pbw_criterion(a, b_minus, oracle_degree=3)
    assert verdict.criterion_holds


def test_criterion_regression_pair_two_vs_three():
    src = even2_sudbery(2, 1)
    tgt = even2_sudbery(3, 1)
    verdict = pbw_criterion(src, tgt, oracle_degree=3)
    assert not verdict.criterion_holds
    assert {verdict.constant_source, 1 / verdict.constant_source} == {
        Fraction(2),
        Fraction(1, 2),
    }
    assert {verdict.constant_target, 1 / verdict.constant_target} == {
        Fraction(3),
        Fraction(1, 3),
    }
    dims = dict((d, (dim, cl)) for d, dim, cl in verdict.oracle_dims)
    assert dims[2] == (10, 10)
    # regression constant recorded from the oracle's first run
    assert dims[3] == (16, 20)


def test_oracle_degree4_confidence_run():
    rng = random.Random(113)
    c = Fraction(5, 3)
    src = sudbery_with_constant(rng, even_space(2), c)
    tgt = sudbery_with_constant(rng, even_space(2), 1 / c)
    hom = hom_algebra(src, tgt)
    assert dimension_oracle(hom, 4) == classical_dimension(hom.alphabet.parities, 4)
    bad = hom_algebra(even2_sudbery(2, 1), even2_sudbery(3, 1))
    assert dimension_oracle(bad, 4) < classical_dimension(bad.alphabet.parities, 4)


def _assert_criterion_matches_oracle_and_confluence(src, tgt):
    verdict = pbw_criterion(src, tgt, oracle_degree=3)
    classical = all(dim == cl for _, dim, cl in verdict.oracle_dims)
    system = build_rewrite_system(hom_algebra(src, tgt).relations)
    confluent = not failed_overlaps(confluence_check(system))
    assert verdict.criterion_holds == classical
    assert verdict.criterion_holds == confluent


@st.composite
def criterion_pairs(draw):
    kind = draw(st.sampled_from(["yes", "no"]))
    src_shape, tgt_shape = draw(st.sampled_from(MIXED_SHAPES)), draw(st.sampled_from(MIXED_SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return criterion_pair(rng, kind, src_shape, tgt_shape)


@settings(max_examples=20, deadline=None)
@given(criterion_pairs())
def test_criterion_agrees_with_oracle_and_confluence(pair):
    _assert_criterion_matches_oracle_and_confluence(*pair)


def test_criterion_property_fails_when_every_constant_is_compatible(monkeypatch):
    monkeypatch.setattr(pbw, "_compatible", lambda ea, eb: True)
    src, tgt = criterion_pair(random.Random(7), "no", (0, 1), (0, 0))
    with pytest.raises(AssertionError):
        _assert_criterion_matches_oracle_and_confluence(src, tgt)
