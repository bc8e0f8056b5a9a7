import random
from fractions import Fraction
from itertools import product

import pytest

from qlincat.graded import (
    DegreeMismatch,
    GradedSpace,
    even_space,
    koszul_pairing,
    koszul_sign,
    koszul_signs,
    pi_image,
    space_of,
)
from qlincat.linalg import Matrix
from qlincat.spaces import make_sudbery

from support import dense, rank


def test_graded_space_validation():
    with pytest.raises(ValueError):
        GradedSpace(2, (0,))
    with pytest.raises(ValueError):
        GradedSpace(1, (2,))


def test_koszul_pairing_even():
    sp = even_space(2)
    assert koszul_pairing(sp, (0, 1), (0, 1)) == 1


def test_koszul_pairing_odd_sign():
    sp = space_of((0, 1))
    # both letters odd: sign (-1)**(1*1)
    assert koszul_pairing(sp, (1, 1), (1, 1)) == -1


def test_koszul_pairing_mismatch():
    sp = even_space(2)
    assert koszul_pairing(sp, (0, 1), (1, 0)) == 0


def test_koszul_pairing_degree_error():
    sp = even_space(2)
    with pytest.raises(DegreeMismatch):
        koszul_pairing(sp, (0, 1, 1), (0, 1))


def test_gram_is_signed_permutation():
    sp = space_of((0, 1, 1))
    signs = koszul_signs(sp)
    assert len(signs) == 9
    for i, (a, b) in enumerate(product(range(sp.dim), repeat=2)):
        assert signs[i] in (1, -1)
        assert signs[i] == koszul_pairing(sp, (a, b), (a, b))


def test_pi_even_is_identity():
    sp = even_space(2)
    row = {i: i + 1 for i in range(4)}
    assert pi_image(sp, row) == row


def test_pi_sign_on_odd_first_factor():
    sp = space_of((1, 0))
    row = {0 * 2 + 1: 1}  # e^1 (x) e^2, first factor odd
    assert pi_image(sp, row) == {1: -1}
    # the sign is read from the first factor only: (0|1) leaves (0, 1) alone
    assert pi_image(space_of((0, 1)), row) == row


def test_pi_roundtrip():
    rng = random.Random(2)
    sp = space_of((1, 0, 1))
    row = {c: rng.choice([-3, -1, 2, 5]) for c in range(9)}
    image = pi_image(sp, row)
    assert pi_image(sp, image) == row
    # words (A, B) with A odd change sign: A = 0 and A = 2 here
    assert [c for c in range(9) if image[c] != row[c]] == [0, 1, 2, 6, 7, 8]


def test_pi_preserves_decomposition_dims():
    obj = make_sudbery(
        space_of((0, 1)),
        [[1, 2], [Fraction(1, 2), -1]],
        [[1, 3], [Fraction(1, 3), -1]],
    )
    for comp in obj.components:
        mapped = [dense(pi_image(obj.space, v), 4) for v in comp]
        assert rank(Matrix(mapped)) == rank(Matrix([dense(v, 4) for v in comp]))


def test_koszul_sign_table():
    assert koszul_sign(0, 0) == koszul_sign(0, 1) == koszul_sign(1, 0) == 1
    assert koszul_sign(1, 1) == -1
