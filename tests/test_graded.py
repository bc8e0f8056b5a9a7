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

from support import rand_nonzero, rank


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
    vec = tuple(Fraction(i + 1, 3) for i in range(4))
    assert pi_image(sp, vec) == vec


def test_pi_sign_on_odd_first_factor():
    sp = space_of((1, 0))
    vec = [Fraction(0)] * 4
    vec[0 * 2 + 1] = Fraction(1)  # e^1 (x) e^2, first factor odd
    image = pi_image(sp, vec)
    assert image[1] == -1 and sum(1 for x in image if x) == 1


def test_pi_roundtrip():
    rng = random.Random(2)
    sp = space_of((1, 0, 1))
    vec = tuple(rand_nonzero(rng) for _ in range(9))
    assert pi_image(sp, pi_image(sp, vec)) == vec


def test_pi_preserves_decomposition_dims():
    obj = make_sudbery(
        space_of((0, 1)),
        [[1, 2], [Fraction(1, 2), -1]],
        [[1, 3], [Fraction(1, 3), -1]],
    )
    for comp in obj.components:
        mapped = [pi_image(obj.space, v) for v in comp]
        assert rank(Matrix(mapped)) == rank(Matrix(comp))


def test_koszul_sign_table():
    assert koszul_sign(0, 0) == koszul_sign(0, 1) == koszul_sign(1, 0) == 1
    assert koszul_sign(1, 1) == -1
