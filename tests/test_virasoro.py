import random
from fractions import Fraction

import pytest

from virwhit.virasoro import (
    ContextMismatchError,
    bracket,
    commutator,
    generator,
    multiply,
    normal_order,
    unit,
)

C = Fraction(11, 3)


def test_bracket_central_case():
    # [L_2, L_-2] = 4 L_0 + c/2
    result = bracket(2, -2, C)
    assert result.terms == {(0,): Fraction(4), (): C / 2}


def test_bracket_non_central():
    assert bracket(3, 5, C).terms == {(8,): Fraction(-2)}


def test_bracket_vanishing_central_term():
    # m (m^2 - 1) = 0 at m = 1
    assert bracket(1, -1, C).terms == {(0,): Fraction(2)}


def test_bracket_antisymmetry():
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert bracket(m, n, C).terms == (-bracket(n, m, C)).terms


def test_normal_order_single_swap():
    assert normal_order((1, -1), C).terms == {(-1, 1): Fraction(1), (0,): Fraction(2)}


def test_normal_order_fixed_point():
    assert normal_order((-2, -1), C).terms == {(-2, -1): Fraction(1)}


def test_normal_order_central():
    assert normal_order((2, -2), C).terms == {
        (-2, 2): Fraction(1),
        (0,): Fraction(4),
        (): C / 2,
    }


def test_normal_order_is_projection():
    rng = random.Random(20240)
    for _ in range(40):
        word = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5)))
        element = normal_order(word, C)
        for mono, coeff in element.terms.items():
            assert list(mono) == sorted(mono)
            again = normal_order(mono, C)
            assert again.terms == {mono: Fraction(1)}


def test_multiply_identity():
    x = normal_order((2, -1, 3), C)
    assert multiply(unit(C), x).terms == x.terms
    assert multiply(x, unit(C)).terms == x.terms


def test_multiply_single_bracket():
    # L_1 L_-1 = L_-1 L_1 + 2 L_0
    product = multiply(generator(1, C), generator(-1, C))
    assert product.terms == {(-1, 1): Fraction(1), (0,): Fraction(2)}
    ordered = multiply(generator(-1, C), generator(1, C))
    assert ordered.terms == {(-1, 1): Fraction(1)}


def test_multiply_rejects_mixed_charges():
    with pytest.raises(ContextMismatchError):
        multiply(generator(1, C), generator(1, Fraction(1)))


def test_representation_independence():
    # Any bracketing of a word into sub-words multiplies back to the same
    # normal-ordered element: check every two-part cut and a nested
    # three-part split.
    rng = random.Random(7)
    for _ in range(30):
        word = tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 5)))
        whole = normal_order(word, C)
        for cut in range(1, len(word)):
            left = normal_order(word[:cut], C)
            right = normal_order(word[cut:], C)
            assert multiply(left, right).terms == whole.terms
        if len(word) >= 3:
            a, b = sorted(rng.sample(range(1, len(word)), 2))
            parts = [word[:a], word[a:b], word[b:]]
            nested = multiply(
                normal_order(parts[0], C),
                multiply(normal_order(parts[1], C), normal_order(parts[2], C)),
            )
            assert nested.terms == whole.terms


def test_jacobi_small_range():
    for m in range(-3, 4):
        for n in range(-3, 4):
            for p in range(-3, 4):
                lm, ln, lp = (generator(k, C) for k in (m, n, p))
                total = (
                    commutator(lm, commutator(ln, lp))
                    + commutator(ln, commutator(lp, lm))
                    + commutator(lp, commutator(lm, ln))
                )
                assert total.is_zero()


def test_scale_drops_zero():
    x = generator(2, C)
    assert x.scale(Fraction(0)).is_zero()
    assert (x - x).is_zero()
