"""AGT oracle: norms of the first-order Gaiotto state are Nekrasov sums.

With epsilon_1 = b, epsilon_2 = 1/b, Q = b + 1/b, c = 1 + 6 Q^2,
Delta = Q^2/4 - a^2 and (a_1, a_2) = (a, -a), the level-N norm of the
Gaiotto state with (mu_1, mu_2) = (1, 0), G_N^{-1}[(1^N), (1^N)], is the
level-N instanton sum

    Z_N = sum_{|Y_1| + |Y_2| = N} prod_{i,j} prod_{s in Y_i}
          1 / [E_ij(s) (Q - E_ij(s))],
    E_ij(s) = a_i - a_j - epsilon_1 L_{Y_j}(s) + epsilon_2 (A_{Y_i}(s) + 1),

A the arm length and L the leg length (Alday-Gaiotto-Tachikawa,
arXiv:0906.3219).  The sum shares no code with the Gram matrices, the
solver or the forms.

Single terms have poles that cancel in the sum: with b^2 = p/q in lowest
terms a diagonal pole first appears at level p + q, and an off-diagonal
one needs 2a in Z b + Z/b.  So every point below has p + q above the top
level and a denominator of a coprime to the numerator and denominator of b.
"""

from fractions import Fraction
from itertools import product

import pytest

from virwhit.forms import (
    gaiotto_form,
    raise_indices,
    verify_whittaker_form,
    verify_whittaker_state,
)
from virwhit.shapovalov import gram, solve
from virwhit.verma import VermaContext, enumerate_partitions
from virwhit.whittaker import WhittakerTypeR

TOP_LEVEL = 8

# (b, a): b^2 = 9/4 and 16/9, so p + q = 13 and 25.
POINTS = [
    (Fraction(3, 2), Fraction(2, 7)),
    (Fraction(4, 3), Fraction(1, 5)),
]


def _transpose(y):
    return tuple(sum(1 for part in y if part > j) for j in range(y[0])) if y else ()


def nekrasov_level(level, b, a):
    e1, e2 = b, 1 / b
    q = e1 + e2
    charges = (a, -a)
    total = Fraction(0)
    for k in range(level + 1):
        for pair in product(enumerate_partitions(k), enumerate_partitions(level - k)):
            term = Fraction(1)
            for i, yi in enumerate(pair):
                for j, yj in enumerate(pair):
                    columns = _transpose(yj)
                    for row, length in enumerate(yi):
                        for col in range(length):
                            arm = length - col - 1
                            leg = (columns[col] if col < len(columns) else 0) - row - 1
                            e = charges[i] - charges[j] - e1 * leg + e2 * (arm + 1)
                            term /= e * (q - e)
            total += term
    return total


def _context(b, a):
    q = b + 1 / b
    return VermaContext(1 + 6 * q * q, q * q / 4 - a * a)


@pytest.mark.parametrize("b, a", POINTS)
def test_gram_inverse_matches_nekrasov(b, a):
    ctx = _context(b, a)
    for level in range(TOP_LEVEL + 1):
        parts = enumerate_partitions(level)
        ones = parts.index((1,) * level)
        unit = [Fraction(int(i == ones)) for i in range(len(parts))]
        x = solve(gram(level, ctx), unit)
        assert x[ones] == nekrasov_level(level, b, a), (b, a, level)


@pytest.mark.parametrize("b, a", POINTS)
def test_raised_gaiotto_state_has_nekrasov_norms_and_verifies(b, a):
    ctx = _context(b, a)
    psi = WhittakerTypeR(1, (Fraction(1), Fraction(0)))
    form = gaiotto_form(psi, {(): Fraction(1)}, TOP_LEVEL, ctx)
    state = raise_indices(form)
    for level in range(TOP_LEVEL + 1):
        assert state.coefficient((1,) * level) == nekrasov_level(level, b, a)
    assert verify_whittaker_form(form, psi).passed
    assert verify_whittaker_state(state, psi, TOP_LEVEL).passed
