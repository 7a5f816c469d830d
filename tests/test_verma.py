import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from fraction_oracle import reference_det
from pbw_oracle import reference_verma_act
from virwhit.verma import (
    VermaContext,
    VermaVector,
    act,
    basis_change,
    basis_vector,
    enumerate_partitions,
    highest_weight_vector,
    partition_exponents,
    partition_index,
    scaled_images,
    straightener,
)
from virwhit.virasoro import bracket, normal_order

CTX = VermaContext(Fraction(11, 3), Fraction(2, 7))


def brute_force_partitions(level):
    # Independent oracle: filter all weakly decreasing positive tuples.
    found = set()
    if level == 0:
        return {()}
    for k in range(1, level + 1):
        for combo in itertools.product(range(1, level + 1), repeat=k):
            if sum(combo) == level and all(a >= b for a, b in zip(combo, combo[1:])):
                found.add(combo)
    return found


def test_partitions_level_zero():
    assert enumerate_partitions(0) == ((),)


def test_partitions_level_four():
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_level_six_matches_brute_force():
    got = enumerate_partitions(6)
    assert len(got) == 11
    assert set(got) == brute_force_partitions(6)


def test_partition_counts_match_pentagonal_recurrence():
    # Independent oracle: Euler's pentagonal number recurrence.
    counts = [1]
    for n in range(1, 21):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    for n in range(21):
        assert len(enumerate_partitions(n)) == counts[n]


def test_partitions_reverse_lexicographic():
    for level in range(8):
        parts = enumerate_partitions(level)
        assert list(parts) == sorted(parts, reverse=True)


def test_partition_exponent_round_trip():
    for level in range(7):
        for part in enumerate_partitions(level):
            exps = partition_exponents(part)
            rebuilt = []
            for i, mult in enumerate(exps, start=1):
                rebuilt.extend([i] * mult)
            assert tuple(sorted(rebuilt, reverse=True)) == part


def test_act_lowers_highest_weight():
    hw = highest_weight_vector(CTX)
    assert act(1, hw).is_zero()
    assert act(5, hw).is_zero()
    assert act(0, hw).terms == {(): CTX.delta}
    assert act(-3, hw).terms == {(3,): Fraction(1)}


def test_act_level_one():
    # L_1 L_-1 |D> = 2 Delta |D>
    v = act(1, basis_vector(CTX, (1,)))
    assert v.terms == {(): 2 * CTX.delta}


def test_act_level_two():
    # L_2 L_-2 |D> = (4 Delta + c/2) |D>
    v = act(2, basis_vector(CTX, (2,)))
    assert v.terms == {(): 4 * CTX.delta + CTX.c / 2}


def test_act_l0_eigenvalue():
    v = act(0, basis_vector(CTX, (2, 1)))
    assert v.terms == {(2, 1): CTX.delta + 3}


def test_act_grading():
    for level in range(5):
        for part in enumerate_partitions(level):
            for m in range(-3, 4):
                image = act(m, basis_vector(CTX, part))
                for out, coeff in image.terms.items():
                    assert sum(out) == level - m
                    assert coeff


def test_representation_property():
    # act(m) act(n) - act(n) act(m) equals the bracket action, exactly.
    vectors = [
        basis_vector(CTX, part)
        for level in range(7)
        for part in enumerate_partitions(level)
    ]
    for m in range(-4, 5):
        for n in range(-4, 5):
            br = bracket(m, n, CTX.c)
            for v in vectors:
                lhs = act(m, act(n, v)) - act(n, act(m, v))
                rhs = VermaVector(CTX, {})
                for mono, coeff in br.terms.items():
                    if mono == ():
                        rhs = rhs + v.scale(coeff)
                    else:
                        rhs = rhs + act(mono[0], v).scale(coeff)
                assert lhs.terms == rhs.terms, (m, n, v.terms)


def test_basis_change_low_levels_identity():
    for level in (0, 1, 2):
        matrix = basis_change(level, CTX)
        size = len(enumerate_partitions(level))
        for i in range(size):
            for j in range(size):
                assert matrix[i][j] == (1 if i == j else 0)


def test_basis_change_level_three():
    # L_-1 L_-2 |D> = L_-2 L_-1 |D> + L_-3 |D>
    order = enumerate_partitions(3)
    matrix = basis_change(3, CTX)
    col = order.index((2, 1))
    expected = {(2, 1): Fraction(1), (3,): Fraction(1)}
    for row_idx, part in enumerate(order):
        assert matrix[row_idx][col] == expected.get(part, Fraction(0))


def _basis_change_by_normal_order(level):
    # Independent oracle: PBW-reorder each full reversed word
    # L_{-mu_k} ... L_{-mu_1} and read off its canonical monomials.
    partitions = enumerate_partitions(level)
    index = partition_index(level)
    rows = [[Fraction(0)] * len(partitions) for _ in partitions]
    for j, mu in enumerate(partitions):
        word = tuple(-p for p in reversed(mu))
        for mono, coeff in normal_order(word, Fraction(0)).terms.items():
            rows[index[tuple(sorted((-i for i in mono), reverse=True))]][j] = coeff
    return rows


def test_basis_change_matches_normal_order():
    for level in range(11):
        assert basis_change(level, CTX) == _basis_change_by_normal_order(level)


def test_basis_change_unimodular():
    for level in range(13):
        order = enumerate_partitions(level)
        matrix = basis_change(level, CTX)
        # B^-1 = D B D with D = diag((-1)^{len lambda}).
        inverse = [
            [(-1) ** (len(lam) + len(mu)) * x for mu, x in zip(order, row)]
            for lam, row in zip(order, matrix)
        ]
        assert abs(reference_det(matrix)) == 1
        for i, lam in enumerate(order):
            assert all(x.denominator == 1 for x in inverse[i])
            row = [(t, x) for t, x in enumerate(matrix[i]) if x]
            for j, mu in enumerate(order):
                assert inverse[i][j] == (-1) ** (len(lam) + len(mu)) * matrix[i][j]
                entry = sum(x * inverse[t][j] for t, x in row)
                assert entry == (1 if i == j else 0)


def test_basis_vector_validation():
    with pytest.raises(ValueError):
        basis_vector(CTX, (1, 2))
    with pytest.raises(ValueError):
        basis_vector(CTX, (0,))


def test_vector_arithmetic_cancels():
    v = basis_vector(CTX, (2, 1))
    assert (v - v).is_zero()
    w = v + basis_vector(CTX, (3,))
    assert w.coefficient((2, 1)) == 1
    assert w.level_component(3).terms == w.terms


def test_random_mixed_level_action_linear():
    rng = random.Random(5)
    for _ in range(10):
        terms = {}
        for _ in range(3):
            level = rng.randint(0, 4)
            part = rng.choice(enumerate_partitions(level))
            terms[part] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        v = VermaVector(CTX, {p: c for p, c in terms.items() if c})
        m = rng.randint(-3, 3)
        direct = act(m, v)
        split = VermaVector(CTX, {})
        for part, coeff in v.terms.items():
            split = split + act(m, basis_vector(CTX, part)).scale(coeff)
        assert direct.terms == split.terms


@pytest.mark.parametrize(
    "ctx",
    [
        CTX,
        VermaContext(Fraction(7, 1024), Fraction(-5, 9)),
        VermaContext(Fraction(1), Fraction(1)),  # degenerate from level 3
    ],
)
@pytest.mark.parametrize("m", range(-8, 9))
def test_scaled_images_are_s_times_the_action(m, ctx):
    # Two implementations that share no code with the tables: the generic
    # straightener behind act, and the swap recursion of pbw_oracle.
    s = straightener(ctx).scale
    for level in range(max(m, 0), 9):
        target = enumerate_partitions(level - m)
        images = scaled_images(m, level, ctx)
        assert len(images) == len(enumerate_partitions(level))
        for mu, image in zip(enumerate_partitions(level), images):
            assert all(type(n) is int and n for _, n in image)
            scaled = {target[t]: n for t, n in image}
            assert len(scaled) == len(image)
            expected = {p: s * c for p, c in act(m, basis_vector(ctx, mu)).terms.items()}
            assert scaled == expected, (m, mu)
            reference = reference_verma_act(m, mu, ctx.c, ctx.delta)
            assert scaled == {p: s * c for p, c in reference.items()}, (m, mu)
        assert scaled_images(m, level, ctx, start=1) == images[1:]


def test_long_partitions_stay_within_a_few_frames_per_part():
    # L_1 L_{-1}^n |Delta> = n (2 Delta + n - 1) L_{-1}^{n-1} |Delta> and
    # L_1 L_{-n} |Delta> = (n + 1) L_{-(n-1)} |Delta>, with a recursion limit
    # that leaves three frames per part and a margin.
    ctx = VermaContext(Fraction(-13, 5), Fraction(17, 11))
    s, n = straightener(ctx).scale, 30
    count = len(enumerate_partitions(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 3 * n + 40)
    try:
        ones = scaled_images(1, n, ctx, count - 1)
        top = scaled_images(1, n, ctx)[0]
    finally:
        sys.setrecursionlimit(limit)
    last = len(enumerate_partitions(n - 1)) - 1
    assert ones == [[(last, s * n * (2 * ctx.delta + n - 1))]]
    assert top == [(0, s * (n + 1))]
