import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fraction_oracle import reference_det, reference_solve
from virwhit import forms, linalg, shapovalov
from virwhit.shapovalov import SingularGramError, gram, kac_zero, scaled_images, solve
from virwhit.verma import (
    VermaContext,
    _TABLES,
    enumerate_partitions,
    partition_index,
)
from virwhit.virasoro import MAX_CONTEXTS, normal_order
from virwhit.whittaker import WhittakerTypeR

SRC = Path(__file__).resolve().parents[1] / "src"

CONTEXTS = [
    VermaContext(Fraction(11, 3), Fraction(2, 7)),
    VermaContext(Fraction(1), Fraction(1)),
    VermaContext(Fraction(26), Fraction(-1, 2)),
]


def oracle_entry(lam, mu, ctx):
    """Fully independent pairing: normal-order the complete word
    L_{lam_k}..L_{lam_1} L_{-mu_1}..L_{-mu_l} and evaluate on |Delta> with
    the highest-weight rules applied directly to each ordered monomial.
    """
    word = tuple(reversed(lam)) + tuple(-p for p in mu)
    element = normal_order(word, ctx.c)
    total = Fraction(0)
    for mono, coeff in element.terms.items():
        if any(letter > 0 for letter in mono):
            continue  # rightmost positive letter kills |Delta>
        if any(letter < 0 for letter in mono):
            continue  # leftover lowering letters are not the |Delta> component
        total += coeff * ctx.delta ** len(mono)  # each letter is L_0
    return total


def test_gram_level_zero():
    for ctx in CONTEXTS:
        g = gram(0, ctx)
        assert g.entries == ((Fraction(1),),)


def test_gram_level_one():
    for ctx in CONTEXTS:
        assert gram(1, ctx).entries == ((2 * ctx.delta,),)


def test_gram_level_two_closed_form():
    for ctx in CONTEXTS:
        c, d = ctx.c, ctx.delta
        g = gram(2, ctx)
        assert g.partitions == ((2,), (1, 1))
        assert g.entries[0][0] == 4 * d + c / 2
        assert g.entries[0][1] == 6 * d
        assert g.entries[1][0] == 6 * d
        assert g.entries[1][1] == 4 * d * (2 * d + 1)


def test_gram_matches_independent_oracle():
    for ctx in CONTEXTS:
        for level in range(7):
            g = gram(level, ctx)
            for i, lam in enumerate(g.partitions):
                for j, mu in enumerate(g.partitions):
                    assert g.entries[i][j] == oracle_entry(lam, mu, ctx), (
                        ctx,
                        lam,
                        mu,
                    )


def test_gram_symmetric():
    for ctx in CONTEXTS:
        for level in range(7):
            g = gram(level, ctx)
            size = len(g.partitions)
            for i in range(size):
                for j in range(size):
                    assert g.entries[i][j] == g.entries[j][i]


def full_row_gram_rows(level, ctx, memo):
    """The Gram recursion with every entry computed: row (k, rest) is row
    ``rest`` of the lower matrix applied to the L_k images of all columns."""
    if level not in memo:
        images, rows = {}, []
        for lam in enumerate_partitions(level):
            if not lam:
                rows.append((1,))
                continue
            k, rest = lam[0], lam[1:]
            if k not in images:
                images[k] = scaled_images(k, level, ctx)
            row = full_row_gram_rows(level - k, ctx, memo)[partition_index(level - k)[rest]]
            rows.append(tuple(sum(row[i] * a for i, a in image) for image in images[k]))
        memo[level] = tuple(rows)
    return memo[level]


def test_mirrored_rows_match_full_rows():
    for ctx in CONTEXTS:
        memo = {}
        for level in range(11):
            assert gram(level, ctx).rows == full_row_gram_rows(level, ctx, memo), (ctx, level)


def test_mirrored_entry_with_a_remainder_raises(monkeypatch):
    # Row (4, 1, 1) precedes the shorter (3, 3) at level 6, so that entry of
    # the latter is row (4, 1, 1)'s divided by s.  An L_4 image perturbed on
    # (1, 1) adds s^2 G_2[(1, 1)][(1, 1)] = 2^22 * 20 there, which s = 2^11 * 9
    # does not divide.
    original = shapovalov.scaled_images

    def perturbed(k, level, ctx, start=0):
        images = original(k, level, ctx, start)
        if (k, level) == (4, 6):
            images = [image + [(1, 1)] for image in images]
        return images

    monkeypatch.setattr(shapovalov, "scaled_images", perturbed)
    ctx = VermaContext(Fraction(7, 1024), Fraction(-5, 9))
    with pytest.raises(ArithmeticError) as info:
        gram(6, ctx)
    assert str(info.value) == (
        "level 6: entry ((3, 3), (4, 1, 1)) mirrored from ((4, 1, 1), (3, 3)) "
        "is not integral after scaling by s^2"
    )


def test_solve_level_one_inversion():
    ctx = VermaContext(Fraction(11, 3), Fraction(2, 7))
    mu1 = Fraction(3, 2)
    assert solve(gram(1, ctx), [mu1]) == [7 * mu1 / 4]


def test_solve_unit_vector_round_trip():
    ctx = CONTEXTS[0]
    for level in (2, 3, 4):
        g = gram(level, ctx)
        size = len(g.partitions)
        for i in range(size):
            rhs = [g.entries[r][i] for r in range(size)]
            x = solve(g, rhs)
            assert x == [Fraction(1 if j == i else 0) for j in range(size)]


def test_solve_random_round_trip():
    rng = random.Random(17)
    ctx = CONTEXTS[2]
    for level in range(5):
        g = gram(level, ctx)
        size = len(g.partitions)
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
        rhs = [
            sum((g.entries[i][j] * vec[j] for j in range(size)), Fraction(0))
            for i in range(size)
        ]
        assert solve(g, rhs) == vec


def test_rhs_length_checked():
    ctx = CONTEXTS[0]
    with pytest.raises(ValueError):
        solve(gram(2, ctx), [Fraction(1)])


def _level2_det(c, delta):
    g = gram(2, VermaContext(c, delta))
    return g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0]


def test_singular_gram_detected(monkeypatch):
    # The Kac pre-check decides: the solve is never reached.
    def unreachable(*args):
        raise AssertionError("bareiss_solve called at a Kac point")

    monkeypatch.setattr(linalg, "bareiss_solve", unreachable)
    # Scan rational weights at c = 1 for a degenerate level-2 form, using
    # this module's own gram() to compute the determinant.
    c = Fraction(1)
    singular_delta = None
    for num in range(0, 40):
        delta = Fraction(num, 4)
        if _level2_det(c, delta) == 0:
            singular_delta = delta
            break
    assert singular_delta is not None
    g = gram(2, VermaContext(c, singular_delta))
    with pytest.raises(SingularGramError) as info:
        solve(g, [Fraction(1), Fraction(0)])
    assert info.value.level == 2
    # Above level 2: Delta_{2,3} at b = 3/2 (c = -19/6), rank 10 of 11 at level 6.
    g = gram(6, VermaContext(Fraction(-19, 6), Fraction(11, 144)))
    with pytest.raises(SingularGramError) as info:
        solve(g, [Fraction(1)] + [Fraction(0)] * 10)
    assert (info.value.level, info.value.r, info.value.s) == (6, 2, 3)
    # Delta_{3,4} at t = -25/16 (c = 13 - 6(t + 1/t)), first singular at level 12.
    g = gram(12, VermaContext(Fraction(5243, 200), Fraction(-441, 40)))
    with pytest.raises(SingularGramError) as info:
        solve(g, [Fraction(1)] * 77)
    assert (info.value.level, info.value.r, info.value.s) == (12, 3, 4)
    assert str(info.value).endswith("Delta is the Kac value Delta_{3,4}")


def test_gram_is_memoized():
    ctx = CONTEXTS[0]
    assert gram(3, ctx) is gram(3, ctx)


# Seed-0 contexts of the gram-gaiotto and bmt benchmark workloads.
BENCH_CONTEXTS = [
    VermaContext(Fraction(-11, 5), Fraction(11, 7)),
    VermaContext(Fraction(11, 5), Fraction(13, 5)),
]

# c with an even denominator, so the c/2 of the central term sets the
# scale s = lcm(2 den c, den Delta): 2048 * 9 and 12.
EVEN_DENOMINATOR_SCALES = {
    VermaContext(Fraction(7, 1024), Fraction(-5, 9)): 18432,
    VermaContext(Fraction(5, 6), Fraction(-2, 3)): 12,
}
EVEN_DENOMINATOR_CONTEXTS = list(EVEN_DENOMINATOR_SCALES)


def test_solve_matches_fraction_elimination():
    rng = random.Random(5)
    for ctx in BENCH_CONTEXTS:
        for level in range(11):
            g = gram(level, ctx)
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in g.partitions]
            assert solve(g, rhs) == reference_solve(g.entries, rhs), (ctx, level)


def test_even_denominator_c_gives_integral_rows():
    for ctx in EVEN_DENOMINATOR_CONTEXTS:
        for level in range(7):
            g = gram(level, ctx)
            assert g.scale == EVEN_DENOMINATOR_SCALES[ctx]
            assert all(type(x) is int for row in g.rows for x in row)
            for i, lam in enumerate(g.partitions):
                for j, mu in enumerate(g.partitions):
                    assert g.entries[i][j] == oracle_entry(lam, mu, ctx), (ctx, lam, mu)


def test_gram_views_agree():
    rng = random.Random(3)
    for ctx in CONTEXTS + EVEN_DENOMINATOR_CONTEXTS:
        for level in range(7):
            g = gram(level, ctx)
            for i, lam in enumerate(g.partitions):
                for j, entry in enumerate(g.entries[i]):
                    assert entry == Fraction(g.rows[i][j], g.scale ** len(lam))
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in g.partitions]
            assert g.pair(x) == [
                sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in g.entries
            ]


def kac_product(level, ctx):
    """prod over 1 <= rs <= N of (Delta - Delta_{r,s})^{p(N - rs)}, exactly.

    With u = t + 1/t = (13 - c)/6, Delta_{r,s} = ((r^2-1) t + (s^2-1)/t)/4
    - (rs-1)/2.  Delta_{r,r} is rational; for r < s the factors for (r,s)
    and (s,r) multiply to Delta^2 - S Delta + P with rational S and P.
    """
    d = ctx.delta
    u = (13 - ctx.c) / 6
    total = Fraction(1)
    for r in range(1, level + 1):
        for s in range(r, level // r + 1):
            power = len(enumerate_partitions(level - r * s))
            a, b, m = r * r - 1, s * s - 1, r * s - 1
            if r == s:
                factor = d - a * (u - 2) / 4
            else:
                total_s = (a + b) * u / 4 - m
                product = (
                    a * b * (u * u - 2) / 16
                    + Fraction(a * a + b * b, 16)
                    - m * (a + b) * u / 8
                    + Fraction(m * m, 4)
                )
                factor = d * d - total_s * d + product
            total *= factor**power
    return total


KAC_CONTEXTS = [
    CONTEXTS[0],
    *BENCH_CONTEXTS,
    *EVEN_DENOMINATOR_CONTEXTS,
]


def test_kac_determinant():
    # det G_N / Kac product depends on N only.
    for level in range(9):
        ratios = set()
        for ctx in KAC_CONTEXTS:
            kac = kac_product(level, ctx)
            assert kac != 0, (ctx, level)
            ratios.add(reference_det(gram(level, ctx).entries) / kac)
        assert len(ratios) == 1, (level, ratios)
        assert ratios != {0}


def test_kac_determinant_vanishes_with_kac_product():
    # c = 1: t = 1 and Delta_{r,s} = (r - s)^2/4, so Delta = 1 = Delta_{1,3}
    # first degenerates at level 3.
    ctx = VermaContext(Fraction(1), Fraction(1))
    for level in range(7):
        assert (reference_det(gram(level, ctx).entries) == 0) == (level >= 3)
        assert (kac_product(level, ctx) == 0) == (level >= 3)


def _kac_points():
    """(c, Delta) at t in {9/4, -9/4, 25/16, 1, -1}, c = 13 - 6(t + 1/t): every
    Kac value Delta_{r,s} = ((r^2 - 1) t + (s^2 - 1)/t)/4 - (rs - 1)/2 with
    rs <= 6, and the off-table 11/7 and -3/11."""
    for t in (Fraction(9, 4), Fraction(-9, 4), Fraction(25, 16), Fraction(1), Fraction(-1)):
        kac = {
            ((r * r - 1) * t + (s * s - 1) / t) / 4 - Fraction(r * s - 1, 2)
            for r in range(1, 7)
            for s in range(1, 6 // r + 1)
        }
        for delta in sorted(kac | {Fraction(11, 7), Fraction(-3, 11)}):
            yield VermaContext(13 - 6 * (t + 1 / t), delta)


def test_kac_zero_matches_exact_determinant():
    # kac_zero(N) names a pair (r, s), r <= s, exactly where det G_N = 0, and
    # rs is the first such level.
    singular = 0
    for ctx in _kac_points():
        first = None
        for level in range(7):
            regular = reference_det(gram(level, ctx).entries) != 0
            assert (kac_product(level, ctx) != 0) == regular, (ctx, level)
            zero = kac_zero(level, ctx)
            assert (zero is None) == regular, (ctx, level)
            if not regular:
                first = level if first is None else first
                r, s = zero
                assert r <= s and r * s == first, (ctx, level, zero)
                singular += 1
    assert singular == 165  # of 448 cases


PSI_SCAN = WhittakerTypeR(1, (Fraction(1), Fraction(0)))


def _raise(ctx, cutoff):
    return forms.raise_indices(forms.gaiotto_form(PSI_SCAN, {(): Fraction(1)}, cutoff, ctx))


def test_evicted_context_gives_the_same_state_and_grams():
    ctx = VermaContext(Fraction(-11, 5), Fraction(11, 13))
    cutoff = 6
    state = _raise(ctx, cutoff)
    grams = [gram(level, ctx) for level in range(cutoff + 1)]
    for i in range(MAX_CONTEXTS):
        _raise(VermaContext(ctx.c, Fraction(12 + i, 13)), cutoff)
    assert (ctx.c, ctx.delta) not in _TABLES
    assert _raise(ctx, cutoff) == state
    again = [gram(level, ctx) for level in range(cutoff + 1)]
    assert again == grams
    assert all(a is not b for a, b in zip(again, grams))


SCAN = """
import resource
from fractions import Fraction as F
from virwhit import forms, verma, whittaker
psi = whittaker.WhittakerTypeR(1, (F(1), F(0)))
for i in range(40):
    ctx = verma.VermaContext(F(-11, 5), F(11 + i, 7))
    state = forms.raise_indices(forms.gaiotto_form(psi, {(): F(1)}, 10, ctx))
    assert forms.verify_whittaker_state(state, psi, 10).passed
    if i == 7:
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def test_context_scan_memory_stays_flat():
    # A fresh interpreter, so no other test's contexts count; ru_maxrss is
    # in KiB on Linux.  Keeping every context grew ~20 MB over this scan.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCAN], env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout) < 4 * 1024
