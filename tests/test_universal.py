import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fraction_oracle import reference_rref
from lemma_oracle import reference_check_lemma_bounds

from virwhit import universal
from virwhit.universal import (
    NotClassifiedError,
    _REWRITERS,
    _checked_indices,
    UniversalVector,
    act_universal,
    apply_word,
    basis_vector,
    check_lemma_bounds,
    dot_act,
    dot_nilpotency_bound,
    example_n5,
    family_w_1_l_n,
    family_w_l_2,
    family_w_l_2_n,
    generating_vector,
    lemma_clauses,
    level0_words,
    nilpotency_index,
    pp_counts,
    pp_l_value,
    pp_length,
    pp_level,
    restricted_type,
    search_whittaker,
    validate_pseudo_partition,
    verify_whittaker_vector,
    whittaker_subspace_level0,
)
from virwhit.verma import enumerate_partitions
from virwhit.whittaker import (
    IndexOutsideSubalgebraError,
    WhittakerType1N,
    WhittakerTypeR,
    subalgebra_indices,
)

C = Fraction(11, 3)
PSI_R2 = WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(7)))  # rank 4
PSI_N4 = WhittakerType1N(4, Fraction(2, 5), Fraction(-3))
PSI_N5 = WhittakerType1N(5, Fraction(1), Fraction(2))


def test_pseudo_partition_statistics():
    word = (-3, -1, -1, 0, 2)
    assert pp_level(word) == 5
    assert pp_length(word) == 2
    assert pp_l_value(word, order=4) == 0
    assert pp_l_value((-2,), order=4) == 4
    assert pp_counts(word) == [(-3, 1), (-1, 2), (0, 1), (2, 1)]


def test_pseudo_partition_validation():
    validate_pseudo_partition(PSI_R2, (-2, 0, 1))
    with pytest.raises(ValueError):
        validate_pseudo_partition(PSI_R2, (1, 0))  # not sorted
    with pytest.raises(ValueError):
        validate_pseudo_partition(PSI_R2, (2,))  # subalgebra letter
    with pytest.raises(ValueError):
        validate_pseudo_partition(PSI_N4, (1,))  # letter 1 excluded for pairs


def test_subalgebra_scalar_action():
    w = generating_vector(PSI_R2, C)
    for k in range(2, 8):
        image = act_universal(k, w)
        assert image.terms == ({(): PSI_R2.value(k)} if PSI_R2.value(k) else {})


def test_act_pair_examples():
    v = basis_vector(PSI_N4, C, (2,))
    # [L_4, L_2] = 2 L_6 kills |w>, leaving nu_4 L_2 |w>
    assert act_universal(4, v).terms == {(2,): PSI_N4.nun}
    # [L_1, L_2] = -L_3, plus nu_1 L_2
    assert act_universal(1, v).terms == {(2,): PSI_N4.nu1, (3,): Fraction(-1)}


def test_act_respects_central_charge():
    # [L_2, L_-2] = 4 L_0 + c/2 on |w>
    v = basis_vector(PSI_R2, C, (-2,))
    image = act_universal(2, v)
    assert image.coefficient(()) == C / 2
    assert image.coefficient((0,)) == 4


def test_representation_property_universal():
    rng = random.Random(12)
    words = [(), (-2,), (-1, 0), (-3, 1), (0,), (-2, -1, 1), (-4, 0, 1)]
    vectors = [basis_vector(PSI_R2, C, w) for w in words]
    for _ in range(5):
        a, b = rng.sample(words, 2)
        vectors.append(
            basis_vector(PSI_R2, C, a).scale(Fraction(rng.randint(1, 5), 3))
            + basis_vector(PSI_R2, C, b).scale(Fraction(rng.randint(-5, -1)))
        )
    for m in range(-4, 5):
        for n in range(-4, 5):
            for v in vectors:
                lhs = act_universal(m, act_universal(n, v)) - act_universal(
                    n, act_universal(m, v)
                )
                rhs = act_universal(m + n, v).scale(m - n)
                if m + n == 0:
                    rhs = rhs + v.scale(C * Fraction(m * (m * m - 1), 12))
                assert lhs.terms == rhs.terms, (m, n, v.terms)


def test_apply_word_composes():
    v = basis_vector(PSI_N4, C, (-1,))
    direct = apply_word((3, 2), v)
    composed = act_universal(3, act_universal(2, v))
    assert direct.terms == composed.terms


def test_dot_act_kills_generating_vector():
    w = generating_vector(PSI_R2, C)
    for m in (2, 3, 4, 5, 7):
        assert dot_act(m, w).is_zero()


def test_dot_act_rejects_low_index():
    with pytest.raises(IndexOutsideSubalgebraError):
        dot_act(1, generating_vector(PSI_R2, C))


def test_dot_act_commutator_form():
    # On basis words the dot action reduces to the commutator part.
    psi = WhittakerTypeR(2, (Fraction(2), Fraction(0), Fraction(0)))  # rank 2
    v = basis_vector(psi, C, (1,))
    # [L_2, L_1] = L_3 and psi(L_3) = 0, so the dot action vanishes
    assert dot_act(2, v).is_zero()


def test_nilpotency_small_cases():
    w = generating_vector(PSI_R2, C)
    assert nilpotency_index(2, w) == 1
    # [L_5, L_-1] = 6 L_4 and mu_4 != 0: two steps
    assert nilpotency_index(5, basis_vector(PSI_R2, C, (-1,))) == 2


def test_nilpotency_respects_proof_bound():
    rng = random.Random(8)
    for _ in range(25):
        r = rng.randint(1, 3)
        mu = tuple(Fraction(rng.randint(-4, 4)) for _ in range(r + 1))
        if not any(mu):
            mu = mu[:-1] + (Fraction(2),)
        psi = WhittakerTypeR(r, mu)
        word = tuple(sorted(rng.randint(-4, r - 1) for _ in range(rng.randint(1, 4))))
        m = rng.randint(r, 2 * r + 3)
        index = nilpotency_index(m, basis_vector(psi, C, word))
        assert index <= dot_nilpotency_bound(m, word, psi, C), (r, mu, word, m)


@pytest.mark.parametrize(
    "m, word, psi, bound",
    [
        (2, (-1,), PSI_R2, 6),
        (3, (-2, -1, 0, 1), PSI_R2, 8),
        (4, (-4, -4, -3, -1, 1), PSI_R2, 14),
        (1, (-4, -3, -3, -1, 0), WhittakerTypeR(1, (Fraction(-3), Fraction(-2))), 32),
        (5, (-4, -3, 1, 2), WhittakerTypeR(3, (0, 1, 4, -4)), 8),
        (9, (-3, 2, 2), WhittakerTypeR(3, (-1, -4, -1, 2)), 4),
    ],
)
def test_dot_nilpotency_bound_pinned(m, word, psi, bound):
    # Values of the iterated-commutator computation in U(Vir).
    assert dot_nilpotency_bound(m, word, psi, C) == bound


def test_dot_nilpotency_bound_rejects_low_index():
    with pytest.raises(IndexOutsideSubalgebraError):
        dot_nilpotency_bound(1, (-1, 0), PSI_R2, C)


def test_subspace_high_rank_own_order():
    vecs = whittaker_subspace_level0(PSI_R2, 2, C)
    assert len(vecs) == 1
    assert vecs[0].terms == {(): Fraction(1)}


@pytest.mark.parametrize(
    "mu, r_primes",
    [
        ((Fraction(2), Fraction(-1, 3), Fraction(7)), (2, 4)),  # rank 4
        ((Fraction(2), Fraction(-1, 3), Fraction(0)), (2, 3)),  # rank 3
        ((Fraction(2), Fraction(0), Fraction(0)), (2,)),  # rank 2 < 2r-1
    ],
)
def test_subspace_vectors_verify(mu, r_primes):
    psi = WhittakerTypeR(2, mu)
    for r_prime in r_primes:
        vectors = whittaker_subspace_level0(psi, r_prime, C, max_length=4)
        assert vectors, (mu, r_prime)
        target = restricted_type(psi, r_prime)
        for v in vectors:
            assert verify_whittaker_vector(v, target).passed, (mu, r_prime, v.terms)


def test_subspace_unclassified_orders_rejected():
    with pytest.raises(NotClassifiedError):
        whittaker_subspace_level0(PSI_R2, 3, C)  # rank 4: gap between r and s-r+2
    with pytest.raises(NotClassifiedError):
        whittaker_subspace_level0(PSI_R2, 5, C)


@pytest.mark.parametrize(
    "r, mu, rank, classified, rejected",
    [
        (2, (1, 0, 0), 2, (2,), (1, 3)),  # s < 2r - 1
        (2, (1, 1, 0), 3, (2, 3), (1, 4)),  # s = 2r - 1
        (3, (1, 0, 0, 0), 3, (3,), (2, 4)),  # s < 2r - 1
        (3, (0, 0, 1, 0), 5, (3, 4, 5), (6,)),  # s = 2r - 1: r' = 4 is s - r + 2
    ],
)
def test_subspace_orders_on_both_rank_branches(r, mu, rank, classified, rejected):
    psi = WhittakerTypeR(r, tuple(map(Fraction, mu)))
    assert psi.rank == rank
    for r_prime in classified:
        vectors = whittaker_subspace_level0(psi, r_prime, C, max_length=3)
        if rank >= 2 * r - 1 and r_prime == r:
            assert [v.terms for v in vectors] == [{(): Fraction(1)}]
        else:
            assert vectors[0].terms == {(): Fraction(1)} and len(vectors) > 1
    for r_prime in rejected:
        with pytest.raises(NotClassifiedError):
            whittaker_subspace_level0(psi, r_prime, C)


def _level0_cases():
    # Order r, rank s in r..2r and order r' in r..s: 6 cases for r = 2, 10 for r = 3.
    for r in (2, 3):
        for s in range(r, 2 * r + 1):
            mu = [Fraction(k + 2, 3) if k <= s else Fraction(0) for k in range(r, 2 * r + 1)]
            for r_prime in range(r, s + 1):
                psi = WhittakerTypeR(r, tuple(mu))
                yield pytest.param(psi, r_prime, id=f"r{r}-s{s}-{r_prime}")


@pytest.mark.parametrize("psi, r_prime", list(_level0_cases()))
def test_search_finds_exactly_the_classified_level0_span(psi, r_prime):
    # Completeness: on all level-0 words of length <= 5 and all words of
    # level 1..4 with at most two nonnegative letters, the search finds no
    # Whittaker vector outside the classified level-0 span; in the
    # unclassified gap r < r' < s - r + 2 it finds |w> alone.
    assert psi.rank >= r_prime
    plus = [()] + level0_words(0, psi.r - 1, 2)
    positive = [
        tuple(-d for d in depths) + tail
        for level in range(1, 5)
        for depths in enumerate_partitions(level)
        for tail in plus
    ]
    ansatz = [()] + level0_words(0, psi.r - 1, 5) + positive
    result = search_whittaker(psi, ansatz, restricted_type(psi, r_prime), C)
    try:
        expected = len(whittaker_subspace_level0(psi, r_prime, C))
    except NotClassifiedError:
        expected = 1
    assert result.dimension == expected
    assert expected in (1, 6, 21)
    assert all(pp_level(w) == 0 for v in result.basis for w in v.terms)


@pytest.mark.parametrize(
    "nu1, nun, c",
    [
        (Fraction(13, 7), Fraction(-11, 5), Fraction(13, 5)),
        (Fraction(1), Fraction(2), C),
    ],
)
def test_pair_type_n5_search_finds_three_level0_vectors(nu1, nun, c):
    # Every word of level <= 3 with at most three letters from {0, 2, 3, 4}
    # (245 words): the Whittaker vectors of the n = 5 pair type found there
    # span dimension 3 and all lie at level 0.
    psi = WhittakerType1N(5, nu1, nun)
    plus = [()] + [w for w in level0_words(0, 4, 3) if 1 not in w]
    ansatz = [
        tuple(-d for d in depths) + tail
        for level in range(4)
        for depths in enumerate_partitions(level)
        for tail in plus
    ]
    assert len(ansatz) == 245
    result = search_whittaker(psi, ansatz, psi, c)
    assert result.dimension == 3
    assert all(pp_level(w) == 0 for v in result.basis for w in v.terms)


def test_subspace_negative_control():
    # L_1 |w> is not a Whittaker vector of the module's own type when the
    # rank is 4: [L_2, L_1] = L_3 contributes psi(L_3) != 0.
    bad = basis_vector(PSI_R2, C, (1,))
    assert not verify_whittaker_vector(bad, PSI_R2).passed


def test_family_w_l_2_coefficients():
    fam = family_w_l_2(PSI_N4, 1, C)
    assert fam.terms == {
        (2,): Fraction(1),
        (3, 3): Fraction(-1) / (4 * PSI_N4.nun),
    }
    assert family_w_l_2(PSI_N4, 0, C).terms == {(): Fraction(1)}


def test_family_w_l_2_verifies():
    for l in range(5):
        fam = family_w_l_2(PSI_N4, l, C)
        assert verify_whittaker_vector(fam, PSI_N4).passed, l


def test_family_w_l_2_n_verifies():
    psi6 = WhittakerType1N(6, Fraction(3, 7), Fraction(-5, 2))
    first = family_w_l_2_n(PSI_N5, 1, C)
    assert first.coefficient((4, 4)) == Fraction(-1) / (3 * PSI_N5.nun)
    for psi in (PSI_N5, psi6):
        for l in range(4):
            fam = family_w_l_2_n(psi, l, C)
            assert verify_whittaker_vector(fam, psi).passed, (psi.n, l)


def test_family_w_1_l_n_coefficients_and_verification():
    mu = PSI_N5.nun
    fam3 = family_w_1_l_n(PSI_N5, 3, C)
    assert fam3.terms == {(3,): Fraction(1), (4, 4): Fraction(-1) / (3 * mu)}
    fam2 = family_w_1_l_n(PSI_N5, 2, C)
    assert fam2.terms == {
        (2,): Fraction(1),
        (3, 4): Fraction(-1) / (3 * mu),
        (4, 4, 4): Fraction(2) / (27 * mu**2),
    }
    for l in (2, 3):
        assert verify_whittaker_vector(family_w_1_l_n(PSI_N5, l, C), PSI_N5).passed


def test_example_n5_printed_coefficients():
    mu = PSI_N5.nun
    v1 = example_n5("w_11_23", PSI_N5, C)
    assert v1.coefficient((2, 3)) == 1
    assert v1.coefficient((3, 4, 4, 4)) == Fraction(5) / (27 * mu**2)
    assert v1.coefficient((4, 4, 4, 4, 4)) == Fraction(-2) / (81 * mu**3)
    v2 = example_n5("w_2_2", PSI_N5, C)
    assert v2.coefficient((4,)) == Fraction(-1, 3)
    assert v2.coefficient((2, 4, 4, 4)) == Fraction(4) / (27 * mu**2)
    assert v2.coefficient((4,) * 6) == Fraction(4) / (729 * mu**4)


def test_example_n5_verifies():
    for name in ("w_11_23", "w_2_2"):
        v = example_n5(name, PSI_N5, C)
        assert verify_whittaker_vector(v, PSI_N5).passed, name


def test_example_n5_rejects_unknown():
    with pytest.raises(ValueError):
        example_n5("nope", PSI_N5, C)


def test_lemma_bounds_vanishing_clauses():
    s = PSI_R2.rank
    # nonnegative word, m above the rank
    report = check_lemma_bounds(s + 1, (0, 1, 1), PSI_R2, C)
    clauses = {c.clause: c for c in report.clauses}
    assert clauses["raising_vanishes"].passed
    # word with level, m above rank + level
    report = check_lemma_bounds(s + 3 + 1, (-2, -1, 1), PSI_R2, C)
    clauses = {c.clause: c for c in report.clauses}
    assert clauses["lowering_vanishes"].passed


def test_lemma_leading_term_example():
    # word (-3, -1): smallest depth k = 1, m = k + s = 5, coefficient
    # count(-1) psi(L_4) (2k + s) = 1 * 7 * 6 = 42 on the word (-3,)
    report = check_lemma_bounds(5, (-3, -1), PSI_R2, C)
    clauses = {c.clause: c for c in report.clauses}
    assert clauses["leading_term"].passed
    assert clauses["remainder_split"].passed
    assert "42" in clauses["leading_term"].detail


def test_lemma_bounds_randomized():
    rng = random.Random(77)
    for _ in range(40):
        r = rng.randint(1, 3)
        mu = tuple(Fraction(rng.randint(-5, 5)) for _ in range(r + 1))
        if not any(mu):
            mu = (Fraction(1),) + mu[1:]
        psi = WhittakerTypeR(r, mu)
        s = psi.rank
        letters = []
        budget = rng.randint(0, 6)
        while budget:
            step = rng.randint(1, budget)
            letters.append(-step)
            budget -= step
        letters.extend(rng.randint(0, r - 1) for _ in range(rng.randint(0, 4)))
        word = tuple(sorted(letters))
        level = pp_level(word)
        choices = [rng.randint(r, s), rng.randint(s + 1, s + level + 3)]
        if level:
            choices.append(min(-x for x in word if x < 0) + s)
        for m in choices:
            report = check_lemma_bounds(m, word, psi, C)
            for clause in report.clauses:
                assert clause.passed, (r, mu, word, m, clause)


small_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 13))


@st.composite
def _lemma_cases(draw):
    # An order-r type with some mu zero but never all, a pseudo-partition of
    # level <= 8 and length <= 5, and the check-lemmas command's three m
    # choices plus one more anywhere in r..s + level + 3 and one below r.
    r = draw(st.integers(1, 4))
    maybe_zero = st.one_of(st.just(Fraction(0)), small_rationals)
    mu = draw(st.lists(maybe_zero, min_size=r + 1, max_size=r + 1).filter(any))
    psi = WhittakerTypeR(r, tuple(mu))
    s = psi.rank
    depths = draw(st.integers(0, 8).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))))
    plus = sorted(draw(st.lists(st.integers(0, r - 1), max_size=5)))
    word = tuple(-d for d in depths) + tuple(plus)
    level = pp_level(word)
    ms = [
        draw(st.integers(s + 1, s + level + 3)),
        draw(st.integers(r, s)),
        draw(st.integers(r, s + level + 3)),
        draw(st.integers(-s - level - 3, r - 1)),
    ]
    if level:
        ms.append(depths[-1] + s)
    return psi, word, ms, draw(small_rationals)


@settings(deadline=None, max_examples=100)
@given(_lemma_cases())
def test_lemma_bounds_match_the_fraction_oracle(case):
    psi, word, ms, c = case
    for m in ms:
        report = check_lemma_bounds(m, word, psi, c)
        assert report == reference_check_lemma_bounds(m, word, psi, c), (psi, word, m, c)
        if m < psi.r:
            assert report.clauses == ()


@settings(deadline=None, max_examples=100)
@given(_lemma_cases())
def test_lemma_clauses_are_the_report_verdicts(case):
    # check-lemmas counts clauses from lemma_clauses and builds a report
    # only for a check with a failing clause.
    psi, word, ms, c = case
    rule = _REWRITERS[psi, c]
    for m in ms:
        verdicts = [(clause, passed) for clause, passed, _ in lemma_clauses(m, word, psi, rule)]
        report = check_lemma_bounds(m, word, psi, c)
        assert verdicts == [(x.clause, x.passed) for x in report.clauses], (psi, word, m, c)
        if m < psi.r:
            assert verdicts == []


@settings(deadline=None, max_examples=100)
@given(_lemma_cases())
def test_lemma_products_that_need_no_straightening(case):
    # check_lemma_bounds straightens only L_m L_plus |w> and L_m L_word |w>
    # for m >= r; these are the two facts that let it skip the others.
    psi, word, ms, c = case
    rule = _REWRITERS[psi, c]
    split = sum(1 for x in word if x < 0)
    minus, plus = word[:split], word[split:]
    for m in (m for m in ms if m >= psi.r):
        # L_m |w> = psi(L_m) |w>, so L_plus L_m |w> is psi(L_m) s on plus.
        scaled = psi.value(m) * rule.scale
        expected = {plus: scaled} if scaled else {}
        assert rule.fold(plus, dict(rule.times(m, ()))) == expected, (psi, word, m)
        # L_m L_plus |w> has no negative letter, so L_minus only prepends minus.
        m_plus = dict(rule.times(m, plus))
        assert all(x >= 0 for u in m_plus for x in u), (psi, word, m)
        concatenated = {minus + u: n for u, n in m_plus.items()}
        assert rule.fold(minus, m_plus) == concatenated, (psi, word, m)


def test_vector_check_names_the_least_word_in_word_key_order():
    # L_2's residual on L_{-3} L_0 |w> fails on the level-3 word (-3,) and on
    # the level-1 word (-1, 0); the lower level comes first.
    psi = WhittakerTypeR(2, (Fraction(1), Fraction(2), Fraction(3)))
    v = basis_vector(psi, Fraction(-13, 7), (-3, 0))
    assert {(-3,), (-1, 0)} <= dot_act(2, v).terms.keys()
    check = verify_whittaker_vector(v, psi).checks[0]
    assert check.operator_index == 2
    assert check.first_failure == (1, (-1, 0), Fraction(5))


class _EscapingStraightener:
    """Stub whose L_m L_word |w> lists two escaping words, level 2 before level 1."""

    scale = 1

    def times(self, m, word):
        return [((-2,), 5), ((-1,), 7), ((), 4)] if word else []


def test_remainder_split_names_the_least_escaping_word(monkeypatch):
    # For word (-1,) at m = s + 1 the leading word () carries the expected
    # 1 * psi(L_2) * (2 + 2) = 4, so the remainder is (-2,) and (-1,), both
    # at or above (level 0, length 0): the detail names the least under word_key.
    psi = WhittakerTypeR(1, (Fraction(1), Fraction(1)))
    monkeypatch.setattr(universal, "_REWRITERS", {(psi, C): _EscapingStraightener()})
    clauses = {c.clause: c for c in check_lemma_bounds(3, (-1,), psi, C).clauses}
    assert clauses["leading_term"].passed
    assert not clauses["remainder_split"].passed
    assert clauses["remainder_split"].detail == "term (-1,) (coeff 7) escapes both classes"


def test_order_type_functions_reject_pair_types():
    pair = WhittakerType1N(4, 1, 2)
    with pytest.raises(ValueError, match="order type"):
        check_lemma_bounds(3, (2,), pair, 1)
    with pytest.raises(ValueError, match="order type"):
        whittaker_subspace_level0(pair, 1, 1)


def test_search_rejects_duplicates():
    with pytest.raises(ValueError):
        search_whittaker(PSI_N4, [(2,), (2,)], PSI_N4, C)


def test_search_n3_no_nontrivial_vectors():
    psi3 = WhittakerType1N(3, Fraction(1), Fraction(2))
    result = search_whittaker(psi3, level0_words(2, 2, 8), psi3, C)
    assert result.dimension == 0


def test_search_n4_recovers_families():
    ansatz = [
        (2,) * a + (3,) * (2 * b)
        for a in range(7)
        for b in range(4)
        if 0 < a + 2 * b <= 6
    ]
    result = search_whittaker(PSI_N4, ansatz, PSI_N4, C)
    assert result.dimension == 3
    order = {w: i for i, w in enumerate(result.ansatz)}

    def coords(v):
        out = [Fraction(0)] * len(order)
        for word, coeff in v.terms.items():
            out[order[word]] = coeff
        return out

    def rank(rows):
        return len(reference_rref(rows, len(order))[1])

    basis_rows = [coords(b) for b in result.basis]
    for l in (1, 2, 3):
        fam = family_w_l_2(PSI_N4, l, C)
        assert rank(basis_rows + [coords(fam)]) == rank(basis_rows), l
    for b in result.basis:
        assert verify_whittaker_vector(b, PSI_N4).passed


def test_search_generating_vector_spans_itself():
    result = search_whittaker(PSI_R2, [()], PSI_R2, C)
    assert result.dimension == 1
    assert result.basis[0].terms == {(): Fraction(1)}


def test_level0_words_are_trivial_whittaker_vectors():
    # Every level-0 word without zero letters is a Whittaker vector of the
    # pure order-n type (nu_n, 0, ..., 0) in the pair module.
    psi3 = WhittakerType1N(3, Fraction(1), Fraction(2))
    trivial = WhittakerTypeR(3, (psi3.nun, Fraction(0), Fraction(0), Fraction(0)))
    ansatz = level0_words(2, 2, 6)
    result = search_whittaker(psi3, ansatz, trivial, C)
    assert result.dimension == len(ansatz)


def test_vector_arithmetic():
    v = basis_vector(PSI_R2, C, (-1,))
    w = basis_vector(PSI_R2, C, (0,))
    total = v + w.scale(Fraction(2, 3))
    assert total.coefficient((0,)) == Fraction(2, 3)
    assert (total - total).is_zero()
    assert total.max_level() == 1
    assert total.max_length() == 1


def test_checked_indices_match_the_per_type_formulas():
    # The per-type index lists that forms and universal computed before
    # whittaker.subalgebra_indices replaced both.
    def forms_list(typ, cutoff):
        if isinstance(typ, WhittakerTypeR):
            return list(range(typ.r, cutoff + 1))
        return ([1] if cutoff >= 1 else []) + list(range(typ.n, cutoff + 1))

    def universal_list(module, max_level, target):
        top = module.rank if isinstance(module, WhittakerTypeR) else module.n
        reach = top + max_level + 1
        if isinstance(target, WhittakerTypeR):
            return list(range(target.r, max(2 * target.r, reach) + 1))
        return [1] + list(range(target.n, max(target.n, reach) + 1))

    types = [WhittakerTypeR(r, (Fraction(1),) * (r + 1)) for r in range(1, 6)]
    types += [WhittakerTypeR(r, (Fraction(1),) + (Fraction(0),) * r) for r in range(1, 6)]
    types += [WhittakerType1N(n, Fraction(1), Fraction(2)) for n in range(3, 9)]
    for typ in types:
        for cutoff in range(13):
            assert subalgebra_indices(typ, cutoff) == forms_list(typ, cutoff)
        for module in types:
            for max_level in range(8):
                expected = universal_list(module, max_level, typ)
                assert _checked_indices(module, max_level, typ) == expected
