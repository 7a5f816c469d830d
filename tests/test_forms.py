import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms_oracle import (
    reference_bmt_basic_form,
    reference_bmt_special_form,
    reference_combination,
    reference_gaiotto_basic_form,
    reference_mu_derivative,
    reference_verify_whittaker_form,
    reference_verify_whittaker_state,
)
from fraction_oracle import reference_rref
from virwhit.forms import (
    DECREASING,
    INCREASING,
    CutoffExceededError,
    DualForm,
    act_on_form,
    bmt_basic_form,
    bmt_form,
    bmt_special_form,
    check_L0_Li_on_basic,
    convert_form,
    eval_form,
    gaiotto_basic_form,
    gaiotto_form,
    raise_indices,
    verify_whittaker_form,
    verify_whittaker_state,
    whittaker_form_nullspace,
    zero_form,
)
from virwhit.forms import _mu_derivative
from virwhit.shapovalov import gram
from virwhit.verma import (
    VermaContext,
    VermaVector,
    basis_change,
    basis_vector,
    enumerate_partitions,
)
from virwhit.whittaker import WhittakerType1N, WhittakerTypeR

CTX = VermaContext(Fraction(11, 3), Fraction(2, 7))
PSI_R1 = WhittakerTypeR(1, (Fraction(3, 2), Fraction(5)))
PSI_R2 = WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(7)))
PSI_N3 = WhittakerType1N(3, Fraction(1), Fraction(2))
PSI_N4 = WhittakerType1N(4, Fraction(2, 5), Fraction(-3))


def dual_element(partition, cutoff, side=DECREASING):
    return DualForm(CTX, cutoff, side, {tuple(partition): Fraction(1)})


def by_level(f):
    """The form's terms grouped by level."""
    levels = {}
    for part, coeff in f.terms.items():
        levels.setdefault(sum(part), {})[part] = coeff
    return levels


def pairing(w, form):
    """<L_-lam Delta, w> for every stored level, against form values."""
    f_dec = convert_form(form, DECREASING)
    for level in range(form.cutoff + 1):
        g = gram(level, CTX)
        coords = [w.coefficient(p) for p in g.partitions]
        for i, lam in enumerate(g.partitions):
            lhs = sum(
                (g.entries[i][j] * coords[j] for j in range(len(coords))),
                Fraction(0),
            )
            yield lam, lhs, f_dec.coefficient(lam)


def test_eval_duality():
    f = dual_element((1,), 3)
    assert eval_form(f, basis_vector(CTX, (1,))) == 1
    f2 = dual_element((2,), 3)
    assert eval_form(f2, basis_vector(CTX, (1, 1))) == 0


def test_eval_cutoff_exceeded():
    f = dual_element((1,), 2)
    with pytest.raises(CutoffExceededError):
        eval_form(f, basis_vector(CTX, (3,)))


def test_eval_after_basis_conversion():
    # The increasing-side dual of (2,1) pairs to 1 with L_-1 L_-2 |D>,
    # whose canonical expansion is L_-2 L_-1 |D> + L_-3 |D>.
    f = dual_element((2, 1), 3, side=INCREASING)
    vec = basis_vector(CTX, (2, 1)) + basis_vector(CTX, (3,))
    assert eval_form(f, vec) == 1
    assert eval_form(f, basis_vector(CTX, (3,))) == 0


def test_eval_invariant_under_side_conversion():
    rng = random.Random(4)
    f = bmt_form(PSI_N4, {(0, 0): Fraction(1), (1, 0): Fraction(2, 3)}, 5, CTX)
    g = convert_form(f, DECREASING)
    assert convert_form(g, INCREASING).terms == f.terms
    for _ in range(10):
        terms = {}
        for _ in range(3):
            level = rng.randint(0, 5)
            part = rng.choice(enumerate_partitions(level))
            terms[part] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        v = VermaVector(CTX, {p: c for p, c in terms.items() if c})
        assert eval_form(f, v) == eval_form(g, v)


@st.composite
def _sparse_forms(draw, max_cutoff=8):
    cutoff = draw(st.integers(0, max_cutoff))
    side = draw(st.sampled_from([DECREASING, INCREASING]))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)
    terms = {}
    for lvl in range(cutoff + 1):
        labels = draw(st.sets(st.sampled_from(enumerate_partitions(lvl)), max_size=4))
        terms.update((p, draw(coeff)) for p in sorted(labels, reverse=True))
    return DualForm(CTX, cutoff, side, terms)


@settings(deadline=None)
@given(_sparse_forms())
def test_convert_form_round_trip_matches_dense_product(f):
    other = INCREASING if f.basis_side == DECREASING else DECREASING
    g = convert_form(f, other)
    assert g.basis_side == other
    assert convert_form(g, f.basis_side).terms == f.terms
    for lvl in range(f.cutoff + 1):
        # f_inc = B^T f_dec and f_dec = (B^-1)^T f_inc, as dense products.
        order = enumerate_partitions(lvl)
        matrix = basis_change(lvl, CTX)
        if other == DECREASING:
            # B^-1 = D B D with D = diag((-1)^{len lambda}).
            matrix = [
                [(-1) ** (len(lam) + len(mu)) * x for mu, x in zip(order, row)]
                for lam, row in zip(order, matrix)
            ]
        vec = [f.coefficient(p) for p in order]
        for j, mu in enumerate(order):
            expected = sum((row[j] * x for row, x in zip(matrix, vec)), Fraction(0))
            assert g.coefficient(mu) == expected


def test_act_on_form_l0_eigenvalue():
    f = dual_element((1,), 4)
    out = act_on_form(0, f)
    assert by_level(out)[1] == {(1,): CTX.delta + 1}


def test_act_on_form_above_cutoff_gives_zero_form():
    f = gaiotto_basic_form(PSI_R1, (), 3, CTX)
    out = act_on_form(5, f)
    assert out.cutoff == 0
    assert out.is_zero()


def test_act_on_form_gaiotto_eigenvalue_at_level_zero():
    f = gaiotto_basic_form(PSI_R1, (), 4, CTX)
    out = act_on_form(1, f)
    assert by_level(out)[0] == {(): PSI_R1.mu[0] * f.terms[()]}


def test_gaiotto_basic_coefficients():
    f = gaiotto_basic_form(PSI_R1, (), 6, CTX)
    mu1, mu2 = PSI_R1.mu
    assert by_level(f)[0] == {(): Fraction(1)}
    assert f.terms[(2, 1)] == mu2 * mu1
    assert f.terms[(1, 1, 1)] == mu1**3
    assert (3,) not in f.terms  # index above the rank


def test_gaiotto_basic_with_fixed_exponents():
    psi = PSI_R2
    f = gaiotto_basic_form(psi, (1,), 6, CTX)  # n_1 frozen to 1
    assert f.terms[(4, 1)] == psi.mu[2]
    assert (4,) not in f.terms  # n_1 = 0 labels excluded
    assert by_level(f)[1] == {(1,): Fraction(1)}


def test_gaiotto_form_combination():
    basic = gaiotto_basic_form(PSI_R1, (), 5, CTX)
    assert gaiotto_form(PSI_R1, {(): Fraction(1)}, 5, CTX).terms == basic.terms
    assert gaiotto_form(PSI_R1, {}, 5, CTX).is_zero()


def test_gaiotto_forms_pass_verification():
    rng = random.Random(31)
    for psi in (PSI_R1, PSI_R2):
        size = psi.r - 1
        support = [(0,) * size] if size == 0 else [(0,), (1,), (2,)]
        coeffs = {
            key: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for key in support
        }
        form = gaiotto_form(psi, coeffs, 5, CTX)
        report = verify_whittaker_form(form, psi)
        assert report.passed, report.first_failure()


def test_single_dual_element_fails_verification():
    # f^[1^1] alone is not a Whittaker form once mu_2 != 0.
    f = dual_element((1,), 4)
    report = verify_whittaker_form(f, PSI_R1)
    assert not report.passed
    failing = {c.operator_index: c for c in report.checks if not c.residual_zero}
    # (L_1 f)(|D>) = 1 while mu_1 f(|D>) = 0
    assert failing[1].first_failure == (0, (), Fraction(1))
    # (L_2 f - mu_2 f)(L_-1|D>) = 0 - mu_2
    assert failing[2].first_failure == (1, (1,), -PSI_R1.mu[1])


def test_state_check_names_the_least_wrong_label():
    # Both level-2 labels of L_1's residual fail; (2,) comes first in
    # partition_key order.
    ctx = VermaContext(Fraction(-11, 5), Fraction(11, 7))
    psi = WhittakerTypeR(1, (Fraction(1), Fraction(0)))
    state = raise_indices(gaiotto_form(psi, {(): Fraction(1)}, 4, ctx))
    bump = VermaVector(ctx, {(3,): Fraction(1), (1, 1, 1): Fraction(1)})
    report = verify_whittaker_state(state.add_scaled(bump, Fraction(1)), psi, 4)
    assert report.checks[0].operator_index == 1
    assert report.checks[0].first_failure == (2, (2,), Fraction(4))


def test_bmt_basic_coefficients():
    f = bmt_basic_form(PSI_N3, (0,), 6, CTX)
    nu1, nu3 = PSI_N3.nu1, PSI_N3.nun
    assert by_level(f)[0] == {(): Fraction(1)}
    assert f.terms[(3, 1)] == nu1 * nu3
    assert by_level(f)[2] == {(1, 1): nu1**2}
    f4 = bmt_basic_form(PSI_N4, (1, 0), 4, CTX)
    assert by_level(f4)[2] == {(2,): Fraction(1)}


def test_bmt_form_empty_is_zero():
    assert bmt_form(PSI_N3, {}, 4, CTX).is_zero()


@pytest.mark.parametrize(
    "build, psi, bad, message",
    [
        (gaiotto_form, PSI_R2, (-1,), "exponents must be nonnegative"),
        (gaiotto_form, PSI_R2, (0, 0), "expected 1 exponents"),
        (bmt_form, PSI_N4, (0, -2), "exponents must be nonnegative"),
        (bmt_form, PSI_N4, (0,), "expected 2 exponents"),
    ],
    ids=["gaiotto-negative", "gaiotto-length", "bmt-negative", "bmt-length"],
)
def test_zero_coefficient_entries_are_checked(build, psi, bad, message):
    # A zero coefficient adds nothing, but its exponents obey the same rule.
    good = (0,) * (psi.r - 1 if build is gaiotto_form else psi.n - 2)
    with pytest.raises(ValueError, match=message):
        build(psi, {good: Fraction(1), bad: Fraction(0)}, 3, CTX)


def test_bmt_special_form_support():
    # all lambdas zero keeps only the all-zero basic form
    plain = bmt_special_form(PSI_N4, (Fraction(0), Fraction(0)), 4, CTX)
    basic = bmt_basic_form(PSI_N4, (0, 0), 4, CTX)
    assert plain.terms == basic.terms
    # n = 3 has the single lambda_2; zero leaves the lone basic form
    single = bmt_special_form(PSI_N3, (Fraction(0),), 4, CTX)
    assert single.terms == bmt_basic_form(PSI_N3, (0,), 4, CTX).terms
    # lambda_2 = 1, lambda_3 = 0 at cutoff 4: support m_2 <= 2
    mixed = bmt_special_form(PSI_N4, (Fraction(1), Fraction(0)), 4, CTX)
    expected = bmt_form(
        PSI_N4,
        {(0, 0): Fraction(1), (1, 0): Fraction(1), (2, 0): Fraction(1)},
        4,
        CTX,
    )
    assert mixed.terms == expected.terms


def test_bmt_forms_pass_verification():
    rng = random.Random(47)
    for psi in (PSI_N3, PSI_N4):
        size = psi.n - 2
        coeffs = {}
        while len(coeffs) < 3:
            key = tuple(rng.randint(0, 2) for _ in range(size))
            coeffs[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        form = bmt_form(psi, coeffs, 5, CTX)
        assert verify_whittaker_form(form, psi).passed
    special = bmt_special_form(PSI_N4, (Fraction(1), Fraction(1, 2)), 5, CTX)
    assert verify_whittaker_form(special, PSI_N4).passed


def test_raise_indices_level_one():
    f = gaiotto_basic_form(PSI_R1, (), 4, CTX)
    w = raise_indices(f)
    assert w.coefficient(()) == 1
    assert w.coefficient((1,)) == PSI_R1.mu[0] / (2 * CTX.delta)


def test_raise_indices_zero_form():
    assert raise_indices(zero_form(CTX, 4)).is_zero()


def test_raise_indices_round_trip():
    for form in (
        gaiotto_form(PSI_R2, {(0,): Fraction(1), (2,): Fraction(-1, 2)}, 5, CTX),
        bmt_special_form(PSI_N4, (Fraction(1), Fraction(1, 2)), 5, CTX),
    ):
        w = raise_indices(form)
        for lam, lhs, rhs in pairing(w, form):
            assert lhs == rhs, lam


def test_raise_indices_at_cutoff_14():
    # p(14) = 135: the widest packed rows of the modular solve under test.
    psi = WhittakerTypeR(1, (Fraction(1), Fraction(0)))
    f = gaiotto_form(psi, {(): Fraction(1)}, 14, CTX)
    w = raise_indices(f)
    assert verify_whittaker_state(w, psi, 14).passed
    f_dec = convert_form(f, DECREASING)
    for level in range(15):
        g = gram(level, CTX)
        coords = [w.coefficient(p) for p in g.partitions]
        assert g.pair(coords) == [f_dec.coefficient(lam) for lam in g.partitions], level


def test_state_side_conditions():
    f = gaiotto_basic_form(PSI_R1, (), 6, CTX)
    w = raise_indices(f)
    report = verify_whittaker_state(w, PSI_R1, 6)
    assert report.passed
    ks = [c.operator_index for c in report.checks]
    assert ks == [1, 2, 3, 4, 5, 6]


def test_whittaker_form_nullspace_dimensions():
    dim1, basis1 = whittaker_form_nullspace(PSI_R1, CTX, 3)
    assert dim1 == 1
    # the solution is proportional to the basic form
    basic = gaiotto_basic_form(PSI_R1, (), 3, CTX)
    scale = basis1[0].terms[()]
    assert basis1[0].terms == {p: c * scale for p, c in basic.terms.items()}

    dim2, _ = whittaker_form_nullspace(PSI_R2, CTX, 3)
    assert dim2 == 4  # admissible n_1 tuples: 0..3

    dim3, _ = whittaker_form_nullspace(PSI_N3, CTX, 3)
    assert dim3 == 2  # admissible m_2 tuples: 0..1


def exponent_tuples(weights, cutoff):
    """Exponent tuples (one per weight j) with sum_j j m_j <= cutoff."""
    ranges = [range(cutoff // j + 1) for j in weights]
    tuples = itertools.product(*ranges)
    return [e for e in tuples if sum(j * m for j, m in zip(weights, e)) <= cutoff]


@pytest.mark.parametrize(
    "psi, expected",
    [
        (PSI_R1, 1),
        (PSI_R2, 13),
        (WhittakerTypeR(3, (Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(5))), 49),
        (PSI_N3, 7),
        (WhittakerType1N(5, Fraction(-2, 3), Fraction(4)), 34),
    ],
    ids=["r1", "r2", "r3", "n3", "n5"],
)
def test_whittaker_form_nullspace_is_the_basic_form_span(psi, expected):
    # At cutoff 12 the truncated condition system has exactly the basic
    # forms' span as its solutions: the dimension is the number of basic
    # exponent tuples, the basic forms are independent, and adding them to
    # the nullspace basis does not raise the rank.
    ctx, cutoff = VermaContext(Fraction(-11, 5), Fraction(11, 7)), 12
    dim, basis = whittaker_form_nullspace(psi, ctx, cutoff)
    if isinstance(psi, WhittakerTypeR):
        frozen = range(psi.r - 1, 0, -1)
        basic = [gaiotto_basic_form(psi, e, cutoff, ctx) for e in exponent_tuples(frozen, cutoff)]
    else:
        frozen = range(2, psi.n)
        basic = [bmt_basic_form(psi, e, cutoff, ctx) for e in exponent_tuples(frozen, cutoff)]
    assert dim == len(basic) == expected
    labels = [p for lvl in range(cutoff + 1) for p in enumerate_partitions(lvl)]

    def rank(forms):
        assert {f.basis_side for f in forms} == {basis[0].basis_side}
        matrix = [[f.terms.get(p, Fraction(0)) for p in labels] for f in forms]
        return len(reference_rref(matrix, len(labels))[1])

    assert rank(basic) == dim
    assert rank(basis + basic) == dim


def test_check_l0_li_r1_and_r2():
    assert check_L0_Li_on_basic(PSI_R1, 4, CTX).passed
    report = check_L0_Li_on_basic(PSI_R2, 4, CTX)
    assert report.passed
    assert [c.operator_index for c in report.checks] == [0, 1]


def test_verify_windows_scale_with_k():
    f = gaiotto_basic_form(PSI_R1, (), 5, CTX)
    report = verify_whittaker_form(f, PSI_R1)
    for check in report.checks:
        assert check.complete_levels == 5 - check.operator_index


def test_act_on_form_matches_definition_for_lowering_index():
    # (L_m f)(v) = f(L_{-m} v), on both basis sides, for lowering and
    # raising m
    from virwhit.verma import act

    for f in (
        gaiotto_basic_form(PSI_R2, (1,), 5, CTX),
        bmt_special_form(PSI_N4, (Fraction(1), Fraction(-2)), 5, CTX),
    ):
        for m in (-1, 0, 1, 2):
            moved = act_on_form(m, f)
            assert moved.basis_side == f.basis_side
            for level in range(moved.cutoff + 1):
                for part in enumerate_partitions(level):
                    v = basis_vector(CTX, part)
                    assert eval_form(moved, v) == eval_form(f, act(-m, v)), (
                        f.basis_side,
                        m,
                        part,
                    )


def test_whittaker_form_nullspace_pair_basis_pinned():
    # Exact increasing-side basis for n = 4 at cutoff 5, one form per
    # admissible (m_2, m_3) tuple.
    F = Fraction
    dim, basis = whittaker_form_nullspace(PSI_N4, CTX, 5)
    assert dim == 5
    assert [f.basis_side for f in basis] == [INCREASING] * 5
    assert [by_level(f) for f in basis] == [
        {5: {(3, 2): F(1)}},
        {3: {(3,): F(25, 4)}, 4: {(3, 1): F(5, 2)}, 5: {(3, 1, 1): F(1)}},
        {4: {(2, 2): F(5, 2)}, 5: {(2, 2, 1): F(1)}},
        {
            2: {(2,): F(125, 8)},
            3: {(2, 1): F(25, 4)},
            4: {(2, 1, 1): F(5, 2)},
            5: {(2, 1, 1, 1): F(1)},
        },
        {
            0: {(): F(3125, 32)},
            1: {(1,): F(625, 16)},
            2: {(1, 1): F(125, 8)},
            3: {(1, 1, 1): F(25, 4)},
            4: {(4,): F(-9375, 32), (1, 1, 1, 1): F(5, 2)},
            5: {(4, 1): F(-1875, 16), (1, 1, 1, 1, 1): F(1)},
        },
    ]


scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)  # zero included
nonzero_scalars = scalars.filter(bool)


def _exponent_tables(length):
    exponents = st.tuples(*[st.integers(0, 3)] * length)
    return st.dictionaries(exponents, scalars, max_size=3)


@st.composite
def _gaiotto_cases(draw):
    r = draw(st.integers(1, 3))
    mu = draw(st.lists(scalars, min_size=r + 1, max_size=r + 1).filter(any))
    psi = WhittakerTypeR(r, tuple(mu))
    return psi, draw(_exponent_tables(r - 1)), draw(st.integers(0, 8))


@st.composite
def _bmt_cases(draw):
    n = draw(st.integers(3, 7))
    psi = WhittakerType1N(n, draw(nonzero_scalars), draw(nonzero_scalars))
    lambdas = tuple(draw(st.lists(scalars, min_size=n - 2, max_size=n - 2)))
    return psi, draw(_exponent_tables(n - 2)), lambdas, draw(st.integers(0, 8))


@settings(deadline=None, max_examples=60)
@given(_gaiotto_cases())
def test_gaiotto_builders_match_oracle(case):
    psi, coeffs, cutoff = case
    exponents = min(coeffs, default=(0,) * (psi.r - 1))
    assert gaiotto_basic_form(psi, exponents, cutoff, CTX) == reference_gaiotto_basic_form(
        psi, exponents, cutoff, CTX
    )
    expected = reference_combination(
        reference_gaiotto_basic_form, DECREASING, psi, coeffs, cutoff, CTX
    )
    assert gaiotto_form(psi, coeffs, cutoff, CTX) == expected
    for l in range(psi.r, psi.rank + 1):
        derivative = reference_mu_derivative(psi, l, cutoff, CTX)
        assert _mu_derivative(psi, l, cutoff, CTX) == derivative


@settings(deadline=None, max_examples=60)
@given(_bmt_cases())
def test_bmt_builders_match_oracle(case):
    psi, coeffs, lambdas, cutoff = case
    exponents = min(coeffs, default=(0,) * (psi.n - 2))
    assert bmt_basic_form(psi, exponents, cutoff, CTX) == reference_bmt_basic_form(
        psi, exponents, cutoff, CTX
    )
    expected = reference_combination(
        reference_bmt_basic_form, INCREASING, psi, coeffs, cutoff, CTX
    )
    assert bmt_form(psi, coeffs, cutoff, CTX) == expected
    special = reference_bmt_special_form(psi, lambdas, cutoff, CTX)
    assert bmt_special_form(psi, lambdas, cutoff, CTX) == special


PSI_N5 = WhittakerType1N(5, Fraction(-3, 4), Fraction(2))
ORACLE_CUTOFF = 6
ORACLE_FORMS = {
    "gaiotto-r1": (PSI_R1, lambda c: gaiotto_form(PSI_R1, {(): Fraction(1)}, c, CTX)),
    "gaiotto-r2": (
        PSI_R2,
        lambda c: gaiotto_form(PSI_R2, {(0,): Fraction(1), (1,): Fraction(-2, 3)}, c, CTX),
    ),
    "bmt-n4": (
        PSI_N4,
        lambda c: bmt_form(PSI_N4, {(0, 0): Fraction(1), (1, 0): Fraction(3, 2)}, c, CTX),
    ),
    "bmt-n5": (
        PSI_N5,
        lambda c: bmt_special_form(PSI_N5, (Fraction(2), Fraction(0), Fraction(-1, 3)), c, CTX),
    ),
}


def _changed(vector, label):
    """The vector with 1 added to the coefficient of label."""
    return vector.add_scaled(type(vector)(*vector.module, {label: Fraction(1)}), Fraction(1))


@pytest.mark.parametrize("case", list(ORACLE_FORMS))
def test_whittaker_checks_match_sparse_oracles(case):
    psi, build = ORACLE_FORMS[case]
    form = build(ORACLE_CUTOFF)
    state = raise_indices(form)
    # The basis change B maps a level's first label to itself and its last,
    # (1,)*level, to a combination of every label of the level.
    labels = [
        label
        for level in (2, ORACLE_CUTOFF)
        for label in (enumerate_partitions(level)[0], (1,) * level)
    ]
    for label in (None, *labels):
        f = form if label is None else _changed(form, label)
        w = state if label is None else _changed(state, label)
        form_report = verify_whittaker_form(f, psi)
        state_report = verify_whittaker_state(w, psi, ORACLE_CUTOFF)
        assert form_report == reference_verify_whittaker_form(f, psi), (case, label)
        assert state_report == reference_verify_whittaker_state(w, psi, ORACLE_CUTOFF)
        assert state_report.passed == (label is None)
        # At the cutoff N the r = 2 checks read f only through L_k f, k >= 2:
        # every term of L_{-k} L_{-mu}|Delta> has a part >= 2, so none reads
        # the coefficient of (1,)*N.
        unread = case == "gaiotto-r2" and label == (1,) * ORACLE_CUTOFF
        assert form_report.passed == (label is None or unread)
