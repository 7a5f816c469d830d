"""Acceptance suite: every criterion checked exactly (tolerance zero).

Each test prints one ``ACCEPTANCE nn name: PASS/FAIL`` line (shown with
``pytest -s``, and in captured output otherwise) and asserts both the
exact results and the runtime budget.
"""

import json
import random
import time
from fractions import Fraction

from fraction_oracle import reference_rref
from virwhit.cli import main as cli_main
from virwhit.families import (
    example_n5,
    family_w_1_l_n,
    family_w_l_2,
    family_w_l_2_n,
    restricted_type,
    whittaker_subspace_level0,
)
from virwhit.formops import check_L0_Li_on_basic, whittaker_form_nullspace
from virwhit.forms import (
    DECREASING,
    bmt_form,
    bmt_special_form,
    convert_form,
    gaiotto_form,
    raise_indices,
    verify_whittaker_form,
    verify_whittaker_state,
)
from virwhit.shapovalov import gram
from virwhit.universal import (
    basis_vector as universal_basis_vector,
)
from virwhit.universal import (
    check_lemma_bounds,
    level0_words,
    pp_level,
    search_whittaker,
    verify_whittaker_vector,
)
from virwhit.verma import VermaContext
from virwhit.virasoro import commutator, generator, normal_order
from virwhit.whittaker import WhittakerType1N, WhittakerTypeR

CTX = VermaContext(Fraction(11, 3), Fraction(2, 7))
CHARGES = (Fraction(11, 3), Fraction(1), Fraction(26))
CONTEXTS = (
    VermaContext(Fraction(11, 3), Fraction(2, 7)),
    VermaContext(Fraction(1), Fraction(1)),
    VermaContext(Fraction(26), Fraction(-1, 2)),
)

PSI_R1 = WhittakerTypeR(1, (Fraction(3, 2), Fraction(5)))
PSI_R2 = WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(7)))
PSI_N3 = WhittakerType1N(3, Fraction(1), Fraction(2))
PSI_N4 = WhittakerType1N(4, Fraction(2, 5), Fraction(-3))
PSI_N5 = WhittakerType1N(5, Fraction(1), Fraction(2))


def _run(number, name, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def test_c01_algebra_soundness():
    def body():
        for c in CHARGES:
            for m in range(-6, 7):
                for n in range(-6, 7):
                    from virwhit.virasoro import bracket

                    assert bracket(m, n, c).terms == (-bracket(n, m, c)).terms
            gens = {k: generator(k, c) for k in range(-6, 7)}
            for m in range(-6, 7):
                for n in range(-6, 7):
                    for p in range(-6, 7):
                        total = (
                            commutator(gens[m], commutator(gens[n], gens[p]))
                            + commutator(gens[n], commutator(gens[p], gens[m]))
                            + commutator(gens[p], commutator(gens[m], gens[n]))
                        )
                        assert total.is_zero(), (c, m, n, p)

    _run(1, "algebra-soundness", 5.0, body)


def _oracle_entry(lam, mu, ctx):
    # Independent route: full-word normal ordering, then highest-weight rules.
    word = tuple(reversed(lam)) + tuple(-p for p in mu)
    element = normal_order(word, ctx.c)
    total = Fraction(0)
    for mono, coeff in element.terms.items():
        if any(letter > 0 for letter in mono) or any(letter < 0 for letter in mono):
            continue
        total += coeff * ctx.delta ** len(mono)
    return total


def test_c02_gram_oracle_equivalence():
    def body():
        for ctx in CONTEXTS:
            for level in range(4):
                g = gram(level, ctx)
                for i, lam in enumerate(g.partitions):
                    for j, mu in enumerate(g.partitions):
                        assert g.entries[i][j] == _oracle_entry(lam, mu, ctx)
            for level in range(7):
                g = gram(level, ctx)
                size = len(g.partitions)
                for i in range(size):
                    for j in range(size):
                        assert g.entries[i][j] == g.entries[j][i]

    _run(2, "gram-oracle-equivalence", 30.0, body)


def _criterion3_forms():
    yield gaiotto_form(PSI_R1, {(): Fraction(1)}, 6, CTX), PSI_R1
    yield (
        gaiotto_form(
            PSI_R2,
            {(0,): Fraction(1), (1,): Fraction(-2, 3), (3,): Fraction(5)},
            6,
            CTX,
        ),
        PSI_R2,
    )


def test_c03_whittaker_forms_forward():
    def body():
        for form, psi in _criterion3_forms():
            report = verify_whittaker_form(form, psi)
            assert report.passed, report.first_failure()
            state = raise_indices(form)
            state_report = verify_whittaker_state(state, psi, 6)
            assert state_report.passed, state_report.first_failure()

    _run(3, "whittaker-forms-forward", 60.0, body)


def test_c04_whittaker_forms_converse():
    def body():
        dim1, _ = whittaker_form_nullspace(PSI_R1, CTX, 4)
        assert dim1 == 1
        dim2, _ = whittaker_form_nullspace(PSI_R2, CTX, 4)
        assert dim2 == 5  # admissible n_1 tuples 0..4

    _run(4, "whittaker-forms-converse", 60.0, body)


def _criterion5_forms():
    rng = random.Random(501)
    b3 = {
        (m,): Fraction(rng.randint(1, 6), rng.randint(1, 4)) for m in range(3)
    }
    yield bmt_form(PSI_N3, b3, 6, CTX), PSI_N3
    b4 = {
        (0, 0): Fraction(rng.randint(1, 6), rng.randint(1, 4)),
        (1, 0): Fraction(rng.randint(1, 6), rng.randint(1, 4)),
        (0, 1): Fraction(rng.randint(1, 6), rng.randint(1, 4)),
    }
    yield bmt_form(PSI_N4, b4, 6, CTX), PSI_N4
    yield bmt_special_form(PSI_N4, (Fraction(1), Fraction(1, 2)), 6, CTX), PSI_N4


def test_c05_bmt_forms():
    def body():
        for form, psi in _criterion5_forms():
            report = verify_whittaker_form(form, psi)
            assert report.passed, report.first_failure()

    _run(5, "bmt-forms", 60.0, body)


def test_c06_raise_indices_round_trip():
    def body():
        all_forms = list(_criterion3_forms()) + list(_criterion5_forms())
        for form, _psi in all_forms:
            state = raise_indices(form)
            f_dec = convert_form(form, DECREASING)
            for level in range(7):
                g = gram(level, CTX)
                coords = [state.coefficient(p) for p in g.partitions]
                for i, lam in enumerate(g.partitions):
                    pairing = sum(
                        (g.entries[i][j] * coords[j] for j in range(len(coords))),
                        Fraction(0),
                    )
                    assert pairing == f_dec.coefficient(lam)
        state1 = raise_indices(next(_criterion3_forms())[0])
        assert state1.coefficient((1,)) == PSI_R1.mu[0] / (2 * CTX.delta)

    _run(6, "raise-indices-round-trip", 30.0, body)


def test_c07_universal_families():
    def body():
        c = Fraction(11, 3)
        for l in range(5):
            assert verify_whittaker_vector(family_w_l_2(PSI_N4, l, c), PSI_N4).passed
        psi6 = WhittakerType1N(6, Fraction(3, 7), Fraction(-5, 2))
        for psi in (PSI_N5, psi6):
            for l in range(4):
                assert verify_whittaker_vector(
                    family_w_l_2_n(psi, l, c), psi
                ).passed
        for l in (2, 3):
            assert verify_whittaker_vector(
                family_w_1_l_n(PSI_N5, l, c), PSI_N5
            ).passed
        mu = PSI_N5.nun
        v1 = example_n5("w_11_23", PSI_N5, c)
        assert v1.coefficient((3, 4, 4, 4)) == Fraction(5) / (27 * mu**2)
        v2 = example_n5("w_2_2", PSI_N5, c)
        assert v2.coefficient((4,)) == Fraction(-1, 3)
        for v in (v1, v2):
            assert verify_whittaker_vector(v, PSI_N5).passed

    _run(7, "universal-families", 30.0, body)


def test_c08_whittaker_search():
    def body():
        c = Fraction(11, 3)
        result3 = search_whittaker(PSI_N3, level0_words(2, 2, 8), PSI_N3, c)
        assert result3.dimension == 0

        ansatz = [
            (2,) * a + (3,) * (2 * b)
            for a in range(7)
            for b in range(4)
            if 0 < a + 2 * b <= 6
        ]
        result4 = search_whittaker(PSI_N4, ansatz, PSI_N4, c)
        assert result4.dimension == 3
        order = {w: i for i, w in enumerate(result4.ansatz)}

        def coords(v):
            out = [Fraction(0)] * len(order)
            for word, coeff in v.terms.items():
                out[order[word]] = coeff
            return out

        def rank(rows):
            return len(reference_rref(rows, len(order))[1])

        basis_rows = [coords(b) for b in result4.basis]
        base_rank = rank(basis_rows)
        assert base_rank == 3
        for l in (1, 2, 3):
            fam = family_w_l_2(PSI_N4, l, c)
            assert rank(basis_rows + [coords(fam)]) == base_rank

    _run(8, "whittaker-search", 60.0, body)


def test_c09_subspace_spans():
    def body():
        c = Fraction(11, 3)
        cases = [
            (WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(7))), (2, 4)),
            (WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(0))), (2, 3)),
            (WhittakerTypeR(2, (Fraction(2), Fraction(0), Fraction(0))), (2,)),
        ]
        for psi, r_primes in cases:
            for r_prime in r_primes:
                vectors = whittaker_subspace_level0(psi, r_prime, c, max_length=5)
                target = restricted_type(psi, r_prime)
                assert vectors
                for v in vectors:
                    assert verify_whittaker_vector(v, target).passed
        rank4 = cases[0][0]
        bad = universal_basis_vector(rank4, c, (1,))
        assert not verify_whittaker_vector(bad, rank4).passed

    _run(9, "subspace-spans", 30.0, body)


def _sample_type(rng):
    r = rng.randint(1, 3)
    mu = tuple(Fraction(rng.randint(-6, 6)) for _ in range(r + 1))
    if not any(mu):
        mu = mu[:-1] + (Fraction(1 + rng.randint(0, 5)),)
    return WhittakerTypeR(r, mu)


def _sample_word(rng, r, max_level=8, max_length=5):
    letters = []
    budget = rng.randint(0, max_level)
    while budget:
        step = rng.randint(1, budget)
        letters.append(-step)
        budget -= step
    letters.extend(rng.randint(0, r - 1) for _ in range(rng.randint(0, max_length)))
    return tuple(sorted(letters))


def test_c10_lemma_suite():
    def body():
        c = Fraction(11, 3)
        rng = random.Random(1001)
        clause_targets = {
            "raising_vanishes": 0,
            "raising_length_drop": 0,
            "lowering_vanishes": 0,
            "lowering_level_window": 0,
            "lowering_level_drop": 0,
            "leading_term": 0,
            "remainder_split": 0,
        }
        attempts = 0
        while min(clause_targets.values()) < 100:
            attempts += 1
            assert attempts < 20000, clause_targets
            psi = _sample_type(rng)
            word = _sample_word(rng, psi.r)
            s = psi.rank
            level = pp_level(word)
            choices = [rng.randint(psi.r, s), rng.randint(s + 1, s + level + 3)]
            if level:
                choices.append(min(-x for x in word if x < 0) + s)
            for m in choices:
                report = check_lemma_bounds(m, word, psi, c)
                for clause in report.clauses:
                    assert clause.passed, (psi, word, m, clause)
                    clause_targets[clause.clause] += 1

    _run(10, "lemma-suite", 120.0, body)


def test_c11_l0_li_closing_formulas():
    def body():
        psi2 = WhittakerTypeR(2, (Fraction(2), Fraction(-1, 3), Fraction(7)))
        psi3 = WhittakerTypeR(
            3, (Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(5, 3))
        )
        for psi in (psi2, psi3):
            report = check_L0_Li_on_basic(psi, 5, CTX)
            assert report.passed, report.first_failure()

    _run(11, "l0-li-closing-formulas", 30.0, body)


def test_c12_cli_determinism(tmp_path, capsys):
    def body():
        args = [
            "gaiotto",
            "--r", "1",
            "--mu", "3/2,5",
            "--delta", "2/7",
            "--c", "11/3",
            "--cutoff", "5",
        ]
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        verify_path = tmp_path / "verify.json"
        for path in paths:
            code = cli_main(args + ["--out", str(path)])
            capsys.readouterr()
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        verify_code = cli_main(
            ["verify", "--input", str(paths[0]), "--out", str(verify_path)]
        )
        capsys.readouterr()
        assert verify_code == 0
        assert json.loads(verify_path.read_text())["passed"]

    _run(12, "cli-determinism", 10.0, body)
