import random
from fractions import Fraction
from itertools import islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import reference_det, reference_rref, reference_solve
from virwhit import linalg
from virwhit.linalg import (
    SingularMatrixError,
    bareiss_solve,
    det,
    nullspace,
    rank,
)
from virwhit import forms, universal, verma, virasoro
from virwhit.universal import level0_words, search_whittaker
from virwhit.whittaker import WhittakerType1N


def _mat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_solve_known_system():
    a = _mat([[2, 1], [1, 3]])
    x = bareiss_solve(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_rational_entries():
    a = _mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1)]])
    rhs = [Fraction(7, 6), Fraction(9, 4)]
    x = bareiss_solve(a, rhs)
    for row, b in zip(a, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def test_solve_needs_pivoting():
    a = _mat([[0, 1], [1, 0]])
    assert bareiss_solve(a, [Fraction(3), Fraction(4)]) == [Fraction(4), Fraction(3)]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        bareiss_solve(_mat([[1, 2], [2, 4]]), [Fraction(1), Fraction(1)])


def test_solve_random_round_trip():
    rng = random.Random(99)
    for size in (1, 2, 3, 4, 6):
        for _ in range(5):
            a = _mat(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)] for _ in range(size)]
            )
            if det(a) == 0:
                continue
            x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(size)]
            rhs = [sum(c * v for c, v in zip(row, x_true)) for row in a]
            assert bareiss_solve(a, rhs) == x_true


def test_det_examples():
    assert det(_mat([[1, 2], [3, 4]])) == Fraction(-2)
    assert det(_mat([[0, 1], [1, 0]])) == Fraction(-1)
    assert det(_mat([[Fraction(1, 2)]])) == Fraction(1, 2)
    assert det(_mat([[1, 2], [2, 4]])) == 0


def test_rref_and_rank():
    assert rank(_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])) == 2


def test_nullspace_known_kernel():
    # x + y + z = 0 has a two-dimensional kernel
    basis = nullspace(_mat([[1, 1, 1]]))
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_nullspace_trivial():
    assert nullspace(_mat([[1, 0], [0, 1]])) == []


def test_nullspace_empty_matrix_is_identity():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == 1 and sum(map(abs, vec)) == 1


def test_solve_regular_matrix_singular_mod_first_prime():
    p = next(linalg.primes())
    a = [[1, 1], [1, 1 + p]]  # det = p
    assert linalg._lu_mod(a, p) is None
    x = bareiss_solve(_mat(a), [Fraction(2), Fraction(3)])
    assert x == [2 - Fraction(1, p), Fraction(1, p)]



def test_solve_certificate_rejects_early_reconstruction():
    # x = p + 1 reads as 1 after one p-digit; the exact check must reject
    # that and lift on.
    p = next(linalg.primes())
    assert bareiss_solve(_mat([[1]]), [Fraction(p + 1)]) == [p + 1]

def test_solve_regular_matrix_singular_mod_first_five_primes():
    # det = the product of the first five primes: the solve moves on to
    # the sixth and returns the exact answer.
    big = prod(islice(linalg.primes(), 5))
    assert bareiss_solve(_mat([[big]]), [Fraction(1)]) == [Fraction(1, big)]


def test_solve_singular_with_zero_rhs_raises():
    with pytest.raises(SingularMatrixError):
        bareiss_solve(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), [Fraction(0)] * 3)


def test_solve_empty_system():
    assert bareiss_solve([], []) == []


def test_solve_zero_rhs_gives_zeros():
    a = _mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert bareiss_solve(a, [Fraction(0)] * 3) == [Fraction(0)] * 3


def test_solve_hilbert_matrix_matches_gauss_jordan():
    # Coordinates many p-digits wide: the lifting runs for several steps.
    n = 12
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    rhs = [Fraction(i - 5, i + 2) for i in range(n)]
    assert bareiss_solve(a, rhs) == reference_solve(a, rhs)


def test_lifting_stops_at_hadamard_bound(monkeypatch):
    monkeypatch.setattr(linalg, "_reconstruct", lambda residues, modulus: None)
    with pytest.raises(ArithmeticError):
        bareiss_solve(_mat([[2, 1], [1, 3]]), [Fraction(5), Fraction(10)])


def _reference_nullspace(matrix, ncols):
    reduced, pivots = reference_rref(matrix, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv in enumerate(pivots):
            vec[piv] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def _cofactor_det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def _matrices(draw, max_rows=5, max_cols=6):
    """(rows, ncols): tall, wide, zero-heavy, and rank-deficient by row combinations."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=max_rows))
    weights = st.lists(_ENTRIES, min_size=len(base), max_size=len(base))
    combos = draw(st.lists(weights, max_size=2 if base else 0))
    rows = base + [
        [sum((w * r[j] for w, r in zip(ws, base)), Fraction(0)) for j in range(ncols)]
        for ws in combos
    ]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@st.composite
def _square(draw, max_size=5):
    n = draw(st.integers(0, max_size))
    return [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]


@given(_matrices())
def test_nullspace_and_rank_match_gauss_jordan(case):
    matrix, ncols = case
    expected = _reference_nullspace(matrix, ncols)
    assert nullspace(matrix, ncols=ncols) == expected
    assert rank(matrix) == ncols - len(expected)


@given(_square(), st.data())
def test_bareiss_solve_satisfies_system(matrix, data):
    n = len(matrix)
    rhs = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    if len(reference_rref(matrix, n)[1]) < n:
        with pytest.raises(SingularMatrixError):
            bareiss_solve(matrix, rhs)
        return
    x = bareiss_solve(matrix, rhs)
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs


@given(_square(max_size=4))
def test_det_matches_cofactor_expansion(matrix):
    assert det(matrix) == _cofactor_det(matrix)


_NONZERO = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


def _dense(ncols, cells):
    row = [Fraction(0)] * ncols
    for j, value in cells.items():
        row[j] = value
    return row


@st.composite
def _sparse_matrices(draw, max_size=30):
    """(rows, ncols): up to 30 x 30, 1-3 nonzeros per row, up to 3 rows combining two others."""
    ncols = draw(st.integers(1, max_size))
    cells = st.dictionaries(st.integers(0, ncols - 1), _NONZERO, min_size=1, max_size=3)
    rows = [_dense(ncols, c) for c in draw(st.lists(cells, max_size=max_size))]
    if len(rows) >= 2:
        pairs = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1), _NONZERO)
        for i, j, w in draw(st.lists(pairs, max_size=3)):
            rows.append([a + w * b for a, b in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@st.composite
def _sparse_square(draw, max_size=30):
    """A permuted diagonal of nonzeros plus 0-2 more entries per row; sometimes a dependent row."""
    n = draw(st.integers(0, max_size))
    diagonal = draw(st.permutations(range(n)))
    extra = st.dictionaries(st.integers(0, max(n - 1, 0)), _NONZERO, max_size=2)
    rows = [_dense(n, {**draw(extra), col: draw(_NONZERO)}) for col in diagonal]
    if n >= 3 and draw(st.booleans()):
        w = draw(_NONZERO)
        rows[0] = [a + w * b for a, b in zip(rows[1], rows[2])]
    return rows


@settings(deadline=None, max_examples=50)
@given(_sparse_matrices())
def test_sparse_nullspace_and_rank_match_gauss_jordan(case):
    matrix, ncols = case
    expected = _reference_nullspace(matrix, ncols)
    assert nullspace(matrix, ncols=ncols) == expected
    assert rank(matrix) == ncols - len(expected)


@settings(deadline=None, max_examples=50)
@given(_sparse_square(), st.data())
def test_sparse_det_matches_fraction_elimination_under_row_permutations(matrix, data):
    assert det(matrix) == reference_det(matrix)
    order = data.draw(st.permutations(range(len(matrix))))
    permuted = [matrix[i] for i in order]
    assert det(permuted) == reference_det(permuted)


@given(_square(max_size=4))
def test_reference_det_matches_cofactor_expansion(matrix):
    assert reference_det(matrix) == _cofactor_det(matrix)


def test_search_whittaker_basis_matches_gauss_jordan(monkeypatch):
    systems = []
    exact = linalg.nullspace

    def recording(matrix, ncols=None):
        systems.append((matrix, ncols))
        return exact(matrix, ncols)

    monkeypatch.setattr(linalg, "nullspace", recording)
    psi = WhittakerType1N(5, Fraction(3, 7), Fraction(-2, 5))
    result = search_whittaker(psi, level0_words(2, 4, 5), psi, Fraction(5, 3))
    ((matrix, ncols),) = systems
    dense = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in matrix]
    found = [[vec.terms.get(w, Fraction(0)) for w in result.ansatz] for vec in result.basis]
    assert result.dimension > 0
    assert found == _reference_nullspace(dense, ncols)


def test_primes_are_the_primes_below_2_30_largest_first():
    assert list(islice(linalg.primes(), 5)) == [
        2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101, 2**30 - 105
    ]
    trial = [n for n in range(2, 3000) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert [n for n in range(3000) if linalg._is_prime(n)] == trial
    # Strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5.
    assert not any(map(linalg._is_prime, (2047, 1373653, 25326001)))


def test_sparse_rows_give_the_dense_nullspace():
    rng = random.Random(11)
    for _ in range(20):
        ncols = rng.randint(1, 7)
        dense = [
            [Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))
        ]
        sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert nullspace(sparse, ncols) == nullspace(dense, ncols)
    with pytest.raises(ValueError):
        nullspace([{0: Fraction(1)}])


_CTX = verma.VermaContext(Fraction(1), Fraction(2))
_PSI = WhittakerType1N(4, Fraction(2), Fraction(3))


@pytest.mark.parametrize(
    "combine",
    [
        lambda: virasoro.generator(1, Fraction(1)) + virasoro.generator(1, Fraction(2)),
        lambda: virasoro.multiply(virasoro.unit(Fraction(1)), virasoro.unit(Fraction(2))),
        lambda: verma.highest_weight_vector(_CTX)
        - verma.highest_weight_vector(verma.VermaContext(Fraction(1), Fraction(3))),
        lambda: universal.generating_vector(_PSI, Fraction(1))
        + universal.generating_vector(WhittakerType1N(4, Fraction(2), Fraction(5)), Fraction(1)),
        lambda: universal.generating_vector(_PSI, Fraction(1))
        - universal.generating_vector(_PSI, Fraction(2)),
        lambda: forms.form_combine(
            forms.zero_form(_CTX, 3, forms.DECREASING), forms.zero_form(_CTX, 3, forms.INCREASING)
        ),
        lambda: forms.zero_form(_CTX, 3) + forms.zero_form(_CTX, 2),
    ],
    ids=[
        "enveloping-charge",
        "enveloping-multiply",
        "verma-context",
        "universal-type",
        "universal-charge",
        "form-basis-side",
        "form-cutoff",
    ],
)
def test_combining_vectors_of_different_modules_raises(combine):
    with pytest.raises(linalg.ContextMismatchError):
        combine()
