import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_oracle import reference_rref, reference_solve
from virwhit import linalg
from virwhit.linalg import (
    SingularMatrixError,
    bareiss_solve,
    det,
    nullspace,
    rank,
)


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
    p = linalg.PRIMES[0]
    a = [[1, 1], [1, 1 + p]]  # det = p
    assert linalg._lu_mod(a, p) is None
    x = bareiss_solve(_mat(a), [Fraction(2), Fraction(3)])
    assert x == [2 - Fraction(1, p), Fraction(1, p)]



def test_solve_certificate_rejects_early_reconstruction():
    # x = p + 1 reads as 1 after one p-digit; the exact check must reject
    # that and lift on.
    p = linalg.PRIMES[0]
    assert bareiss_solve(_mat([[1]]), [Fraction(p + 1)]) == [p + 1]

def test_solve_regular_matrix_singular_mod_every_prime_raises():
    with pytest.raises(ArithmeticError):
        bareiss_solve(_mat([[prod(linalg.PRIMES)]]), [Fraction(1)])


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
