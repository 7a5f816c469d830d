import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraction_oracle import reference_det, reference_rref, reference_solve
from linalg_oracle import reference_lu_mod, reference_lu_solve
from virwhit import linalg
from virwhit.linalg import SingularMatrixError, bareiss_solve, nullspace
from virwhit import forms, universal, verma, virasoro
from virwhit.universal import level0_words, search_whittaker
from virwhit.whittaker import WhittakerType1N


def _integer(matrix, rhs=()):
    """Each Fraction row, and its rhs entry, times the lcm of the row's
    denominators: integer rows with the same solution and kernel."""
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    rows = [[int(x * m) for x in row] for row, m in zip(matrix, scales)]
    return rows, [v * m for v, m in zip(rhs, scales)]


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_solve_known_system():
    x = bareiss_solve([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_rational_entries():
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1)]]
    rhs = [Fraction(7, 6), Fraction(9, 4)]
    x = bareiss_solve(*_integer(a, rhs))
    for row, b in zip(a, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def test_solve_needs_pivoting():
    assert bareiss_solve([[0, 1], [1, 0]], [Fraction(3), Fraction(4)]) == [Fraction(4), Fraction(3)]


def test_solve_singular_raises(monkeypatch):
    with pytest.raises(SingularMatrixError):
        bareiss_solve([[1, 2], [2, 4]], [Fraction(1), Fraction(1)])
    # Primitive rows, singular mod every prime.  det = 0 once the product P
    # of the primes tried has P^2 > prod |row|^2 = (big^2 + 1)^2: eleven
    # primes, for big the product of the first five.
    big = prod(islice(linalg.primes(), 5))
    tried = []
    lu_mod = linalg._lu_mod
    monkeypatch.setattr(linalg, "_lu_mod", lambda a, p: tried.append(p) or lu_mod(a, p))
    with pytest.raises(SingularMatrixError):
        bareiss_solve([[big, 1], [big, 1]], [Fraction(1), Fraction(1)])
    assert len(tried) == 11
    assert prod(tried[:10]) ** 2 <= (big * big + 1) ** 2 < prod(tried) ** 2


def test_solve_random_round_trip():
    rng = random.Random(99)
    for size in (1, 2, 3, 4, 6):
        for _ in range(5):
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)] for _ in range(size)]
            if reference_det(a) == 0:
                continue
            x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(size)]
            rhs = [sum(c * v for c, v in zip(row, x_true)) for row in a]
            assert bareiss_solve(*_integer(a, rhs)) == x_true


def test_solve_rejects_a_non_square_system():
    with pytest.raises(ValueError):
        bareiss_solve([[1, 2]], [Fraction(1)])
    with pytest.raises(ValueError):
        bareiss_solve([[1, 0], [0, 1]], [Fraction(1)])


def test_nullspace_known_kernel():
    # x + y + z = 0 has a two-dimensional kernel
    basis = nullspace([{0: 1, 1: 1, 2: 1}], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec.values()) == 0
    assert basis == [{0: -1, 1: 1}, {0: -1, 2: 1}]


def test_nullspace_trivial():
    assert nullspace([{0: 1}, {1: 1}], 2) == []


def test_nullspace_empty_matrix_is_identity():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == 1 and sum(map(abs, vec.values())) == 1


def test_solve_regular_matrix_singular_mod_first_prime():
    p = next(linalg.primes())
    a = [[1, 1], [1, 1 + p]]  # det = p
    assert linalg._lu_mod(a, p) is None
    x = bareiss_solve(a, [Fraction(2), Fraction(3)])
    assert x == [2 - Fraction(1, p), Fraction(1, p)]



def test_solve_certificate_rejects_early_reconstruction():
    # x = p + 1 reads as 1 after one p-digit; the exact check must reject
    # that and lift on.
    p = next(linalg.primes())
    assert bareiss_solve([[1]], [Fraction(p + 1)]) == [p + 1]

def test_solve_regular_matrix_singular_mod_first_five_primes():
    # det = the product of the first five primes: the solve moves on to
    # the sixth and returns the exact answer.
    big = prod(islice(linalg.primes(), 5))
    assert bareiss_solve([[big]], [Fraction(1)]) == [Fraction(1, big)]


def test_solve_singular_with_zero_rhs_raises():
    with pytest.raises(SingularMatrixError):
        bareiss_solve([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [Fraction(0)] * 3)


def test_solve_empty_system():
    assert bareiss_solve([], []) == []


def test_solve_zero_rhs_gives_zeros():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert bareiss_solve(a, [Fraction(0)] * 3) == [Fraction(0)] * 3


def test_solve_hilbert_matrix_matches_gauss_jordan():
    # Coordinates many p-digits wide: the lifting runs for several steps.
    n = 12
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    rhs = [Fraction(i - 5, i + 2) for i in range(n)]
    assert bareiss_solve(*_integer(a, rhs)) == reference_solve(a, rhs)


def test_lifting_stops_at_hadamard_bound(monkeypatch):
    monkeypatch.setattr(linalg, "_reconstruct", lambda residues, modulus: None)
    with pytest.raises(ArithmeticError):
        bareiss_solve([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])


_FIRST_PRIME = next(linalg.primes())
_BIG = 2**130


def _entry(rng, p):
    """Up to +-2^130; one draw in three is = p - 1 mod p, one is small."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-_BIG, _BIG)
    if kind == 1:
        return rng.randint(-_BIG // p, _BIG // p) * p - 1
    return rng.randint(-3, 3)


@st.composite
def _modular_system(draw):
    """(rows, p, rng): n in 0..30, entries from ``_entry``.

    ``worst`` builds L U + p K with every multiplier L[i][k] = -1 and
    every U[k][j] = 1 (j > k) mod p, so every LU update adds (p - 1)^2
    to a slot: the largest slots the packed LU can meet.  ``singular``
    makes one row a combination of two others mod p.
    """
    p = draw(st.sampled_from([2, 3, 251, _FIRST_PRIME]))
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["random", "worst", "singular"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "worst":
        diagonal = [rng.randint(1, p - 1) for _ in range(n)]
        upper = [[1 if i < j else diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows = [[upper[i][j] - sum(upper[k][j] for k in range(i)) for j in range(n)] for i in range(n)]
    else:
        rows = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
        if kind == "singular" and n >= 3:
            w = _entry(rng, p)
            rows[0] = [a + w * b for a, b in zip(rows[1], rows[2])]
    shift = _BIG // p
    return [[x + p * rng.randint(-shift, shift) for x in row] for row in rows], p, rng


@settings(deadline=None, max_examples=100)
@given(_modular_system())
def test_packed_lu_matches_the_list_lu(system):
    rows, p, rng = system
    factors, expected = linalg._lu_mod(rows, p), reference_lu_mod(rows, p)
    assert (factors is None) == (expected is None)
    if factors is None:
        return
    for _ in range(2):
        rhs = [_entry(rng, p) for _ in rows]
        assert linalg._lu_solve(factors, rhs, p) == reference_lu_solve(expected, rhs, p)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 8), st.data())
def test_bareiss_solve_matches_gauss_jordan_on_large_negative_entries(n, data):
    entry = st.one_of(st.integers(-_BIG, 2**20), st.fractions(-_BIG, 0, max_denominator=2**40))
    vector = st.lists(entry, min_size=n, max_size=n).map(lambda row: [Fraction(v) for v in row])
    matrix = [data.draw(vector) for _ in range(n)]
    assume(len(reference_rref(matrix, n)[1]) == n)
    rhs = data.draw(vector)
    assert bareiss_solve(*_integer(matrix, rhs)) == reference_solve(matrix, rhs)


def _reference_nullspace(matrix, ncols):
    """The reduced-row-echelon kernel basis as sparse {column: nonzero} vectors."""
    reduced, pivots = reference_rref(matrix, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv in enumerate(pivots):
            vec[piv] = -reduced[row_idx][free]
        basis.append({j: v for j, v in enumerate(vec) if v})
    return basis


def _check_sparse_basis(basis):
    """No stored zero, and 1 at each vector's free column: its last, held by no other vector."""
    free = [max(vec) for vec in basis]
    assert all(all(vec.values()) and vec[f] == 1 for vec, f in zip(basis, free))
    assert not any(f in vec for f in free for vec in basis if max(vec) != f)


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
    basis = nullspace(_sparse(_integer(matrix)[0]), ncols=ncols)
    assert basis == expected
    _check_sparse_basis(basis)


@given(_square(), st.data())
def test_bareiss_solve_satisfies_system(matrix, data):
    n = len(matrix)
    rhs = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    if len(reference_rref(matrix, n)[1]) < n:
        with pytest.raises(SingularMatrixError):
            bareiss_solve(*_integer(matrix, rhs))
        return
    x = bareiss_solve(*_integer(matrix, rhs))
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs


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


@settings(deadline=None, max_examples=50)
@given(_sparse_matrices())
def test_sparse_nullspace_and_rank_match_gauss_jordan(case):
    matrix, ncols = case
    expected = _reference_nullspace(matrix, ncols)
    basis = nullspace(_sparse(_integer(matrix)[0]), ncols=ncols)
    assert basis == expected
    _check_sparse_basis(basis)


@given(_square(max_size=4))
def test_reference_det_matches_cofactor_expansion(matrix):
    assert reference_det(matrix) == _cofactor_det(matrix)


def test_search_whittaker_basis_matches_gauss_jordan(monkeypatch):
    systems = []
    exact = linalg.nullspace

    def recording(matrix, ncols):
        systems.append((matrix, ncols))
        return exact(matrix, ncols)

    monkeypatch.setattr(linalg, "nullspace", recording)
    psi = WhittakerType1N(5, Fraction(3, 7), Fraction(-2, 5))
    result = search_whittaker(psi, level0_words(2, 4, 5), psi, Fraction(5, 3))
    ((matrix, ncols),) = systems
    dense = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in matrix]
    reference = _reference_nullspace(dense, ncols)
    assert result.dimension > 0
    assert [vec.terms for vec in result.basis] == [
        {result.ansatz[j]: v for j, v in vec.items()} for vec in reference
    ]


def test_primes_are_the_primes_below_2_30_largest_first():
    assert list(islice(linalg.primes(), 5)) == [
        2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101, 2**30 - 105
    ]
    trial = [n for n in range(2, 3000) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert [n for n in range(3000) if linalg._is_prime(n)] == trial
    # Strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5.
    assert not any(map(linalg._is_prime, (2047, 1373653, 25326001)))


def test_update_rule_on_pairs_and_flat_rows():
    # A key that cancels is dropped; a later term adds it back, at the end.
    shapes = ((linalg.accumulate, [(1, 2), (2, 3)]), (linalg.accumulate_flat, (1, 2, 2, 3)))
    for update, row in shapes:
        acc = {1: -4, 3: 5}
        assert update(acc, row, 2) is acc
        assert list(acc.items()) == [(3, 5), (2, 6)]
        update(acc, row, 1)
        assert list(acc.items()) == [(3, 5), (2, 9), (1, 2)]
        update(acc, row, 0)
        assert list(acc.items()) == [(3, 5), (2, 9), (1, 2)]
    # On random rows, with cancellations, the two shapes agree term for term and in order.
    rng = random.Random(24)
    for _ in range(200):
        acc = {k: rng.choice([-3, -1, 2, 5]) for k in rng.sample(range(8), rng.randint(0, 6))}
        row = {k: rng.choice([-2, -1, 1, 3]) for k in rng.sample(range(8), rng.randint(0, 6))}
        flat = tuple(x for item in row.items() for x in item)
        assert list(linalg.pairs(flat)) == list(row.items())
        scalar = rng.randint(-3, 3)
        expected = linalg.accumulate(dict(acc), linalg.pairs(flat), scalar)
        got = linalg.accumulate_flat(acc, flat, scalar)
        assert list(got.items()) == list(expected.items())
        assert all(got.values())


def test_sparse_rows_give_the_dense_nullspace():
    rng = random.Random(11)
    for _ in range(20):
        ncols = rng.randint(1, 7)
        dense = [
            [Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))
        ]
        basis = nullspace(_sparse(_integer(dense)[0]), ncols)
        assert basis == _reference_nullspace(dense, ncols)
        _check_sparse_basis(basis)


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
        lambda: forms.eval_form(
            forms.zero_form(_CTX, 3),
            verma.highest_weight_vector(verma.VermaContext(Fraction(1), Fraction(5))),
        ),
    ],
    ids=[
        "enveloping-charge",
        "enveloping-multiply",
        "verma-context",
        "universal-type",
        "universal-charge",
        "form-basis-side",
        "form-cutoff",
        "form-vector-context",
    ],
)
def test_combining_vectors_of_different_modules_raises(combine):
    with pytest.raises(linalg.ContextMismatchError):
        combine()
