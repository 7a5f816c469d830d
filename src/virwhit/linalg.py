"""Exact linear algebra on the integer rows the callers build.

``bareiss_solve`` takes a square matrix of ints and a rational right-hand
side; ``nullspace`` takes sparse {column: nonzero int} rows and the
column count.  There is no determinant, rank or inverse (verma inverts
the basis change by signs).

Square solves run modulo a prime below 2^30 (Dixon's p-adic lifting):
the rhs is cleared to integers over one common denominator, each
augmented row divided by its content, then one LU mod p; x is lifted
one p-digit at a time against the integer rows, each coordinate is
recovered by rational reconstruction over a running common denominator,
and the answer is returned only when the exact integer check A x = b
holds.  A Hadamard bound caps the lifting, and the primes tried: each
prime with no LU pivot divides det, so det = 0 once their product passes
it.  The LU, the triangular solves and the residual pack a vector into
one int of fixed-width slots: each row or column update is one big-int
multiply-add, reduced mod p only where a slot is read (delayed
reduction).  Primes are drawn largest first by a deterministic
Miller-Rabin test.

The nullspace is one sparse exact elimination in two passes on
primitive copies of the rows, each update a row combination divided by
its content (``_reduce``).  The forward pass takes the rows one at a
time, shortest first, and reduces each by the pivot row of its least
column until it vanishes or becomes the pivot row of that column; back
substitution then runs from the last pivot to the reduced rows.  A
reduced row is the primitive vector of a line (its combinations with the
pivot rows that vanish on the other pivot columns), so it is never
larger than the fraction-free (Bareiss) row.  The kernel vectors are
sparse too, {column: nonzero Fraction}, read off the reduced rows.

Sparse vectors throughout the package are dicts from basis labels to
nonzero coefficients.  One update rule serves two row shapes:
``accumulate`` takes (key, coefficient) pairs, ``accumulate_flat`` a flat
row (key, n, key, n, ...) of the straightener's memo or verma's tables,
which ``pairs`` reads.  SparseVector, the one vector type, is built on
``accumulate``: U(Vir) elements, Verma vectors, dual forms and universal
Whittaker vectors all inherit its arithmetic and its same-module check.

Value is the base of the package's immutable records, SparseVector
among them: fields come from the class annotations, with the
constructor, equality, hash and repr of a frozen dataclass, without the
cost of importing and generating dataclasses at start-up.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import attrgetter, mul


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every n < 3,215,031,751."""
    bases = (2, 3, 5, 7)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**k, n) != n - 1 for k in range(s)):
            return False
    return True


def primes():
    """The primes below 2^30, largest first, for the modular solve.

    Their residues are single-digit CPython ints and the packed LU's
    slots half as wide as mod 2^61 - 1: on level-12 and level-14 Gram
    systems the LU ran 1.6-1.9x as fast, and the r = 1 Gaiotto raise at
    cutoffs 12, 14, 16 took 0.055, 0.18, 0.65 s against 0.076, 0.25,
    0.80 s, with twice the lifting steps (90, 132, 181 against 48, 68, 91).
    """
    return filter(_is_prime, range(2**30 - 1, 1, -1))


class SingularMatrixError(ValueError):
    """Raised when a square system has no unique solution."""


class SingularGramError(ValueError):
    """The Shapovalov form is degenerate at this level for this (c, Delta),
    which is Delta_{r,s}(c) or Delta_{s,r}(c) with r <= s and rs <= level.

    Raised by shapovalov.solve; defined here so that the CLI can map it to
    its exit code without importing the Gram layer.
    """

    def __init__(self, level: int, r: int, s: int):
        kac = f"Delta is the Kac value Delta_{{{r},{s}}}"
        super().__init__(f"singular Gram matrix at level {level}: {kac}")
        self.level, self.r, self.s = level, r, s


class ContextMismatchError(ValueError):
    """Raised when vectors of different modules are combined."""


def accumulate(acc: dict, items, scalar=1) -> dict:
    """acc += scalar * items for (key, coefficient) pairs; zeros are dropped."""
    if not scalar:
        return acc
    for key, value in items:
        new = acc.get(key, 0) + value * scalar
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


def accumulate_flat(acc: dict, flat: tuple, scalar) -> dict:
    """``accumulate`` on a flat row, read without a zip: most rows are short."""
    it = iter(flat)
    for key in it:
        new = acc.get(key, 0) + next(it) * scalar
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


def pairs(flat: tuple):
    """The (key, coefficient) pairs of a flat row, one pass."""
    it = iter(flat)
    return zip(it, it)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

MAX_CONTEXTS = 4  # members kept per family; a CLI command uses at most two


class Straighteners(dict):
    """One family of per-module members (virasoro's straighteners, verma's
    context tables), made on first use from their parameters.  Each owns
    its memo or tables; a family holds the last MAX_CONTEXTS made, and
    making one more frees the oldest with all it owns."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        if len(self) >= MAX_CONTEXTS:
            del self[next(iter(self))]
        rule = self[key] = self._make(key)
        return rule

    def cache_info(self) -> CacheInfo:
        """Memo hits and misses pooled over a family of straighteners;
        misses are entries."""
        entries = sum(len(r._cache) for r in self.values())
        return CacheInfo(sum(r.hits for r in self.values()), entries, None, entries)


class Value:
    """Base of the immutable records: the fields are the names annotated in
    the class body, after those of its bases.

    The constructor takes them by position or keyword; a field assigned in
    the class body defaults to that value (a fresh copy of a dict), and the
    class's ``__post_init__``, if it has one, runs last.  Records of one
    class with equal fields are equal and hash alike; assignment raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _validates = False  # whether the class has a __post_init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{k: v for k, v in vars(cls).items() if k in own}}
        cls._validates = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = {k: dict(v) if isinstance(v, dict) else v for k, v in self._defaults.items()}
            values.update(zip(names, args), **kwargs)
            twice = kwargs.keys() & set(names[: len(args)])
            if len(args) > len(names) or twice or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = tuple(map(values.get, names))
        fields = self.__dict__  # indexed stores: update(zip(...)) measured slower
        for i, name in enumerate(names):
            fields[name] = args[i]
        if self._validates:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # Fields never change, so the hash is computed once and kept.
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash(self._values())
        return self.__dict__["_hash"]

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SparseVector(Value):
    """Base of the records whose last field is ``terms``, a dict from basis
    label to nonzero coefficient; the other fields name the module.

    ``module`` is the tuple of those other fields.  Results are built with
    the class constructor from the module and new terms; combining vectors
    of different modules raises ContextMismatchError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        *names, last = cls._fields
        if last != "terms":
            raise TypeError(f"{cls.__name__}: the last field must be terms")
        get = attrgetter(*names)
        cls.module = property(get if len(names) > 1 else lambda v: (get(v),))

    def shared_module(self, other: "SparseVector") -> tuple:
        """The module both vectors belong to."""
        module = self.module
        if module != other.module:
            raise ContextMismatchError(
                f"{type(self).__name__}s of different modules: {module} vs {other.module}"
            )
        return module

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, label) -> Fraction:
        return self.terms.get(tuple(label), Fraction(0))

    def add_scaled(self, other, scalar=1):
        """self + scalar * other."""
        module = self.shared_module(other)
        return type(self)(*module, accumulate(dict(self.terms), other.terms.items(), scalar))

    def __add__(self, other):
        return self.add_scaled(other)

    def __sub__(self, other):
        return self.add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        terms = {k: c * scalar for k, c in self.terms.items()} if scalar else {}
        return type(self)(*self.module, terms)


def _reduce(row: dict[int, int], top: dict[int, int], col: int) -> dict[int, int]:
    """(a row - b top) / content, which clears column col: a / b is top[col]
    over row[col] in lowest terms.  The one update of both passes."""
    g = gcd(top[col], row[col])
    a, b = top[col] // g, row[col] // g
    row = accumulate({j: a * v for j, v in row.items()}, top.items(), -b)
    content = gcd(*row.values())
    return {j: v // content for j, v in row.items()} if content > 1 else row


def _pack(values, width: int) -> int:
    """sum(values[i] << i * width): the values as the slots of one int."""
    return sum(v << i * width for i, v in enumerate(values))


def _lu_mod(rows: list[list[int]], p: int):
    """LU factors of the square integer rows mod p, or None if a column has no pivot.

    Each row is one int of W-bit slots; eliminating column k is one
    multiply-add per row below the pivot, row = (row >> W) + f * neg, neg
    holding (p - U[k][j]) mod p for j > k.  Only the pivot column and row
    are reduced mod p.  A slot starts below p and takes at most n - 1
    updates of at most (p - 1)^2: W = bitlen((n - 1)(p - 1)^2 + p - 1).

    Returns (perm, lcols, ucols, inverses, W): row i of L U is row
    perm[i] of the matrix; lcols[k] and ucols[j] hold (p - L[i][k]) mod p
    (i > k) and (p - U[i][j]) mod p (i < j) at slot perm[i]; inverses[i]
    is 1/U[i][i] mod p.
    """
    n = len(rows)
    width = ((n - 1) * (p - 1) ** 2 + p - 1).bit_length()
    mask = (1 << width) - 1
    work = [_pack([x % p for x in row], width) for row in rows]  # slot j: column k + j
    perm = list(range(n))
    lcols, ucols, inverses = [], [0] * n, []
    for k in range(n):
        pivot = next((i for i in range(k, n) if (work[i] & mask) % p), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        perm[k], perm[pivot] = perm[pivot], perm[k]
        top = [(work[k] >> j * width & mask) % p for j in range(n - k)]
        inverses.append(inv := pow(top[0], -1, p))
        neg = [-x % p for x in top[1:]]
        for j, x in enumerate(neg, k + 1):
            ucols[j] += x << perm[k] * width
        packed = _pack(neg, width)
        fs = [(row & mask) * inv % p for row in work[k + 1 :]]
        work[k + 1 :] = [(row >> width) + f * packed for row, f in zip(work[k + 1 :], fs)]
        lcols.append(sum(-f % p << perm[i] * width for i, f in enumerate(fs, k + 1)))
    return perm, lcols, ucols, inverses, width


def _lu_solve(factors, rhs: list[int], p: int) -> list[int]:
    """y with A y = rhs mod p, A given by its ``_lu_mod`` factors.

    One accumulator, rhs[i] in slot i, runs both solves column by column:
    acc += (slot perm[k] mod p) * lcols[k], then y[j] = slot perm[j] /
    U[j][j] and acc += y[j] * ucols[j].  A slot takes n - 1 updates, as in the LU.
    """
    perm, lcols, ucols, inverses, width = factors
    mask = (1 << width) - 1
    acc = _pack([v % p for v in rhs], width)
    for slot, col in zip(perm, lcols):
        acc += (acc >> slot * width & mask) % p * col
    y = [0] * len(rhs)
    for j in range(len(rhs) - 1, -1, -1):
        y[j] = (acc >> perm[j] * width & mask) * inverses[j] % p
        acc += y[j] * ucols[j]
    return y


def _reconstruct(residues: list[int], modulus: int):
    """Numerators and a common denominator D with nums[i] / D = residues[i] mod modulus.

    Rational reconstruction (Wang) with numerator and denominator bound
    sqrt(modulus / 2), run on D * residue with the denominator D found
    so far, so that after the first coordinate most runs stop at once.
    Returns None when some coordinate has no fraction within the bounds.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    nums: list[int] = []
    for x in residues:
        r0, r1 = modulus, den * x % modulus
        t0, t1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) * den > bound:
            return None
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 != 1:
            nums = [v * t1 for v in nums]
            den *= t1
        nums.append(r1)
    return nums, den


def _dixon(a: list[list[int]], b: list[int], factors, p: int) -> tuple[list[int], int]:
    """Numerators and a common denominator of x with a x = b, by p-adic lifting.

    The answer is certified by the exact check a nums = den b.  Each step
    adds one p-digit y to x mod p^k.  The residual (b - a x) / p^k
    is one int R = sum_i r_i 2^{iB}; with the packed columns C_j of a,
    R = (R - sum_j y_j C_j) / p is exact as it is exact in every slot, and
    |r_i| <= |b_i| + sum_j |a_ij| < 2^{B-1}, so R + 2^{B-1} in every slot
    decodes exactly.  Reconstruction is tried after steps 1..8, then when
    the step count has grown by an eighth, and at the Hadamard bound H on
    det a and every Cramer numerator, H^2 = max(1, |b|^2) prod |col|^2,
    where it is sure to succeed; a check failing there raises ArithmeticError.
    """
    n = len(b)
    bound = max(1, sum(v * v for v in b)) * prod(sum(v * v for v in col) for col in zip(*a))
    top = max((abs(v) + sum(map(abs, row)) for row, v in zip(a, b)), default=0)
    size = top.bit_length() // 8 + 1  # bytes per slot, sign bit included
    half = 1 << 8 * size - 1
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    *columns, residual = [
        int.from_bytes(b"".join((v + half).to_bytes(size, "little") for v in col), "little") - bias
        for col in [*zip(*a), b]
    ]
    x, modulus, steps, tried = [0] * n, 1, 0, 0
    while True:
        data = (residual + bias).to_bytes(n * size, "little")
        r = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, n * size, size)]
        y = _lu_solve(factors, r, p)
        x = [xi + modulus * yi for xi, yi in zip(x, y)]
        modulus *= p
        residual = (residual - sum(map(mul, y, columns))) // p
        steps += 1
        capped = (modulus - 1) // 2 >= bound
        if capped or steps - tried >= max(1, tried // 8):
            tried = steps
            found = _reconstruct(x, modulus)
            if found is not None:
                nums, den = found
                if all(sum(map(mul, row, nums)) == den * v for row, v in zip(a, b)):
                    return found
        if capped:
            raise ArithmeticError("p-adic lifting passed the Hadamard bound uncertified")


def bareiss_solve(matrix: list[list[int]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact x with matrix * x = rhs, matrix a square matrix of ints.

    The rhs is cleared to integers over the lcm D of its denominators and
    each augmented row divided by its content.  The rows are factored
    once mod the first of ``primes()`` (``_lu_mod``); D x is lifted
    p-adically and certified by the exact integer check (``_dixon``).
    A prime with no LU pivot divides det, and the next is tried; once their
    product P has P^2 > prod |row|^2 >= det^2, det = 0 and
    SingularMatrixError is raised (254 primes on a level-12 Gram matrix).

    The name is that of the fraction-free (Bareiss) solve this method
    replaced; ``perfbench/traced_job.py`` traces it by name.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("expected a square system")
    scale = lcm(*(v.denominator for v in rhs))
    a, b = [], []
    for row, v in zip(matrix, rhs):
        bi = v.numerator * (scale // v.denominator)
        content = gcd(*row, bi) or 1
        a.append([x // content for x in row] if content > 1 else row)
        b.append(bi // content)
    bound = prod(sum(v * v for v in row) for row in a)  # Hadamard: det^2 <= bound
    divisors = 1  # the product of the primes with no LU pivot
    for p in primes():
        factors = _lu_mod(a, p)
        if factors is not None:
            nums, den = _dixon(a, b, factors, p)
            return [Fraction(v, den * scale) for v in nums]
        divisors *= p
        if divisors * divisors > bound:
            break
    raise SingularMatrixError(f"det = 0: primes down to {p} divide it, past the Hadamard bound")


def nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the kernel of the sparse {column: nonzero int} rows, one
    sparse {column: nonzero Fraction} vector per free (non-pivot) column f.

    The vector for f holds 1 at f and no other free column, which makes the
    basis unique: it is the reduced-row-echelon one, with -R_c[f] / R_c[c]
    at each pivot column c < f whose reduced pivot row R_c holds f.
    The forward pass ``_reduce``s each primitive row by the pivot row of
    its least column c until it vanishes or becomes the pivot row of c,
    which is never touched again, so it holds no column before c.  Back
    substitution from the last pivot column ``_reduce``s the pivot row of
    c by the reduced rows of the later pivot columns it holds.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        content = gcd(*row.values())
        if content > 1:
            row = {j: v // content for j, v in row.items()}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            row = _reduce(row, pivots[col], col)
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for later in [j for j in row if j in reduced]:
            row = _reduce(row, reduced[later], later)
        reduced[c] = row
    basis = {f: {} for f in range(ncols) if f not in reduced}
    for c, row in sorted(reduced.items()):
        for f, v in row.items():
            if f != c:
                basis[f][c] = Fraction(-v, row[c])
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    return list(basis.values())
