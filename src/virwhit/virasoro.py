"""Virasoro generators, their bracket, and the one PBW straightener.

Generators are written L_n for integer n.  The bracket is

    [L_m, L_n] = (m - n) L_{m+n} + (c/12) m (m^2 - 1) delta_{m+n,0}

with the central element specialized to a rational value c at element
construction time, so elements carry plain rational coefficients.

Every module the package computes in is induced,
U(Vir) (x)_{U(p)} C_chi: a vector is a combination of ordered words of
letters outside p, and a letter of p that reaches the right end becomes
its scalar chi.  Straightener computes "L_m times an ordered word" for a
letter order and such an end rule, memoized.  The commutation rule is
applied there and, for the Verma module alone, level by level in verma's
tables, which are tested against verma.act and tests/pbw_oracle.py.  It
computes in integers under one graded denominator; Fractions appear only
where ``apply`` takes and returns them.  Each kind of module keeps its
straighteners in a linalg.Straighteners family; verma's tables have their
own family in verma, so no Verma command loads this module.  Three end
rules use it:

- none (p = 0): U(Vir) itself; words ordered by index, this module;
- highest weight (p = span{L_n, n >= 0}, chi(L_0) = Delta,
  chi(L_{n>0}) = 0): the Verma module, for verma.act only, the reference
  that verma's own level-graded tables are tested against;
- psi on a Whittaker subalgebra: the universal Whittaker modules, see
  universal.

A word is a tuple of generator indices read left to right as a product
of generators.  An EnvelopingElement is a linalg.SparseVector over one
central charge: a sparse combination of normal-ordered monomials, index
sequences that are weakly increasing left to right (most negative index
leftmost).  Combining elements of two central charges raises
linalg.ContextMismatchError.  Normal ordering folds the letters of a word
into the identity from the right, one L_m times an ordered word at a time.

All operations are pure and elements are treated as immutable.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm
from operator import pos

from .linalg import SparseVector, Straighteners, accumulate, accumulate_flat, pairs

Word = tuple[int, ...]


class EnvelopingElement(SparseVector):
    """Sparse combination of normal-ordered monomials over one central charge.

    ``terms`` maps each monomial (weakly increasing index tuple) to a nonzero
    rational coefficient; the empty tuple is the identity.
    """

    central_charge: Fraction
    terms: dict[Word, Fraction]


def unit(c: Fraction) -> EnvelopingElement:
    """The identity element."""
    return EnvelopingElement(c, {(): Fraction(1)})


def generator(n: int, c: Fraction) -> EnvelopingElement:
    """The single generator L_n."""
    return EnvelopingElement(c, {(n,): Fraction(1)})


def bracket(m: int, n: int, c: Fraction) -> EnvelopingElement:
    """[L_m, L_n] = (m-n) L_{m+n} + (c/12) m (m^2-1) delta_{m+n,0}."""
    terms: dict[Word, Fraction] = {}
    if m != n:
        terms[(m + n,)] = Fraction(m - n)
    if m + n == 0 and c * m * (m * m - 1):
        terms[()] = c * Fraction(m * (m * m - 1), 12)
    return EnvelopingElement(c, terms)


class Straightener:
    """L_m times the ordered words of one induced module U(Vir) (x)_{U(p)} C_chi.

    A letter x stands for the generator L_x.  ``rank`` orders the letters:
    a word is ordered when its ranks do not decrease.  ``end`` is the end
    rule: end(x) is chi(L_x) for a letter of p and None for a letter that
    stays; no rule means p = 0.  ``scalars`` lists every value the end
    rule can return.  Letters of p must rank above all others, so an
    ordered word holds none of them.

    The commutation rule is applied here (and, for the Verma module only,
    in verma's tables).  For the first letter a of the word and rank(m) >
    rank(a),

        L_m L_a rest = L_a (L_m rest) + [L_m, L_a] rest,

    and each product on the right is again L_x times an ordered word.  The
    products are memoized and evaluated on an explicit stack, so no word
    is too long for the interpreter's recursion limit.

    The arithmetic is in integers.  With the module scale s = lcm(2 den c,
    den of each scalar), the coefficient of v in L_m u times
    s^{1 + len u - len v} is an integer, by induction over the rule: a
    prepended word gets 1, an end value psi gets psi s, a merged term gets
    (m - a) s, and the central term gets c m(m^2 - 1)/12 s^2, where
    m(m^2 - 1)/12 lies in Z/2.  ``times`` returns these integers, ``fold``
    applies a word to integer images, and ``apply`` is the boundary that
    takes and returns Fractions.  The memo stores each image as one flat
    tuple (v0, n0, v1, n1, ...), not one 2-tuple per term; ``times`` reads
    it back as (v, n) pairs.
    """

    def __init__(self, c, rank=pos, end=None, scalars=()):
        self.c, self.rank, self.end = c, rank, end
        self.scale = lcm(2 * c.denominator, *(x.denominator for x in scalars))
        self._cache: dict[tuple[int, Word], tuple] = {}  # flat images
        self._ends: dict[int, tuple] = {}
        self._words: dict[Word, Word] = {}  # one stored copy of each word
        self.hits = 0  # memo lookups answered; every entry was one miss

    def _end(self, m: int):
        # L_m times the empty word: the letter itself or s chi(L_m).
        value = None if self.end is None else self.end(m)
        if value is None:
            return ((m,), 1)
        scaled, rest = divmod(value.numerator * self.scale, value.denominator)
        if rest:
            raise ArithmeticError(f"end value {value} is not cleared by scale {self.scale}")
        return ((), scaled) if scaled else ()

    def _lookup(self, m: int, word: Word):
        # The image if it needs no commutation or is memoized, else None.
        if not word:
            found = self._ends.get(m)
            if found is None:
                found = self._ends[m] = self._end(m)
            return found
        if self.rank(m) <= self.rank(word[0]):
            return ((m,) + word, 1)
        found = self._cache.get((m, word))
        if found is not None:
            self.hits += 1
        return found

    def _steps(self, m: int, word: Word):
        # Yields each product the image needs that _lookup cannot give.
        a, rest = word[0], word[1:]
        lookup = self._lookup
        tail = lookup(m, rest)
        if tail is None:
            tail = yield (m, rest)
        acc: dict[Word, int] = {}
        rank = self.rank
        get, it, low = acc.get, iter(tail), rank(a)
        for u in it:
            coeff = next(it)
            if u and rank(u[0]) < low:
                image = lookup(a, u)
                if image is None:
                    image = yield (a, u)
                accumulate_flat(acc, image, coeff)
                continue
            # Else L_a u is the word a u (a, a letter of an ordered word, is
            # not in p): the common case, so accumulate_flat is inlined.
            v = (a,) + u
            n = get(v, 0) + coeff
            if n:
                acc[v] = n
            else:
                del acc[v]
        merged = lookup(m + a, rest)
        if merged is None:
            merged = yield (m + a, rest)
        s = self.scale
        accumulate_flat(acc, merged, (m - a) * s)
        if m + a == 0:
            # c m(m^2 - 1)/12 s^2, exact: m(m^2 - 1) is divisible by 6, s by 2 den c.
            c = self.c.numerator * (s * s // self.c.denominator)
            accumulate_flat(acc, (rest, c * m * (m * m - 1) // 12), 1)
        words, flat = self._words, []
        for v, n in acc.items():
            flat += (words.setdefault(v, v), n)
        return tuple(flat)

    def times(self, m: int, word: Word) -> Iterator[tuple[Word, int]]:
        """L_m times the ordered ``word``, as a one-pass iterator of (ordered
        word v, integer) pairs; the coefficient of v is the integer over
        s^{1 + len word - len v}."""
        return pairs(self._image(m, word))

    def _image(self, m: int, word: Word) -> tuple:
        # The flat image of L_m times word, filling the memo on a miss.
        image = self._lookup(m, word)
        if image is not None:
            return image
        stack = [((m, word), self._steps(m, word))]
        while stack:
            key, steps = stack[-1]
            try:
                need = steps.send(image)
                stack.append((need, self._steps(*need)))
                image = None
            except StopIteration as done:
                image = self._cache[key] = done.value
                stack.pop()
        return image

    def apply(self, word: Word, terms: dict[Word, Fraction]) -> dict[Word, Fraction]:
        """L_{word[0]} ... L_{word[-1]} times a combination of ordered words,
        folding the letters in from the right.

        The input is cleared to integers once: u gets coeff D s^{g - len u}
        with D the lcm of the denominators and g the longest input word.
        Each letter keeps every coefficient an integer over D s^{g - len v}
        and raises g by one; the output is one Fraction per word.
        """
        s = self.scale
        den = lcm(*(x.denominator for x in terms.values()))
        top = max(map(len, terms), default=0)
        ints = {
            u: x.numerator * (den // x.denominator) * s ** (top - len(u))
            for u, x in terms.items()
        }
        ints = self.fold(word, ints)
        g = top + len(word)
        return {v: Fraction(n, den * s ** (g - len(v))) for v, n in ints.items()}

    def fold(self, word: Word, ints: dict[Word, int]) -> dict[Word, int]:
        """L_{word[0]} ... L_{word[-1]} times integer images, folding the
        letters in from the right: if u's integer is over s^{g - len u},
        each v's integer in the result is over s^{g + len word - len v}."""
        for x in reversed(word):
            acc: dict[Word, int] = {}
            for u, coeff in ints.items():
                accumulate_flat(acc, self._image(x, u), coeff)
            ints = acc
        return ints


# U(Vir) itself: p = 0, letters are modes.  The name is the one the
# benchmark's tracer reads cache_info() from.
_normal_order = Straighteners(Straightener)


def normal_order(word, c: Fraction) -> EnvelopingElement:
    """Rewrite a word of generators into normal-ordered form.

    The result equals the input word in the enveloping algebra with the
    central element specialized to c, and every stored monomial is weakly
    increasing.  Normal ordering is a projection: rerunning it on any
    monomial it produced returns that monomial unchanged.
    """
    return EnvelopingElement(c, _normal_order[c].apply(tuple(word), {(): 1}))


def multiply(a: EnvelopingElement, b: EnvelopingElement) -> EnvelopingElement:
    """Product in the enveloping algebra, re-normal-ordered."""
    (c,) = a.shared_module(b)
    rule = _normal_order[c]
    acc: dict[Word, Fraction] = {}
    for wa, ca in a.terms.items():
        accumulate(acc, rule.apply(wa, b.terms).items(), ca)
    return EnvelopingElement(c, acc)


def commutator(a: EnvelopingElement, b: EnvelopingElement) -> EnvelopingElement:
    return multiply(a, b) - multiply(b, a)
