"""The three swap recursions that straightened words before the one engine,
kept as independent oracles for ``virasoro.Straightener``.

They share no code with the engine: each applies the commutation rule by
its own recursion, memoized with its own cache.  They recurse one Python
frame per swap or letter, so keep their inputs short.
"""

from fractions import Fraction
from functools import lru_cache


def _add(acc, items, scalar=1):
    for key, value in items:
        acc[key] = acc.get(key, 0) + value * scalar
        if not acc[key]:
            del acc[key]


@lru_cache(maxsize=None)
def _normal_order(word, c):
    # Swap the leftmost adjacent strictly decreasing pair.
    swap_at = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), -1)
    if swap_at < 0:
        return ((word, Fraction(1)),)
    a, b = word[swap_at], word[swap_at + 1]
    head, tail = word[:swap_at], word[swap_at + 2:]
    acc = {}
    _add(acc, _normal_order(head + (b, a) + tail, c))
    _add(acc, _normal_order(head + (a + b,) + tail, c), Fraction(a - b))
    if a + b == 0:
        _add(acc, _normal_order(head + tail, c), c * Fraction(a * (a * a - 1), 12))
    return tuple(sorted(acc.items()))


def reference_normal_order(word, c):
    """The word in U(Vir) as {weakly increasing word: coefficient}."""
    return dict(_normal_order(tuple(word), Fraction(c)))


@lru_cache(maxsize=None)
def _act_monomial(m, parts, c, delta):
    # Move L_m through L_{-parts[0]} ... L_{-parts[-1]} |Delta>.
    if not parts:
        if m > 0:
            return ()
        if m == 0:
            return (((), delta),) if delta else ()
        return (((-m,), Fraction(1)),)
    a, tail = -parts[0], parts[1:]
    if m <= a:
        return (((-m,) + parts, Fraction(1)),)
    acc = {}
    for part, coeff in _act_monomial(m, tail, c, delta):
        _add(acc, _act_monomial(a, part, c, delta), coeff)
    _add(acc, _act_monomial(m + a, tail, c, delta), Fraction(m - a))
    if m + a == 0:
        _add(acc, ((tail, Fraction(1)),), c * Fraction(m * (m * m - 1), 12))
    return tuple(sorted(acc.items()))


def reference_verma_act(m, partition, c, delta):
    """L_m L_{-partition}|Delta> as {partition: coefficient}."""
    return dict(_act_monomial(m, tuple(partition), Fraction(c), Fraction(delta)))


class ReferenceRewriter:
    """Words applied to |w> of a universal Whittaker module, by swapping the
    rightmost inversion of an order that ranks the subalgebra letters last
    (for pair types letter 1 just below n)."""

    def __init__(self, typ, c):
        self.typ = typ
        self.c = Fraction(c)
        self.special = getattr(typ, "n", None)
        self.cache = {}

    def _key(self, letter):
        if self.special is not None and letter == 1:
            return (self.special - 1, 1)
        return (letter, 0)

    def reduce(self, word):
        """L_{word[0]} ... L_{word[-1]} |w> as {pseudo-partition: coefficient}."""
        word = tuple(word)
        if word not in self.cache:
            self.cache[word] = self._reduce(word)
        return self.cache[word]

    def _reduce(self, word):
        if not word:
            return {(): Fraction(1)}
        last = word[-1]
        if self.typ.in_subalgebra(last):
            scalar = self.typ.value(last)
            if not scalar:
                return {}
            return {w: c * scalar for w, c in self.reduce(word[:-1]).items()}
        swap_at = next(
            (
                i
                for i in range(len(word) - 2, -1, -1)
                if self._key(word[i]) > self._key(word[i + 1])
            ),
            -1,
        )
        if swap_at < 0:
            return {word: Fraction(1)}
        a, b = word[swap_at], word[swap_at + 1]
        head, tail = word[:swap_at], word[swap_at + 2:]
        acc = {}
        _add(acc, self.reduce(head + (b, a) + tail).items())
        _add(acc, self.reduce(head + (a + b,) + tail).items(), Fraction(a - b))
        if a + b == 0:
            central = self.c * Fraction(a * (a * a - 1), 12)
            _add(acc, self.reduce(head + tail).items(), central)
        return acc
