"""Virasoro generators, their bracket, and PBW normal ordering.

Generators are written L_n for integer n.  The bracket is

    [L_m, L_n] = (m - n) L_{m+n} + (c/12) m (m^2 - 1) delta_{m+n,0}

with the central element specialized to a rational value c at element
construction time, so coefficients stay plain rationals throughout.

A word is a tuple of generator indices read left to right as a product
of generators.  An EnvelopingElement stores a sparse combination of
normal-ordered monomials: index sequences that are weakly increasing
left to right (most negative index leftmost).  Normal ordering rewrites
an arbitrary word into that form by repeatedly swapping the leftmost
adjacent strictly decreasing pair, which terminates because each swap
reduces the word's inversion count or its length.

All operations are pure and elements are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import accumulate

Word = tuple[int, ...]


class ContextMismatchError(ValueError):
    """Raised when elements with different central charges are combined."""


@dataclass(frozen=True)
class EnvelopingElement:
    """Sparse combination of normal-ordered monomials over one central charge.

    ``terms`` maps each monomial (weakly increasing index tuple) to a nonzero
    rational coefficient; the empty tuple is the identity.
    """

    central_charge: Fraction
    terms: dict[Word, Fraction]

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Word) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def __add__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        _require_same_charge(self, other)
        merged = accumulate(dict(self.terms), other.terms.items())
        return EnvelopingElement(self.central_charge, merged)

    def __neg__(self) -> "EnvelopingElement":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "EnvelopingElement":
        scalar = Fraction(scalar)
        if not scalar:
            return EnvelopingElement(self.central_charge, {})
        return EnvelopingElement(
            self.central_charge,
            {word: coeff * scalar for word, coeff in self.terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, EnvelopingElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> "EnvelopingElement":
        return self.scale(scalar)


def _require_same_charge(a: EnvelopingElement, b: EnvelopingElement) -> None:
    if a.central_charge != b.central_charge:
        raise ContextMismatchError(
            f"central charges differ: {a.central_charge} vs {b.central_charge}"
        )


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
    if m + n == 0:
        central = c * Fraction(m * (m * m - 1), 12)
        if central:
            terms[()] = terms.get((), Fraction(0)) + central
            if not terms[()]:
                del terms[()]
    return EnvelopingElement(c, terms)


@lru_cache(maxsize=None)
def _normal_order(word: Word, c: Fraction) -> tuple[tuple[Word, Fraction], ...]:
    swap_at = -1
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            swap_at = i
            break
    if swap_at < 0:
        return ((word, Fraction(1)),)

    a, b = word[swap_at], word[swap_at + 1]
    head, tail = word[:swap_at], word[swap_at + 2:]
    acc: dict[Word, Fraction] = {}
    accumulate(acc, _normal_order(head + (b, a) + tail, c))
    accumulate(acc, _normal_order(head + (a + b,) + tail, c), Fraction(a - b))
    if a + b == 0:
        central = c * Fraction(a * (a * a - 1), 12)
        if central:
            accumulate(acc, _normal_order(head + tail, c), central)
    return tuple(sorted(acc.items()))


def normal_order(word, c: Fraction) -> EnvelopingElement:
    """Rewrite a word of generators into normal-ordered form.

    The result equals the input word in the enveloping algebra with the
    central element specialized to c, and every stored monomial is weakly
    increasing.  Normal ordering is a projection: rerunning it on any
    monomial it produced returns that monomial unchanged.
    """
    return EnvelopingElement(c, dict(_normal_order(tuple(word), c)))


def multiply(a: EnvelopingElement, b: EnvelopingElement) -> EnvelopingElement:
    """Product in the enveloping algebra, re-normal-ordered."""
    _require_same_charge(a, b)
    c = a.central_charge
    acc: dict[Word, Fraction] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            accumulate(acc, _normal_order(wa + wb, c), ca * cb)
    return EnvelopingElement(c, acc)


def commutator(a: EnvelopingElement, b: EnvelopingElement) -> EnvelopingElement:
    return multiply(a, b) - multiply(b, a)


def element_to_jsonable(element: EnvelopingElement) -> list[dict]:
    """Monomials as integer arrays with "p/q" coefficients, sorted."""
    from .rational import format_rational

    return [
        {"monomial": list(word), "coefficient": format_rational(coeff)}
        for word, coeff in sorted(element.terms.items())
    ]


def element_from_jsonable(entries, c: Fraction) -> EnvelopingElement:
    from .rational import parse_rational

    terms: dict[Word, Fraction] = {}
    for entry in entries:
        word = tuple(int(i) for i in entry["monomial"])
        if list(word) != sorted(word):
            raise ValueError(f"monomial {word} is not normal-ordered")
        coeff = parse_rational(entry["coefficient"])
        if coeff:
            terms[word] = terms.get(word, Fraction(0)) + coeff
    return EnvelopingElement(c, {w: v for w, v in terms.items() if v})
