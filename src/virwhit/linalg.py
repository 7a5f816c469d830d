"""The records and sparse primitives every command uses.

The square solve (``bareiss_solve``) lives in ``padic`` and the sparse
elimination (``nullspace``) in ``elimination``, which only the commands
that run them load.  The package calls the two as ``linalg.bareiss_solve``
and ``linalg.nullspace``, names that resolve here on first access and that
the benchmark's tracer wraps.  Both take integer input only: the solve a
square matrix of ints with a rational right-hand side, the nullspace
sparse {column: nonzero int} rows.  There is no determinant, rank or
inverse (verma inverts the basis change by signs).

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
from operator import attrgetter

from . import _resolver

__getattr__ = _resolver(globals(), padic="bareiss_solve", elimination="nullspace")


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
