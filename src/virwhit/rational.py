"""Exact rational scalars.

Coefficients at the package's boundaries (vectors, forms, reports,
solutions) are ``fractions.Fraction``s: arbitrary precision,
automatically reduced, denominator kept positive, zero stored as 0/1.
Some inner layers compute in Python ints over a known denominator
instead: the PBW straightener's images (see virasoro), the Gram rows
(see shapovalov) and the elimination's primitive rows (see linalg).
Values cross I/O boundaries as the strings ``"p/q"`` (or just ``"p"``
when the denominator is 1), never as floats.  Fractions are
immutable, so they are safe to share between concurrent tasks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; the sign may only sit on the numerator."""
    if not isinstance(text, str):
        raise TypeError(f"rational literal must be a string, got {text!r}")
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_ratio(num: int, den: int) -> str:
    """format_rational(Fraction(num, den)) for den > 0, with one gcd and no Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"
