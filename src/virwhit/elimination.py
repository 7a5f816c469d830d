"""The exact kernel of sparse integer rows.

``nullspace`` takes sparse {column: nonzero int} rows and the column
count.  Only ``universal search`` and ``formops.whittaker_form_nullspace``
load this module, through ``linalg.nullspace``, which resolves to it.

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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import accumulate


def _reduce(row: dict[int, int], top: dict[int, int], col: int) -> dict[int, int]:
    """(a row - b top) / content, which clears column col: a / b is top[col]
    over row[col] in lowest terms.  The one update of both passes."""
    g = gcd(top[col], row[col])
    a, b = top[col] // g, row[col] // g
    row = accumulate({j: a * v for j, v in row.items()}, top.items(), -b)
    content = gcd(*row.values())
    return {j: v // content for j, v in row.items()} if content > 1 else row


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
