"""Whittaker types for the two subalgebra families, plus verification reports.

A type of order r assigns scalars to L_r, ..., L_{2r} (at least one must be
nonzero; everything above the rank acts by zero).  A pair type assigns
nonzero scalars to L_1 and L_n for some n > 2, with L_k acting by zero for
k > n; the degenerate cases reduce to order types and are rejected here.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Value


class IndexOutsideSubalgebraError(ValueError):
    """The requested generator does not belong to the Whittaker subalgebra."""


class WhittakerTypeR(Value):
    """Scalars (mu_r, ..., mu_{2r}) on the subalgebra generated by L_r..L_{2r}."""

    r: int
    mu: tuple[Fraction, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("order must be at least 1")
        object.__setattr__(self, "mu", tuple(Fraction(v) for v in self.mu))
        if len(self.mu) != self.r + 1:
            raise ValueError(
                f"expected {self.r + 1} values mu_{self.r}..mu_{2 * self.r}, "
                f"got {len(self.mu)}"
            )
        if not any(self.mu):
            raise ValueError("trivial type: all mu values vanish")

    @property
    def rank(self) -> int:
        """Largest s with mu_s nonzero."""
        for k in range(2 * self.r, self.r - 1, -1):
            if self.mu[k - self.r]:
                return k
        raise AssertionError("unreachable: type is nontrivial")

    @property
    def top(self) -> int:
        """Largest index among the subalgebra's generators L_r..L_{2r}."""
        return 2 * self.r

    def in_subalgebra(self, k: int) -> bool:
        return k >= self.r

    def value(self, k: int) -> Fraction:
        """The scalar by which L_k acts on a Whittaker vector of this type."""
        if k < self.r:
            raise IndexOutsideSubalgebraError(
                f"L_{k} lies outside the order-{self.r} subalgebra"
            )
        if k <= self.top:
            return self.mu[k - self.r]
        return Fraction(0)


class WhittakerType1N(Value):
    """Scalars nu_1, nu_n on the subalgebra generated by L_1 and L_n (n > 2)."""

    n: int
    nu1: Fraction
    nun: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nu1", Fraction(self.nu1))
        object.__setattr__(self, "nun", Fraction(self.nun))
        if self.n <= 2:
            raise ValueError("pair types need n > 2")
        if not self.nu1 or not self.nun:
            raise ValueError("pair types must be regular: nu_1 != 0 and nu_n != 0")

    @property
    def rank(self) -> int:
        """Largest s with a nonzero scalar on L_s: n, since nu_n != 0."""
        return self.n

    @property
    def top(self) -> int:
        """Largest index among the subalgebra's generators L_1, L_n."""
        return self.n

    def in_subalgebra(self, k: int) -> bool:
        return k == 1 or k >= self.n

    def value(self, k: int) -> Fraction:
        if k == 1:
            return self.nu1
        if k == self.n:
            return self.nun
        if k > self.n:
            return Fraction(0)
        raise IndexOutsideSubalgebraError(
            f"L_{k} lies outside the subalgebra generated by L_1 and L_{self.n}"
        )


WhittakerType = WhittakerTypeR | WhittakerType1N


def subalgebra_indices(typ: WhittakerType, top: int) -> list[int]:
    """The indices k in 1..top with L_k in the type's subalgebra, ascending."""
    return [k for k in range(1, top + 1) if typ.in_subalgebra(k)]


class ResidualCheck(Value):
    """Outcome of one condition (L_k - expected) applied to a form or vector.

    ``complete_levels`` is the highest level on which the condition is fully
    determined (cutoff - k for truncated forms); None means the computation
    was exact and complete.  ``first_failure`` records (level, label,
    coefficient) of the first nonzero residual term, if any.
    """

    operator_index: int
    expected: Fraction
    complete_levels: int | None
    first_failure: tuple | None = None

    @property
    def residual_zero(self) -> bool:
        return self.first_failure is None

    @property
    def name(self) -> str:
        return f"L_{self.operator_index}"


class VerificationReport(Value):
    checks: tuple[ResidualCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.residual_zero for c in self.checks)

    def first_failure(self) -> ResidualCheck | None:
        for check in self.checks:
            if not check.residual_zero:
                return check
        return None
