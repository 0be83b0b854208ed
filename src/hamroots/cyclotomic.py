"""Exact arithmetic on integer combinations of roots of unity.

RootOfUnitySum holds integer multiplicities per m-th root-of-unity exponent.
Rationality is decided by reducing the coefficient polynomial modulo the m-th
cyclotomic polynomial: the powers 1, zeta, ..., zeta^(phi(m)-1) are a Q-basis
of Q(zeta), so the reduced form is constant exactly when the sum is rational.
Two structural fast paths (uniform vectors and uniform-on-a-subgroup vectors)
cover the orthogonality-style sums that appear constantly in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .numtheory import divisors, poly_divmod, poly_exact_div


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = poly_exact_div(poly, cyclotomic_poly(d))
    return tuple(poly)


def reduce_mod_cyclotomic(coeffs: list[int], m: int) -> list[int]:
    """Remainder of sum(coeffs[i] * x^i) modulo the m-th cyclotomic polynomial,
    padded to phi(m) coefficients."""
    phi_poly = cyclotomic_poly(m)
    rem = poly_divmod(coeffs, phi_poly)[1]
    return rem + [0] * (len(phi_poly) - 1 - len(rem))


def exact_root_sum_value(counts: list[int], m: int) -> Fraction | None:
    """Value of sum(counts[e] * zeta_m^e) when rational, else None."""
    if m == 1:
        return Fraction(counts[0])
    support = [e for e, c in enumerate(counts) if c]
    if not support:
        return Fraction(0)
    # Uniform on the subgroup generated by gcd(support, m): the sum collapses
    # to count * (sum over a full set of d-th roots) which is 0 unless d = 1.
    g = math.gcd(m, *support)
    if all(e % g == 0 for e in support):
        vals = {counts[e] for e in range(0, m, g)}
        if len(vals) == 1:
            d = m // g
            return Fraction(counts[0] if g == m else next(iter(vals)) * (1 if d == 1 else 0))
    rem = reduce_mod_cyclotomic(counts, m)
    if any(rem[1:]):
        return None
    return Fraction(rem[0])


@dataclass
class RootOfUnitySum:
    """Integer multiplicities over the m-th roots of unity, plus zero terms.

    zero_terms counts summands whose argument reduced to 0 mod p (each
    contributes 0 to the value but still counts toward the term total).
    """

    order: int
    counts: list[int] = field(default=None)
    zero_terms: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = [0] * self.order

    def add(self, exponent: int | None) -> None:
        if exponent is None:
            self.zero_terms += 1
        else:
            self.counts[exponent % self.order] += 1

    @property
    def n_terms(self) -> int:
        return self.zero_terms + sum(abs(c) for c in self.counts)

    def value(self) -> complex:
        m = self.order
        re = math.fsum(c * math.cos(2 * math.pi * e / m) for e, c in enumerate(self.counts) if c)
        im = math.fsum(c * math.sin(2 * math.pi * e / m) for e, c in enumerate(self.counts) if c)
        return complex(re, im)

    def magnitude(self) -> float:
        return abs(self.value())

    def as_rational(self) -> Fraction | None:
        return exact_root_sum_value(self.counts, self.order)

    def is_exactly_zero(self) -> bool:
        return self.as_rational() == 0
