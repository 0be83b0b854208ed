"""Multiplicative characters mod p as exact root-of-unity exponent maps.

A character is pinned down by the least primitive root g and an exponent j:
chi_j(g^t) = zeta^(j*t) with zeta = exp(2*pi*i/(p-1)). Evaluation returns the
exponent (an index into the (p-1)-th roots of unity), so sums over characters
can be accumulated exactly; floats only appear when a caller asks for the
complex value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .numtheory import PrimeContext


@dataclass(frozen=True)
class Character:
    """chi_j modulo ctx.p, of exact multiplicative order `order`."""

    ctx: PrimeContext = field(repr=False)
    j: int

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def order(self) -> int:
        return (self.p - 1) // math.gcd(self.j, self.p - 1)

    @property
    def is_principal(self) -> bool:
        return self.j == 0

    def root_index(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta^e, or None when a = 0 mod p (chi(0)=0)."""
        a %= self.p
        if a == 0:
            return None
        return self.j * self.ctx.index_table()[a] % (self.p - 1)

    def value(self, a: int) -> complex:
        e = self.root_index(a)
        if e is None:
            return 0j
        return cmath.exp(2j * math.pi * e / (self.p - 1))


def build_characters(ctx: PrimeContext, d: int) -> tuple[Character, ...]:
    """All phi(d) characters mod p of exact order d, for d | p-1, as the
    tuple cached on ctx.characters_by_order.

    chi_j has order (p-1)/gcd(j, p-1), so the order-d characters are the
    j = (p-1)/d * t with gcd(t, d) = 1.
    """
    cache = ctx.characters_by_order
    if d not in cache:
        m = ctx.p - 1
        if d < 1 or m % d != 0:
            raise ValueError(f"order {d} does not divide p-1={m}")
        ctx.index_table()  # raises CapabilityError above the cap
        step = m // d
        cache[d] = tuple(Character(ctx, step * t % m)
                         for t in range(1, d + 1) if math.gcd(t, d) == 1)
    return cache[d]


def all_characters(ctx: PrimeContext) -> list[Character]:
    """The full dual group, ordered by exponent j."""
    m = ctx.p - 1
    ctx.index_table()
    return [Character(ctx, j) for j in range(m)]
