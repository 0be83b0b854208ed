"""Exact character sums, the primitive-root indicator, and bound diagnostics.

Sums are accumulated as integer multiplicities over roots of unity
(cyclotomic.RootOfUnitySum); magnitudes go through floating point only at the
end. Bound reports compare an exact magnitude against a classical bound
formula with the implied constant set to 1 - they are diagnostics, not
assertions, since the formulas hold asymptotically with unquantified o(1)
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import Character, build_characters
from .cyclotomic import RootOfUnitySum
from .errors import InvariantViolation
from .hamming import high_bit_flip_set, low_bit_flip_set
from .numtheory import (PrimeContext, divisors, euler_phi, legendre_symbol, mobius,
                        poly_divmod, poly_exact_div)


@dataclass(frozen=True)
class BoundReport:
    """Observed magnitude of a sum against one bound formula. Over a zero
    bound the ratio is inf, unless the sum is zero too."""

    magnitude: float
    bound: float
    ratio: float
    applicable: bool = True
    note: str = ""

    @classmethod
    def compare(cls, magnitude: float, bound: float,
                applicable: bool = True, note: str = "") -> "BoundReport":
        return cls(magnitude=magnitude, bound=bound,
                   ratio=magnitude / bound if bound else math.inf if magnitude else 0.0,
                   applicable=applicable, note=note)


def _char_sum(chi: Character, values) -> RootOfUnitySum:
    """Exact sum of chi(z) over the integers z in values."""
    acc = RootOfUnitySum(chi.p - 1)
    for z in values:
        acc.add(chi.root_index(z))
    return acc


def _bound_report(chi: Character, magnitude: float, bound: float,
                  reason: str = "") -> BoundReport:
    """magnitude against bound, which is inapplicable for the reason given
    and always for a principal character."""
    if chi.is_principal:
        reason = "bound inapplicable (principal)"
    return BoundReport.compare(magnitude, bound, applicable=not reason, note=reason)


def interval_char_sum(chi: Character, start: int, length: int) -> RootOfUnitySum:
    """Exact sum of chi(z) for z = start+1 .. start+length."""
    p = chi.p
    if not 1 <= length <= p:
        raise ValueError(f"interval length must be in [1, {p}], got {length}")
    return _char_sum(chi, range(start + 1, start + length + 1))


def pv_burgess_bound_report(chi: Character, start: int, length: int, nu: int = 1) -> BoundReport:
    """Interval sum magnitude vs. length^(1-1/nu) * p^((nu+1)/(4 nu^2))."""
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    mag = interval_char_sum(chi, start, length).magnitude()
    bound = length ** (1 - 1 / nu) * chi.p ** ((nu + 1) / (4 * nu * nu))
    return _bound_report(chi, mag, bound)


def split_char_sum(ctx: PrimeContext, n: int, k: int, hi_flips: int, lo_flips: int,
                   chi: Character, order: str = "uv") -> RootOfUnitySum:
    """Exact sum of chi(u * 2^(r-k+1) + v) over the two flip sets around n.

    Arguments are reduced mod p before evaluation; terms that reduce to 0
    contribute nothing (chi(0) = 0). The `order` switch picks which set the
    outer loop runs over, giving an independent re-evaluation for tests.
    """
    us = high_bit_flip_set(n, ctx, k, hi_flips)
    vs = low_bit_flip_set(n, ctx, k, lo_flips)
    shift = ctx.r - k + 1
    if order == "uv":
        return _char_sum(chi, ((u << shift) + v for u in us for v in vs))
    if order == "vu":
        return _char_sum(chi, ((u << shift) + v for v in vs for u in us))
    raise ValueError(f"unknown evaluation order {order!r}")


def hoelder_bound_report(ctx: PrimeContext, n: int, k: int, hi_flips: int,
                         lo_flips: int, chi: Character, nu: int = 1) -> BoundReport:
    """Split-sum magnitude vs. the Hoelder-route bound with constant 1:

    |S| <= (#U)^((2nu-1)/2nu) (#V)^(1/2) 2^(k/2nu)
         + (#U)^((2nu-1)/2nu) (#V) 2^(r/4nu) (log p)^(1/2nu)
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    mag = split_char_sum(ctx, n, k, hi_flips, lo_flips, chi).magnitude()
    nu_exp = (2 * nu - 1) / (2 * nu)
    n_u = len(high_bit_flip_set(n, ctx, k, hi_flips))
    n_v = len(low_bit_flip_set(n, ctx, k, lo_flips))
    bound = (n_u**nu_exp * n_v**0.5 * 2 ** (k / (2 * nu))
             + n_u**nu_exp * n_v * 2 ** (ctx.r / (4 * nu)) * math.log(ctx.p) ** (1 / (2 * nu)))
    return _bound_report(chi, mag, bound)


# --- polynomial character sums ---------------------------------------------


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_deriv(f: list[int], p: int) -> list[int]:
    return _poly_trim([c * i % p for i, c in enumerate(f)][1:])


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_trim(poly_divmod(a, b, p)[1])
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def poly_eval(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def squarefree_multiplicities(f: list[int], p: int) -> dict[int, int]:
    """Yun decomposition over F_p: {multiplicity: degree of that part}.

    Valid for deg f < p (the derivative of a nonconstant polynomial then
    cannot vanish). Sum of degree * multiplicity recovers deg f; the sum of
    degrees alone is the number of distinct roots in the algebraic closure.
    """
    f = _poly_trim([c % p for c in f])
    if len(f) - 1 >= p:
        raise ValueError("degree must be below p for the squarefree split")
    if len(f) <= 1:
        return {}
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]
    out: dict[int, int] = {}
    df = _poly_deriv(f, p)
    a = _poly_gcd(f, df, p)
    b = poly_exact_div(f, a, p)
    c = poly_exact_div(df, a, p)
    d = _poly_sub(c, _poly_deriv(b, p), p)
    i = 1
    while len(b) > 1:
        g = _poly_gcd(b, d, p)
        if len(g) > 1:
            out[i] = len(g) - 1
        b = poly_exact_div(b, g, p)
        c = poly_exact_div(d, g, p)
        d = _poly_sub(c, _poly_deriv(b, p), p)
        i += 1
    return out


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def distinct_root_count(f: list[int], p: int) -> int:
    """Number of distinct roots of f over the algebraic closure of F_p."""
    return sum(squarefree_multiplicities(f, p).values())


def is_power_of_rational(f: list[int], p: int, m: int) -> bool:
    """True when f = c * g^m for some polynomial g (all multiplicities divisible by m)."""
    return all(mult % m == 0 for mult in squarefree_multiplicities(f, p))


def poly_char_sum(ctx: PrimeContext, chi: Character, coeffs: list[int],
                  start: int = 0, length: int | None = None
                  ) -> tuple[RootOfUnitySum, BoundReport]:
    """Exact sum of chi(F(u)) for u = start+1 .. start+length, with a Weil report.

    The bound is d * sqrt(p) * log(p) where d counts the distinct
    roots of F over the closure; it is flagged inapplicable for principal chi
    and for F that is an ord(chi)-th power of a rational function.
    """
    p = ctx.p
    f = _poly_trim([c % p for c in coeffs])
    if len(f) <= 1:
        raise ValueError("polynomial must be non-constant")
    if length is None:
        length = p - 1
    if not 1 <= length < p:
        raise ValueError(f"range length must be in [1, {p - 1}]")
    acc = _char_sum(chi, (poly_eval(f, u, p) for u in range(start + 1, start + length + 1)))
    bound = distinct_root_count(f, p) * math.sqrt(p) * math.log(p)
    reason = (f"bound inapplicable (F is an m-th power, m={chi.order})"
              if is_power_of_rational(f, p, chi.order) else "")
    return acc, _bound_report(chi, acc.magnitude(), bound, reason)


def legendre_partial_sum_report(ctx: PrimeContext, length: int) -> BoundReport:
    """Exact sum of (z|p) for z <= length, reported against the trivial bound length.

    Works directly off the Legendre symbol, so it stays available above the
    character-table cap and doubles as an independent check on the order-2
    character.
    """
    p = ctx.p
    if not 1 <= length <= p:
        raise ValueError(f"length must be in [1, {p}]")
    total = sum(legendre_symbol(z, p) for z in range(1, length + 1))
    return BoundReport.compare(abs(total), float(length), note=f"sum={total}")


def legendre_character(ctx: PrimeContext) -> Character:
    """The quadratic character (order-2) mod p."""
    return build_characters(ctx, 2)[0]


# --- primitive-root indicator ------------------------------------------------


def _exact_unit_orbit_sum(exponent_counts: dict[int, int], d: int) -> int:
    """Exact integer value of sum(count[x] * zeta_d^x) for a unit-orbit multiset.

    The multiset {t*i mod d : gcd(t, d) = 1} is uniform on the class
    {x : gcd(x, d) = h} with h = gcd(i, d), and the sum over that class is
    the Moebius value mu(d/h) (sum of all primitive (d/h)-th roots of unity).
    Uniformity is verified over each whole class, a missing exponent counting
    0; a violation means characters were enumerated incorrectly.
    """
    by_class: dict[int, set[int]] = {}
    for x in range(d):
        by_class.setdefault(math.gcd(x, d), set()).add(exponent_counts.get(x, 0))
    total = 0
    for h, counts in by_class.items():
        if len(counts) != 1:
            raise InvariantViolation(f"character orbit not uniform on gcd-class {h} mod {d}")
        total += counts.pop() * mobius(d // h)
    return total


def primroot_indicator(ctx: PrimeContext, a: int, method: str = "orbit") -> Fraction:
    """Character-sum indicator of a being a primitive root: exactly 1 or 0.

    Evaluates (phi(p-1)/(p-1)) * sum over d | p-1 of mu(d)/phi(d) times the
    sum of chi(a) over the phi(d) characters of order d, in exact arithmetic.
    method="orbit" groups each inner sum's root-of-unity exponents by gcd
    class; method="cyclotomic" reduces a scaled integer coefficient vector
    modulo the (p-1)-th cyclotomic polynomial. Both are exact.
    """
    p = ctx.p
    m = p - 1
    if a % p == 0:
        raise ValueError("indicator is undefined at 0")
    square_free_divs = [d for d in divisors(m) if mobius(d) != 0]
    if method == "orbit":
        total = Fraction(0)
        for d in square_free_divs:
            counts: dict[int, int] = {}
            for chi in build_characters(ctx, d):
                e = chi.root_index(a)
                x = e * d // m  # exponent as a d-th root of unity
                counts[x] = counts.get(x, 0) + 1
            total += Fraction(mobius(d), euler_phi(d)) * _exact_unit_orbit_sum(counts, d)
        value = Fraction(euler_phi(m), m) * total
    elif method == "cyclotomic":
        scale = math.lcm(*(euler_phi(d) for d in square_free_divs))
        vec = [0] * m
        for d in square_free_divs:
            w = mobius(d) * (scale // euler_phi(d))
            for chi in build_characters(ctx, d):
                vec[chi.root_index(a)] += w
        acc = RootOfUnitySum(m, counts=vec)
        const = acc.as_rational()
        if const is None:
            raise InvariantViolation("indicator sum did not reduce to a rational")
        value = Fraction(euler_phi(m), m * scale) * const
    else:
        raise ValueError(f"unknown method {method!r}")
    if value not in (0, 1):
        raise InvariantViolation(f"indicator value {value} for a={a} mod {p}")
    return value


def count_primroots_via_characters(ctx: PrimeContext, values) -> int:
    """Sum of the indicator over a collection of integers (reduced mod p).

    Values that reduce to 0 contribute nothing (0 is never a primitive root);
    the result must match a direct bitmap count.
    """
    total = 0
    for v in values:
        if v % ctx.p:
            total += int(primroot_indicator(ctx, v))
    return total
