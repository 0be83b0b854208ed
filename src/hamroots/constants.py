"""Analytic constants, and the paper's bound curves at one bit length
(`bound_profile`), a library helper that no command or report prints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import prime_windows


def entropy(gamma: float) -> float:
    """Binary entropy H(gamma) = (-g log g - (1-g) log(1-g)) / log 2."""
    if not 0 < gamma < 1:
        raise ValueError(f"entropy needs an argument in (0, 1), got {gamma}")
    return (-gamma * math.log(gamma) - (1 - gamma) * math.log(1 - gamma)) / math.log(2)


@lru_cache(maxsize=1)
def entropy_half_point() -> float:
    """The unique root of H(x) = 1/2 on (0, 1/2), by bisection.

    H is strictly increasing on (0, 1/2], so the bracket [1e-12, 1/2] pins
    the root down to an interval of width 1e-13. Known digits: 0.11002786...
    """
    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2
        if entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sparse_weight_constant() -> float:
    """1 / (8 sqrt(e)) = 0.07581633..., the sparsest-non-residue coefficient."""
    return 1 / (8 * math.sqrt(math.e))


def artin_constant(prime_limit: int = 1_000_000) -> float:
    """Partial Euler product prod(1 - 1/(p(p-1))) over primes <= prime_limit.

    Accumulated as an exactly rounded sum of log1p terms (math.fsum), so the
    only error left is the per-term rounding of log1p itself. Converges to
    0.3739558... as the limit grows.
    """
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    logs = (math.log1p(-1.0 / (p * (p - 1)))
            for window in prime_windows(2, prime_limit) for p in window)
    return math.exp(math.fsum(logs))


@dataclass(frozen=True)
class BoundProfile:
    """The five bound-curve values at one bit length.

    digits is the plain binary digit count of p (bit_length), which is the
    r appearing in the asymptotic statements; it exceeds the context's
    internal exponent r by one, and every report that mixes the two says so.
    """

    digits: int
    entropy_bound: float          # rho0 * digits, the sharpened radius curve
    burgess_bound: float          # 0.25 * digits, the classical radius curve
    cube_bound: float             # 0.2 * digits, the cube-route radius curve
    eighth_sqrt_e_bound: float    # digits / (8 sqrt(e)), sparse non-residue curve
    quarter_sqrt_e_bound: float   # digits / (4 sqrt(e)), its classical counterpart


def bound_profile(p: int) -> BoundProfile:
    if p < 3:
        raise ValueError("bound profile needs p >= 3")
    digits = p.bit_length()
    return BoundProfile(
        digits=digits,
        entropy_bound=entropy_half_point() * digits,
        burgess_bound=0.25 * digits,
        cube_bound=0.2 * digits,
        eighth_sqrt_e_bound=digits / (8 * math.sqrt(math.e)),
        quarter_sqrt_e_bound=digits / (4 * math.sqrt(math.e)),
    )
