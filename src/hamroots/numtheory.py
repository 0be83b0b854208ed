"""Modular arithmetic, factorization and primitive-root machinery for prime moduli."""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress

from .errors import CapabilityError, InvariantViolation

# Discrete-log (index) tables are built by enumerating powers of the least
# primitive root, so character work is capped to moduli where an O(p) table
# is reasonable.
INDEX_TABLE_CAP = 100_000

# Trial division handles factors up to this bound; anything larger goes to
# the deterministic Pollard rho fallback.
TRIAL_DIVISION_BOUND = 1_000_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve_primes(limit: int, lo: int = 2) -> list[int]:
    """All primes in [lo, limit], ascending, by a segmented byte sieve of
    Eratosthenes: the primes up to isqrt(limit) strike only the window."""
    if limit < 2:
        raise ValueError(f"prime sieve needs limit >= 2, got {limit}")
    lo = max(lo, 2)
    root = math.isqrt(limit)
    flags = bytearray([1]) * (limit + 1 - lo)
    for q in sieve_primes(root) if root >= 2 else ():
        start = max(q * q, -(-lo // q) * q) - lo
        flags[start::q] = bytes(len(range(start, len(flags), q)))
    return list(compress(range(lo, limit + 1), flags))


_SIEVE_WINDOW = 1 << 16  # the numbers `prime_windows` sieves at a time


def prime_windows(lo: int, hi: int) -> Iterator[list[int]]:
    """The primes in [lo, hi], ascending, as one list per window of the
    numbers [k * 2^16, (k + 1) * 2^16) that the range meets: each window is
    sieved by `sieve_primes` only when the one before it has been taken, so
    a reader holds one window of the range, not the range."""
    lo = max(lo, 2)
    while lo <= hi:
        end = min(hi, (lo // _SIEVE_WINDOW + 1) * _SIEVE_WINDOW - 1)
        yield sieve_primes(end, lo)
        lo = end + 1


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses, deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * d with d odd
    d = (n - 1) >> r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n by Pollard rho with Floyd
    cycle detection, sweeping c = 1, 2, ... so the factor is deterministic.
    factorize strips 2 and 3 first, so every n it passes is odd."""
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho sweep exhausted on {n}")


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, sorted ascending.

    Trial division below TRIAL_DIVISION_BOUND, then Pollard rho with a fixed
    parameter sweep, so the result is deterministic. factorize(1) == [].
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    for q in (2, 3):
        while n % q == 0:
            out.append(q)
            n //= q
    d = 5
    while d <= TRIAL_DIVISION_BOUND and d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out.append(q)
                n //= q
        d += 6
    # Every prime below d is divided out, so a cofactor m < d*d is prime.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if d * d > m or is_prime(m):
            out.append(m)
            continue
        g = _pollard_rho(m)
        stack.append(g)
        stack.append(m // g)
    out.sort()
    return out


def factorize_pm1(primes: list[int]) -> Iterator[list[int]]:
    """The distinct prime factors of p - 1, ascending, for each of an
    ascending list of primes, in order: sorted(set(factorize(p - 1))).

    A segmented sieve over the window of the p - 1: each odd prime q up to
    isqrt(max p - 1) strikes only the window's positions that are some p - 1,
    and appends itself to that p's list, so each list is ascending. Each
    p - 1 is then divided by its power of 2 and by the powers of the q in its
    list; what is left is 1 or a prime larger than every q.
    """
    if not primes:
        return
    lo = primes[0] - 1
    # where[off] is 1 + the index of the prime whose p - 1 is lo + off, or 0.
    where = array("i", [0]) * (primes[-1] - lo)
    for i, p in enumerate(primes, 1):
        where[p - 1 - lo] = i
    # struck[i] lists the odd primes that divide primes[i - 1] - 1.
    struck = [[] for _ in range(len(primes) + 1)]
    root = math.isqrt(primes[-1] - 1)
    for q in sieve_primes(root, 3) if root >= 3 else ():
        for i in filter(None, where[-lo % q::q]):
            struck[i].append(q)
    for p, qs in zip(primes, struck[1:]):
        m = p - 1
        factors = [2] if m > 1 else []  # p - 1 is even for every odd p
        m >>= (m & -m).bit_length() - 1
        for q in qs:
            factors.append(q)
            m //= q
            while not m % q:
                m //= q
        if m > 1:
            factors.append(m)
        yield factors


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) in {-1, 0, +1} for 0 <= a < n and odd n, by
    quadratic reciprocity: halving a flips the sign when n = 3, 5 (mod 8),
    swapping a and n flips it when both are 3 (mod 4), and the symbol is 0
    when gcd(a, n) > 1. For a prime n it is the Legendre symbol."""
    t = 1
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and (n ^ n >> 1) & 2:  # n = 3, 5 (mod 8)
                t = -t
        if a & n & 2:  # both odd, so both are 3 (mod 4)
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, +1} for any integer a, by quadratic reciprocity on
    a mod p (see `_jacobi`)."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"Legendre symbol needs an odd prime modulus, got {p}")
    return _jacobi(a % p, p)


def multiplicative_order(a: int, p: int) -> int:
    """Least t >= 1 with a^t = 1 mod p, via dividing prime factors out of p-1."""
    a %= p
    if a == 0:
        raise ValueError("order of 0 is undefined")
    t = p - 1
    for q in set(factorize(p - 1)):
        while t % q == 0 and pow(a, t // q, p) == 1:
            t //= q
    return t


@lru_cache(maxsize=4096)
def euler_phi(n: int) -> int:
    phi = n
    for q in set(factorize(n)):
        phi -= phi // q
    return phi


@lru_cache(maxsize=4096)
def mobius(n: int) -> int:
    fs = factorize(n)
    if len(fs) != len(set(fs)):
        return 0
    return -1 if len(fs) % 2 else 1


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    fs = factorize(n)
    divs = [1]
    for q in sorted(set(fs)):
        divs = [d * q**i for d in divs for i in range(fs.count(q) + 1)]
    return tuple(sorted(divs))


def bit_exponent(p: int) -> int:
    """The r of a prime p: the exponent with 2^r < p <= 2^(r+1)."""
    return (p - 1).bit_length() - 1


class PrimeContext:
    """A prime modulus with its bit geometry and lazily built caches.

    r is `bit_exponent(p)`, and bit_len = r+1 is the width of the fixed-length
    binary expansions used throughout. For odd p this means p itself fits in
    bit_len bits. factors_pm1 holds the distinct prime factors of p - 1,
    ascending, whether the caller passes them with multiplicity (`factorize`)
    or without (`factorize_pm1`), and pr_test_exponents the (p - 1)/q for
    those q, in the same order.
    """

    __slots__ = ("p", "r", "bit_len", "factors_pm1", "pr_test_exponents",
                 "characters_by_order", "_pr_bitmap", "_index_table", "_least_g")

    def __init__(self, p: int, factors_pm1: list[int]):
        self.p = p
        self.r = bit_exponent(p)
        self.bit_len = self.r + 1
        self.factors_pm1 = tuple(sorted(set(factors_pm1)))
        self.pr_test_exponents = tuple((p - 1) // q for q in self.factors_pm1)
        self.characters_by_order: dict = {}  # order d -> characters, cached by charsums
        self._pr_bitmap = None
        self._index_table = None
        self._least_g = None

    @classmethod
    def for_prime(cls, p: int) -> "PrimeContext":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(p, factorize(p - 1))

    def __repr__(self):
        return f"PrimeContext(p={self.p})"

    def pr_bitmap(self) -> int:
        """Bitmap over [0, 2^bit_len) with bit a set iff a is a primitive root.

        Checked once by `_check_pr_bitmap` before it is cached on the context,
        so every reader gets a checked bitmap or the InvariantViolation refusing it.
        """
        if self._pr_bitmap is None:
            bitmap = _build_pr_bitmap(self)
            _check_pr_bitmap(self, bitmap)
            self._pr_bitmap = bitmap
        return self._pr_bitmap

    def index_table(self) -> list[int]:
        """ind[a] with g^ind[a] = a mod p for the least primitive root g.

        Entry 0 is a placeholder (-1); indices for a in [1, p-1] form a
        bijection onto [0, p-2].
        """
        if self._index_table is None:
            if self.p > INDEX_TABLE_CAP:
                raise CapabilityError(f"index table for p={self.p} exceeds cap {INDEX_TABLE_CAP}")
            g = least_primitive_root(self)
            table = [-1] * self.p
            x = 1
            for t in range(self.p - 1):
                table[x] = t
                x = x * g % self.p
            self._index_table = table
        return self._index_table


def is_primitive_root(a: int, ctx: PrimeContext) -> bool:
    """True iff a generates the multiplicative group mod p.

    Tests a^((p-1)/q) != 1 for every prime q | p-1; no full order computation.
    """
    p = ctx.p
    return a % p != 0 and all(pow(a, e, p) != 1 for e in ctx.pr_test_exponents)


def unfactored_part(ctx: PrimeContext) -> int:
    """p - 1 with the context's primes divided out: 1 unless it lacks one."""
    rest, qs = ctx.p - 1, math.prod(ctx.factors_pm1)
    while (d := math.gcd(rest, qs)) > 1:
        rest //= d
    return rest


def least_primitive_root(ctx: PrimeContext) -> int:
    """Smallest g >= 1 generating the group mod p; 1 only for p = 2."""
    if ctx._least_g is None:
        ctx._least_g = next(g for g in range(1, ctx.p) if is_primitive_root(g, ctx))
    return ctx._least_g


def _build_pr_bitmap(ctx: PrimeContext) -> int:
    p = ctx.p
    m = p - 1
    g = least_primitive_root(ctx)
    # g^t is a root iff gcd(t, m) = 1, so y is a root iff ind(y) = ind_g(y) is
    # a unit mod Q, the product of the least primes of m while it stays at
    # most 256, and no larger prime q of m divides ind(y). Q <= 256 keeps
    # every ind(y) mod Q in one byte, so adding to it and testing it for a
    # unit are each one `translate` through a 256-byte table, at C speed.
    qs, walked = 1, []
    for q in ctx.factors_pm1:  # ascending
        if qs * q <= 256:
            qs *= q
        else:
            walked.append(q)
    # Dirichlet: cut (0, 1) at the mediants of the Farey fractions of order
    # a_max. Neighbours t/a and t'/a' have a + a' > a_max and sit
    # 1/(a*(a + a')) from their mediant, so every y in [1, p - 1] has a
    # fraction t/a on its side of the cuts with a*y = t*p + x, where
    # 0 < |x| <= p/(a + a') and so |x| <= x_max. Then ind(y) = ind(x) - ind(a),
    # and ind(-x) = ind(x) + m/2. a_max <= isqrt(p) - 1 keeps a_max < x_max;
    # a_max near p^(1/3) trades the 0.3*a_max^2 slices against the table up
    # to x_max.
    a_max = max(1, min(round(p ** (1 / 3)), math.isqrt(p) - 1))
    x_max = p // (a_max + 1)
    # ind(x) mod Q for x <= x_max is additive over prime powers: each prime
    # l <= x_max adds ind(l) mod Q, which l^(m/Q) gives in the subgroup of
    # order Q, to the multiples of each power of l.
    residues = bytes(range(qs)) * 2  # the slice from k maps u to (u + k) mod Q
    pad = bytes(256 - qs)
    e = m // qs
    gen, power, logs = pow(g, e, p), 1, {}
    for k in range(qs):
        logs[power] = k
        power = power * gen % p
    ind = bytearray(x_max + 1)
    for ell in sieve_primes(x_max) if x_max >= 2 else ():
        if k := logs[pow(ell, e, p)]:
            add, power = residues[k:k + qs] + pad, ell
            while power <= x_max:
                ind[power::power] = ind[power::power].translate(add)
                power *= ell
    # Entry x_max - x is ind(x) mod Q for 0 < |x| <= x_max.
    h = m // 2 % qs
    signed = ind[::-1] + ind[1:].translate(residues[h:h + qs] + pad)
    # Entry u of roots[s] is "1" iff u - s is a unit mod Q.
    units = bytes(49 if math.gcd(u, qs) == 1 else 48 for u in range(qs)) * 2  # "1", "0"
    roots = [units[qs - s:2 * qs - s] + pad for s in range(qs)]
    # Digit m - y of the string is bit y of the int it parses to. Each Farey
    # fraction t/a, next t2/a2, fills the y in [lo, hi].
    digits, lo = bytearray(b"0") * p, 1
    t, a, t2, a2 = 0, 1, 1, a_max
    while lo < p:
        hi = (t + t2) * p // (a + a2) if t2 <= a_max else m
        start = x_max - a * hi + t * p
        digits[m - hi:p - lo] = signed[start:start + a * (hi - lo) + 1:a].translate(roots[ind[a]])
        k = (a_max + a) // a2
        t, a, t2, a2, lo = t2, a2, k * t2 - t, k * a2 - a, hi + 1
    del ind, signed  # free them before int() allocates the result
    # Each prime q of m above Q: clear the q-th powers g^(q*k) that the
    # slices set, those with k a unit mod Q (Q divides m/q), by walking
    # g^(q*(k + Q*j)) from each unit k.
    for q in walked:
        step = pow(g, q * qs, p)
        for k in range(1, qs):
            if math.gcd(k, qs) == 1:
                x = pow(g, q * k, p)
                for _ in range(m // (q * qs)):
                    digits[m - x] = 48  # ord("0")
                    x = x * step % p
    return int(digits, 2)


def _check_pr_bitmap(ctx: PrimeContext, bm: int) -> None:
    """Raise InvariantViolation unless the primitive-root bitmap has
    phi(p - 1) bits set, was built from primes that divide p - 1 down to 1,
    sets none of bit 0 and the bits at or above p, sets the least primitive
    root, and agrees with `is_primitive_root` at 16 positions spread over
    [1, p - 1], set and unset; `pow` decides those without the bitmap. phi
    comes from `euler_phi`'s trial division, so a prime that the block sieve
    loses from a scan's context makes the count disagree; one that trial
    division loses from a `for_prime` context, and so from phi too, is left
    over when the context's primes are divided out of p - 1."""
    p = ctx.p
    phi, count, g = euler_phi(p - 1), bm.bit_count(), least_primitive_root(ctx)
    rest = unfactored_part(ctx)
    fault = (f"has {count} bits set, not phi(p-1) = {phi}" if count != phi
             else f"was built from the factors {ctx.factors_pm1} of p-1, leaving {rest}"
             if rest != 1
             else "sets bit 0" if bm & 1
             else "sets a bit at or above p" if bm >> p
             else f"lacks the least primitive root {g}" if not bm & 1 << g
             else None)
    if not fault:  # one copy of the bitmap, which fits in p bits, serves the 16 positions
        octets = bm.to_bytes((p + 7) // 8, "little")
        fault = next((f"has bit {x} = {b}, but is_primitive_root({x}) is {not b}"
                      for x in (1 + k * (p - 2) // 15 for k in range(16))
                      if (b := octets[x >> 3] >> (x & 7) & 1) != is_primitive_root(x, ctx)),
                     None)
    if fault:
        raise InvariantViolation(f"p={p}: the primitive-root bitmap (_build_pr_bitmap) {fault}")


# Maps the digits "0" and "1" to the bytes 0 and 1, for `bytes.translate`.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def set_bits(bitmap: int) -> Iterator[int]:
    """Indices of set bits of a non-negative int, ascending, as an iterator
    that makes each index as it is read.

    One pass: the binary digits of the int, least significant first, as 0/1
    bytes select their own indices."""
    digits = format(bitmap, "b")[::-1].encode().translate(_DIGIT_BITS)
    return compress(range(len(digits)), digits)


def poly_divmod(a: list[int], b: list[int], p: int | None = None
                ) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, coefficients lowest degree first.

    Over F_p when p is given, with both results reduced mod p; over Z
    otherwise, which needs b monic. The remainder has min(len(a), len(b) - 1)
    coefficients and is not trimmed.
    """
    if p is None and b[-1] != 1:
        raise ValueError("division over Z needs a monic divisor")
    inv = 1 if p is None else pow(b[-1], -1, p)
    n = len(b) - 1
    rem = list(a)
    quot = []
    while len(rem) > n:
        q = rem.pop() * inv
        if p is not None:
            q %= p
        quot.append(q)
        if q:
            off = len(rem) - n
            for k in range(n):
                rem[off + k] -= q * b[k]
    quot.reverse()
    if p is not None:
        rem = [c % p for c in rem]
    return quot, rem


def poly_exact_div(a: list[int], b: list[int], p: int | None = None) -> list[int]:
    """The quotient of poly_divmod(a, b, p), whose remainder must be zero."""
    quot, rem = poly_divmod(a, b, p)
    if any(rem):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return quot
