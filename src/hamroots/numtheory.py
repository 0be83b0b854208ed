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

# The primitive-root bitmap computes powers of g in blocks of this many
# exponents, each block scaling one shared table of g^0 .. g^(block - 1).
_POWER_BLOCK = 4096


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


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses, deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
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


class PrimeContext:
    """A prime modulus with its bit geometry and lazily built caches.

    r is the exponent with 2^r < p <= 2^(r+1); bit_len = r+1 is the width of
    the fixed-length binary expansions used throughout. For odd p this means
    p itself fits in bit_len bits. factors_pm1 holds the distinct prime
    factors of p - 1, ascending, whether the caller passes them with
    multiplicity (`factorize`) or without (`factorize_pm1`).
    """

    __slots__ = ("p", "r", "bit_len", "factors_pm1", "characters_by_order",
                 "_pr_bitmap", "_index_table", "_least_g", "_pr_exponents")

    def __init__(self, p: int, factors_pm1: list[int]):
        self.p = p
        self.r = (p - 1).bit_length() - 1
        self.bit_len = self.r + 1
        self.factors_pm1 = tuple(sorted(set(factors_pm1)))
        self.characters_by_order: dict = {}  # order d -> characters, cached by charsums
        self._pr_bitmap = None
        self._index_table = None
        self._least_g = None
        self._pr_exponents = None

    @classmethod
    def for_prime(cls, p: int) -> "PrimeContext":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(p, factorize(p - 1))

    def __repr__(self):
        return f"PrimeContext(p={self.p})"

    def pr_test_exponents(self) -> tuple[int, ...]:
        if self._pr_exponents is None:
            m = self.p - 1
            self._pr_exponents = tuple(m // q for q in self.factors_pm1)
        return self._pr_exponents

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
                raise CapabilityError(
                    f"index table for p={self.p} exceeds cap {INDEX_TABLE_CAP}")
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
    a %= p
    if a == 0:
        return False
    return all(pow(a, e, p) != 1 for e in ctx.pr_test_exponents())


def least_primitive_root(ctx: PrimeContext) -> int:
    """Smallest g >= 1 generating the group mod p; 1 only for p = 2."""
    if ctx._least_g is None:
        ctx._least_g = next(g for g in range(1, ctx.p) if is_primitive_root(g, ctx))
    return ctx._least_g


def _build_pr_bitmap(ctx: PrimeContext) -> int:
    p = ctx.p
    m = p - 1
    g = least_primitive_root(ctx)
    # g^t is a generator iff gcd(t, m) == 1. For p = 1 mod 4, 4 | m, so every
    # prime q | m also divides m/2 and gcd(t + m/2, m) == gcd(t, m); since
    # g^(m/2) = -1, the roots are closed under x -> p - x: the exponents in
    # [0, m/2) give half the roots and the mirror gives the rest. For
    # p = 3 mod 4, m/2 is odd and -1 is not a root, so no mirror exists and
    # all of [0, m) is walked.
    end = m // 2 if p % 4 == 1 else m
    # g^(j + i) = g^i * g^j: the powers g^i of one block are computed once,
    # and each block of exponents starting at j scales them by c = g^j.
    base = [1] * min(_POWER_BLOCK, end)
    for i in range(1, len(base)):
        base[i] = base[i - 1] * g % p
    # Digit x of the string is bit p - 1 - x of the int it parses to.
    digits = bytearray(b"0") * p
    for j in range(0, end, _POWER_BLOCK):
        # Exponent j + i is a multiple of the prime q | m iff i = -j mod q.
        coprime = bytearray([1]) * min(_POWER_BLOCK, end - j)
        for q in ctx.factors_pm1:
            coprime[-j % q::q] = bytes(len(range(-j % q, len(coprime), q)))
        c = pow(g, j, p)
        for b in compress(base, coprime):
            digits[b * c % p] = 49  # ord("1")
    del base, coprime  # free them before int() allocates the result
    flipped = int(digits, 2)
    del digits
    # Big-endian bytes with the bits of each reversed, read little-endian,
    # put bit p - 1 - x at x once the pad of the last byte is shifted out.
    size = (p + 7) // 8
    bitmap = int.from_bytes(flipped.to_bytes(size, "big").translate(_bit_reversal()),
                            "little") >> (8 * size - p)
    # One shift more makes flipped's bit p - 1 - x the mirror bit p - x.
    return bitmap | flipped << 1 if end < m else bitmap


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
    rest, qs = p - 1, math.prod(ctx.factors_pm1)
    while (d := math.gcd(rest, qs)) > 1:
        rest //= d
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


@lru_cache(maxsize=1)
def _bit_reversal() -> bytes:
    """Each byte value with its 8 bits in reverse order, built on first use."""
    return bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


# Maps the digits "0" and "1" to the bytes 0 and 1, for `bytes.translate`.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def bitmap_to_set(bitmap: int) -> list[int]:
    """Indices of set bits of a non-negative int, ascending.

    One pass: the binary digits of the int, least significant first, as 0/1
    bytes select their own indices."""
    digits = format(bitmap, "b")[::-1].encode().translate(_DIGIT_BITS)
    return list(compress(range(len(digits)), digits))


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
