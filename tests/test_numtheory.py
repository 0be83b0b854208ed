import math
import random
import tracemalloc
from itertools import chain, compress

import pytest
from hypothesis import example, given, strategies as st

from hamroots import numtheory
from hamroots.errors import CapabilityError
from hamroots.numtheory import (PrimeContext, _jacobi, divisors,
                                euler_phi, factorize, factorize_pm1, is_prime,
                                is_primitive_root, least_primitive_root,
                                legendre_symbol, mobius,
                                multiplicative_order, set_bits, sieve_primes)


def trial_division_oracle(n):
    """Independent factorization by pure trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_sieve_small():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]


def test_sieve_pi_1000():
    assert len(sieve_primes(1000)) == 168


def test_sieve_pi_million():
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_rejects_empty_range():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes(1, 0)


@pytest.mark.parametrize("lo, hi", [
    (0, 100), (1, 100), (2, 100), (3, 100),
    (97, 97), (49, 49),             # lo = hi, prime and composite
    (49, 1000), (50, 1000),         # q^2 and q^2 + 1 for q = 7
    (961, 1000), (962, 1000),       # the same for the largest base prime 31
    (60, 50),                       # lo above hi
    (10**6, 10**6 + 40),            # wholly above isqrt(hi)
    (2999000, 3000000),
])
def test_window_sieve_matches_full_sieve_and_miller_rabin(lo, hi):
    window = sieve_primes(hi, lo)
    assert window == [p for p in sieve_primes(hi) if p >= lo]
    assert window == [n for n in range(lo, hi + 1) if is_prime(n)]


_WINDOW = numtheory._SIEVE_WINDOW


@pytest.mark.parametrize("lo, hi", [
    (2, 100), (0, 100),                         # from 2, and from below it
    (49, 1000), (66049, 70000),                 # from 7^2, and from 257^2 in the second window
    (_WINDOW, _WINDOW + 1000),                  # from 256^2, the first number of a window
    (97, 97), (49, 49), (_WINDOW, _WINDOW),     # lo = hi
    (2, _WINDOW - 1), (2, _WINDOW), (2, _WINDOW + 1),  # to one below, at and one above a seam
    (_WINDOW - 100, 2 * _WINDOW + 100),         # across three windows
    (60, 50),                                   # lo above hi
])
def test_prime_windows_are_the_sieve_cut_at_each_window(lo, hi):
    windows = list(numtheory.prime_windows(lo, hi))
    assert list(chain.from_iterable(windows)) == sieve_primes(hi, lo)
    # one list per window of 2^16 numbers that the range meets, in order
    met = range(max(lo, 2) // _WINDOW, hi // _WINDOW + 1) if lo <= hi else range(0)
    assert len(windows) == len(met)
    assert all(lo <= p <= hi and p // _WINDOW == k for k, window in zip(met, windows)
               for p in window)


def test_is_prime_basics():
    assert [n for n in range(2, 50) if is_prime(n)] == sieve_primes(49)[:]
    assert not is_prime(1)
    assert not is_prime(561)        # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to several bases
    assert is_prime(2**31 - 1)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(66) == [2, 3, 11]
    assert factorize(2097168) == trial_division_oracle(2097168)
    assert factorize(2097168) == [2, 2, 2, 2, 3, 43691]


def test_factorize_matches_trial_division():
    for n in range(1, 2000):
        assert factorize(n) == trial_division_oracle(n)


def test_factorize_product_recovery_and_rho_path():
    # Trial division splits the first product; every factor of the others
    # above 3 exceeds TRIAL_DIVISION_BOUND, so only the rho fallback can
    # split them: two primes, a prime square, a cofactor that splits twice,
    # and small factors taken before rho splits what is left.
    for factors in ([10007, 10009, 10037], [1000003, 1000033], [1000003, 1000003],
                    [1000003, 1000033, 1000037], [2, 3, 1000003, 1000033]):
        n = math.prod(factors)
        fs = factorize(n)
        assert fs == factors
        assert math.prod(fs) == n


@pytest.mark.parametrize("primes", [
    sieve_primes(10**5),
    sieve_primes(10**6 + 20000, 10**6),
    sieve_primes(3 * 10**6 + 20000, 3 * 10**6),
    [1000003],
    [2],  # p - 1 = 1 has no factors
    [],
], ids=["to-1e5", "near-1e6", "near-3e6", "one-prime", "two", "empty"])
def test_factorize_pm1_matches_factorize(primes):
    assert list(factorize_pm1(primes)) == [sorted(set(factorize(p - 1))) for p in primes]


def square_table(p):
    return {x * x % p for x in range(1, p)}


def test_legendre_examples():
    assert legendre_symbol(1, 17) == 1
    assert legendre_symbol(3, 67) == -1
    assert legendre_symbol(2, 17) == 1  # 6^2 = 36 = 2 mod 17


def test_legendre_against_square_tables():
    for p in sieve_primes(200):
        if p == 2:
            continue
        squares = square_table(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_reduces_any_integer():
    for p in (3, 7, 17):
        for a in range(p):
            for k in (-3, -1, 1, 4):
                assert legendre_symbol(a + k * p, p) == legendre_symbol(a, p)
    assert [legendre_symbol(-1, p) for p in (3, 5, 7, 13)] == [-1, 1, -1, 1]
    assert [legendre_symbol(a, 7) for a in (-14, -7, 7, 21, 10**30 * 7)] == [0] * 5
    assert legendre_symbol(10**30, 7) == legendre_symbol(10**30 % 7, 7)


def euler_criterion(a, p):
    """The Legendre symbol (a|p) as a^((p-1)/2) mod p: the oracle of the
    reciprocity algorithm."""
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def test_legendre_matches_euler_criterion_below_2000():
    for p in sieve_primes(2000, 3):
        assert [legendre_symbol(a, p) for a in range(p)] == \
            [euler_criterion(a, p) for a in range(p)], p


def test_legendre_matches_euler_criterion_near_1e6_and_3e6():
    """A sample of a for each prime: residues, negative values, multiples of
    p and values near 10^30, which legendre_symbol reduces mod p first."""
    rng = random.Random(19)
    for p in sieve_primes(10**6 + 60, 10**6 - 60) + sieve_primes(3 * 10**6 + 60, 3 * 10**6 - 60):
        sample = [1, 2, p - 1, p - 2] + [rng.randrange(p) for _ in range(200)]
        sample += [-a for a in sample] + [k * p for k in (-2, -1, 0, 1, 10**24)]
        sample += [10**30 + k for k in range(-50, 50)] + [-10**30 - k for k in range(50)]
        for a in sample:
            assert legendre_symbol(a, p) == euler_criterion(a, p), (a, p)
        assert legendre_symbol(10**30 * p, p) == 0


def test_jacobi_is_the_product_of_legendre_symbols():
    """For odd n, (a|n) is the product of (a|q) over the prime
    factors q of n, with multiplicity; 0 exactly when gcd(a, n) > 1."""
    for n in range(3, 400, 2):
        for a in range(n):
            expected = math.prod(euler_criterion(a, q) for q in trial_division_oracle(n))
            assert _jacobi(a, n) == expected, (a, n)
    assert _jacobi(0, 1) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 4)
    with pytest.raises(ValueError):
        legendre_symbol(3, 1)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def brute_order(a, p):
    t, x = 1, a % p
    while x != 1:
        x = x * a % p
        t += 1
    return t


def test_order_examples():
    assert multiplicative_order(1, 17) == 1
    assert multiplicative_order(2, 67) == 66
    assert multiplicative_order(16, 17) == 2


def test_order_matches_brute_cycle():
    for p in sieve_primes(200):
        for a in range(1, p):
            assert multiplicative_order(a, p) == brute_order(a, p)
    with pytest.raises(ValueError):
        multiplicative_order(0, 7)


def test_order_divides_and_primroot_agrees_up_to_500():
    for p in sieve_primes(500):
        ctx = PrimeContext.for_prime(p)
        for a in range(1, p):
            t = multiplicative_order(a, p)
            assert (p - 1) % t == 0
            assert is_primitive_root(a, ctx) == (t == p - 1)


def test_primitive_roots_examples():
    assert list(set_bits(PrimeContext.for_prime(7).pr_bitmap())) == [3, 5]
    assert list(set_bits(PrimeContext.for_prime(17).pr_bitmap())) == \
        [3, 5, 6, 7, 10, 11, 12, 14]
    assert list(set_bits(PrimeContext.for_prime(3).pr_bitmap())) == [2]
    assert list(set_bits(PrimeContext.for_prime(2).pr_bitmap())) == [1]


def test_primitive_root_count_and_least_root_sweep():
    # phi(p-1) roots per prime; the least root must be the bitmap's lowest
    # set bit.
    for p in sieve_primes(10000):
        ctx = PrimeContext.for_prime(p)
        bm = ctx.pr_bitmap()
        assert bm.bit_count() == euler_phi(p - 1)
        assert least_primitive_root(ctx) == (bm & -bm).bit_length() - 1


def test_p2_takes_the_general_path():
    # p - 1 = 1 has no prime factor: every unit passes the root test, the
    # least-root search starts at 1, and the blocked powers set bit 1 only.
    ctx = PrimeContext.for_prime(2)
    assert ctx.factors_pm1 == ()
    assert least_primitive_root(ctx) == 1
    assert ctx.pr_bitmap() == 0b10
    assert [is_primitive_root(a, ctx) for a in (0, 1, 3)] == [False, True, True]


def test_least_primitive_root_examples():
    assert least_primitive_root(PrimeContext.for_prime(2)) == 1
    assert least_primitive_root(PrimeContext.for_prime(7)) == 3
    assert least_primitive_root(PrimeContext.for_prime(67)) == 2


def test_context_geometry(monkeypatch):
    ctx = PrimeContext.for_prime(17)
    assert (ctx.r, ctx.bit_len) == (4, 5)
    assert 2**ctx.r < ctx.p <= 2 ** (ctx.r + 1)
    assert PrimeContext.for_prime(2).r == 0
    assert ctx.factors_pm1 == (2,)
    # The distinct primes of p - 1, ascending, however the caller passes them.
    unsorted = PrimeContext(13, [3, 2, 2])
    assert unsorted.factors_pm1 == (2, 3)
    assert unsorted.pr_test_exponents == (6, 4)
    with pytest.raises(ValueError):
        PrimeContext.for_prime(15)
    # for_prime factors p - 1 without a sieve, so a p near 10^18 costs
    # milliseconds, not a sieve to 10^9.
    monkeypatch.setattr(numtheory, "sieve_primes", lambda *args: pytest.fail("sieved"))
    assert PrimeContext.for_prime(10**18 + 3).factors_pm1 == (2, 3, 17, 131, 1427, 52445056723)


def test_index_table_bijection_and_cap():
    for p in (7, 17, 47):
        ctx = PrimeContext.for_prime(p)
        table = ctx.index_table()
        assert sorted(table[1:]) == list(range(p - 1))
        g = least_primitive_root(ctx)
        for a in range(1, p):
            assert pow(g, table[a], p) == a
    above_cap = PrimeContext.for_prime(100003)
    with pytest.raises(CapabilityError):
        above_cap.index_table()


def test_phi_mobius_divisors():
    assert [euler_phi(n) for n in (1, 2, 6, 16, 66)] == [1, 1, 2, 8, 20]
    assert [mobius(n) for n in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
    assert divisors(66) == (1, 2, 3, 6, 11, 22, 33, 66)
    assert divisors(1) == (1,)


@given(st.integers(min_value=0, max_value=1 << 300))
@example(0)
@example(1)
@example(0xFF << 4)  # set bits across a byte boundary
@example(1 | 1 << 20000)  # a sparse set: two bits far apart
@example((1 << 8 * 4100 + 3) - 1)  # all ones, over 4096 bytes
def test_set_bits_matches_per_index_check(x):
    assert list(set_bits(x)) == [i for i in range(x.bit_length()) if x >> i & 1]


def test_pr_bitmap_matches_brute_force_below_3000():
    for p in sieve_primes(2999):
        ctx = PrimeContext.for_prime(p)
        brute = sum(1 << a for a in range(1, p) if is_primitive_root(a, ctx))
        assert ctx.pr_bitmap() == brute, p


@pytest.mark.parametrize("p", [1000003, 2097169])
def test_pr_bitmap_large_primes(p):
    ctx = PrimeContext.for_prime(p)
    bm = ctx.pr_bitmap()
    assert bm.bit_count() == euler_phi(p - 1)
    assert bm.bit_length() <= p  # no bit at p or above
    rng = random.Random(p)
    for a in (rng.randrange(p) for _ in range(1000)):
        assert (bm >> a & 1) == is_primitive_root(a, ctx), a


# 30030 = 2*3*5*7*11*13 divides p - 1 for the last three primes, so the
# exponents coprime to p - 1 sit up to 22 apart: the longest runs of
# sieved-out exponents below 10^6. The bitmap tests the product 210 of the
# four least of those primes on its table of indices and clears the 11-th
# and 13-th powers by walking them.
@pytest.mark.parametrize("p", [3, 5, 7, 120121, 150151, 540541])
def test_pr_bitmap_matches_per_residue_check_across_long_coprime_gaps(p):
    ctx = PrimeContext.for_prime(p)
    roots = [a for a in range(p) if is_primitive_root(a, ctx)]
    assert list(set_bits(ctx.pr_bitmap())) == roots


def exponent_walk_bitmap(ctx):
    """Oracle for pr_bitmap: walk x = g^t over every exponent t in [0, p - 1)
    coprime to p - 1, stepping across each sieved-out run by a table of small
    powers of g, and set bit x."""
    p = ctx.p
    m = p - 1
    g = least_primitive_root(ctx)
    coprime = bytearray([1]) * m
    for q in ctx.factors_pm1:
        coprime[0::q] = bytes(len(range(0, m, q)))
    gap = 1
    while coprime.find(b"\0" * gap) >= 0:
        gap += 1
    step = [pow(g, d, p) for d in range(gap + 1)]
    digits = bytearray(b"0") * p
    x, prev = 1, 0
    for t in compress(range(m), coprime):
        x = x * step[t - prev] % p
        digits[x] = 49  # ord("1")
        prev = t
    digits.reverse()
    return int(digits, 2)


def test_pr_bitmap_matches_exponent_walk_below_20000():
    # For 1957 of these primes the primes of p - 1 multiply past 256, so the
    # bitmap walks the powers of the larger ones; below 9 the Farey order is 1.
    for p in sieve_primes(20000):
        ctx = PrimeContext.for_prime(p)
        assert ctx.pr_bitmap() == exponent_walk_bitmap(ctx), p


# 65537 has p - 1 = 2^16, so Q = 2 and nothing is walked; 120121, 150151 and
# 540541 have the long sieved-out runs noted above; the bitmap walks the
# powers of 11, 17 and 23 for 903211 = 2*3*5*7*11*17*23 + 1, of 83 and 241
# for 1000151 and of 197 and 2539 for 1000367, where Q = 2; 1000003 to
# 1000039 are the primes of the delta_large benchmark workload. The last
# three have bit length 22, the top of the 3e6 census: 2097169 walks 43691
# (p - 1 = 2^4*3*43691); 2771341 has Q = 30 and walks 11, 13, 17 and 19,
# one of the primes there where the walk costs most; 2980007 has Q = 146 and
# walks 20411 (p - 1 = 2*73*20411).
@pytest.mark.parametrize("p", [65537, 120121, 150151, 540541, 903211, 1000151, 1000367,
                               1000003, 1000033, 1000037, 1000039,
                               2097169, 2771341, 2980007])
def test_pr_bitmap_matches_exponent_walk_large(p):
    ctx = PrimeContext.for_prime(p)
    assert ctx.pr_bitmap() == exponent_walk_bitmap(ctx)


# The build holds the p-byte digit buffer and then the p/8-byte int parsed
# from it, and before that the tables of about 3*p^(2/3) bytes that the Farey
# slices read; no structure per slice is kept.
@pytest.mark.parametrize("p", [1000003, 2980007])
def test_pr_bitmap_heap_peak_is_digits_int_and_tables(p):
    ctx = PrimeContext.for_prime(p)
    least_primitive_root(ctx)
    tracemalloc.start()
    try:
        numtheory._build_pr_bitmap(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= p + p // 8 + 4 * p ** (2 / 3) + 65536


def test_pr_bitmap_mirror_under_negation():
    # p = 1 mod 4: g^((p-1)/2) = -1 and every prime factor of p - 1 divides
    # (p - 1)/2, so the roots are closed under x -> p - x. p = 3 mod 4:
    # (p - 1)/2 is odd, so the negative of a root has an even exponent.
    for p in sieve_primes(20000, 3):
        # Digit x - 1 of `units` is bit x of the bitmap, for x in [1, p), so
        # digit x - 1 of its reverse is bit p - x.
        units = bin(PrimeContext.for_prime(p).pr_bitmap())[:1:-1].ljust(p, "0")[1:]
        negatives = units[::-1]
        if p % 4 == 1:
            assert units == negatives, p
        else:
            assert int(units, 2) & int(negatives, 2) == 0, p
