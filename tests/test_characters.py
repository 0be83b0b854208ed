import math

import pytest

from hamroots.characters import Character, all_characters, build_characters
from hamroots.errors import CapabilityError
from hamroots.numtheory import (PrimeContext, divisors, euler_phi,
                                legendre_symbol, sieve_primes)


def test_character_counts_by_order():
    for p in sieve_primes(50):
        if p == 2:
            continue
        ctx = PrimeContext.for_prime(p)
        for d in divisors(p - 1):
            chars = build_characters(ctx, d)
            assert len(chars) == euler_phi(d)
            assert all(c.order == d for c in chars)
        assert len(all_characters(ctx)) == p - 1


def test_order_is_read_off_the_exponent():
    for p in sieve_primes(50):
        ctx = PrimeContext.for_prime(p)
        for j in range(p - 1):
            assert Character(ctx, j).order == (p - 1) // math.gcd(j, p - 1), (p, j)
        for d in divisors(p - 1):
            assert {chi.order for chi in build_characters(ctx, d)} == {d}, (p, d)


def test_principal_character():
    ctx = PrimeContext.for_prime(7)
    (chi,) = build_characters(ctx, 1)
    assert chi.is_principal and chi.j == 0
    assert all(chi.root_index(a) == 0 for a in range(1, 7))
    assert chi.root_index(0) is None and chi.value(0) == 0


def test_multiplicativity_exact_indices():
    for p in sieve_primes(50):
        if p == 2:
            continue
        ctx = PrimeContext.for_prime(p)
        m = p - 1
        for d in divisors(m):
            for chi in build_characters(ctx, d):
                for a in range(1, p):
                    ea = chi.root_index(a)
                    for b in range(1, p):
                        assert chi.root_index(a * b % p) == (ea + chi.root_index(b)) % m


def test_exact_order():
    # chi^order is principal, chi^(order/q) is not, for every exact order
    for p in (7, 17, 31):
        ctx = PrimeContext.for_prime(p)
        m = p - 1
        for d in divisors(m):
            for chi in build_characters(ctx, d):
                assert all(chi.root_index(a) * d % m == 0 for a in range(1, p))
                if d > 1:
                    q = min(x for x in range(2, d + 1) if d % x == 0)
                    sub = d // q
                    assert any(chi.root_index(a) * sub % m for a in range(1, p))


def test_quadratic_character_is_legendre():
    for p in [q for q in sieve_primes(50) if q % 2]:
        ctx = PrimeContext.for_prime(p)
        (chi,) = build_characters(ctx, 2)
        for a in range(1, p):
            value = 1 if chi.root_index(a) == 0 else -1
            assert value == legendre_symbol(a, p)


def test_order_four_pair_mod_17():
    ctx = PrimeContext.for_prime(17)
    chars = build_characters(ctx, 4)
    assert len(chars) == 2
    m = 16
    for chi in chars:
        # chi^4 principal, chi^2 not
        assert all(chi.root_index(a) * 4 % m == 0 for a in range(1, 17))
        assert any(chi.root_index(a) * 2 % m for a in range(1, 17))


def test_bad_order_and_cap():
    ctx = PrimeContext.for_prime(7)
    with pytest.raises(ValueError):
        build_characters(ctx, 4)  # 4 does not divide 6
    big = PrimeContext.for_prime(100003)
    with pytest.raises(CapabilityError):
        build_characters(big, 2)
