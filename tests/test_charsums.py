import math
import random
from fractions import Fraction

import pytest

from hamroots.characters import build_characters
from hamroots.charsums import (BoundReport, _exact_unit_orbit_sum,
                               count_primroots_via_characters,
                               distinct_root_count, hoelder_bound_report,
                               interval_char_sum, is_power_of_rational,
                               legendre_character, legendre_partial_sum_report,
                               poly_char_sum, primroot_indicator,
                               pv_burgess_bound_report, split_char_sum,
                               squarefree_multiplicities)
from hamroots.errors import InvariantViolation
from hamroots.hamming import high_bit_flip_set, low_bit_flip_set, recombined_set
from hamroots.numtheory import (PrimeContext, divisors, euler_phi,
                                is_primitive_root, sieve_primes)


def ctx_for(p):
    return PrimeContext.for_prime(p)


def test_interval_sum_examples():
    c7 = ctx_for(7)
    chi = legendre_character(c7)
    assert interval_char_sum(chi, 0, 3).as_rational() == 1
    (principal,) = build_characters(c7, 1)
    assert interval_char_sum(principal, 0, 7).as_rational() == 6
    with pytest.raises(ValueError):
        interval_char_sum(chi, 0, 8)


def test_full_period_orthogonality_exact():
    for p in sieve_primes(61):
        if p == 2:
            continue
        ctx = ctx_for(p)
        for d in divisors(p - 1):
            for chi in build_characters(ctx, d):
                total = interval_char_sum(chi, 0, p)
                if chi.is_principal:
                    assert total.as_rational() == p - 1
                else:
                    assert total.is_exactly_zero()


def test_split_sum_frozen_example():
    # (10|17) + (12|17) = -2
    ctx = ctx_for(17)
    total = split_char_sum(ctx, 17, 2, 1, 1, legendre_character(ctx))
    assert total.as_rational() == -2
    assert total.n_terms == 2


def test_split_sum_principal_counts_terms():
    ctx = ctx_for(17)
    (principal,) = build_characters(ctx, 1)
    total = split_char_sum(ctx, 17, 2, 1, 1, principal)
    n_u = len(high_bit_flip_set(17, ctx, 2, 1))
    n_v = len(low_bit_flip_set(17, ctx, 2, 1))
    assert total.zero_terms == 0
    assert total.as_rational() == n_u * n_v


def test_split_sum_loop_orders_agree():
    rng = random.Random(1729)
    primes = [p for p in sieve_primes(500) if p >= 5]
    for _ in range(200):
        p = rng.choice(primes)
        ctx = ctx_for(p)
        k = rng.randint(1, ctx.r)
        hi = rng.randint(0, min(k, 3))
        lo = rng.randint(0, min(ctx.r - k, 3))
        n = rng.randint(1, p)
        d = rng.choice(divisors(p - 1))
        chi = rng.choice(build_characters(ctx, d))
        a = split_char_sum(ctx, n, k, hi, lo, chi, order="uv")
        b = split_char_sum(ctx, n, k, hi, lo, chi, order="vu")
        assert a.counts == b.counts and a.zero_terms == b.zero_terms
        # triangle inequality against the term count
        assert a.magnitude() <= a.n_terms + 1e-9


def test_poly_sum_linear_full_range_vanishes():
    ctx = ctx_for(31)
    chi = legendre_character(ctx)
    total, report = poly_char_sum(ctx, chi, [0, 1])
    assert total.is_exactly_zero()
    assert report.applicable and report.ratio <= 1


def test_poly_sum_square_flagged_inapplicable():
    ctx = ctx_for(7)
    chi = legendre_character(ctx)
    total, report = poly_char_sum(ctx, chi, [0, 0, 1])  # u^2
    assert total.as_rational() == 6
    assert not report.applicable and "power" in report.note


def test_poly_sum_shifted_product_frozen():
    # complete sum of (u(u+1)|17) over u = 1..16
    ctx = ctx_for(17)
    direct = sum(__import__("hamroots.numtheory", fromlist=["legendre_symbol"])
                 .legendre_symbol(u * (u + 1), 17) for u in range(1, 17))
    total, report = poly_char_sum(ctx, legendre_character(ctx), [0, 1, 1])
    assert direct == -1
    assert total.as_rational() == -1
    assert report.applicable


def test_poly_sum_rejects_constant():
    ctx = ctx_for(7)
    with pytest.raises(ValueError):
        poly_char_sum(ctx, legendre_character(ctx), [3])


def test_weil_ratio_tripwire():
    # distinct-root products with d <= 4 stay within the bound (ratio <= 1);
    # anything above 2 would indicate a regression
    for p in (101, 211, 499):
        ctx = ctx_for(p)
        chi = legendre_character(ctx)
        for d in (1, 2, 3, 4):
            poly = [1]  # prod (x - root) over root = 0..d-1
            for root in range(d):
                poly = [(a - root * b) % p for a, b in
                        zip([0] + poly, poly + [0])]
            total, report = poly_char_sum(ctx, chi, poly)
            if report.applicable:
                assert report.ratio <= 1, (p, d, report)
                assert report.ratio <= 2


def test_squarefree_split_helpers():
    p = 17
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2
    f = [-2 % p, 5, -4 % p, 1]
    assert squarefree_multiplicities(f, p) == {1: 1, 2: 1}
    assert distinct_root_count(f, p) == 2
    assert is_power_of_rational([0, 0, 1], p, 2)        # x^2
    assert not is_power_of_rational([0, 1, 1], p, 2)    # x(x+1)
    assert is_power_of_rational([0, 0, 0, 0, 2], p, 2)  # 2x^4 = 2(x^2)^2


def test_legendre_partial_sums():
    c7 = ctx_for(7)
    rep = legendre_partial_sum_report(c7, 3)
    assert rep.magnitude == 1 and rep.ratio == pytest.approx(1 / 3)
    c17 = ctx_for(17)
    assert legendre_partial_sum_report(c17, 1).ratio == pytest.approx(1.0)
    assert legendre_partial_sum_report(c17, 17).magnitude == 0
    for p in (31, 101):
        full = legendre_partial_sum_report(ctx_for(p), p)
        assert full.ratio < 1


def test_legendre_partial_sum_needs_an_odd_prime():
    with pytest.raises(ValueError):
        legendre_partial_sum_report(ctx_for(2), 1)


def test_order_one_sums_at_p2():
    # p - 1 = 1: the only character is principal, of order d = 1.
    assert _exact_unit_orbit_sum({0: 3}, 1) == 3
    assert _exact_unit_orbit_sum({}, 1) == 0
    c2 = ctx_for(2)
    assert primroot_indicator(c2, 1, method="orbit") == 1
    assert primroot_indicator(c2, 1, method="cyclotomic") == 1


def test_indicator_examples():
    c7 = ctx_for(7)
    assert primroot_indicator(c7, 3) == 1
    assert primroot_indicator(c7, 2) == 0
    assert primroot_indicator(ctx_for(17), 1) == 0
    with pytest.raises(ValueError):
        primroot_indicator(c7, 0)


def test_indicator_matches_order_test_both_methods():
    for p in sieve_primes(60):
        if p == 2:
            continue
        ctx = ctx_for(p)
        for a in range(1, p):
            expected = Fraction(1 if is_primitive_root(a, ctx) else 0)
            assert primroot_indicator(ctx, a, method="orbit") == expected
            assert primroot_indicator(ctx, a, method="cyclotomic") == expected


def test_orbit_sum_refuses_a_partial_or_non_uniform_class():
    # mod 4 the gcd-classes are {1, 3}, {2} and {0}
    for counts in ({1: 1}, {1: 1, 3: 2}):
        with pytest.raises(InvariantViolation, match="gcd-class 1 mod 4$"):
            _exact_unit_orbit_sum(counts, 4)
    # mu(4) * 1 + mu(2) * 5 + mu(1) * 1
    assert _exact_unit_orbit_sum({0: 1, 1: 1, 2: 5, 3: 1}, 4) == -4


def test_character_cache_belongs_to_its_context():
    first = ctx_for(19)
    assert primroot_indicator(first, 2) == 1
    for d in (1, 2, 3, 6, 9, 18):  # a second call returns the cached tuple
        chars = build_characters(first, d)
        assert type(chars) is tuple and build_characters(first, d) is chars
    fresh = ctx_for(19)  # same p, new context: must not reuse first's characters
    assert primroot_indicator(fresh, 2) == 1
    for d in (1, 2, 3, 6):  # the square-free divisors of 18
        chars = build_characters(fresh, d)
        assert chars and all(chi.ctx is fresh for chi in chars)
        assert chars is not build_characters(first, d)
    assert all(chi.ctx is first for chi in build_characters(first, 6))
    assert legendre_character(fresh) is build_characters(fresh, 2)[0]


def test_count_primroots_examples():
    ctx = ctx_for(17)
    assert count_primroots_via_characters(ctx, range(1, 17)) == euler_phi(16)
    q_set = recombined_set(17, ctx, 2, 1, 1)
    bitmap = ctx.pr_bitmap()
    direct = sum(1 for q in q_set if bitmap >> (q % 17) & 1)
    assert direct == 2
    assert count_primroots_via_characters(ctx, q_set) == direct
    assert count_primroots_via_characters(ctx, []) == 0


def test_count_primroots_random_subsets():
    rng = random.Random(97)
    for p in sieve_primes(100):
        if p == 2:
            continue
        ctx = ctx_for(p)
        bitmap = ctx.pr_bitmap()
        for _ in range(100):
            subset = rng.sample(range(1, p), min(p - 1, rng.randint(1, 25)))
            direct = sum(1 for a in subset if bitmap >> a & 1)
            assert count_primroots_via_characters(ctx, subset) == direct


def test_pv_and_hoelder_reports():
    ctx = ctx_for(17)
    chi = legendre_character(ctx)
    rep = pv_burgess_bound_report(chi, 0, 8, nu=1)
    assert rep.applicable and rep.bound == pytest.approx(17**0.5)
    (principal,) = build_characters(ctx, 1)
    assert not pv_burgess_bound_report(principal, 0, 8).applicable
    hoe = hoelder_bound_report(ctx, 17, 2, 1, 1, chi, nu=1)
    assert hoe.applicable and hoe.ratio > 0 and hoe.bound > 0
    assert not hoelder_bound_report(ctx, 17, 2, 1, 1, principal).applicable
    assert "principal" in hoelder_bound_report(ctx, 17, 2, 1, 1, principal).note
    # n = 1 with k = 1 and no high flips has an empty high flip set: an empty
    # sum within its zero bound, not infinitely over it
    c11 = ctx_for(11)
    empty = hoelder_bound_report(c11, 1, 1, 0, 0, legendre_character(c11))
    assert (empty.magnitude, empty.bound, empty.ratio) == (0, 0, 0)
    assert BoundReport.compare(1.0, 0.0).ratio == math.inf
