import math
import sys
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from hamroots import hamming, numtheory
from hamroots.errors import CapabilityError, InvariantViolation
from hamroots.hamming import (CANONICAL, DOMAIN0, REDUCED, HammingProfile, Radii,
                              _covers, _flip_shuffles, _weight_class,
                              dilation_radii, sparsest,
                              covering_radius, covering_radius_bfs, dilate,
                              hamming_distance, hamming_weight, high_bit_flip_set,
                              low_bit_flip_set, min_flips_to_primroot,
                              min_nonresidue_weight, min_primroot_weight,
                              recombined_set, view)
from hamroots.numtheory import (PrimeContext, factorize_pm1, legendre_symbol, set_bits,
                                sieve_primes)
from hamroots.reference import RADIUS3_CLASSES
from hamroots.scan import ScanConfig, scan_range


def ctx_for(p):
    return PrimeContext.for_prime(p)


def test_weights_and_distances():
    assert hamming_weight(0) == 0
    assert hamming_weight(13) == 3
    assert hamming_weight(2**40 - 1) == 40
    assert hamming_distance(5, 5, 4) == 0
    assert hamming_distance(16, 10, 5) == 3
    assert hamming_distance(1, 2, 3) == 2
    with pytest.raises(ValueError):
        hamming_distance(8, 1, 3)
    with pytest.raises(ValueError):
        hamming_weight(-1)


def test_flip_set_examples():
    ctx = ctx_for(17)
    assert high_bit_flip_set(17, ctx, 2, 1) == [3]
    assert low_bit_flip_set(17, ctx, 2, 1) == [3, 5]
    # zero flips: the untouched bits themselves (when nonzero)
    assert high_bit_flip_set(17, ctx, 2, 0) == [2]
    assert low_bit_flip_set(17, ctx, 2, 0) == [1]
    assert recombined_set(17, ctx, 2, 1, 1) == [27, 29]


def flip_oracle(bits, width, flips):
    """Exhaustive enumeration over all width-bit values at given distance."""
    return sorted(v for v in range(1, 1 << width)
                  if bin(v ^ bits).count("1") == flips)


def test_flip_sets_against_exhaustive_enumeration():
    for p in sieve_primes(100):
        if p < 5:
            continue
        ctx = ctx_for(p)
        for n in (1, p // 2, p - 1, p):
            for k in range(1, ctx.r + 1):
                width = ctx.r - k + 1
                top = n >> width
                low = n & ((1 << width) - 1)
                for f in range(0, k + 1):
                    assert high_bit_flip_set(n, ctx, k, f) == flip_oracle(top, k, f)
                for f in range(0, ctx.r - k + 1):
                    assert low_bit_flip_set(n, ctx, k, f) == flip_oracle(low, width, f)


def test_flip_set_cardinalities():
    # C(k, f) minus one exactly when flipping can hit the zero pattern;
    # the low set has r-k+1 positions so its binomial top index is r-k+1.
    for p in (17, 67, 257):
        ctx = ctx_for(p)
        for n in (1, p // 3, p):
            for k in range(1, ctx.r + 1):
                top = n >> (ctx.r - k + 1)
                low = n & ((1 << (ctx.r - k + 1)) - 1)
                for f in range(0, k + 1):
                    expect = math.comb(k, f) - (1 if top.bit_count() == f else 0)
                    assert len(high_bit_flip_set(n, ctx, k, f)) == expect
                for f in range(0, ctx.r - k + 1):
                    expect = math.comb(ctx.r - k + 1, f) - (1 if low.bit_count() == f else 0)
                    assert len(low_bit_flip_set(n, ctx, k, f)) == expect


def test_recombined_distance_is_flip_sum():
    for p in sieve_primes(500):
        if p < 5:
            continue
        ctx = ctx_for(p)
        n = p  # the padded expansion exercises leading zeros
        for k in range(1, ctx.r + 1):
            for lf in range(0, min(k, 2) + 1):
                for mf in range(0, min(ctx.r - k, 2) + 1):
                    for q in recombined_set(n, ctx, k, lf, mf):
                        assert hamming_distance(q, n, ctx.bit_len) == lf + mf


def test_flip_set_domain_errors():
    ctx = ctx_for(17)
    with pytest.raises(ValueError):
        high_bit_flip_set(17, ctx, 5, 1)  # k > r
    with pytest.raises(ValueError):
        high_bit_flip_set(0, ctx, 2, 1)
    with pytest.raises(ValueError):
        low_bit_flip_set(17, ctx, 2, 3)  # flips > r-k


def test_min_flips_examples():
    ctx7 = ctx_for(7)
    assert min_flips_to_primroot(3, ctx7)[0] == 0
    assert min_flips_to_primroot(6, ctx7)[0] == 2
    ctx17 = ctx_for(17)
    dist, witness = min_flips_to_primroot(16, ctx17)
    assert dist == 3
    assert hamming_distance(16, witness, 5) == 3


def test_min_flips_matches_direct_min_over_roots():
    for p in sieve_primes(500):
        if p == 2:
            continue
        ctx = ctx_for(p)
        roots = list(set_bits(ctx.pr_bitmap()))
        for n in range(1, p + 1):
            direct = min(bin(n ^ g).count("1") for g in roots)
            assert min_flips_to_primroot(n, ctx)[0] == direct


def test_min_flips_witness_order_is_lexicographic():
    # first hit in lexicographic position-subset order
    ctx = ctx_for(7)
    dist, witness = min_flips_to_primroot(6, ctx)
    # 110 -> flips {0,1} give 101 = 5 before flips {0,2} give 011 = 3
    assert (dist, witness) == (2, 5)


def test_covering_radius_small_primes():
    # frozen from the direct per-n minimum over the root set
    expected = {3: (2, (1,)), 5: (2, (0, 4)), 7: (2, (6,)), 17: (3, (16,)),
                67: (3, (65,)), 257: (3, (256,))}
    for p, (radius, wits) in expected.items():
        ctx = ctx_for(p)
        assert covering_radius(ctx) == (radius, wits)
        assert covering_radius_bfs(ctx) == (radius, wits)


def domain_dilation(ctx, variant):
    """Covering radius and witness classes by a dilation of the variant's own
    domain, [0, p-1] or [1, p]: the engine that one dilation with read-time
    views replaced, kept as its oracle."""
    p = ctx.p
    domain = (1 << p) - 1 if variant.n_domain_zero else (1 << (p + 1)) - 2
    ball = ctx.pr_bitmap()
    if variant.targets == "reduced":
        ball |= (ball << p) & ((1 << (1 << ctx.bit_len)) - 1)
    radius, previous = 0, ball
    while ball & domain != domain:
        previous = ball
        ball = dilate(ball, ctx.bit_len)
        radius += 1
    return radius, tuple(sorted(n % p for n in set_bits(domain & ~previous)))


def test_views_match_the_per_domain_dilation_below_20000():
    """Each variant's view of one dilation is the radius and witness list of
    a dilation of that variant's domain, for every odd prime below 20000;
    under literal targets the distance of 0 is W."""
    for p in sieve_primes(20000)[1:]:
        ctx = ctx_for(p)
        for variant in (CANONICAL, DOMAIN0, REDUCED):
            assert covering_radius(ctx, variant) == domain_dilation(ctx, variant), (p, variant)
        assert dilation_radii(ctx, "literal").dist_0 == min_primroot_weight(ctx)[0], p


def test_views_match_the_per_domain_dilation_of_radius_3_and_delta_large_primes():
    """The full-round oracle beyond 20000: the reference radius-3 primes to
    10^6, where the core (8209, 65537, ...) or the point 0 (77351, 514711,
    ...) is the last to be covered, and the four delta_large primes, where a
    round after the first stops early."""
    primes = [p for p in RADIUS3_CLASSES if p <= 10**6] + [1000003, 1000033, 1000037, 1000039]
    for p in primes:
        ctx = ctx_for(p)
        for variant in (CANONICAL, DOMAIN0, REDUCED):
            assert covering_radius(ctx, variant) == domain_dilation(ctx, variant), (p, variant)


def test_rounds_after_the_first_run_a_full_dilate_only_when_the_test_fails(monkeypatch):
    """The delta_large primes have core 2 and endpoints at distance 1 or 2,
    so the second round covers every outstanding point and only the first
    runs `dilate`. 17 (core 3) and 1753 (dist_0 = 3) leave points outside
    the second round's ball, so they run `dilate` twice and stop early in
    the third round. Reduced targets bring 17's core to 1 and its endpoints
    to 2, so one full round suffices there."""
    calls = []
    full = hamming.dilate
    monkeypatch.setattr(hamming, "dilate", lambda bitmap, length: calls.append(1) or
                        full(bitmap, length))
    counts = {}
    for targets in ("literal", "reduced"):
        for p in (17, 1753, 1000003, 1000033, 1000037, 1000039):
            calls.clear()
            dilation_radii(ctx_for(p), targets)
            counts[p, targets] = len(calls)
    assert counts == {(17, "literal"): 2, (1753, "literal"): 2, (17, "reduced"): 1,
                      (1753, "reduced"): 2,
                      **{(p, t): 1 for p in (1000003, 1000033, 1000037, 1000039)
                         for t in ("literal", "reduced")}}


def test_view_of_the_endpoints():
    # The radii count the core witnesses; each view counts its own, and
    # covering_radius lists them.
    # 23: every n in [1, 22] is one flip from a root, 0 is two (W = 2), 23 is one
    radii = dilation_radii(ctx_for(23), "literal")
    core = (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18, 22)
    assert radii == Radii(1, 2, 1, len(core))
    assert view(radii, CANONICAL) == (1, 13) and view(radii, DOMAIN0) == (2, 1)
    assert covering_radius(ctx_for(23), CANONICAL) == (1, (0, *core))
    assert covering_radius(ctx_for(23), DOMAIN0) == (2, (0,))
    # 17: the core is the farther, so neither endpoint is a witness
    assert dilation_radii(ctx_for(17), "literal") == Radii(3, 2, 2, 1)
    assert view(dilation_radii(ctx_for(17), "literal"), DOMAIN0) == (3, 1)
    assert covering_radius(ctx_for(17), DOMAIN0) == (3, (16,))
    # 31: both endpoints are farther than the core, so no view reads the 22
    # core witnesses; reduced targets bring p = 17 to that case
    assert dilation_radii(ctx_for(31), "literal") == Radii(1, 2, 2, 22)
    assert view(dilation_radii(ctx_for(31), "literal"), CANONICAL) == (2, 1)
    assert covering_radius(ctx_for(31), CANONICAL) == covering_radius(ctx_for(31), DOMAIN0) \
        == (2, (0,))
    assert dilation_radii(ctx_for(17), "reduced") == Radii(1, 2, 2, 8)
    assert covering_radius(ctx_for(17), REDUCED) == (2, (0,))


def test_engine_failures_are_invariant_violations(monkeypatch):
    """An engine that cannot finish names the prime, the statistic and itself."""
    # primes that claim 7 | 6 add the root test v^(6 // 7) = v^0 != 1,
    # which every candidate fails
    with pytest.raises(InvariantViolation,
                       match="^p=7: the candidate sweep for W finds no primitive root$"):
        sparsest(7, [2, 3, 7], roots=True)
    monkeypatch.setattr(hamming, "_target_bitmap", lambda ctx, targets: 0)
    with pytest.raises(InvariantViolation, match="^p=7 targets=literal: the dilation for delta "
                                                 "leaves the domain uncovered after 3 rounds$"):
        dilation_radii(ctx_for(7), "literal")
    # the ball search reads no bitmap: only a root test that fails everywhere starves it
    monkeypatch.setattr(hamming, "is_primitive_root", lambda a, ctx: False)
    with pytest.raises(InvariantViolation, match="^p=7 variant=canonical: the ball search for "
                                                 "delta reaches no target from n=3$"):
        min_flips_to_primroot(3, ctx_for(7))


def test_engines_agree_up_to_300():
    for p in sieve_primes(300):
        if p == 2:
            continue
        ctx = ctx_for(p)
        for variant in (CANONICAL, DOMAIN0, REDUCED):
            assert covering_radius(ctx, variant) == \
                covering_radius_bfs(ctx, variant)


def ball_sweep(ctx, variant):
    """Covering radius and witness classes by `min_flips_to_primroot` at
    every n of the variant's domain: the oracle that reads no bitmap."""
    p, lo = ctx.p, 0 if variant.n_domain_zero else 1
    dists = {n: min_flips_to_primroot(n, ctx, variant)[0] for n in range(lo, p + lo)}
    radius = max(dists.values())
    return radius, tuple(sorted(n % p for n, d in dists.items() if d == radius))


def test_ball_search_agrees_with_dilation_and_bfs_below_2000():
    """The per-n search against both bitmap engines for every odd prime
    below 2000, under the two variants that ACCEPTANCE 2 leaves out."""
    for p in sieve_primes(2000)[1:]:
        ctx = ctx_for(p)
        for variant in (DOMAIN0, REDUCED):
            swept = ball_sweep(ctx, variant)
            assert swept == covering_radius(ctx, variant) == covering_radius_bfs(ctx, variant), \
                (p, variant.name)


def test_ball_search_refuses_the_radii_of_a_swapped_bitmap(monkeypatch):
    """The bitmap check tests 16 positions with `pow`, so a build that swaps
    a root and a non-root elsewhere keeps every fact it checks. At 1031 the
    root 1029 and the non-root 3 are neither checked positions nor the least
    root. The dilation and the BFS read the swapped bitmap and agree on 6
    witness classes at radius 2; the ball search tests each candidate with
    `pow` and finds the true 7."""
    p = 1031
    truth = covering_radius(ctx_for(p))
    build, swap = numtheory._build_pr_bitmap, 1 << 1029 | 1 << 3
    monkeypatch.setattr(numtheory, "_build_pr_bitmap", lambda ctx: build(ctx) ^ swap)
    ctx = ctx_for(p)
    assert numtheory.is_primitive_root(1029, ctx) and not numtheory.is_primitive_root(3, ctx)
    assert ctx.pr_bitmap() == build(ctx) ^ swap  # the check accepts it
    wrong = covering_radius(ctx)
    assert wrong == covering_radius_bfs(ctx)
    assert ball_sweep(ctx, CANONICAL) == truth != wrong
    assert (truth[0], len(truth[1])) == (2, 7) and (wrong[0], len(wrong[1])) == (2, 6)


def test_variant_semantics():
    # 23: the sparsest root has weight 2 but every n in [1, 23] is one flip
    # from a root; putting 0 in the domain forces the radius up to W.
    ctx = ctx_for(23)
    assert min_primroot_weight(ctx)[0] == 2
    assert covering_radius(ctx, CANONICAL)[0] == 1
    assert covering_radius(ctx, DOMAIN0)[0] == 2
    for p in (17, 23, 67, 101):
        c = ctx_for(p)
        # extra targets can only shrink the radius
        assert covering_radius(c, REDUCED)[0] <= covering_radius(c, CANONICAL)[0]
        # 0's distance equals the minimal root weight under the zero domain
        assert min_flips_to_primroot(0, c, DOMAIN0)[0] == min_primroot_weight(c)[0]


def test_covering_radius_rejects_p2():
    with pytest.raises(CapabilityError):
        covering_radius(ctx_for(2))


@pytest.mark.parametrize("variant", [CANONICAL, DOMAIN0, REDUCED], ids=lambda v: v.name)
def test_every_radius_engine_refuses_p2(variant):
    # A capability limit, not a wrong result, for every n of the domain.
    ctx = ctx_for(2)
    domain = (0, 1) if variant.n_domain_zero else (1, 2)
    engines = [lambda: covering_radius(ctx, variant), lambda: covering_radius_bfs(ctx, variant),
               lambda: dilation_radii(ctx, variant.targets),
               *(lambda n=n: min_flips_to_primroot(n, ctx, variant) for n in domain)]
    for engine in engines:
        with pytest.raises(CapabilityError, match="^p = 2 is excluded from covering-radius scans$"):
            engine()


def test_dilate_is_hamming_ball_step():
    length = 4
    for seed in (0b1, 0b1001, 0b100000000):
        out = dilate(seed, length)
        expected = seed
        for x in range(1 << length):
            if seed >> x & 1:
                for i in range(length):
                    expected |= 1 << (x ^ (1 << i))
        assert out == expected


def test_min_weights_examples():
    assert min_nonresidue_weight(ctx_for(3)) == (1, 2)
    assert min_nonresidue_weight(ctx_for(7)) == (2, 3)
    assert min_nonresidue_weight(ctx_for(17)) == (2, 3)
    assert min_primroot_weight(ctx_for(3)) == (1, 2)
    assert min_primroot_weight(ctx_for(7)) == (2, 3)
    assert min_primroot_weight(ctx_for(2)) == (1, 1)
    with pytest.raises(CapabilityError):
        min_nonresidue_weight(ctx_for(2))


def test_weight_one_iff_two_is_nonresidue():
    for p in sieve_primes(2000):
        if p == 2:
            continue
        ctx = ctx_for(p)
        assert (min_nonresidue_weight(ctx)[0] == 1) == (legendre_symbol(2, p) == -1)


def test_sparsest_chain_w_le_W():
    for p in sieve_primes(2000):
        if p == 2:
            continue
        ctx = ctx_for(p)
        assert min_nonresidue_weight(ctx)[0] <= min_primroot_weight(ctx)[0]


def test_weight_one_root_is_power_of_two():
    for p in sieve_primes(500):
        ctx = ctx_for(p)
        w, witness = min_primroot_weight(ctx)
        if w == 1:
            assert witness.bit_count() == 1


def _prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _brute_sparsest(p, pred):
    return min((v for v in range(1, p) if pred(v)), key=lambda v: (v.bit_count(), v))


def test_sparsest_search_matches_brute_force_below_20000():
    """Both weight searches return the exhaustive minimum over [1, p-1] by
    (weight, value). The accepted sets come from one walk over the powers of a
    generator g: non-residues are its odd powers, primitive roots the powers
    g^k with gcd(k, p-1) = 1."""
    for p in sieve_primes(20000):
        qs = _prime_factors(p - 1)
        g = next(v for v in range(1, p) if all(pow(v, (p - 1) // q, p) != 1 for q in qs))
        powers = [1]
        for _ in range(p - 2):
            powers.append(powers[-1] * g % p)
        coprime = bytearray([1]) * (p - 1)
        for q in qs:
            coprime[::q] = bytes(len(coprime[::q]))
        roots = set(compress(powers, coprime))
        ctx = ctx_for(p)
        witness = _brute_sparsest(p, roots.__contains__)
        assert min_primroot_weight(ctx) == (witness.bit_count(), witness), p
        if p > 2:
            witness = _brute_sparsest(p, set(powers[1::2]).__contains__)
            assert min_nonresidue_weight(ctx) == (witness.bit_count(), witness), p


def _gosper(weight, below):
    """Integers of the given weight in [1, below), ascending, by Gosper's
    hack: an enumeration of a weight class independent of `hamming._flips`."""
    v = (1 << weight) - 1
    while v < below:
        yield v
        c = v & -v
        r = v + c
        v = r | (((v ^ r) >> 2) // c)


def _euler_sweep(ctx, roots):
    """The candidate sweep with one Euler test v^((p-1)/2) per candidate and
    each weight class enumerated afresh below p: the oracle of `sparsest`."""
    p = ctx.p
    half = (p - 1) // 2
    odd_exponents = ctx.pr_test_exponents[1:]
    nonresidue = None
    for weight in range(1, ctx.bit_len + 1):
        for v in (2,) if weight == 1 else _gosper(weight, p):
            if pow(v, half, p) != p - 1:
                continue
            if nonresidue is None:
                nonresidue = weight, v
                if not roots:
                    return nonresidue, None
            if all(pow(v, e, p) != 1 for e in odd_exponents):
                return nonresidue, (weight, v)
    raise AssertionError(p)


def test_sparsest_matches_the_euler_test_sweep():
    """Same (weight, witness) pairs for w and W as the Euler-test sweep, over
    every prime in [3, 2*10^5] and [2990000, 3000000], whether the primes of
    p - 1 come from the block sieve, in its order or reversed (so with 2
    last), or from a `for_prime` context. The primes just above a power of
    two (3, 5, 17, 257, 65537, 2097169) see a cached weight class that runs
    past p, whose values >= p the sweep must skip."""
    primes = sieve_primes(200000, 3) + [2097169] + sieve_primes(3000000, 2990000)
    assert {3, 5, 17, 257, 65537, 2097169} <= set(primes)
    for p, qs in zip(primes, factorize_pm1(primes)):
        ctx = PrimeContext.for_prime(p)
        assert ctx.factors_pm1 == tuple(qs), p
        both = _euler_sweep(ctx, roots=True)
        for factors in (qs, qs[::-1], ctx.factors_pm1):
            assert sparsest(p, factors, roots=True) == both, p
            assert sparsest(p, factors, roots=False) == (both[0], None), p


def test_sparsest_edge_inputs():
    """p = 2 has no non-residue and the root 1. For p = 3 and the Fermat
    primes 5, 17, 257 and 65537, p - 1 is a power of 2: the sieve gives [2],
    there is no odd prime q, and so the first non-residue is W's witness."""
    assert list(factorize_pm1([2])) == [[]]
    assert sparsest(2, [], roots=True) == (None, (1, 1))
    assert sparsest(2, [], roots=False) == (None, None)
    fermat = [3, 5, 17, 257, 65537]
    assert list(factorize_pm1(fermat)) == [[2]] * 5
    expected = {3: (1, 2), 5: (1, 2), 17: (2, 3), 257: (2, 3), 65537: (2, 3)}
    for p in fermat:
        assert sparsest(p, [2], roots=True) == (expected[p], expected[p]), p
        assert min_nonresidue_weight(ctx_for(p)) == min_primroot_weight(ctx_for(p)) \
            == expected[p], p


def test_sweep_tries_each_candidate_below_p_once_in_order(monkeypatch):
    """With no non-residue reported, the sweep tries 2 and then every value
    of [3, p-1] of weight >= 2, by (weight, value), and none >= p. Up to
    3*10^6 no answer depends on the cut at p, so it is pinned here."""
    for p in (3, 5, 17, 257, 65537):
        tried = []
        monkeypatch.setattr(hamming, "_jacobi", lambda v, n: tried.append(v) or 1)
        with pytest.raises(InvariantViolation, match=f"^p={p}: the candidate sweep for w "):
            sparsest(p, ctx_for(p).factors_pm1, roots=True)
        assert tried == [2] + sorted((v for v in range(3, p) if v.bit_count() >= 2),
                                     key=lambda v: (v.bit_count(), v)), p


def test_weight_classes_are_cached_gosper_enumerations():
    for bit_len in range(2, 23):
        for weight in range(2, 5):
            cls = _weight_class(bit_len, weight)
            assert cls == tuple(_gosper(weight, 1 << bit_len))
            assert _weight_class(bit_len, weight) is cls
            if bit_len <= 12:
                assert cls == tuple(v for v in range(1 << bit_len) if v.bit_count() == weight)


def test_profile_bundle():
    (prof,) = scan_range(ScanConfig(lo=7, hi=7))
    assert (prof.w, prof.W, prof.delta, prof.witnesses) == (2, 2, 2, (6,))
    assert prof.radii == Radii(2, 2, 1, 1) and prof.witness_count == 1
    prof0 = HammingProfile(prof.p, prof.r, prof.w, prof.W, variant=DOMAIN0.name, radii=prof.radii)
    assert (prof0.delta, prof0.witnesses, prof0.radii) == (2, (0, 6), prof.radii)
    assert prof0.witness_count == 2
    (prof2,) = scan_range(ScanConfig(lo=2, hi=2))
    assert (prof2.w, prof2.W, prof2.delta) == (None, 1, None)
    (partial,) = scan_range(ScanConfig(lo=17, hi=17, compute=("W",)))
    assert (partial.w, partial.W, partial.delta) == (None, 2, None)
    # Built by keyword, as perfbench's replay builds it, or by position, a
    # profile compares by value, field by field, and is unhashable.
    # A profile built with a list keeps it and counts it; one built with
    # radii takes delta and its count from their view.
    replayed = HammingProfile(p=7, r=2, w=2, W=2, delta=2, witnesses=(6,),
                              variant=CANONICAL.name)
    assert replayed == HammingProfile(7, 2, 2, 2, 2, (6,))
    assert (replayed.witness_count, replayed.witnesses) == (1, (6,))
    assert replayed != prof and replayed.radii is None
    assert replayed != HammingProfile(7, 2, 2, 2, 2, (5,))
    assert HammingProfile(7, 2, 2, 2, variant="canonical", radii=prof.radii) == prof
    with pytest.raises(ValueError, match="^a profile with radii takes delta and its "
                                         "witnesses from their view$"):
        HammingProfile(7, 2, 2, 2, 2, (6,), "canonical", prof.radii)
    assert HammingProfile(7, 2) == HammingProfile(7, 2, None, None, None, (), "canonical", None)
    assert HammingProfile(7, 2) != HammingProfile(7, 2, variant="domain0")
    assert prof != (7, 2, 2, 2, 2, (6,), "canonical", prof.radii)
    assert repr(HammingProfile(3, 1, W=1)) == (
        "HammingProfile(p=3, r=1, w=None, W=1, delta=None, witness_count=0, "
        "variant='canonical', radii=None, witnesses=())")
    assert repr(prof) == ("HammingProfile(p=7, r=2, w=2, W=2, delta=2, witness_count=1, "
                          "variant='canonical', radii=Radii(core=2, dist_0=2, dist_p=1, count=1))")
    with pytest.raises(TypeError):
        hash(prof)
    with pytest.raises(AttributeError):
        prof.extra = 1
    # A held profile stores its row, not its views: r, delta and
    # witness_count are derived and read-only, and an r that is not the bit
    # exponent of p is refused rather than stored.
    assert len(HammingProfile.__slots__) <= 6
    assert sys.getsizeof(prof) <= 80 and sys.getsizeof(partial) <= 80
    with pytest.raises(ValueError, match="^r=3 is not the bit exponent of p=7, which is 2$"):
        HammingProfile(7, 3)
    for name in ("r", "delta", "witness_count"):
        with pytest.raises(AttributeError):
            setattr(prof, name, 1)
    assert (prof.r, prof.delta, prof.witness_count) == (2, 2, 1)


def test_an_endpoint_radius_off_is_refused_when_the_witnesses_are_read():
    """The radii of 7 are (2, 2, 1, 1). With dist_0 forged to 3 the domain0
    view has delta 3 beyond the core, whose one witness would be the class 0;
    the list of `covering_radius` disagrees, so reading it names the prime,
    the statistic and the engine."""
    prof = HammingProfile(7, 2, variant=DOMAIN0.name, radii=Radii(2, 3, 1, 1))
    assert (prof.delta, prof.witness_count) == (3, 1)
    with pytest.raises(InvariantViolation) as exc:
        prof.witnesses
    assert str(exc.value) == (
        "p=7 variant=domain0: the row gives delta=3 with 1 witness classes, but the "
        "dilation for delta (covering_radius) lists 2 at delta=2")


def test_profile_weights_do_not_depend_on_what_else_is_computed():
    """One sweep serves w and W together; asked for one, it gives the same."""
    def weights(compute):
        profiles = scan_range(ScanConfig(lo=2, hi=20000, compute=compute))
        return [(pr.p, pr.w, pr.W) for pr in profiles]
    both = weights(("w", "W"))
    assert [p for p, _, _ in both] == sieve_primes(20000)
    assert weights(("w",)) == [(p, w, None) for p, w, _ in both]
    assert weights(("W",)) == [(p, None, big_w) for p, _, big_w in both]
    assert both[0] == (2, None, 1)


def test_dilation_keeps_the_masks_of_one_bit_length():
    """A process holds the masks of the length it dilates at, not of every
    length it has passed: 2.6 MB at 20 bits, 5.5 MB at 21."""
    dilate(1, 20)
    dilate(1, 21)
    assert _flip_shuffles.cache_info().currsize == 1


def test_flip_shuffles_match_floor_division_formula():
    for length in range(1, 17):
        full = (1 << (1 << length)) - 1
        expected = []
        for i in range(length):
            s = 1 << i
            unit = full // ((1 << (2 * s)) - 1)  # one bit every 2s positions
            expected.append((s, unit * ((1 << s) - 1)))
        assert _flip_shuffles(length) == tuple(expected), length


def byte_pattern_shuffles(length):
    """Oracle for _flip_shuffles: repeat the little-endian byte pattern of
    each mask (0x55, 0x33, 0x0F, then runs of 0xFF and 0x00) and cut it to
    2^length bits."""
    size = 1 << length
    out = []
    for i in range(length):
        s = 1 << i
        block = (bytes([(0x55, 0x33, 0x0F)[i]]) if s < 8
                 else b"\xff" * (s // 8) + b"\0" * (s // 8))
        mask = int.from_bytes(block * max(1, size // 8 // len(block)), "little")
        out.append((s, mask & ((1 << size) - 1)))
    return tuple(out)


def test_flip_shuffles_match_byte_patterns_through_census_lengths():
    # 20 to 22 are the bit lengths of the primes of the 3e6 census.
    for length in range(1, 23):
        assert _flip_shuffles(length) == byte_pattern_shuffles(length), length


def _bfs_distances(targets, length):
    """Hop distance from each vertex of the length-cube to the target set."""
    dist = [None] * (1 << length)
    frontier = [x for x in range(1 << length) if targets >> x & 1]
    for x in frontier:
        dist[x] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for i in range(length):
                y = x ^ (1 << i)
                if dist[y] is None:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


# A bit length and a random target set of its cube.
_random_targets = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)))


@settings(deadline=None)
@given(_random_targets)
def test_dilation_matches_bfs_on_random_targets(case):
    length, targets = case
    dist = _bfs_distances(targets, length)
    ball = targets
    for k in range(length + 1):
        assert ball == sum(1 << x for x, d in enumerate(dist) if d is not None and d <= k)
        ball = dilate(ball, length)


@settings(deadline=None)
@given(_random_targets, st.data())
def test_covers_is_membership_in_one_dilation(case, data):
    """`_covers(ball, points, length)` holds iff every point lies in
    `dilate(ball, length)`: for no points, the cube's first and last
    vertices, random sets, and random parts of the dilation itself."""
    length, ball = case
    size = 1 << length
    grown = dilate(ball, length)
    some = data.draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    for points in (0, 1, 1 << (size - 1), 1 | 1 << (size - 1), some, some & grown,
                   grown, (some & grown) | 1):
        assert _covers(ball, points, length) == (points & ~grown == 0), (points, ball)
