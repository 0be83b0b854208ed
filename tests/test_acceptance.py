"""Acceptance suite: one test per numbered criterion.

Each test prints an `ACCEPTANCE <n>: PASS/FAIL` line with its key numbers
(run pytest with -rA or -s to see the lines for passing tests).

Two radius conventions meet here. The paper's covering bound is stated for
n in [1, p] (the `canonical` variant, the program's default), while the
reference tables were computed with n in [0, p-1] (`domain0`). Criteria 3
and 9 check statements that hold under `domain0`: the reference radius-3
list, and W <= radius (the distance from 0 to the primitive roots is exactly
W). They also itemize, as documented facts, where the canonical convention
differs. Criterion 8 checks f_bar against cubes inside the non-zero
quadratic residues, the theorem behind the published f_bar = f, which holds
only for cubes that avoid 0.
"""

import random
import time
from fractions import Fraction

import pytest

from hamroots.characters import build_characters
from hamroots.charsums import (interval_char_sum, primroot_indicator,
                               split_char_sum)
from hamroots.constants import (artin_constant, entropy, entropy_half_point,
                                sparse_weight_constant)
from hamroots.cubes import (NONRESIDUE, cube_census, max_avoiding_dimension)
from hamroots.hamming import (CANONICAL, DOMAIN0, covering_radius,
                              covering_radius_bfs, min_flips_to_primroot)
from hamroots.numtheory import (PrimeContext, divisors, factorize,
                                is_primitive_root, legendre_symbol,
                                sieve_primes)
from hamroots.reference import COUNT_TABLE, RADIUS3_CLASSES
from hamroots.scan import (CountTable, ScanConfig, format_scan_output,
                           scan_frequencies, scan_range)


@pytest.fixture(scope="module")
def scan_10k():
    return scan_range(ScanConfig(lo=2, hi=10**4, tasks=4))


@pytest.fixture(scope="module")
def scan_10k_domain0():
    """The same range under the reference tables' convention (0 scanned)."""
    return scan_range(ScanConfig(lo=2, hi=10**4, tasks=4, variant=DOMAIN0.name))


@pytest.fixture(scope="module")
def scan_1e6_ww():
    """The w,W scan to 10^6 and its wall time in seconds."""
    start = time.time()
    profiles = scan_range(ScanConfig(lo=2, hi=10**6, tasks=4, compute=("w", "W")))
    return profiles, time.time() - start


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_census_w_W_exact(scan_10k):
    """w/W census columns at 10^3 and 10^4 match the reference exactly."""
    start = time.time()
    table = CountTable.from_profiles(scan_10k, [10**3, 10**4])
    mismatches = []
    for j in (3, 4):
        row = table.rows[10**j]
        ref = COUNT_TABLE[j]
        for stat in ("w", "W"):
            for i in (1, 2, 3):
                if row[stat][i - 1] != ref[stat][i - 1]:
                    mismatches.append((j, stat, i, row[stat][i - 1], ref[stat][i - 1]))
        if row["pi"] != ref["pi"]:
            mismatches.append((j, "pi", None, row["pi"], ref["pi"]))
    ok = _report(1, not mismatches,
                 f"w/W columns at 10^3 and 10^4, {time.time() - start:.1f}s elapsed "
                 f"(mismatches: {mismatches or 'none'})")
    assert ok


def test_criterion_2_radius_census_diff_and_engine_consistency(scan_10k):
    """Radius census is compared (diffs itemized per prime with both engines'
    witness data); the hard assertion is three-way engine agreement <= 2000."""
    table = CountTable.from_profiles(scan_10k, [10**3, 10**4])
    for j in (3, 4):
        row = table.rows[10**j]
        ref = COUNT_TABLE[j]
        print(f"radius census at 10^{j}: computed {row['delta'][:3]} vs "
              f"reference {list(ref['delta'])} (canonical variant)")
    # itemize every prime whose canonical radius differs from the
    # zero-domain radius (the convention the reference table follows)
    diffs = 0
    for prof in scan_10k:
        if prof.p == 2:
            continue
        ctx = PrimeContext(prof.p, factorize(prof.p - 1))
        alt, alt_wits = covering_radius(ctx, DOMAIN0)
        if alt != prof.delta:
            diffs += 1
            bfs_r, bfs_wits = covering_radius_bfs(ctx, CANONICAL)
            if diffs <= 15:
                print(f"  p={prof.p}: canonical={prof.delta} "
                      f"(dilation classes {prof.witnesses}, bfs {bfs_r} classes {bfs_wits}) "
                      f"vs domain0={alt} (classes {alt_wits})")
    print(f"  {diffs} primes <= 10^4 differ between canonical and domain0")
    bad = []
    for p in sieve_primes(2000):
        if p == 2:
            continue
        ctx = PrimeContext(p, factorize(p - 1))
        d_dil, w_dil = covering_radius(ctx)
        d_bfs, w_bfs = covering_radius_bfs(ctx)
        dists = [min_flips_to_primroot(n, ctx)[0] for n in range(1, p + 1)]
        d_ball = max(dists)
        w_ball = tuple(sorted(n % p for n in range(1, p + 1) if dists[n - 1] == d_ball))
        if not (d_dil == d_bfs == d_ball and w_dil == w_bfs == w_ball):
            bad.append(p)
    ok = _report(2, not bad,
                 f"BFS = dilation = ball-search for every p <= 2000 "
                 f"(radius-count diffs reported above, {diffs} variant diffs itemized)")
    assert ok


def test_criterion_3_radius3_membership(scan_10k, scan_10k_domain0):
    """The primes <= 10^4 with radius 3 are exactly the reference list's, and
    none reaches radius 4. The list is a `domain0` table, so the radii come
    from a `domain0` scan; radius 4 is ruled out under both conventions.
    Canonically, 1753 and 2089 have radius 2: their only distance-3 class is
    the integer 0, which only `domain0` scans. The reference class lists are
    not compared (see reference.py)."""
    start = time.time()
    listed = sorted(p for p in RADIUS3_CLASSES if p <= 10**4)
    radius3 = sorted(prof.p for prof in scan_10k_domain0 if prof.delta == 3)
    canonical = {prof.p: prof.delta for prof in scan_10k}
    for p in listed:
        print(f"p={p}: canonical radius {canonical[p]}")
    canonical3 = sorted(p for p, d in canonical.items() if d == 3)
    deep = [prof.p for profiles in (scan_10k, scan_10k_domain0) for prof in profiles
            if prof.delta is not None and prof.delta >= 4]
    ok = _report(3, radius3 == listed and not deep,
                 f"domain0 radius-3 primes {radius3} vs reference {listed}; "
                 f"canonical radius-3 primes {canonical3}; "
                 f"radius>=4 primes={deep or 'none'}, {time.time() - start:.1f}s")
    assert not deep
    assert canonical3 == [p for p in listed if p not in (1753, 2089)]
    assert ok


def test_criterion_4_million_frequencies(scan_1e6_ww):
    profiles, elapsed = scan_1e6_ww
    start = time.time()
    freq = scan_frequencies(profiles, 10**6)
    elapsed += time.time() - start
    exact = (freq["w1"], freq["W1"], freq["pi"]) == (39276, 29342, 78498)
    frac_ok = (abs(freq["w1_fraction"] - 0.500344) < 1e-6
               and abs(freq["W1_fraction"] - 0.373792) < 1e-6)
    ok = _report(4, exact and frac_ok,
                 f"w1={freq['w1']} W1={freq['W1']} pi={freq['pi']}, fractions "
                 f"{freq['w1_fraction']:.6f}/{freq['W1_fraction']:.6f}, {elapsed:.0f}s")
    assert ok


def test_w_W_columns_at_1e5_and_1e6(scan_1e6_ww):
    """The full w and W columns at 10^5 and 10^6 match the reference, the 3
    and 11 primes with W = 3 included; no prime below 10^6 reaches weight 4."""
    table = CountTable.from_profiles(scan_1e6_ww[0], [10**5, 10**6])
    for j in (5, 6):
        row, ref = table.rows[10**j], COUNT_TABLE[j]
        assert row["pi"] == ref["pi"]
        for stat in ("w", "W"):
            assert row[stat] == [*ref[stat], 0], (j, stat)


def test_criterion_5_constants():
    rho = entropy_half_point(1e-13)
    theta = sparse_weight_constant()
    artin = artin_constant(10**6)
    checks = {
        "rho0 digits": abs(rho - 0.11002786) < 1e-8,
        "H(rho0)=1/2": abs(entropy(rho) - 0.5) < 1e-12,
        "theta0 digits": abs(theta - 0.07581633) < 1e-8,
        "artin digits": abs(artin - 0.3739558) < 1e-7,
    }
    ok = _report(5, all(checks.values()),
                 f"rho0={rho:.10f} theta0={theta:.10f} A(10^6)={artin:.9f} "
                 f"failed={[k for k, v in checks.items() if not v] or 'none'}")
    assert ok


def test_criterion_6_indicator_identity():
    start = time.time()
    checked = 0
    for p in sieve_primes(200):
        if p == 2:
            continue
        ctx = PrimeContext.for_prime(p)
        for a in range(1, p):
            expected = Fraction(1 if is_primitive_root(a, ctx) else 0)
            assert primroot_indicator(ctx, a) == expected, (p, a)
            checked += 1
    elapsed = time.time() - start
    ok = _report(6, elapsed < 10,
                 f"indicator == order test on {checked} (p, a) pairs, exact, "
                 f"{elapsed:.1f}s (< 10s required)")
    assert ok


def test_criterion_7_charsum_oracles():
    rng = random.Random(20130917)
    primes = [p for p in sieve_primes(500) if p >= 5]
    contexts = {}
    for _ in range(1000):
        p = rng.choice(primes)
        ctx = contexts.setdefault(p, PrimeContext.for_prime(p))
        k = rng.randint(1, ctx.r)
        hi = rng.randint(0, min(k, 3))
        lo = rng.randint(0, min(ctx.r - k, 3))
        n = rng.randint(1, p)
        d = rng.choice(divisors(p - 1))
        chi = rng.choice(build_characters(ctx, d))
        one = split_char_sum(ctx, n, k, hi, lo, chi, order="uv")
        two = split_char_sum(ctx, n, k, hi, lo, chi, order="vu")
        assert one.counts == two.counts and one.zero_terms == two.zero_terms
    zero_checked = 0
    for p in sieve_primes(200):
        if p == 2:
            continue
        ctx = contexts.setdefault(p, PrimeContext.for_prime(p))
        for d in divisors(p - 1):
            for chi in build_characters(ctx, d):
                if chi.is_principal:
                    continue
                assert interval_char_sum(chi, 0, p).is_exactly_zero(), (p, chi.j)
                zero_checked += 1
    ok = _report(7, True, f"1000 random split-sum tuples agree across loop "
                          f"orders; {zero_checked} full-period sums exactly 0")
    assert ok


def _max_cube_inside(p, allowed):
    """Largest dimension of a cube (distinct non-zero generators) whose
    elements all lie in `allowed`, by plain DFS over ascending generators."""
    best = 0

    def grow(elems, last, dim):
        nonlocal best
        best = max(best, dim)
        for g in range(last + 1, p):
            new = elems | {(x + g) % p for x in elems}
            if new <= allowed:
                grow(new, g, dim + 1)

    for base in allowed:
        grow({base}, 0, 0)
    return best


def test_criterion_8_cube_suite():
    """Exhaustive cube census for odd p <= 40: the weak chain
    F_bar <= f_bar <= f <= F, the 12 p^(1/4) bound, the f(5) witness, and
    f_bar = the largest cube dimension inside the non-zero quadratic
    residues (multiplying by a non-residue swaps cubes inside the non-zero
    residues with cubes inside the non-residues). The published f_bar = f
    holds only for cubes that avoid 0; the primes where every maximal
    avoiding cube passes through 0, so f_bar < f, are itemized."""
    start = time.time()
    weak_chain_bad = []
    residue_bad = []
    strict = []
    hs_bad = []
    for p in sieve_primes(40):
        if p == 2:
            continue
        census = cube_census(PrimeContext.for_prime(p))
        f = census.avoid_nonresidue.dim
        big_f = census.avoid_primroot.dim
        fbar = census.inside_nonresidue.dim
        big_fbar = census.inside_primroot.dim
        qbar = _max_cube_inside(p, {x * x % p for x in range(1, p)})
        print(f"p={p}: f={f} F={big_f} f_bar={fbar} F_bar={big_fbar} "
              f"residue cube={qbar} witness_f={census.avoid_nonresidue.witness}")
        if not (big_fbar <= fbar <= f <= big_f):
            weak_chain_bad.append(p)
        if fbar != qbar:
            residue_bad.append(p)
        if fbar < f:
            strict.append(p)
        if not f < 12 * p**0.25:
            hs_bad.append(p)
    f5 = max_avoiding_dimension(PrimeContext.for_prime(5), NONRESIDUE)
    f5_ok = f5.dim == 2 and f5.witness.base == 0 and f5.witness.gens == (1, 4)
    ok = _report(
        8, not weak_chain_bad and not residue_bad and not hs_bad and f5_ok,
        f"weak chain violations: {weak_chain_bad or 'none'}; "
        f"f_bar = residue-cube dimension violated at {residue_bad or 'none'}; "
        f"f_bar < f at {strict or 'none'}; "
        f"f(5)={f5.dim} witness {f5.witness}; "
        f"12p^(1/4) violations: {hs_bad or 'none'}; {time.time() - start:.1f}s")
    assert strict == [3, 5, 7, 13, 23, 29]
    assert ok


def test_criterion_9_property_suite(scan_10k, scan_10k_domain0):
    """Chain w <= W <= radius, weight-1 equivalence, and byte determinism.
    W <= radius is a theorem only when 0 is in the scan domain, since the
    distance from 0 to the primitive roots is exactly W; it is checked on the
    `domain0` radii. Under the canonical [1, p] domain it fails for 53 primes
    <= 10^4 (first: p=23 with W=2, radius=1). These are itemized: at each,
    every n in [1, p-1] lies within W - 1 flips of a primitive root, so the
    `domain0` radius is W and its only witness class is 0."""
    w_le_W_bad = []
    weight1_bad = []
    for prof in scan_10k:
        if prof.p == 2:
            continue
        if prof.w > prof.W:
            w_le_W_bad.append(prof.p)
        if (prof.w == 1) != (legendre_symbol(2, prof.p) == -1):
            weight1_bad.append(prof.p)
    W_le_radius_bad = [prof.p for prof in scan_10k_domain0
                       if prof.delta is not None and prof.W > prof.delta]
    domain0 = {prof.p: prof for prof in scan_10k_domain0}
    canonical_bad = [prof for prof in scan_10k
                     if prof.delta is not None and prof.W > prof.delta]
    zero_bad = []
    for prof in canonical_bad:
        d0 = domain0[prof.p]
        if d0.delta != prof.W or d0.witnesses != (0,):
            zero_bad.append(prof.p)
        print(f"  p={prof.p}: W={prof.W} > canonical radius={prof.delta}; "
              f"domain0 radius={d0.delta} (classes {d0.witnesses})")
    cfg1 = ScanConfig(lo=2, hi=3000, tasks=1, block_size=128)
    cfg8 = ScanConfig(lo=2, hi=3000, tasks=8, block_size=128)
    deterministic = (format_scan_output(cfg1, scan_range(cfg1))
                     == format_scan_output(cfg8, scan_range(cfg8)))
    ok = _report(
        9, (not w_le_W_bad and not W_le_radius_bad and not weight1_bad
            and not zero_bad and deterministic),
        f"w<=W violations: {w_le_W_bad or 'none'}; W<=domain0 radius violations: "
        f"{W_le_radius_bad or 'none'}; canonical W>radius primes: "
        f"{len(canonical_bad)} (domain0 radius != W or classes != (0,) at "
        f"{zero_bad or 'none'}); "
        f"w=1 iff (2|p)=-1 violations: {weight1_bad or 'none'}; "
        f"deterministic across 1 vs 8 workers: {deterministic}")
    first = canonical_bad[0]
    assert len(canonical_bad) == 53 and (first.p, first.W, first.delta) == (23, 2, 1)
    assert ok
