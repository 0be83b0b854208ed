from itertools import combinations

import pytest

from hamroots import cubes
from hamroots.cubes import (EXHAUSTIVE_P_CAP, HilbertCube, NONRESIDUE, PRIMROOT,
                            _allowed_mask, _max_cube_heuristic,
                            cube_avoids, cube_census, cube_contained,
                            cube_elements, longest_ap_in_cube,
                            max_avoiding_dimension, max_contained_dimension,
                            small_elements_cube)
from hamroots.errors import CapabilityError
from hamroots.numtheory import PrimeContext, legendre_symbol, set_bits, sieve_primes


def ctx_for(p):
    return PrimeContext.for_prime(p)


def brute_max_cube(p, allowed, max_dim=6):
    """Independent oracle: try every base and generator subset outright."""
    best = (0, None)
    for d in range(max_dim, -1, -1):
        for a0 in sorted(allowed):
            for gens in combinations(range(1, p), d):
                elems = {a0}
                for g in gens:
                    elems |= {(x + g) % p for x in elems}
                if elems <= allowed:
                    return d, (a0, gens)
    return best


def allowed_sets(p):
    ctx = ctx_for(p)
    nonres = {a for a in range(1, p) if legendre_symbol(a, p) == -1}
    roots = set(set_bits(ctx.pr_bitmap()))
    return {
        "f": set(range(p)) - nonres,
        "F": set(range(p)) - roots,
        "fbar": nonres,
        "Fbar": roots,
    }


def test_cube_validation():
    with pytest.raises(ValueError):
        HilbertCube(0, (1, 1))
    with pytest.raises(ValueError):
        HilbertCube(0, (0, 2))
    assert HilbertCube(3, ()).dim == 0


def test_cube_elements_examples():
    assert cube_elements(HilbertCube(0, (1, 2)), 5) == {0, 1, 2, 3}
    assert cube_elements(HilbertCube(0, (1, 4)), 5) == {0, 1, 4}
    assert cube_elements(HilbertCube(9, ()), 11) == {9}


def test_cube_elements_cap():
    big = HilbertCube(0, tuple(range(1, 33)))
    with pytest.raises(CapabilityError):
        cube_elements(big, 10**9 + 7)


def test_cube_avoids_examples():
    c5 = ctx_for(5)
    assert cube_avoids(HilbertCube(0, (1, 4)), c5, NONRESIDUE)
    assert not cube_avoids(HilbertCube(0, (2,)), c5, NONRESIDUE)
    # a zero-dimensional cube sitting on a primitive root does not avoid them
    c7 = ctx_for(7)
    assert not cube_avoids(HilbertCube(3, ()), c7, PRIMROOT)
    assert cube_contained(HilbertCube(3, ()), c7, PRIMROOT)
    with pytest.raises(ValueError):
        cube_avoids(HilbertCube(0, (1,)), c5, "squares")


def test_exhaustive_matches_brute_oracle():
    for p in (3, 5, 7, 11, 13):
        ctx = ctx_for(p)
        sets = allowed_sets(p)
        assert max_avoiding_dimension(ctx, NONRESIDUE).dim == brute_max_cube(p, sets["f"])[0]
        assert max_avoiding_dimension(ctx, PRIMROOT).dim == brute_max_cube(p, sets["F"])[0]
        assert max_contained_dimension(ctx, NONRESIDUE).dim == brute_max_cube(p, sets["fbar"])[0]
        assert max_contained_dimension(ctx, PRIMROOT).dim == brute_max_cube(p, sets["Fbar"])[0]


def test_avoiding_dimension_f5():
    res = max_avoiding_dimension(ctx_for(5), NONRESIDUE)
    assert res.dim == 2 and res.exact
    assert res.witness == HilbertCube(0, (1, 4))


def test_census_frozen_values():
    # (f, F, f_bar, F_bar) by exhaustive search; the containment side can
    # genuinely fall below f when every maximal avoiding cube passes
    # through 0, which the multiplication map cannot absorb.
    expected = {
        3: (1, 1, 0, 0), 5: (2, 2, 1, 1), 7: (2, 3, 1, 1), 11: (2, 3, 2, 2),
        13: (3, 4, 2, 2), 17: (3, 3, 3, 3), 19: (2, 4, 2, 2), 23: (3, 4, 2, 2),
        29: (4, 5, 3, 3), 31: (3, 6, 3, 2), 37: (4, 6, 4, 3),
    }
    equality_failures = []
    for p, dims in expected.items():
        census = cube_census(ctx_for(p))
        got = (census.avoid_nonresidue.dim, census.avoid_primroot.dim,
               census.inside_nonresidue.dim, census.inside_primroot.dim)
        assert got == dims, p
        f, big_f, fbar, big_fbar = got
        assert big_fbar <= fbar <= f <= big_f
        if fbar != f:
            equality_failures.append(p)
    assert equality_failures == [3, 5, 7, 13, 23, 29]


def test_census_witnesses_round_trip():
    for p in (5, 11, 17, 19):
        ctx = ctx_for(p)
        census = cube_census(ctx)
        assert cube_avoids(census.avoid_nonresidue.witness, ctx, NONRESIDUE)
        assert cube_avoids(census.avoid_primroot.witness, ctx, PRIMROOT)
        assert cube_contained(census.inside_nonresidue.witness, ctx, NONRESIDUE)
        assert cube_contained(census.inside_primroot.witness, ctx, PRIMROOT)


def test_hs_bound_for_solved_primes():
    for p in sieve_primes(40):
        if p == 2:
            continue
        f = max_avoiding_dimension(ctx_for(p), NONRESIDUE).dim
        assert f < 12 * p**0.25


def test_heuristic_is_valid_lower_bound():
    # below the cap the heuristic runs only here, against the exact search
    for p in (11, 19, 23, 31):
        ctx = ctx_for(p)
        exact = max_avoiding_dimension(ctx, NONRESIDUE)
        heur = _max_cube_heuristic(p, _allowed_mask(ctx, NONRESIDUE, False))
        assert exact.exact and not heur.exact
        assert heur.dim <= exact.dim
        assert cube_avoids(heur.witness, ctx, NONRESIDUE)
    # above it, max_avoiding_dimension is the heuristic, with its fixed seed
    for p in (61, 67):
        ctx = ctx_for(p)
        for predicate in (NONRESIDUE, PRIMROOT):
            heur = max_avoiding_dimension(ctx, predicate)
            assert not heur.exact and heur.dim >= 1
            assert cube_avoids(heur.witness, ctx, predicate)
            assert heur == max_avoiding_dimension(ctx, predicate)


def test_exhaustive_cap(monkeypatch):
    assert max_avoiding_dimension(ctx_for(EXHAUSTIVE_P_CAP - 1), NONRESIDUE).exact  # 59
    with pytest.raises(CapabilityError):
        max_contained_dimension(ctx_for(61), NONRESIDUE)
    searched = []
    monkeypatch.setattr(cubes, "_allowed_mask", lambda *args: searched.append(args))
    for p in (2, 61):  # the census refuses before any search
        with pytest.raises(CapabilityError, match="cube census needs an odd prime p <= 60"):
            cube_census(ctx_for(p))
    assert searched == []


def test_longest_ap_examples():
    c101 = ctx_for(101)
    assert longest_ap_in_cube(HilbertCube(0, (1, 2, 3)), c101) == (7, 1, 100)
    assert longest_ap_in_cube(HilbertCube(9, ()), ctx_for(11))[0] == 1
    c5 = ctx_for(5)
    assert longest_ap_in_cube(HilbertCube(0, (1, 4)), c5) == (3, 1, 3)


def test_ap_run_membership():
    ctx = ctx_for(43)
    cube = HilbertCube(5, (2, 9, 11))
    elems = cube_elements(cube, 43)
    length, a, b = longest_ap_in_cube(cube, ctx)
    assert all((a * n + b) % 43 in elems for n in range(1, length + 1))
    assert (a * (length + 1) + b) % 43 not in elems


def test_small_elements_cube():
    assert cube_elements(small_elements_cube(3), 101) == set(range(7))
    assert cube_elements(small_elements_cube(1), 101) == {0, 1}
    cube = small_elements_cube(4)
    assert max(cube_elements(cube, 10**6)) == 10    # d(d+1)/2 < d^2 = 16
    with pytest.raises(ValueError):
        small_elements_cube(0)


def test_small_cube_ap_covers_initial_interval():
    # subset sums of 1..d cover [0, d(d+1)/2] completely
    for d in range(1, 7):
        top = d * (d + 1) // 2
        length, _, _ = longest_ap_in_cube(small_elements_cube(d), ctx_for(101))
        assert length >= top + 1
