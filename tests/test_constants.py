import math

import pytest

from hamroots.constants import (artin_constant, bound_profile, entropy,
                                entropy_half_point, sparse_weight_constant)


def test_entropy_basics():
    assert entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    for g in (0.1, 0.25, 0.4):
        assert entropy(g) == pytest.approx(entropy(1 - g), abs=1e-12)
    assert entropy(0.11002786) == pytest.approx(0.5, abs=1e-6)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            entropy(bad)


def test_entropy_strictly_increasing_on_left_half():
    grid = [i / 20000 for i in range(1, 10001)]
    values = [entropy(g) for g in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_half_point_digits():
    root = entropy_half_point()
    assert 0.110027 < root < 0.110028
    assert abs(root - 0.11002786) < 1e-8
    assert entropy(root) == pytest.approx(0.5, abs=1e-10)


def test_half_point_stability_and_contract():
    root = entropy_half_point()
    assert abs(entropy(root) - 0.5) < 1e-12  # bisected to 1e-13; slope ~3 near the root
    # H crosses 1/2 inside one bisection interval around the root
    assert entropy(root - 1e-13) < 0.5 < entropy(root + 1e-13)
    assert entropy_half_point() is root  # computed once, then cached


def test_sparse_weight_constant():
    theta = sparse_weight_constant()
    assert abs(theta - 0.07581633) < 1e-8
    assert 8 * math.sqrt(math.e) * theta == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(0.5 / (4 * math.sqrt(math.e)), abs=1e-15)


def test_artin_partial_products():
    assert artin_constant(2) == pytest.approx(0.5, abs=1e-15)
    limits = [10, 100, 1000, 10**4]
    values = [artin_constant(x) for x in limits]
    assert all(a > b for a, b in zip(values, values[1:]))  # factors < 1
    # the tail between 1e4 and 1e6 moves the product by roughly
    # A * sum 1/(p(p-1)) ~ 4e-6; record the measured gap
    gap = artin_constant(10**4) - artin_constant(10**6)
    assert 0 < gap < 1e-4
    with pytest.raises(ValueError):
        artin_constant(1)


def test_artin_million_digits():
    assert abs(artin_constant(10**6) - 0.3739558) < 1e-7


def test_bound_profile():
    prof = bound_profile(2 ** 21 + 9)  # 22 binary digits
    assert prof.digits == 22
    assert prof.entropy_bound == pytest.approx(0.11002786 * 22, abs=1e-4)
    assert prof.burgess_bound == pytest.approx(5.5)
    assert prof.cube_bound == pytest.approx(4.4)
    assert prof.quarter_sqrt_e_bound == pytest.approx(22 / (4 * math.sqrt(math.e)))
    assert bound_profile(17).digits == 5
    with pytest.raises(ValueError):
        bound_profile(2)


def test_bound_profile_ordering():
    for p in (17, 1009, 2**30 + 3):
        prof = bound_profile(p)
        assert prof.entropy_bound < prof.cube_bound < prof.burgess_bound
        assert prof.eighth_sqrt_e_bound < prof.quarter_sqrt_e_bound
