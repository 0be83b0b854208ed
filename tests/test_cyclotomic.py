from fractions import Fraction

from hamroots.cyclotomic import (RootOfUnitySum, cyclotomic_poly,
                                 exact_root_sum_value, reduce_mod_cyclotomic)


def test_known_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_x_pow_m_minus_one():
    for m in range(1, 31):
        prod = [1]
        for d in [d for d in range(1, m + 1) if m % d == 0]:
            phi = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for k, b in enumerate(phi):
                    out[i + k] += a * b
            prod = out
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_rational_detection():
    # 1 + zeta_3 + zeta_3^2 = 0
    assert exact_root_sum_value([1, 1, 1], 3) == 0
    # zeta_4 + zeta_4^3 = i - i = 0
    assert exact_root_sum_value([0, 1, 0, 1], 4) == 0
    # zeta_5 alone is irrational
    assert exact_root_sum_value([0, 1, 0, 0, 0], 5) is None
    # zeta_6 + zeta_6^5 = 2 cos(pi/3) = 1
    assert exact_root_sum_value([0, 1, 0, 0, 0, 1], 6) == 1
    # constant term only
    assert exact_root_sum_value([7, 0, 0, 0], 4) == 7
    # uniform on the subgroup {0, 2} of Z_4: zeta^0 + zeta^2 = 0
    assert exact_root_sum_value([3, 0, 3, 0], 4) == 0
    assert exact_root_sum_value([0] * 8, 8) == 0


def test_root_sum_edge_values():
    # m = 1: the only root of unity is 1, so the sum is the single count.
    assert [exact_root_sum_value([c], 1) for c in (-2, 0, 5)] == [-2, 0, 5]
    for m in (1, 2, 3, 6, 12):
        assert exact_root_sum_value([0] * m, m) == 0


def test_reduce_matches_float():
    import math
    for m in (5, 8, 12, 16):
        counts = [((e * 7) % 5) - 2 for e in range(m)]
        rem = reduce_mod_cyclotomic(counts, m)
        direct = sum(c * complex(math.cos(2 * math.pi * e / m),
                                 math.sin(2 * math.pi * e / m))
                     for e, c in enumerate(counts))
        via_rem = sum(c * complex(math.cos(2 * math.pi * e / m),
                                  math.sin(2 * math.pi * e / m))
                      for e, c in enumerate(rem))
        assert abs(direct - via_rem) < 1e-9


def test_root_sum_accumulation():
    acc = RootOfUnitySum(6)
    for e in (0, 1, 5, None, 3):
        acc.add(e)
    assert acc.zero_terms == 1
    assert acc.n_terms == 5
    # 1 + zeta + zeta^5 + zeta^3 = 1 + 1 - 1 = 1
    assert acc.as_rational() == Fraction(1)
    assert abs(acc.value() - 1) < 1e-12
    assert acc.magnitude() <= acc.n_terms


def test_float_value_matches_high_precision():
    mpmath = __import__("mpmath")
    mpmath.mp.dps = 40
    for m in (7, 24, 97):
        counts = [((3 * e * e + e) % 11) - 5 for e in range(m)]
        acc = RootOfUnitySum(m, counts=list(counts))
        hp = mpmath.mpc(0)
        for e, c in enumerate(counts):
            hp += c * mpmath.exp(2j * mpmath.pi * e / m)
        assert abs(acc.value() - complex(hp)) < 2**-40
