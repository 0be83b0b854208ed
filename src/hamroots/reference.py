"""Published reference data that the census commands diff against.

The census table counts primes up to 10^j by their sparsest-non-residue
weight (w), sparsest-primitive-root weight (W) and covering radius (delta).
Reference delta columns follow the residue-class convention where n runs
over [0, p-1] (our "domain0" variant) and p = 2 is counted with delta = 1,
so the canonical-variant scan is expected to differ there; w/W columns are
convention-free and must match exactly.
"""

# threshold exponent j -> {"pi": pi(10^j), "w": (w=1, w=2, w=3), ...}
COUNT_TABLE = {
    3: {"pi": 168, "w": (87, 80, 0), "W": (68, 100, 0), "delta": (12, 153, 3)},
    4: {"pi": 1229, "w": (625, 603, 0), "W": (471, 756, 2), "delta": (75, 1147, 7)},
    5: {"pi": 9592, "w": (4808, 4783, 0), "W": (3604, 5985, 3), "delta": (508, 9075, 9)},
    6: {"pi": 78498, "w": (39276, 39221, 0), "W": (29342, 49145, 11), "delta": (3915, 74565, 18)},
}

# The 24 primes reported with covering radius 3 below 3e6 (a domain0 list:
# canonically, 1753 and 2089 have radius 2), with the residue classes listed
# at distance exactly 3. Each class list is 0 followed by the core witnesses
# of the literal-target dilation (the n in [1, p-1] at distance 3) when the
# core radius is 3, and by nothing else: 0 is listed for every prime, also
# for the 8 core-3 primes, where 0 and p are at distance 2 or less. The one
# exception is 67, whose core witness is 65 but whose list also holds 1, at
# distance 3 under no convention checked (literal or reduced targets, n over
# [0, p], [0, 2^(r+1)) or parts of them). Acceptance criterion 3 checks
# membership only; a separate test checks this rule.
RADIUS3_CLASSES = {
    17: (0, 16),
    67: (0, 1, 65),
    257: (0, 256),
    1753: (0,),
    2089: (0,),
    8209: (0, 8196),
    8233: (0, 8226),
    65537: (0, 65536),
    77351: (0,),
    111439: (0,),
    114001: (0,),
    164449: (0,),
    239713: (0,),
    262153: (0, 262144),
    514711: (0,),
    924841: (0,),
    929671: (0,),
    947911: (0,),
    1316041: (0,),
    1894369: (0,),
    2097169: (0, 2097152),
    2236879: (0,),
    2493721: (0,),
    2743711: (0,),
}

RADIUS3_SEARCH_LIMIT = 3_000_000

# Frequencies quoted at the 10^6 threshold: #{w=1}/pi and #{W=1}/pi.
FREQ_10_6 = {"w1": 39276, "W1": 29342, "pi": 78498}
FREQ_W1_DIGITS = "0.500344"
FREQ_BIGW1_DIGITS = "0.373792"

# Leading digits of the named constants, for display next to computed values.
ENTROPY_HALF_POINT_DIGITS = "0.11002786"
SPARSE_WEIGHT_DIGITS = "0.07581633"
ARTIN_DIGITS = "0.3739558"
