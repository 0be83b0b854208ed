"""Hamming-distance statistics of primitive roots and quadratic residues mod p.

Each public name is imported from its submodule on first use (PEP 562), so a
process loads only the engines it runs: a census loads the scan, Hamming and
number-theory modules, and not the character sums, constants or cube search.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_OF = {name: module for module, names in {
    "characters": ("Character", "all_characters", "build_characters"),
    "charsums": ("BoundReport", "count_primroots_via_characters", "hoelder_bound_report",
                 "interval_char_sum", "legendre_character", "legendre_partial_sum_report",
                 "poly_char_sum", "primroot_indicator", "pv_burgess_bound_report",
                 "split_char_sum"),
    "constants": ("BoundProfile", "artin_constant", "bound_profile", "entropy",
                  "entropy_half_point", "sparse_weight_constant"),
    "cubes": ("CubeCensus", "CubeSearchResult", "HilbertCube", "NONRESIDUE", "PRIMROOT",
              "cube_avoids", "cube_census", "cube_contained", "cube_elements",
              "longest_ap_in_cube", "max_avoiding_dimension", "max_contained_dimension",
              "small_elements_cube"),
    "cyclotomic": ("RootOfUnitySum", "cyclotomic_poly"),
    "errors": ("CapabilityError", "InvariantViolation"),
    "hamming": ("CANONICAL", "DOMAIN0", "REDUCED", "RadiusVariant", "HammingProfile", "VARIANTS",
                "covering_radius", "covering_radius_bfs", "hamming_distance", "hamming_weight",
                "high_bit_flip_set", "low_bit_flip_set", "min_flips_to_primroot",
                "min_nonresidue_weight", "min_primroot_weight", "recombined_set"),
    "numtheory": ("PrimeContext", "factorize", "is_prime", "is_primitive_root",
                  "least_primitive_root", "legendre_symbol", "multiplicative_order",
                  "sieve_primes"),
    "scan": ("CountTable", "ScanConfig", "format_scan_output", "read_scan_output",
             "scan_range"),
}.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
