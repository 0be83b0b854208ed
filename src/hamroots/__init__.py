"""Hamming-distance statistics of primitive roots and quadratic residues mod p."""

from .characters import Character, all_characters, build_characters
from .charsums import (BoundReport, count_primroots_via_characters,
                       hoelder_bound_report, interval_char_sum,
                       legendre_character, legendre_partial_sum_report,
                       poly_char_sum, primroot_indicator,
                       pv_burgess_bound_report, split_char_sum)
from .constants import (BoundProfile, artin_constant, bound_profile, entropy,
                        entropy_half_point, sparse_weight_constant)
from .cubes import (CubeCensus, CubeSearchResult, HilbertCube, NONRESIDUE,
                    PRIMROOT, cube_avoids, cube_census, cube_contained,
                    cube_elements, longest_ap_in_cube, max_avoiding_dimension,
                    max_contained_dimension, small_elements_cube)
from .cyclotomic import RootOfUnitySum, cyclotomic_poly
from .errors import CapabilityError, InvariantViolation
from .hamming import (BitExpansion, CANONICAL, DOMAIN0, REDUCED, RadiusVariant,
                      HammingProfile, VARIANTS, covering_radius,
                      covering_radius_bfs, hamming_distance, hamming_weight,
                      high_bit_flip_set, low_bit_flip_set, min_flips_to_primroot,
                      min_nonresidue_weight, min_primroot_weight, recombined_set)
from .numtheory import (PrimeContext, factorize, is_prime, is_primitive_root,
                        least_primitive_root, legendre_symbol, multiplicative_order,
                        sieve_primes)
from .scan import CountTable, ScanConfig, format_scan_output, read_scan_output, scan_range

__version__ = "0.1.0"
