"""The package's import surface: each public name loads its submodule on
first use, and a census loads none of the other engines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamroots

# Each public name and the submodule that defines it.
PUBLIC = {
    "characters": ["Character", "all_characters", "build_characters"],
    "charsums": ["BoundReport", "count_primroots_via_characters", "hoelder_bound_report",
                 "interval_char_sum", "legendre_character", "legendre_partial_sum_report",
                 "poly_char_sum", "primroot_indicator", "pv_burgess_bound_report",
                 "split_char_sum"],
    "constants": ["BoundProfile", "artin_constant", "bound_profile", "entropy",
                  "entropy_half_point", "sparse_weight_constant"],
    "cubes": ["CubeCensus", "CubeSearchResult", "HilbertCube", "NONRESIDUE", "PRIMROOT",
              "cube_avoids", "cube_census", "cube_contained", "cube_elements",
              "longest_ap_in_cube", "max_avoiding_dimension", "max_contained_dimension",
              "small_elements_cube"],
    "cyclotomic": ["RootOfUnitySum", "cyclotomic_poly"],
    "errors": ["CapabilityError", "InvariantViolation"],
    "hamming": ["CANONICAL", "DOMAIN0", "REDUCED", "RadiusVariant", "HammingProfile", "VARIANTS",
                "covering_radius", "covering_radius_bfs", "hamming_distance", "hamming_weight",
                "high_bit_flip_set", "low_bit_flip_set", "min_flips_to_primroot",
                "min_nonresidue_weight", "min_primroot_weight", "recombined_set"],
    "numtheory": ["PrimeContext", "factorize", "is_prime", "is_primitive_root",
                  "least_primitive_root", "legendre_symbol", "multiplicative_order",
                  "sieve_primes"],
    "scan": ["CountTable", "ScanConfig", "format_scan_output", "read_scan_output",
             "scan_range"],
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names}
# What a census never runs: the other engines, the exact-arithmetic modules,
# and `dataclasses` with the `inspect` it imports (its records are written out).
NOT_FOR_A_CENSUS = ["hamroots.cubes", "hamroots.charsums", "hamroots.characters",
                    "hamroots.constants", "hamroots.cyclotomic", "fractions", "decimal",
                    "dataclasses", "inspect"]


def test_the_public_names_are_pinned():
    assert len(NAMES) == 65
    assert sorted(hamroots.__all__) == sorted(NAMES)


def test_each_name_is_its_submodules_object():
    elsewhere = [name for name, module in NAMES.items()
                 if getattr(hamroots, name)
                 is not getattr(importlib.import_module(f"hamroots.{module}"), name)]
    assert elsewhere == []


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from hamroots import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES)
    importlib.import_module("hamroots.scan")
    # dir also lists the module's other attributes, an imported submodule among them.
    assert set(NAMES) | {"__version__", "scan"} <= set(dir(hamroots))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hamroots.no_such_name


@pytest.mark.parametrize("census", [
    "import hamroots\nhamroots.scan_range(hamroots.ScanConfig(lo=2, hi=2000))",
    "import hamroots.cli\nhamroots.cli.main(['scan', '--range', '2', '100'])",
], ids=["library", "cli"])
def test_a_census_loads_no_other_engine(census):
    """Run in a fresh interpreter, since this one has imported every module."""
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    check = f"{census}\nimport sys\nprint([m for m in {NOT_FOR_A_CENSUS!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"
