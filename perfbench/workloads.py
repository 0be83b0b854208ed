"""The benchmark's census workloads, their stored reference rows and the row check.

This module imports nothing from hamroots, so the parent process of the
benchmark can load it without the package under test.  A row is the tuple
(p, r, w, W, delta, witness count); comparing rows instead of output bytes
keeps the check valid when the output format changes but the statistics
stay the same.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Scan:
    """One scan_range configuration; `key` names its rows in reference.json."""

    key: str
    lo: int
    hi: int
    compute: tuple[str, ...]
    tasks: int


@dataclass(frozen=True)
class Workload:
    """A named workload: the scans it covers and whether its timed part
    writes them (scan side) or resumes and reads them back (read side)."""

    name: str
    scans: tuple[Scan, ...]
    read_side: bool
    why: str


CENSUS_FULL = Scan("census_full", 2, 20_000, ("w", "W", "delta"), 1)
WW_1E6 = Scan("ww_1e6", 2, 1_000_000, ("w", "W"), 2)
# Four primes of bit length 20, the regime of the 3e6 radius census.  The
# window is fixed: about 9% of the primes near 1e6 have radius 1 and about
# 5e5 witness classes each, so a window that moved with the seed would swing
# wall time by several times and output bytes by orders of magnitude between
# seeds.  Witness extraction on radius-1 primes is exercised by census_full.
DELTA_LARGE = Scan("delta_large", 1_000_000, 1_000_040, ("delta",), 1)
SMOKE = Scan("smoke", 2, 300, ("w", "W", "delta"), 1)

WORKLOADS = {w.name: w for w in (
    Workload("census_full", (CENSUS_FULL,), False,
             "full w,W,delta scan of [2, 20000] in one serial block: every census "
             "layer on many small primes, witness-heavy output"),
    Workload("ww_1e6", (WW_1E6,), False,
             "w,W scan of [2, 1e6] with two workers: the process pool, 20 blocks "
             "and the journal; never touches the bitmap or dilation"),
    Workload("delta_large", (DELTA_LARGE,), False,
             "delta scan of four bit-length-20 primes near 1e6: bitmap, dilation "
             "masks and dilation at the size of the 3e6 census"),
    Workload("table_read", (CENSUS_FULL, WW_1E6), True,
             "resume both census_full and ww_1e6 from complete journals, re-format, "
             "read the files back and build count tables: the read side of scan"),
    Workload("smoke", (SMOKE,), False,
             "tiny census for test_smoke.py; not one of the benchmark's workloads"),
)}

# Primes of census_full whose radius is cross-checked against the BFS engine.
CROSSCHECK_STRIDE = 250

COUNT_THRESHOLDS = (10**3, 10**4, 10**5, 10**6)


def row_of(prof) -> tuple:
    """The statistics of one HammingProfile as a comparable tuple."""
    # A later schema may carry the count without listing every witness.
    count = getattr(prof, "witness_count", None)
    if count is None:
        count = len(prof.witnesses)
    return (prof.p, prof.r, prof.w, prof.W, prof.delta, count)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by the benchmark's own sieve, independent of hamroots."""
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 2), hi + 1) if flags[p]]


def _encode(values) -> str:
    """One character per prime: '-' for None, else the value as a digit."""
    out = []
    for v in values:
        if v is not None and not 0 <= v <= 9:
            raise ValueError(f"statistic {v} does not fit one digit")
        out.append("-" if v is None else str(v))
    return "".join(out)


def _decode(text: str) -> list:
    return [None if ch == "-" else int(ch) for ch in text]


def encode_reference(scan: Scan, rows: list[tuple]) -> dict:
    """The stored form of a scan's reference rows (see reference.json)."""
    if [row[0] for row in rows] != primes_in(scan.lo, scan.hi):
        raise ValueError(f"{scan.key}: rows do not cover the primes of [{scan.lo}, {scan.hi}]")
    ref = {"lo": scan.lo, "hi": scan.hi, "compute": list(scan.compute),
           "w": _encode(row[2] for row in rows),
           "W": _encode(row[3] for row in rows),
           "delta": _encode(row[4] for row in rows)}
    if "delta" in scan.compute:
        ref["witness_count"] = [row[5] for row in rows]
    elif any(row[5] for row in rows):
        raise ValueError(f"{scan.key}: witnesses without delta")
    return ref


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_rows(scan: Scan, reference: dict) -> list[tuple]:
    ref = reference["scans"][scan.key]
    if (ref["lo"], ref["hi"], tuple(ref["compute"])) != (scan.lo, scan.hi, scan.compute):
        raise ValueError(f"reference for {scan.key} was made for another configuration")
    primes = primes_in(scan.lo, scan.hi)
    counts = ref.get("witness_count", [0] * len(primes))
    return [(p, (p - 1).bit_length() - 1, w, big_w, delta, count)
            for p, w, big_w, delta, count in zip(
                primes, _decode(ref["w"]), _decode(ref["W"]),
                _decode(ref["delta"]), counts, strict=True)]


def count_failed(rows: list[tuple], expected: list[tuple]) -> int:
    """Expected primes whose row is missing, out of place or different."""
    failed = sum(got != want for got, want in zip(rows, expected))
    failed += abs(len(rows) - len(expected))
    return min(failed, len(expected))


def expected_count_rows(expected: list[tuple], thresholds) -> dict:
    """CountTable rows computed from reference rows, for checking CountTable."""
    table = {}
    for t in thresholds:
        row = {"pi": 0, "w": [0, 0, 0, 0], "W": [0, 0, 0, 0], "delta": [0, 0, 0, 0]}
        for p, _, w, big_w, delta, _ in expected:
            if p > t:
                break
            row["pi"] += 1
            for key, val in (("w", w), ("W", big_w), ("delta", delta)):
                if val is not None:
                    row[key][min(val, 4) - 1] += 1
        table[t] = row
    return table
