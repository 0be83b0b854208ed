"""Bulk prime-range scanning with deterministic output and resumable blocks.

Primes are sharded into fixed-size blocks; workers compute per-prime
statistics independently and the parent takes the blocks back in order, so
the output bytes do not depend on the task count.

A scan has one row encoding, the `hamroots.scan.v4` CSV file: a line naming
the schema, the range, the radius targets (when delta is computed) and the
computed statistics, a line of column names, then one line per prime ending
in the crc32 of the line's text. A row holds the radii of one dilation, of
which each domain convention is a view, so the file does not depend on the
convention; core witnesses are listed only where a view reads them. The two
header lines are the scan's fingerprint. The checkpoint journal is that same
file, appended one block at a time (each fsynced), so a finished journal
equals the output byte for byte. Resume reads the journal with the
reader of output files: the header must be this scan's, every checksum must
hold and the rows must be the scan's primes in order. A line torn by a crash
and a partial last block are cut off, and the scan goes on from there.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import zlib
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import InvariantViolation
from .hamming import (CANONICAL, REDUCED, VARIANTS, HammingProfile, Radii, hamming_profile,
                      lists_core_witnesses, viewed_profile)
from .numtheory import PrimeContext, factorize_pm1, sieve_primes

SCHEMA_ID = "hamroots.scan.v4"
BLOCK_SIZE = 4096
STATS = ("w", "W", "delta")  # the statistics a scan can compute, in column order


@dataclass(frozen=True)
class ScanConfig:
    lo: int
    hi: int
    tasks: int = 1
    variant: str = CANONICAL.name
    compute: tuple[str, ...] = STATS
    checkpoint: str | None = None

    def __post_init__(self):
        if self.lo < 2 or self.hi < self.lo:
            raise ValueError(f"bad scan range [{self.lo}, {self.hi}]")
        if type(self.variant) is not str or self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if (type(self.compute) not in (list, tuple) or not self.compute
                or any(name not in STATS for name in self.compute)):
            raise ValueError("compute set must be a nonempty subset of w,W,delta, "
                             f"got {self.compute}")
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")


# A profile crosses from a worker to the parent as a tuple, which pickles
# faster; the parent applies the scan's view to its radii.
_profile_to_row = attrgetter("p", "r", "w", "W", "radii")


def _scan_block(args) -> list[tuple]:
    primes, variant_name, compute = args
    variant = VARIANTS[variant_name]
    compute_set = frozenset(compute)
    rows = []
    for p, factors in zip(primes, factorize_pm1(primes)):
        prof = hamming_profile(PrimeContext(p, factors), variant, compute_set)
        # One sweep finds both: w's witness is the first non-residue and W's
        # is a later or the same one, so w <= W holds by construction. The
        # check guards this seam; w and W are checked independently by tests
        # (a brute-force search and the reference counts at 10^5 and 10^6).
        if prof.w is not None and prof.W is not None and prof.w > prof.W:
            raise InvariantViolation(f"p={p} variant={variant_name}: w={prof.w} > W={prof.W}")
        # Under literal targets the distance from 0 to the primitive roots is
        # the least weight of one, so two independent engines must agree.
        if (not variant.reduced_targets and prof.W is not None and prof.radii is not None
                and prof.radii.dist_0 != prof.W):
            raise InvariantViolation(
                f"p={p} variant={variant_name}: the sparsest-root search gives W={prof.W}, "
                f"the dilation puts 0 at distance {prof.radii.dist_0}")
        rows.append(_profile_to_row(prof))
    return rows


# --- the v4 file: header, rows, reader ----------------------------------------

RADII = ("core", "dist_0", "dist_p", "witnesses")  # the columns of delta, in order


def _weights(config: ScanConfig) -> list[str]:
    """The weight statistics a scan computes, in column order."""
    return [name for name in ("w", "W") if name in config.compute]


def _header(config: ScanConfig) -> str:
    """The two header lines of a scan's file: the scan's fingerprint. Only
    the targets of the radius variant are in it, and only when delta is."""
    with_radii = "delta" in config.compute
    stats = [*_weights(config), *(["delta"] if with_radii else [])]
    columns = ["p", "r", *_weights(config), *(RADII if with_radii else ()), "checksum"]
    targets = f"targets={VARIANTS[config.variant].targets} " if with_radii else ""
    return (f"# {SCHEMA_ID} lo={config.lo} hi={config.hi} {targets}"
            f"compute={','.join(stats)}\n{','.join(columns)}\n")


def _checksum(text: str) -> str:
    return "%08x" % zlib.crc32(text.encode())


def _line_encoder(config: ScanConfig):
    """The function from a profile to its line, newline included."""
    cells_of = attrgetter("p", "r", *_weights(config))
    with_radii = "delta" in config.compute

    def encode(prof: HammingProfile) -> str:
        cells = ["" if v is None else str(v) for v in cells_of(prof)]
        if with_radii:
            radii = prof.radii
            cells += (["", "", "", ""] if radii is None else
                      [*map(str, radii[:3]), ";".join(map(str, radii.witnesses))])
        text = ",".join(cells)
        return f"{text},{_checksum(text)}\n"
    return encode


def _csv_int(cell: str) -> int:
    """The integer a CSV cell holds, which must be written as str() writes it."""
    value = int(cell)
    if str(value) != cell:
        raise ValueError(f"{cell!r} is not a canonical integer")
    return value


def _line_decoder(config: ScanConfig):
    """The function from a line (newline stripped) to its profile under the
    config's variant; it checks the cells and the witness rule, not the checksum."""
    weights = _weights(config)
    with_radii = "delta" in config.compute
    n_cells = 3 + len(weights) + 4 * with_radii  # p, r, w and W, the radii, checksum
    variant = VARIANTS[config.variant]

    def decode(line: str) -> HammingProfile:
        cells = line.split(",")
        if len(cells) != n_cells:
            raise ValueError(f"expected {n_cells} columns, got {len(cells)}")
        values = {name: _csv_int(cell) if cell else None
                  for name, cell in zip(weights, cells[2:])}
        radii = None
        if with_radii and cells[-5:-1] != ["", "", "", ""]:
            *dists, wits = cells[-5:-1]
            radii = Radii(*map(_csv_int, dists),
                          tuple(_csv_int(c) for c in wits.split(";")) if wits else ())
            if bool(wits) != lists_core_witnesses(*radii[:3], variant.reduced_targets):
                raise ValueError(f"witnesses {'listed where no' if wits else 'missing where a'} "
                                 f"view of {variant.targets} targets reads them")
        return viewed_profile(_csv_int(cells[0]), _csv_int(cells[1]), values.get("w"),
                              values.get("W"), radii, variant)
    return decode


def _config_of_header(line: str) -> ScanConfig:
    """The scan that a file's first line names, under the base view of its
    targets: canonical for literal targets, reduced for reduced ones."""
    if not line.startswith(f"# {SCHEMA_ID} "):
        raise ValueError(f"unknown scan schema header {line.rstrip()!r}")
    meta = dict(part.partition("=")[::2] for part in line.split()[2:])
    targets = meta.get("targets")
    config = ScanConfig(lo=_csv_int(meta.get("lo", "")), hi=_csv_int(meta.get("hi", "")),
                        variant=REDUCED.name if targets == "reduced" else CANONICAL.name,
                        compute=tuple(meta["compute"].split(",")) if "compute" in meta else None)
    if "delta" in config.compute and targets not in ("literal", "reduced"):
        raise ValueError(f"unknown radius targets {targets!r}")
    return config


def _read_rows(fh, path: str, config: ScanConfig, primes: list[int]):
    """Yield (profile, end) for each complete row of the scan file open in
    binary mode in fh, end being the offset just past the row's line.

    Raises ValueError, naming the path and the line, unless the header lines
    are config's, each row has canonical integer cells and its checksum, and
    the rows are the first of `primes` in order. A last line without a
    newline, torn by a crash mid-write, is not read."""
    header = _header(config).splitlines()
    decode = _line_decoder(config)
    end = 0
    for lineno, raw in enumerate(fh, 1):
        if not raw.endswith(b"\n"):
            return
        end += len(raw)
        try:
            line = raw[:-1].decode()
            if lineno <= len(header):
                if line != header[lineno - 1]:
                    raise ValueError(f"expected {header[lineno - 1]!r}, got {line!r}")
                continue
            prof = decode(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        text, _, checksum = line.rpartition(",")
        if checksum != _checksum(text):
            raise ValueError(f"{path}: checksum mismatch on line {lineno} (p={prof.p})")
        i = lineno - len(header) - 1
        if i >= len(primes) or prof.p != primes[i]:
            raise ValueError(f"{path}: line {lineno}: p={prof.p} is not the next prime "
                             f"of [{config.lo}, {config.hi}]")
        yield prof, end


def read_scan_output(path: str) -> tuple[ScanConfig, list[HammingProfile]]:
    """The scan a file describes and its profiles in the base view of its
    targets, read as `_read_rows` reads them; the rows must also cover every
    prime of the header's range."""
    with open(path, "rb") as fh:
        try:
            config = _config_of_header(fh.readline().decode())
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        fh.seek(0)
        primes = sieve_primes(config.hi, config.lo)
        profiles = [prof for prof, _ in _read_rows(fh, path, config, primes)]
    if len(profiles) < len(primes):  # the missing row's line follows the two header lines
        raise ValueError(f"{path}: line {len(profiles) + 3}: the file ends before "
                         f"the row of p={primes[len(profiles)]}")
    return config, profiles


def format_scan_output(config: ScanConfig, profiles: list[HammingProfile]) -> str:
    """The scan's file: its header, then one line per profile."""
    return _header(config) + "".join(map(_line_encoder(config), profiles))


# --- scanning -----------------------------------------------------------------


def _append(fh, text: str) -> None:
    fh.write(text)
    fh.flush()
    os.fsync(fh.fileno())


def _resume(path: str, config: ScanConfig, primes: list[int]) -> list[HammingProfile]:
    """The profiles of the whole blocks in a scan's checkpoint journal, which
    is cut to those blocks: a torn last line and a partial last block go, and
    so does the header of a journal without a whole block."""
    rows = []
    if os.path.exists(path):
        with open(path, "rb") as fh:
            rows = list(_read_rows(fh, path, config, primes))
    if len(rows) < len(primes):
        del rows[len(rows) - len(rows) % BLOCK_SIZE:]
    with open(path, "ab") as fh:
        fh.truncate(rows[-1][1] if rows else 0)
    return [prof for prof, _ in rows]


def worker_count(tasks: int, blocks_left: int, cpus: int | None) -> int:
    """Pool size for a scan: the requested tasks, bounded by the blocks left
    and the CPUs (an unknown CPU count counts as one)."""
    return min(tasks, blocks_left, cpus or 1)


def scan_range(config: ScanConfig) -> list[HammingProfile]:
    """All per-prime profiles for primes in [lo, hi], ascending, under the
    config's variant. A journal of the same range, targets and statistics
    serves every variant."""
    primes = sieve_primes(config.hi, config.lo)
    profiles = _resume(config.checkpoint, config, primes) if config.checkpoint else []
    encode = _line_encoder(config)
    variant = VARIANTS[config.variant]
    todo = [(primes[i:i + BLOCK_SIZE], config.variant, tuple(config.compute))
            for i in range(len(profiles), len(primes), BLOCK_SIZE)]
    workers = worker_count(config.tasks, len(todo), os.cpu_count())
    with (open(config.checkpoint, "a", encoding="utf-8", newline="\n")
          if config.checkpoint else contextlib.nullcontext()) as journal, \
         (multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext()) as pool:
        if journal and not profiles:
            _append(journal, _header(config))
        for rows in (pool.imap if workers > 1 else map)(_scan_block, todo):
            block = [viewed_profile(*row, variant) for row in rows]
            profiles += block
            if journal:
                _append(journal, "".join(map(encode, block)))
    return profiles


# --- census aggregation ------------------------------------------------------


@dataclass
class CountTable:
    """Counts of primes per statistic value at each 10^j threshold."""

    thresholds: list[int]
    rows: dict[int, dict] = field(default_factory=dict)

    @classmethod
    def from_profiles(cls, profiles: list[HammingProfile], thresholds: list[int]) -> "CountTable":
        table = cls(thresholds=sorted(thresholds))
        for t in table.thresholds:
            row = {"pi": 0, "w": [0, 0, 0, 0], "W": [0, 0, 0, 0], "delta": [0, 0, 0, 0]}
            table.rows[t] = row
        for prof in profiles:
            for t in table.thresholds:
                if prof.p > t:
                    continue
                row = table.rows[t]
                row["pi"] += 1
                for key, val in (("w", prof.w), ("W", prof.W), ("delta", prof.delta)):
                    if val is not None:
                        row[key][min(val, 4) - 1] += 1
        return table

    def sum_identity_ok(self, threshold: int, stat: str = "w") -> bool:
        """Odd primes partition by weight class: counts must sum to pi - 1."""
        row = self.rows[threshold]
        expected = row["pi"] - 1 if stat in ("w", "delta") else row["pi"]
        return sum(row[stat]) == expected
