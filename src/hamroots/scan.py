"""Bulk prime-range scanning with deterministic output and resumable blocks.

Primes are sharded into fixed-size blocks; workers compute per-prime
statistics independently and the parent reassembles blocks in order, so the
final bytes do not depend on the task count. Completed blocks can be
journaled to a checkpoint file (one JSON line per block, fsynced); resume
skips them and cuts off a last line torn by a crash. A fingerprint of the
scan parameters guards against resuming with a different configuration.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import InvariantViolation
from .hamming import (CANONICAL, VARIANTS, HammingProfile, hamming_profile)
from .numtheory import PrimeContext, factorize, sieve_primes

SCHEMA_ID = "hamroots.scan.v1"
BLOCK_SIZE = 4096
# The row schema, shared by the journal and both output formats, in
# HammingProfile's field order: p and r, the other statistics (None = not
# computed), then the witness list last.
FIELDS = ("p", "r", "w", "W", "delta", "witnesses")
COLUMNS = FIELDS + ("checksum",)
CSV_COLUMNS = ",".join(COLUMNS)


@dataclass(frozen=True)
class ScanConfig:
    lo: int
    hi: int
    tasks: int = 1
    variant: str = CANONICAL.name
    compute: tuple[str, ...] = ("w", "W", "delta")
    fmt: str = "csv"
    checkpoint: str | None = None
    block_size: int = BLOCK_SIZE

    def __post_init__(self):
        if self.lo < 2 or self.hi < self.lo:
            raise ValueError(f"bad scan range [{self.lo}, {self.hi}]")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        unknown = set(self.compute) - {"w", "W", "delta"}
        if unknown or not self.compute:
            raise ValueError(f"compute set must be a nonempty subset of w,W,delta, got {self.compute}")
        if self.fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")

    def fingerprint(self) -> str:
        payload = json.dumps({
            "schema": SCHEMA_ID, "lo": self.lo, "hi": self.hi,
            "variant": self.variant, "compute": sorted(self.compute),
            "block_size": self.block_size,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_profile_to_row = attrgetter(*FIELDS)  # the row of a profile, as a tuple


def _row_to_profile(row, variant: str) -> HammingProfile:
    *stats, wits = row
    return HammingProfile(*stats, witnesses=tuple(wits), variant=variant)


def _check_row(row) -> None:
    """Raise ValueError unless a decoded row has the FIELDS layout: integers
    p and r, an integer or None for each other statistic, and a list of
    integer witnesses."""
    if type(row) is not list or len(row) != len(FIELDS):
        raise ValueError(f"expected the {len(FIELDS)} fields {','.join(FIELDS)}")
    *stats, wits = row
    for name, v in zip(FIELDS, stats):
        if type(v) is not int and (v is not None or name in ("p", "r")):
            raise ValueError(f"{name} is {v!r}, not an integer")
    if type(wits) is not list or any(type(c) is not int for c in wits):
        raise ValueError("witnesses is not a list of integers")


def _scan_block(args) -> tuple[int, list[list]]:
    block_id, primes, variant_name, compute = args
    variant = VARIANTS[variant_name]
    compute_set = frozenset(compute)
    rows = []
    for p in primes:
        ctx = PrimeContext(p, factorize(p - 1))
        prof = hamming_profile(ctx, variant, compute_set)
        if prof.w is not None and prof.W is not None and prof.w > prof.W:
            raise InvariantViolation(f"p={p} variant={variant_name}: w={prof.w} > W={prof.W}")
        # W <= delta is a theorem only when 0 is in the scan domain (its
        # distance to the targets is then exactly W); under the [1, p] domain
        # it genuinely fails for some primes, e.g. p = 23 has W=2, delta=1.
        if (variant.n_domain_zero and prof.W is not None
                and prof.delta is not None and prof.W > prof.delta):
            raise InvariantViolation(f"p={p} variant={variant_name}: W={prof.W} > delta={prof.delta}")
        rows.append(_profile_to_row(prof))
    return block_id, rows


class _Checkpoint:
    """Append-only JSONL journal of finished blocks."""

    def __init__(self, path: str, fingerprint: str):
        self.done: dict[int, list] = {}
        if os.path.exists(path):
            end = 0  # bytes of complete lines
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        break  # torn by a crash mid-write; dropped below
                    try:
                        self._load(json.loads(line), fingerprint)
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {lineno}: {exc}") from None
                    end += len(line)
            os.truncate(path, end)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")
        if not self.done and os.path.getsize(path) == 0:
            self.write({"meta": fingerprint})

    def _load(self, rec, fingerprint: str) -> None:
        keys = rec.keys() if type(rec) is dict else None
        if keys == {"meta"}:
            if rec["meta"] != fingerprint:
                raise ValueError("checkpoint was written by a different scan configuration")
        elif (keys == {"block", "rows"} and type(rec["block"]) is int
              and type(rec["rows"]) is list):
            for row in rec["rows"]:
                _check_row(row)
            self.done[rec["block"]] = rec["rows"]
        else:
            raise ValueError("not a meta or block record")

    def write(self, obj) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def worker_count(tasks: int, blocks_left: int, cpus: int | None) -> int:
    """Pool size for a scan: the requested tasks, bounded by the blocks left
    and the CPUs (an unknown CPU count counts as one)."""
    return min(tasks, blocks_left, cpus or 1)


def scan_range(config: ScanConfig) -> list[HammingProfile]:
    """All per-prime profiles for primes in [lo, hi], ascending."""
    primes = sieve_primes(config.hi)
    primes = primes[bisect_left(primes, config.lo):]
    blocks = [primes[i:i + config.block_size]
              for i in range(0, len(primes), config.block_size)]
    checkpoint = (_Checkpoint(config.checkpoint, config.fingerprint())
                  if config.checkpoint else None)
    results: dict[int, list] = checkpoint.done if checkpoint else {}
    todo = [(i, blk, config.variant, tuple(config.compute))
            for i, blk in enumerate(blocks) if i not in results]
    workers = worker_count(config.tasks, len(todo), os.cpu_count())
    try:
        with (multiprocessing.Pool(workers) if workers > 1
              else contextlib.nullcontext()) as pool:
            run = pool.imap_unordered if workers > 1 else map
            for block_id, rows in run(_scan_block, todo):
                results[block_id] = rows
                if checkpoint:
                    checkpoint.write({"block": block_id, "rows": rows})
    finally:
        if checkpoint:
            checkpoint.close()
    profiles = []
    for i in range(len(blocks)):
        for row in results[i]:
            profiles.append(_row_to_profile(row, config.variant))
    return profiles


# --- output formatting -------------------------------------------------------


def _row_checksum(row) -> str:
    key = "|".join([*map(str, row[:-1]), ";".join(map(str, row[-1]))])
    return "%08x" % zlib.crc32(key.encode())


def _csv_encode(row) -> str:
    cells = ["" if v is None else str(v) for v in row[:-1]]
    cells += (";".join(map(str, row[-1])), _row_checksum(row))
    return ",".join(cells)


def _csv_int(cell: str) -> int:
    """The integer a CSV cell holds, which must be written as str() writes it."""
    value = int(cell)
    if str(value) != cell:
        raise ValueError(f"{cell!r} is not a canonical integer")
    return value


def _csv_decode(line: str) -> tuple[list, str]:
    """The row and stored checksum of one CSV line."""
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(COLUMNS):
        raise ValueError(f"expected {len(COLUMNS)} columns, got {len(cells)}")
    *stats, wits, checksum = cells
    row = [_csv_int(c) if c else None for c in stats]
    row.append([_csv_int(c) for c in wits.split(";")] if wits else [])
    return row, checksum


def _jsonl_encode(row) -> str:
    return json.dumps(dict(zip(COLUMNS, [*row, _row_checksum(row)])), separators=(",", ":"))


def _jsonl_decode(line: str) -> tuple[list, str]:
    """The row and stored checksum of one JSONL line."""
    rec = json.loads(line)
    if type(rec) is not dict or rec.keys() != set(COLUMNS):
        raise ValueError(f"expected the keys {','.join(COLUMNS)}")
    return [rec[name] for name in FIELDS], rec["checksum"]


def format_scan_output(config: ScanConfig, profiles: list[HammingProfile]) -> str:
    """Render profiles in the configured format; deterministic bytes."""
    if config.fmt == "csv":
        lines = [f"# {SCHEMA_ID} variant={config.variant} "
                 f"compute={','.join(config.compute)}", CSV_COLUMNS]
        encode = _csv_encode
    else:
        lines = [json.dumps({"schema": SCHEMA_ID, "variant": config.variant,
                             "compute": list(config.compute)}, separators=(",", ":"))]
        encode = _jsonl_encode
    lines += [encode(_profile_to_row(prof)) for prof in profiles]
    return "\n".join(lines) + "\n"


def read_scan_output(path: str) -> tuple[dict, list[HammingProfile]]:
    """Parse a scan file (either format); rejects a header that is not JSON,
    an unknown schema id, unexpected CSV columns, any row that does not decode
    to the FIELDS layout, and any row whose checksum does not match its
    fields, naming the path and line.

    The header becomes one dict for both formats, its compute set a list.
    """
    with open(path, encoding="utf-8") as fh:
        lineno = 1
        try:
            first = fh.readline().strip()
            if first.startswith("{"):
                meta = json.loads(first)
                if meta.get("schema") != SCHEMA_ID:
                    raise ValueError(f"unknown scan schema {meta.get('schema')!r}")
                decode = _jsonl_decode
            else:
                if not first.startswith(f"# {SCHEMA_ID} "):
                    raise ValueError(f"unknown scan schema header {first!r}")
                meta = {"schema": SCHEMA_ID}
                for part in first[2:].split()[1:]:
                    key, _, val = part.partition("=")
                    meta[key] = val.split(",") if key == "compute" else val
                lineno = 2
                header = fh.readline().strip()
                if header != CSV_COLUMNS:
                    raise ValueError(f"unexpected CSV columns {header!r}")
                decode = _csv_decode
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        variant = meta.get("variant", CANONICAL.name)
        profiles = []
        for lineno, line in enumerate(fh, lineno + 1):
            try:
                row, checksum = decode(line)
                _check_row(row)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if checksum != _row_checksum(row):
                raise ValueError(f"{path}: checksum mismatch on line {lineno} (p={row[0]})")
            profiles.append(_row_to_profile(row, variant))
    return meta, profiles


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


def scan_frequencies(profiles: list[HammingProfile], limit: int) -> dict:
    """Observed fractions of w=1 and W=1 primes up to the limit."""
    pi = sum(1 for prof in profiles if prof.p <= limit)
    w1 = sum(1 for prof in profiles if prof.p <= limit and prof.w == 1)
    big_w1 = sum(1 for prof in profiles if prof.p <= limit and prof.W == 1)
    return {"pi": pi, "w1": w1, "W1": big_w1,
            "w1_fraction": w1 / pi if pi else 0.0,
            "W1_fraction": big_w1 / pi if pi else 0.0}
