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

from .errors import InvariantViolation
from .hamming import (CANONICAL, VARIANTS, HammingProfile, hamming_profile)
from .numtheory import PrimeContext, factorize, sieve_primes

SCHEMA_ID = "hamroots.scan.v1"
BLOCK_SIZE = 4096
CSV_COLUMNS = "p,r,w,W,delta,witnesses,checksum"


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


def _profile_to_row(prof: HammingProfile) -> list:
    return [prof.p, prof.r, prof.w, prof.W, prof.delta, list(prof.witnesses)]


def _row_to_profile(row: list, variant: str) -> HammingProfile:
    p, r, w, W, delta, wits = row
    return HammingProfile(p=p, r=r, w=w, W=W, delta=delta,
                          witnesses=tuple(wits), variant=variant)


def _scan_block(args) -> tuple[int, list[list]]:
    block_id, primes, variant_name, compute = args
    variant = VARIANTS[variant_name]
    compute_set = frozenset(compute)
    rows = []
    for p in primes:
        ctx = PrimeContext(p, factorize(p - 1))
        prof = hamming_profile(ctx, variant, compute_set)
        if prof.w is not None and prof.W is not None and prof.w > prof.W:
            raise InvariantViolation(f"w > W at p={p}")
        # W <= delta is a theorem only when 0 is in the scan domain (its
        # distance to the targets is then exactly W); under the [1, p] domain
        # it genuinely fails for some primes, e.g. p = 23 has W=2, delta=1.
        if (variant.n_domain_zero and prof.W is not None
                and prof.delta is not None and prof.W > prof.delta):
            raise InvariantViolation(f"W > delta at p={p}")
        rows.append(_profile_to_row(prof))
    return block_id, rows


class _Checkpoint:
    """Append-only JSONL journal of finished blocks."""

    def __init__(self, path: str, fingerprint: str):
        self.done: dict[int, list] = {}
        if os.path.exists(path):
            end = 0  # bytes of complete lines
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        break  # torn by a crash mid-write; dropped below
                    rec = json.loads(line)
                    end += len(line)
                    if "meta" in rec:
                        if rec["meta"] != fingerprint:
                            raise ValueError(
                                "checkpoint was written by a different scan configuration")
                    else:
                        self.done[rec["block"]] = rec["rows"]
            os.truncate(path, end)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")
        if not self.done and os.path.getsize(path) == 0:
            self.write({"meta": fingerprint})

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


def _row_checksum(prof: HammingProfile) -> str:
    wits = ";".join(str(c) for c in prof.witnesses)
    key = f"{prof.p}|{prof.r}|{prof.w}|{prof.W}|{prof.delta}|{wits}"
    return format(zlib.crc32(key.encode()), "08x")


def format_scan_output(config: ScanConfig, profiles: list[HammingProfile]) -> str:
    """Render profiles in the configured format; deterministic bytes."""
    lines = []
    if config.fmt == "csv":
        lines.append(f"# {SCHEMA_ID} variant={config.variant} "
                     f"compute={','.join(config.compute)}")
        lines.append(CSV_COLUMNS)
        for prof in profiles:
            cells = [str(prof.p), str(prof.r),
                     "" if prof.w is None else str(prof.w),
                     "" if prof.W is None else str(prof.W),
                     "" if prof.delta is None else str(prof.delta),
                     ";".join(str(c) for c in prof.witnesses),
                     _row_checksum(prof)]
            lines.append(",".join(cells))
    else:
        lines.append(json.dumps({"schema": SCHEMA_ID, "variant": config.variant,
                                 "compute": list(config.compute)},
                                separators=(",", ":")))
        for prof in profiles:
            lines.append(json.dumps(
                {"p": prof.p, "r": prof.r, "w": prof.w, "W": prof.W,
                 "delta": prof.delta, "witnesses": list(prof.witnesses),
                 "checksum": _row_checksum(prof)},
                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _csv_record(line: str) -> dict:
    """A CSV row as the equivalent JSONL record."""
    p, r, w, W, delta, wits, checksum = line.rstrip("\n").split(",")
    rec = dict(zip(("p", "r", "w", "W", "delta"),
                   (int(c) if c else None for c in (p, r, w, W, delta))))
    rec["witnesses"] = [int(c) for c in wits.split(";")] if wits else []
    rec["checksum"] = checksum
    return rec


def read_scan_output(path: str) -> tuple[dict, list[HammingProfile]]:
    """Parse a scan file (either format); rejects unknown schema ids and any
    row whose checksum does not match its fields.

    The header becomes one dict for both formats, its compute set a list.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first.startswith("{"):
            meta = json.loads(first)
            if meta.get("schema") != SCHEMA_ID:
                raise ValueError(f"unknown scan schema {meta.get('schema')!r}")
            parse, first_row = json.loads, 2
        else:
            if not first.startswith(f"# {SCHEMA_ID} "):
                raise ValueError(f"unknown scan schema header {first!r}")
            meta = {"schema": SCHEMA_ID}
            for part in first[2:].split()[1:]:
                key, _, val = part.partition("=")
                meta[key] = val.split(",") if key == "compute" else val
            header = fh.readline().strip()
            if header != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV columns {header!r}")
            parse, first_row = _csv_record, 3
        variant = meta.get("variant", CANONICAL.name)
        profiles = []
        for lineno, line in enumerate(fh, first_row):
            rec = parse(line)
            prof = _row_to_profile(
                [rec[k] for k in ("p", "r", "w", "W", "delta", "witnesses")], variant)
            if rec.get("checksum") != _row_checksum(prof):
                raise ValueError(f"{path}: checksum mismatch on line {lineno} (p={prof.p})")
            profiles.append(prof)
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
