"""Bulk prime-range scanning with deterministic output and resumable blocks.

Primes are sharded into fixed-size blocks; workers compute per-prime
statistics independently and the parent takes the blocks back in order, so
the output bytes do not depend on the task count. A scan streams: it yields
a block's profiles after their rows reach the journal, and keeps none.

A scan has one row encoding, the `hamroots.scan.v7` CSV file: a line naming
the schema, the range, the radius targets (when delta is computed) and the
computed statistics, a line of column names, then one line per prime and,
after each block of `BLOCK_SIZE` rows (the range's last may be shorter), a
line `# crc32 xxxxxxxx` holding the crc32 of the block's row lines as
written. Every cell is an integer or empty. A row holds p, not r, which the
reader derives from it, and the radii of one dilation, of which each domain
convention is a view, so the file does not depend on the convention; the
core witnesses are counted, not listed, and a profile derives its list
again when it is read (`HammingProfile.witnesses`). The two header lines
are the scan's fingerprint. The checkpoint journal is that same file,
appended one block at a time (each fsynced), so a finished journal equals
the output byte for byte. Resume reads the journal with the reader of output
files: the header must be this scan's, every checksum line must hold and the
rows must be the scan's primes in order. Once all is read, the lines after
the last checksum line, a line torn by a crash among them, are cut off, and
the scan goes on from there.
"""

from __future__ import annotations

import contextlib
import os
import sys
import zlib
from itertools import chain, islice
from operator import attrgetter
from typing import Generator, Iterable, Iterator, NamedTuple

from .errors import InvariantViolation
from .hamming import BASE_VIEWS, HammingProfile, Radii, dilation_radii, sparsest
from .numtheory import PrimeContext, bit_exponent, factorize_pm1, prime_windows

SCHEMA_ID = "hamroots.scan.v7"
BLOCK_SIZE = 4096
STATS = ("w", "W", "delta")  # the statistics a scan can compute, in column order


class _ScanConfig(NamedTuple):
    lo: int
    hi: int
    tasks: int = 1
    targets: str = "literal"  # the radius targets, literal or reduced (see RadiusVariant)
    compute: tuple[str, ...] = STATS
    checkpoint: str | None = None


class ScanConfig(_ScanConfig):
    """One scan: its range, worker tasks, radius targets, statistics and
    checkpoint journal; the values are checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("lo", "hi", "tasks"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not (self.checkpoint is None or isinstance(self.checkpoint, (str, os.PathLike))):
            raise ValueError(f"checkpoint must be None or a path, got {self.checkpoint!r}")
        if self.lo < 2 or self.hi < self.lo:
            raise ValueError(f"bad scan range [{self.lo}, {self.hi}]")
        if type(self.targets) is not str or self.targets not in BASE_VIEWS:
            raise ValueError(f"unknown radius targets {self.targets!r}")
        if (type(self.compute) not in (list, tuple) or not self.compute
                or any(name not in STATS for name in self.compute)):
            raise ValueError("compute set must be a nonempty subset of w,W,delta, "
                             f"got {self.compute}")
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):
        # Through __new__ and its checks; `_replace` builds with `_make` too.
        return cls(*iterable)


def _scan_block(args) -> list[tuple]:
    """The (p, w, W, radii) row of each prime of a block, with None for
    what is not computed or undefined (p = 2 has only W): one candidate sweep
    gives w and W, one dilation of the targets gives the radii, of which every
    domain convention is a view. Only the dilation needs a PrimeContext, for
    the primitive-root bitmap cached on it; the sweep needs p and the primes
    of p-1."""
    primes, targets, compute = args
    weights, roots, delta = "w" in compute or "W" in compute, "W" in compute, "delta" in compute
    rows = []
    for p, qs in zip(primes, factorize_pm1(primes)):
        w = W = radii = None
        if weights:
            nonresidue, root = sparsest(p, qs, roots)
            if "w" in compute and nonresidue:
                w = nonresidue[0]
            if root:
                W = root[0]
        if delta and p > 2:
            radii = dilation_radii(PrimeContext(p, qs), targets)
        # One sweep finds both: w's witness is the first non-residue and W's
        # is a later or the same one, so w <= W holds by construction. The
        # check guards this seam; w and W are checked independently by tests
        # (a brute-force search and the reference counts at 10^5 and 10^6).
        if w is not None and W is not None and w > W:
            raise InvariantViolation(f"p={p} targets={targets}: w={w} > W={W}")
        # Under literal targets the distance from 0 to the primitive roots is
        # the least weight of one, so two independent engines must agree.
        if targets == "literal" and W is not None and radii is not None and radii.dist_0 != W:
            raise InvariantViolation(
                f"p={p} targets={targets}: the sparsest-root search gives W={W}, "
                f"the dilation puts 0 at distance {radii.dist_0}")
        rows.append((p, w, W, radii))
    return rows


# --- the v7 file: header, rows, checksum lines, reader --------------------------

RADII = ("core", "dist_0", "dist_p", "core_count")  # the columns of delta, in order
CRC_LINE = "# crc32 %08x\n"  # ends a block: the crc32 of its row lines, newlines included


def _columns(config: ScanConfig) -> list[str]:
    """The cells of a scan's rows, in order: p, the weight statistics
    computed and, when delta is computed, its radii."""
    return ["p", *(name for name in ("w", "W") if name in config.compute),
            *(RADII if "delta" in config.compute else ())]


def _header(config: ScanConfig) -> str:
    """The two header lines of a scan's file: the scan's fingerprint. The
    radius targets are in it only when delta is."""
    stats = [name for name in STATS if name in config.compute]
    targets = f"targets={config.targets} " if "delta" in config.compute else ""
    return (f"# {SCHEMA_ID} lo={config.lo} hi={config.hi} {targets}"
            f"compute={','.join(stats)}\n{','.join(_columns(config))}\n")


def _block_encoder(config: ScanConfig):
    """The function from a block of profiles to its text in one pass: a
    line per profile, each row's cells %-formatted, with "" for a None in
    the rows that hold one, then the block's checksum line; no profiles
    give no text."""
    columns = _columns(config)
    plain = [name for name in columns if name not in RADII]
    with_radii = len(plain) < len(columns)
    cells_of = attrgetter(*plain, *("radii",) * with_radii)  # two names or more: a tuple
    row = ",".join(["%s"] * len(columns)) + "\n"
    no_radii = ("",) * len(RADII)
    crc32 = zlib.crc32

    def encode(profiles: Iterable[HammingProfile]) -> str:
        lines = []
        for prof in profiles:
            cells = cells_of(prof)
            if with_radii:
                cells = cells[:-1] + (cells[-1] or no_radii)
            if None in cells:
                cells = tuple("" if v is None else v for v in cells)
            lines.append(row % cells)
        text = "".join(lines)
        return text and text + CRC_LINE % crc32(text.encode())
    return encode


def _csv_int(cell: str) -> int:
    """The integer a CSV cell holds, which must be written as str() writes it."""
    value = int(cell)
    if str(value) != cell:
        raise ValueError(f"{cell!r} is not a canonical integer")
    return value


def _line_decoder(config: ScanConfig):
    """The function from a row's line (newline stripped) to its profile in
    the base view of the config's targets, its r derived from p; it checks
    the cells. Only the row of p = 2 may hold an empty cell, and it holds the
    cells the writer gives it: no w, W = 1 and no radii."""
    columns = _columns(config)
    plain = [name for name in columns if name not in RADII]
    base = BASE_VIEWS[config.targets].name
    two = ["1" if name == "W" else "" for name in columns[1:]]

    def decode(line: str) -> HammingProfile:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"expected {len(columns)} columns, got {len(cells)}")
        p = _csv_int(cells[0])
        if p == 2 and cells[1:] != two:
            raise ValueError(f"the row of p=2 must hold {','.join(two)!r} after p, "
                             f"got {','.join(cells[1:])!r}")
        if p > 2 and "" in cells[1:]:
            raise ValueError(f"the row of p={p} has an empty cell, which only p = 2 may have")
        values = {name: _csv_int(cell) if cell else None
                  for name, cell in zip(plain[1:], cells[1:])}  # w and W
        radii = cells[len(plain):]  # none, or all empty for a prime without radii
        radii = Radii(*map(_csv_int, radii)) if any(radii) else None
        return HammingProfile(p, bit_exponent(p), **values, variant=base, radii=radii)
    return decode


def _config_of_header(line: str) -> ScanConfig:
    """The scan that a file's first line names. A file without radii names
    no targets and is read as a literal-target scan."""
    if not line.startswith(f"# {SCHEMA_ID} "):
        raise ValueError(f"unknown scan schema header {line.rstrip()!r}")
    meta = dict(part.partition("=")[::2] for part in line.split()[2:])
    compute = tuple(meta["compute"].split(",")) if "compute" in meta else None
    targets = meta.get("targets", None if compute and "delta" in compute else "literal")
    return ScanConfig(lo=_csv_int(meta.get("lo", "")), hi=_csv_int(meta.get("hi", "")),
                      targets=targets, compute=compute)


def _primes(lo: int, hi: int) -> Iterator[int]:
    """The primes in [lo, hi], ascending, sieved a window at a time."""
    return chain.from_iterable(prime_windows(lo, hi))


def _read_rows(fh, path: str, config: ScanConfig, whole: bool):
    """Yield (profile, end) for each row of the scan file open in binary
    mode in fh, end being the offset just past the checksum line of the
    row's block.

    A block's lines are read up to its checksum line, which must hold their
    crc32, before any of them is decoded; its rows are then decoded one at a
    time, as they are asked for. Raises ValueError, naming the path and the
    line, unless the header lines are config's, each checksum line matches
    its block, each row has canonical integer cells, the rows are the primes
    of the range in order, each block but the range's last holds
    `BLOCK_SIZE` rows and nothing follows that last block. The lines after
    the last checksum line, among them a last line torn by a crash, make an
    incomplete block, which is not decoded: the caller cuts it, or, with
    `whole`, the file must have none and must reach the range's last prime."""
    header = _header(config).splitlines()
    decode = _line_decoder(config)
    primes = _primes(config.lo, config.hi)
    expected, block, crc, end, lineno = next(primes, None), [], 0, 0, 0
    span = f"[{config.lo}, {config.hi}]"

    def refused(n: int, message) -> ValueError:
        return ValueError(f"{path}: line {n}: {message}")

    for lineno, raw in enumerate(fh, 1):
        # Past the block of the range's last prime, even a torn line is refused.
        if lineno > len(header) and not block and expected is None:
            raise refused(lineno, f"the scan of {span} ends on line {lineno - 1}, "
                                  f"but the file goes on")
        if not raw.endswith(b"\n"):
            lineno -= 1
            break
        end += len(raw)
        if lineno <= len(header):
            try:
                line = raw[:-1].decode()
                if line != header[lineno - 1]:
                    raise ValueError(f"expected {header[lineno - 1]!r}, got {line!r}")
            except ValueError as exc:
                raise refused(lineno, exc) from None
            continue
        if not raw.startswith(b"# crc32 "):
            if len(block) == BLOCK_SIZE:
                raise refused(lineno, f"more than {BLOCK_SIZE} rows before a checksum line")
            block.append(raw)
            crc = zlib.crc32(raw, crc)
            continue
        first = lineno - len(block)
        if block and raw != (CRC_LINE % crc).encode():
            raise refused(lineno, f"checksum mismatch on the rows of lines {first}-{lineno - 1}")
        for n, row in enumerate(block, first):
            try:
                prof = decode(row[:-1].decode())
            except ValueError as exc:
                raise refused(n, exc) from None
            if prof.p != expected:
                raise refused(n, f"p={prof.p} is not the next prime of {span}")
            expected = next(primes, None)
            yield prof, end
        if len(block) < BLOCK_SIZE and expected is not None:
            raise refused(lineno, f"a checksum line after {len(block)} rows, fewer than "
                                  f"{BLOCK_SIZE}, before the last prime of {span}")
        block, crc = [], 0
    if whole and expected is not None:
        # The file ends within the block of `expected`: name the prime whose
        # row would follow the lines it has, or else the missing checksum line.
        missing = next(islice(chain([expected], primes), len(block), None), None)
        raise refused(lineno + 1, "the file ends before " + (
            "the checksum line of its last block" if missing is None
            else f"the row of p={missing}"))


def stream_scan_output(path: str) -> tuple[ScanConfig, Iterator[HammingProfile]]:
    """The scan a file describes, read from its first line alone, and an
    iterator of its profiles in the base view of its targets, read as
    `_read_rows` reads a whole file, against the primes of the header's
    range, which are sieved only as far as the rows are read."""
    with open(path, "rb") as fh:
        try:
            config = _config_of_header(fh.readline().decode())
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None

    def profiles():
        with open(path, "rb") as fh:
            for prof, _ in _read_rows(fh, path, config, whole=True):
                yield prof
    return config, profiles()


def read_scan_output(path: str) -> tuple[ScanConfig, list[HammingProfile]]:
    """The scan a file describes and the list of the profiles that
    `stream_scan_output` reads from it."""
    config, profiles = stream_scan_output(path)
    return config, list(profiles)


def format_scan_output(config: ScanConfig, profiles: Iterable[HammingProfile]) -> str:
    """The scan's file: its header, then its blocks of `BLOCK_SIZE` profiles,
    each encoded with its checksum line, so that only one block's lines are
    held apart from the text."""
    encode, profiles = _block_encoder(config), iter(profiles)
    blocks = iter(lambda: encode(islice(profiles, BLOCK_SIZE)), "")  # until a block is empty
    return _header(config) + "".join(blocks)


# --- scanning -----------------------------------------------------------------


def _append(fh, text: str) -> None:
    fh.write(text)
    fh.flush()
    os.fsync(fh.fileno())


def _resume(config: ScanConfig) -> Generator[HammingProfile, None, int]:
    """Yield the profiles of the blocks in the scan's checkpoint journal whose
    checksum lines verify, one at a time, and return the number the scan goes
    on from: lo, or one past the last prime kept. Once read to its end, the
    journal is cut to those blocks: the lines after the last checksum line
    go, and so does the header of a journal without a block."""
    path, start, end = config.checkpoint, config.lo, 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for prof, end in _read_rows(fh, path, config, whole=False):
                yield prof
                start = prof.p + 1
    with open(path, "ab") as fh:
        fh.truncate(end)
    return start


def _blocks(lo: int, hi: int) -> Iterator[list[int]]:
    """The primes in [lo, hi] in lists of `BLOCK_SIZE`, the last one maybe
    shorter, cut by slices from the windows as they are sieved."""
    pending = []
    for window in prime_windows(lo, hi):
        pending += window
        cut = len(pending) - len(pending) % BLOCK_SIZE
        for i in range(0, cut, BLOCK_SIZE):
            yield pending[i:i + BLOCK_SIZE]
        del pending[:cut]
    if pending:
        yield pending


def worker_count(tasks: int, blocks: int, cpus: int | None) -> int:
    """Pool size for a scan: the requested tasks, bounded by the CPUs (an
    unknown CPU count counts as one) and by the blocks the range can hold.
    The pool starts before the sieve and the resume, so a worker holds the
    block it computes and not the range; a scan with one block left
    computes it in process."""
    return min(tasks, blocks, cpus or 1)


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with_parent(parent: int) -> None:
    """Pool initializer: on Linux the kernel kills this worker when its
    parent dies, and a worker whose parent died before that request exits.
    An orphan would otherwise finish its block and die on the closed result
    pipe with a BrokenPipeError traceback."""
    if sys.platform.startswith("linux"):
        import ctypes
        import signal
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _pool(workers: int):
    """A pool of `workers` processes that die with this one, or a null
    context for fewer than two; only a scan with a pool loads multiprocessing.
    Where the platform can fork, the workers are forked from this process
    whatever the default start method (forkserver on Linux from Python 3.14):
    `_die_with_parent` needs this process as their parent, and a forked
    worker holds only the block it is sent."""
    if workers < 2:
        return contextlib.nullcontext()
    import multiprocessing
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return multiprocessing.get_context(method).Pool(workers, _die_with_parent, (os.getpid(),))


def scan_profiles(config: ScanConfig) -> Iterator[HammingProfile]:
    """Yield the per-prime profiles for primes in [lo, hi], ascending, in the
    base view of the config's targets, as `read_scan_output` gives them too.
    A block's profiles are yielded after its rows reach the journal. The
    primes are sieved a window at a time as the blocks are cut, so the scan
    holds about a window and a block of them, not the range's."""
    blocks = -(-(config.hi - config.lo + 1) // BLOCK_SIZE)  # at most this many
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())  # those this process may run on, where the platform tells
    with _pool(worker_count(config.tasks, blocks, cpus)) as pool:
        start = (yield from _resume(config)) if config.checkpoint else config.lo
        encode = _block_encoder(config)
        base = BASE_VIEWS[config.targets].name
        todo = _blocks(start, config.hi)
        head = list(islice(todo, 2))  # one block left is computed in process
        tasks = ((primes, config.targets, tuple(config.compute))
                 for primes in chain(head, todo))
        with (open(config.checkpoint, "a", encoding="utf-8", newline="\n")
              if config.checkpoint else contextlib.nullcontext()) as journal:
            if journal and start == config.lo:
                _append(journal, _header(config))
            for rows in (pool.imap if pool and len(head) > 1 else map)(_scan_block, tasks):
                block = [HammingProfile(p, bit_exponent(p), w, W, variant=base, radii=radii)
                         for p, w, W, radii in rows]
                if journal:
                    _append(journal, encode(block))
                yield from block


def scan_range(config: ScanConfig) -> list[HammingProfile]:
    """The list of what `scan_profiles` yields."""
    return list(scan_profiles(config))


# --- census aggregation ------------------------------------------------------


class CountTable:
    """Counts of primes per statistic value at each 10^j threshold."""

    def __init__(self, thresholds: list[int]):
        self.thresholds = sorted(thresholds)
        self.rows = {t: {"pi": 0, "w": [0, 0, 0, 0], "W": [0, 0, 0, 0], "delta": [0, 0, 0, 0]}
                     for t in self.thresholds}

    @classmethod
    def from_profiles(cls, profiles: Iterable[HammingProfile],
                      thresholds: list[int]) -> "CountTable":
        table = cls(thresholds)
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

    def sum_identity_ok(self, threshold: int, stat: str) -> bool:
        """Odd primes partition by weight class: counts must sum to pi - 1."""
        row = self.rows[threshold]
        expected = row["pi"] - 1 if stat in ("w", "delta") else row["pi"]
        return sum(row[stat]) == expected
