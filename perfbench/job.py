"""One step of the benchmark, run in a fresh interpreter so that every timed
iteration starts with cold per-process caches (the dilation masks) and its
own high-water RSS.

Usage: python3 job.py '<json request>'  (run.py builds the request)

Modes:
  setup    import hamroots and build the workload's inputs, nothing else
  fixture  write the scan files and complete journals that table_read reads
  run      one untraced iteration of the workload, checked against the reference
  replay   one traced iteration: the per-prime pipeline of the scan replayed
           through public calls, each inside a span

The last line of standard output is one JSON object.  A failure inside
hamroots is reported in that object; exit code 2 means the package under
test could not be imported from the checkout.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import resource
import sys
import traceback
from time import perf_counter

import spans
import workloads as wl

# Filled in by main() once hamroots is imported.
hr = None
_DILATE = None
# Bit lengths whose dilation masks this process has built; mirrors the
# per-process cache inside hamroots.hamming.
_MASK_LENGTHS: set[int] = set()


def _import_package(src: str):
    """Import hamroots from src, or exit with code 2."""
    try:
        pkg = importlib.import_module("hamroots")
    except ImportError as exc:
        print(f"error: cannot import hamroots from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: hamroots was imported from {pkg.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    for name in ("hamming", "numtheory", "scan"):
        importlib.import_module(f"hamroots.{name}")
    return pkg


def _paths(req: dict, scan: wl.Scan) -> tuple[str, str]:
    stem = os.path.join(req["work"], scan.key)
    return stem + ".csv", stem + ".ckpt"


def _config(scan: wl.Scan, checkpoint: str):
    return hr.scan.ScanConfig(lo=scan.lo, hi=scan.hi, tasks=scan.tasks,
                              compute=scan.compute, checkpoint=checkpoint)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _journal_stats(path: str) -> tuple[int, int]:
    """(records after the header line, bytes) of a checkpoint journal."""
    with open(path, encoding="utf-8") as fh:
        records = sum(1 for _ in fh) - 1
    return records, os.path.getsize(path)


# --- untraced iterations -----------------------------------------------------


def run_scan_side(req: dict, wk: wl.Workload, configs: list) -> dict:
    """census_full, ww_1e6, delta_large: scan with a fresh journal, format, write.

    With req["read_back"], the read side of the same scan is timed afterwards,
    outside wall_s, for the per-layer figures of a traced run."""
    (scan,), (cfg,) = wk.scans, configs
    out_path, ckpt = _paths(req, scan)
    tracer = spans.Tracer()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    root = tracer.open("job")
    profiles = tracer.call("scan.scan_range", hr.scan.scan_range, cfg)
    ru_scan = resource.getrusage(resource.RUSAGE_SELF)
    text = tracer.call("scan.format", hr.scan.format_scan_output, cfg, profiles)
    tracer.call("scan.write", _write, out_path, text)
    tracer.close(root)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ruc = resource.getrusage(resource.RUSAGE_CHILDREN)
    workers = scan.tasks if ruc.ru_maxrss else 0

    rows = [wl.row_of(prof) for prof in profiles]
    expected = wl.expected_rows(scan, wl.load_reference())
    failed = wl.count_failed(rows, expected)
    # BFS costs seconds per prime at bit length 20, so only census_full is sampled.
    if req.get("crosscheck") and scan == wl.CENSUS_FULL:
        failed += _crosscheck_bfs(profiles)
    records, journal_bytes = _journal_stats(ckpt)
    stats = spans.layer_stats(tracer.spans)
    layers = {
        "scan.scan_range.s": stats["scan.scan_range"]["s"],
        "scan.scan_range.cpu_s": _cpu(ru_scan) - _cpu(ru0) + _cpu(ruc),
        "scan.blocks": -(-len(profiles) // hr.scan.BLOCK_SIZE),
        "scan.journal.records": records,
        "scan.journal.bytes": journal_bytes,
        "scan.format.s": stats["scan.format"]["s"],
        "scan.format.bytes": len(text.encode()),
        "scan.write.s": stats["scan.write"]["s"],
    }
    if req.get("read_back"):
        read_tracer = spans.Tracer()
        read = _read_side(read_tracer, req, scan, cfg)
        failed += _check_read_side(read, expected)
        read_stats = spans.layer_stats(read_tracer.spans)
        layers.update({
            "scan.resume.s": read_stats["scan.resume"]["s"],
            "scan.resume.rows": len(read["profiles"]),
            "scan.read.s": read_stats["scan.read"]["s"],
            "scan.read.rows": len(read["read_back"]),
            "scan.count_table.s": read_stats["scan.count_table"]["s"],
        })
    return {
        "wall_s": stats["job"]["s"],
        "cpu_s": _cpu(ru1) - _cpu(ru0) + _cpu(ruc),
        "rss_parent_mb": ru1.ru_maxrss / 1024,
        "rss_worker_mb": ruc.ru_maxrss / 1024,
        "peak_rss_mb": (ru1.ru_maxrss + workers * ruc.ru_maxrss) / 1024,
        "output_bytes": os.path.getsize(out_path),
        "journal_bytes": journal_bytes,
        "attempted": len(expected),
        "failed": min(len(expected), failed),
        "digest": _digest(rows),
        "unattributed_frac": spans.unattributed_frac(stats),
        "layers": layers,
    }


def _crosscheck_bfs(profiles: list) -> int:
    """Radii and witnesses of a fixed sample, recomputed by the BFS engine;
    returns the number of sampled primes on which the engines disagree."""
    bad = 0
    for prof in profiles[1::wl.CROSSCHECK_STRIDE]:
        ctx = hr.numtheory.PrimeContext(prof.p, hr.numtheory.factorize(prof.p - 1))
        if hr.hamming.covering_radius_bfs(ctx) != (prof.delta, prof.witnesses):
            bad += 1
    return bad


def _read_side(tracer: spans.Tracer, req: dict, scan: wl.Scan, cfg) -> dict:
    """Resume a scan from its complete journal, re-format it, read its file
    back and build count tables, each call inside a span."""
    out_path, _ = _paths(req, scan)
    profiles = tracer.call("scan.resume", hr.scan.scan_range, cfg)
    text = tracer.call("scan.format", hr.scan.format_scan_output, cfg, profiles)
    _, read_back = tracer.call("scan.read", hr.scan.read_scan_output, out_path)
    thresholds = [t for t in wl.COUNT_THRESHOLDS if t <= scan.hi]
    table = tracer.call("scan.count_table", hr.scan.CountTable.from_profiles,
                        read_back, thresholds)
    return {"out_path": out_path, "profiles": profiles, "text": text,
            "read_back": read_back, "table": table, "thresholds": thresholds}


def _check_read_side(read: dict, expected: list) -> int:
    """Primes that failed one read-side pass: resumed rows and rows read back
    must match the reference, the resumed scan must reproduce the written
    file byte for byte, and the count tables must match the reference rows."""
    resumed = [wl.row_of(prof) for prof in read["profiles"]]
    rows = [wl.row_of(prof) for prof in read["read_back"]]
    with open(read["out_path"], encoding="utf-8", newline="") as fh:
        written = fh.read()
    if (read["text"] != written or
            wl.expected_count_rows(expected, read["thresholds"]) != read["table"].rows):
        return len(expected)
    bad = {want[0] for got, want in zip(resumed, expected) if got != want}
    bad |= {want[0] for got, want in zip(rows, expected) if got != want}
    failed = len(bad) + abs(len(rows) - len(expected)) + abs(len(resumed) - len(expected))
    return min(len(expected), failed)


def run_read_side(req: dict, wk: wl.Workload, configs: list) -> dict:
    """table_read: the read side of each scan, from the fixture's files and
    complete journals."""
    tracer = spans.Tracer()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    root = tracer.open("job")
    reads = [_read_side(tracer, req, scan, cfg) for scan, cfg in zip(wk.scans, configs)]
    tracer.close(root)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    reference = wl.load_reference()
    attempted = failed = journal_records = journal_bytes = blocks = 0
    for scan, read in zip(wk.scans, reads):
        expected = wl.expected_rows(scan, reference)
        attempted += len(expected)
        failed += _check_read_side(read, expected)
        records, size = _journal_stats(_paths(req, scan)[1])
        journal_records += records
        journal_bytes += size
        blocks += -(-len(read["profiles"]) // hr.scan.BLOCK_SIZE)
    stats = spans.layer_stats(tracer.spans)
    output_bytes = sum(len(read["text"].encode()) for read in reads)
    rows_read = sum(len(read["read_back"]) for read in reads)
    return {
        "wall_s": stats["job"]["s"],
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "rss_parent_mb": ru1.ru_maxrss / 1024,
        "rss_worker_mb": 0.0,
        "peak_rss_mb": ru1.ru_maxrss / 1024,
        "output_bytes": output_bytes,
        "journal_bytes": journal_bytes,
        "attempted": attempted,
        "failed": failed,
        "digest": _digest([[wl.row_of(prof) for prof in read["read_back"]] for read in reads]),
        "unattributed_frac": spans.unattributed_frac(stats),
        "layers": {
            "scan.resume.s": stats["scan.resume"]["s"],
            "scan.resume.rows": sum(len(read["profiles"]) for read in reads),
            "scan.blocks": blocks,
            "scan.journal.records": journal_records,
            "scan.journal.bytes": journal_bytes,
            "scan.format.s": stats["scan.format"]["s"],
            "scan.format.bytes": output_bytes,
            "scan.read.s": stats["scan.read"]["s"],
            "scan.read.rows": rows_read,
            "scan.count_table.s": stats["scan.count_table"]["s"],
        },
    }


def write_fixture(req: dict, wk: wl.Workload, configs: list) -> dict:
    """Scan files and complete journals for table_read to resume and read."""
    start = perf_counter()
    for scan, cfg in zip(wk.scans, configs):
        _write(_paths(req, scan)[0], hr.scan.format_scan_output(cfg, hr.scan.scan_range(cfg)))
    return {"fixture_s": perf_counter() - start}


# --- traced replay -------------------------------------------------------------


def _replay_block(args) -> tuple[int, list, list, dict]:
    """One block of _scan_block's per-prime pipeline, through public calls."""
    block_id, primes, compute = args
    nt, hm = hr.numtheory, hr.hamming
    tracer = spans.Tracer()
    hm.dilate = lambda bitmap, length: tracer.call("hamming.dilate", _DILATE, bitmap, length)
    counts = {"bits": 0, "witnesses": 0, "rounds": 0}
    want_delta = "delta" in compute
    profiles = []
    try:
        for p in primes:
            tracer.prime = p
            sid = tracer.open("prime")
            ctx = nt.PrimeContext(p, tracer.call("numtheory.factorize", nt.factorize, p - 1))
            w = big_w = delta = None
            wits: tuple = ()
            if want_delta and p > 2:
                tracer.call("numtheory.least_primitive_root", nt.least_primitive_root, ctx)
                counts["bits"] += tracer.call("numtheory.pr_bitmap", ctx.pr_bitmap).bit_length()
                if ctx.bit_len not in _MASK_LENGTHS:
                    _MASK_LENGTHS.add(ctx.bit_len)
                    tracer.call("hamming.dilate_masks", _DILATE, 0, ctx.bit_len)
            if "w" in compute and p > 2:
                w = tracer.call("hamming.min_nonresidue_weight", hm.min_nonresidue_weight, ctx)[0]
            if "W" in compute:
                big_w = tracer.call("hamming.min_primroot_weight", hm.min_primroot_weight, ctx)[0]
            if want_delta and p > 2:
                delta, wits = tracer.call("hamming.covering_radius", hm.covering_radius,
                                          ctx, hm.CANONICAL)
                counts["witnesses"] += len(wits)
                counts["rounds"] += delta
            profiles.append(hm.HammingProfile(p=p, r=ctx.r, w=w, W=big_w, delta=delta,
                                              witnesses=wits, variant=hm.CANONICAL.name))
            tracer.close(sid)
        tracer.prime = None
    finally:
        hm.dilate = _DILATE
    return block_id, profiles, tracer.spans, counts


def replay(req: dict, wk: wl.Workload, configs: list) -> dict:
    """A traced iteration: sieve, blocks (in a pool like scan_range when it
    would use one), format and write, each call inside a span."""
    (scan,), (cfg,) = wk.scans, configs
    out_path, _ = _paths(req, scan)
    tracer = spans.Tracer()
    root = tracer.open("job")
    primes = [p for p in tracer.call("numtheory.sieve_primes", hr.numtheory.sieve_primes, scan.hi)
              if p >= scan.lo]
    size = hr.scan.BLOCK_SIZE
    todo = [(i // size, primes[i:i + size], scan.compute) for i in range(0, len(primes), size)]
    pool_sid = tracer.open("scan.blocks")
    done = {}
    if scan.tasks > 1 and len(todo) > 1:
        # scan_range uses the platform's default pool, which forks on Linux.
        with multiprocessing.get_context("fork").Pool(scan.tasks) as pool:
            for block_id, profiles, block_spans, counts in pool.imap_unordered(_replay_block, todo):
                done[block_id] = (profiles, block_spans, counts)
    else:
        for args in todo:
            block_id, profiles, block_spans, counts = _replay_block(args)
            done[block_id] = (profiles, block_spans, counts)
    tracer.close(pool_sid)
    profiles = [prof for i in range(len(todo)) for prof in done[i][0]]
    text = tracer.call("scan.format", hr.scan.format_scan_output, cfg, profiles)
    tracer.call("scan.write", _write, out_path, text)
    tracer.close(root)

    for i in range(len(todo)):
        tracer.adopt(done[i][1], pool_sid)
    counts = {key: sum(done[i][2][key] for i in done) for key in ("bits", "witnesses", "rounds")}
    stats = spans.layer_stats(tracer.spans)
    if req.get("trace_path"):
        tracer.write(req["trace_path"])
    rows = [wl.row_of(prof) for prof in profiles]
    expected = wl.expected_rows(scan, wl.load_reference())
    return {
        "wall_s": stats["job"]["s"],
        "attempted": len(expected),
        "failed": wl.count_failed(rows, expected),
        "digest": _digest(rows),
        "counts": counts,
        "stats": stats,
        "unattributed_frac": spans.unattributed_frac(stats),
    }


# --- entry point -------------------------------------------------------------


def main() -> int:
    req = json.loads(sys.argv[1])
    wk = wl.WORKLOADS[req["workload"]]
    global hr, _DILATE
    t0 = perf_counter()
    hr = _import_package(req["src"])
    _DILATE = hr.hamming.dilate
    configs = [_config(scan, _paths(req, scan)[1]) for scan in wk.scans]
    setup_s = perf_counter() - t0
    if req["mode"] == "run" and not wk.read_side:
        for path in _paths(req, wk.scans[0]):
            if os.path.exists(path):
                os.remove(path)
    result = {"setup_s": setup_s}
    try:
        if req["mode"] == "fixture":
            result.update(write_fixture(req, wk, configs))
        elif req["mode"] == "run":
            result.update((run_read_side if wk.read_side else run_scan_side)(req, wk, configs))
        elif req["mode"] == "replay":
            result.update(replay(req, wk, configs))
    except Exception as exc:  # report a failing workload instead of dying
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
