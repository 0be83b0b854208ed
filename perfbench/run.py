"""Census benchmark of hamroots: one command per named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload through the public API of the hamroots package in this
checkout's src/ for about S seconds, each iteration in a fresh interpreter,
checks every row against perfbench/reference.json and prints each metric by
name with its unit.  The last line of standard output is one JSON record
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  Fuller records and the
spans of traced runs are written under .perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-up is sampled at least this often per run; setup_s is their median.
SETUP_SAMPLES = 11
# A run must end within 180 s; children are killed when this budget is spent.
RUN_BUDGET_S = 170

UNCONTROLLED = ("no CPU pinning, no CPU frequency control and no page-cache drop; "
                "other tenants may share the machine")


def metric_units(section: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class SetupError(Exception):
    """The package under test cannot be run from this checkout."""


def child(request: dict, deadline: float) -> dict:
    """Run job.py with the request in a fresh interpreter; its JSON result."""
    # Bytecode is cached under .perfbench whatever the caller's settings, so
    # setup_s times imports from cached bytecode, as an installed package would.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen([sys.executable, JOB, json.dumps(request)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and any pool workers it started
        proc.wait()
        return {"error": "run budget exhausted"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode == 2:
        raise SetupError("job could not import hamroots from the checkout")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"job exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def _median(values) -> float:
    """Median; the lower middle value for counts, so that they stay whole."""
    values = list(values)
    if not values:
        return 0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Hash of the sources that table_read's fixture depends on: the package
    and the benchmark files that define and write the fixture."""
    paths = [os.path.join(HERE, "job.py"), os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        paths += [os.path.join(dirpath, n) for n in sorted(filenames) if n.endswith(".py")]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def prepare_fixture(base: dict, deadline: float) -> dict:
    """table_read's scan files and complete journals: written once per source
    tree under .perfbench, then copied into this run's work directory."""
    cache = os.path.join(OUT_DIR, f"fixture-{_source_digest()}")
    result = {}
    if not os.path.isdir(cache):
        tmp = f"{cache}.tmp{os.getpid()}"
        os.makedirs(tmp)
        try:
            result = child(dict(base, mode="fixture", work=tmp), deadline)
            if "error" in result:
                return result
            os.replace(tmp, cache)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    for name in os.listdir(cache):
        shutil.copy(os.path.join(cache, name), base["work"])
    return result


def measure(wk: wl.Workload, seconds: int, trace: bool, work: str, trace_path: str) -> dict:
    """Iterations of the workload for about `seconds`; raw per-iteration results."""
    deadline = perf_counter() + RUN_BUDGET_S
    base = {"workload": wk.name, "src": SRC, "work": work}
    fixture = prepare_fixture(base, deadline) if wk.read_side else {}
    runs, traced = [], []
    start = perf_counter()
    while not runs or (perf_counter() - start < seconds and perf_counter() < deadline):
        runs.append(child(dict(base, mode="run", crosscheck=not runs, read_back=trace),
                          deadline))
        if trace:
            mode = "run" if wk.read_side else "replay"
            traced.append(child(dict(base, mode=mode, trace_path=trace_path), deadline))
    setups = [r["setup_s"] for r in runs + traced if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and perf_counter() < deadline:
        setups.append(child(dict(base, mode="setup"), deadline).get("setup_s"))
    return {"fixture": fixture, "runs": runs, "traced": traced,
            "setups": [s for s in setups if s is not None]}


def end_to_end(raw: dict) -> dict:
    ok = [r for r in raw["runs"] if "error" not in r]
    return {
        "wall_s": _median(r["wall_s"] for r in ok),
        "primes_per_s": _median(r["attempted"] / r["wall_s"] for r in ok),
        "cpu_s": _median(r["cpu_s"] for r in ok),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
        "output_bytes": _median(r["output_bytes"] for r in ok),
        "journal_bytes": _median(r["journal_bytes"] for r in ok),
        "setup_s": _median(raw["setups"]),
    }


def _replay_layers(t: dict, names) -> dict:
    """Per-layer values of one traced iteration."""
    stats, counts = t.get("stats", {}), t.get("counts", {})
    out = {"hamming.witnesses.s": stats.get("hamming.covering_radius", {}).get("self_s", 0.0),
           "hamming.witnesses.count": counts.get("witnesses", 0),
           "hamming.radius_rounds": counts.get("rounds", 0),
           "numtheory.pr_bitmap.bits": counts.get("bits", 0),
           "hamming.dilate_masks.lengths": stats.get("hamming.dilate_masks", {}).get("n", 0)}
    for name in names:
        layer, _, field = name.rpartition(".")
        if name not in out and layer in stats and not name.startswith("scan."):
            key = "n" if field in ("calls", "n") else field
            if key in stats[layer]:
                out[name] = stats[layer][key]
    return out


def per_layer(raw: dict, names) -> dict:
    ok_runs = [r for r in raw["runs"] if "error" not in r]
    ok_traced = [t for t in raw["traced"] if "error" not in t]
    # Scan-level spans come from the untraced iterations, per-prime ones from the replay.
    samples = [_replay_layers(t, names) for t in ok_traced if "stats" in t]
    samples += [r["layers"] for r in ok_runs]
    metrics = {}
    for name in names:
        metrics[name] = _median(s[name] for s in samples if name in s)
    untraced = _median(r["wall_s"] for r in ok_runs)
    traced_wall = _median(t["wall_s"] for t in ok_traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1 if untraced else 0.0
    metrics["trace.unattributed_frac"] = _median(t["unattributed_frac"] for t in ok_traced)
    return metrics


def census_estimate(layers: dict, scan: wl.Scan) -> dict:
    """CPU hours of the radius census to 3e6, extrapolated from one window."""
    window = wl.primes_in(scan.lo, scan.hi)
    n = len(window)
    p0 = sum(window) / n
    l0 = (window[0] - 1).bit_length()
    bitmap = layers["numtheory.pr_bitmap.s"] / n
    cube = (layers["hamming.dilate.s"] + layers["hamming.witnesses.s"]) / n
    flat = (layers["numtheory.factorize.s"] + layers["numtheory.least_primitive_root.s"]) / n
    total = sum(bitmap * (p / p0) ** 2 + cube * 2.0 ** ((p - 1).bit_length() - l0) + flat
                for p in wl.primes_in(3, 3_000_000))
    total += sum(layers["hamming.dilate_masks.s"] * 4.0 ** (length - l0)
                 for length in range(2, (3_000_000 - 1).bit_length() + 1))
    return {
        "census_3e6.est_cpu_h": total / 3600,
        "model": (f"extrapolation, not a measurement: per odd prime p <= 3e6, bitmap "
                  f"time x (p/p0)^2 + dilation and witness time x 2^(bit length - {l0}) "
                  f"+ factorise and least-root time, plus mask time x 4^(L - {l0}) once "
                  f"per bit length L, fitted on the {n} primes of {scan.key} "
                  f"(p0 = {p0:.0f}); radius-1 primes, whose ~p/2 witness classes cost "
                  f"far more, are absent from the window and not modelled"),
    }


def provenance(args, wk: wl.Workload, raw: dict) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": _cpu_model(), "commit": git_commit(), "seed": args.seed,
        "seed_use": "recorded only: every workload has fixed inputs",
        "tasks": {s.key: s.tasks for s in wk.scans}, "seconds": args.seconds,
        "trace": args.trace,
        "iterations": sum("error" not in r for r in raw["runs"]),
        "traced_iterations": len(raw["traced"]),
        "setup_samples": len(raw["setups"]), "uncontrolled": UNCONTROLLED,
    }


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "hamroots", "__init__.py")):
        print(f"error: no hamroots package under {SRC}", file=sys.stderr)
        return 2
    wk = wl.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    tag = f"{wk.name}-seed{args.seed}"
    trace_path = os.path.join(OUT_DIR, f"trace-{tag}.jsonl")
    try:
        raw = measure(wk, args.seconds, bool(args.trace), work, trace_path)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_primes = sum(len(wl.primes_in(s.lo, s.hi)) for s in wk.scans)
    attempted = failed = 0
    errors = []
    for r in raw["runs"] + raw["traced"] + [raw["fixture"]]:
        if "error" in r:
            errors.append(r["error"])
            attempted += n_primes
            failed += n_primes
        elif "attempted" in r:
            attempted += r["attempted"]
            failed += r["failed"]
    digests = {r["digest"] for r in raw["runs"] + raw["traced"] if "digest" in r}
    correct = failed == 0 and not errors and len(digests) == 1

    if args.trace:
        units = metric_units("per_layer")
        metrics = per_layer(raw, units)
    else:
        units = metric_units("end_to_end")
        metrics = end_to_end(raw)
    ok_runs = [r for r in raw["runs"] if "error" not in r]
    prov = provenance(args, wk, raw)
    print(f"# workload {wk.name}: {wk.why}")
    print(f"# provenance {json.dumps(prov)}")
    samples = len(raw["traced"]) if args.trace else len(ok_runs)
    for name, unit in units.items():
        n = len(raw["setups"]) if name == "setup_s" else samples
        print(f"{name} {metrics[name]!r} {unit} (median of {n})")
    print("# a run has too few iterations for a tail percentile with ten samples "
          "beyond it; per-layer .ms_tail values are over the calls of one iteration")
    print(f"failed_frac {failed / attempted if attempted else 1.0!r} fraction "
          f"({failed} of {attempted} primes failed the check)")
    if not args.trace and ok_runs:
        parent = _median(r["rss_parent_mb"] for r in ok_runs)
        worker = _median(r["rss_worker_mb"] for r in ok_runs)
        print(f"# peak_rss_mb is the parent's high-water RSS ({parent:.1f} MB) plus "
              f"tasks x the largest worker's ({worker:.1f} MB)")
    if raw["fixture"].get("fixture_s") is not None:
        print(f"# fixture_s {raw['fixture']['fixture_s']!r} s: table_read's files and "
              f"journals written for this source tree (not part of setup_s; census_full "
              f"and ww_1e6 time the same writes)")
    estimate = None
    if args.trace and wk.scans == (wl.DELTA_LARGE,) and correct:
        estimate = census_estimate(metrics, wk.scans[0])
        print(f"# census_3e6.est_cpu_h {estimate['census_3e6.est_cpu_h']!r} h "
              f"({estimate['model']})")
    for err in errors:
        print(f"# error: {err}")
    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "errors": errors, "units": units, "metrics": metrics,
              "estimate": estimate, "raw": raw}
    with open(os.path.join(OUT_DIR, f"record-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Turn SIGTERM into SystemExit so that child() kills the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
