"""Write reference.json: the rows (p, r, w, W, delta, witness count) of every
scan the benchmark runs, computed by the hamroots package in src/.

Run it only at a commit whose rows are trusted; the benchmark checks every
later commit against them.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json

import hamroots
from hamroots.scan import ScanConfig, scan_range

import run
import workloads as wl


def main() -> None:
    scans = {}
    for scan in (wl.CENSUS_FULL, wl.WW_1E6, wl.DELTA_LARGE, wl.SMOKE):
        config = ScanConfig(lo=scan.lo, hi=scan.hi, tasks=scan.tasks, compute=scan.compute)
        rows = [wl.row_of(prof) for prof in scan_range(config)]
        scans[scan.key] = wl.encode_reference(scan, rows)
    reference = {"commit": run.git_commit(), "hamroots": hamroots.__version__,
                 "scans": scans}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
