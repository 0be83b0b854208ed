"""Shape of the benchmark's record on a tiny census ([2, 300]).

    python3 -m pytest perfbench

Checks only the record's form, never timings, so it is safe on a loaded machine.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _check_record(trace: int, section: str) -> dict:
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0
    assert isinstance(record["attempted"], int) and record["attempted"] >= 62
    declared = _declared(section)
    assert {name: m["unit"] for name, m in record["metrics"].items()} == declared
    for name, unit in declared.items():
        value = record["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines), name
    return record


def test_untraced_record_has_every_end_to_end_metric():
    record = _check_record(0, "end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_traced_record_has_every_per_layer_metric():
    record = _check_record(1, "per_layer")
    assert record["metrics"]["numtheory.factorize.calls"]["value"] == 62
    assert record["metrics"]["hamming.witnesses.count"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
