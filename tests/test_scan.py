import json
import re

import pytest
from hypothesis import given, strategies as st

from hamroots import scan
from hamroots.cli import main
from hamroots.errors import InvariantViolation
from hamroots.hamming import HammingProfile
from hamroots.scan import (CSV_COLUMNS, FIELDS, CountTable, ScanConfig,
                           _csv_decode, _csv_encode, _jsonl_decode,
                           _jsonl_encode, _row_checksum, format_scan_output,
                           read_scan_output, scan_frequencies, scan_range,
                           worker_count)


def test_scan_first_rows_frozen():
    profiles = scan_range(ScanConfig(lo=3, hi=7))
    rows = [(p.p, p.w, p.W, p.delta, p.witnesses) for p in profiles]
    assert rows == [
        (3, 1, 1, 2, (1,)),
        (5, 1, 1, 2, (0, 4)),
        (7, 2, 2, 2, (6,)),
    ]


def test_scan_includes_p2_with_weight_only():
    profiles = scan_range(ScanConfig(lo=2, hi=7))
    first = profiles[0]
    assert (first.p, first.r, first.w, first.W, first.delta) == (2, 0, None, 1, None)


def test_scan_deterministic_across_task_counts():
    cfg1 = ScanConfig(lo=2, hi=1500, tasks=1, block_size=32)
    cfg8 = ScanConfig(lo=2, hi=1500, tasks=8, block_size=32)
    assert format_scan_output(cfg1, scan_range(cfg1)) == \
        format_scan_output(cfg8, scan_range(cfg8))


def test_scan_domain0_variant_rows():
    profiles = scan_range(ScanConfig(lo=3, hi=23, variant="domain0"))
    by_p = {p.p: p for p in profiles}
    assert by_p[23].delta == 2  # canonical would give 1
    assert all(p.W <= p.delta for p in profiles)


def test_checkpoint_resume_and_fingerprint(tmp_path):
    ckpt = str(tmp_path / "scan.ckpt")
    cfg = ScanConfig(lo=2, hi=500, block_size=16, checkpoint=ckpt)
    first = format_scan_output(cfg, scan_range(cfg))
    # every block is journaled once
    with open(ckpt) as fh:
        recs = [json.loads(line) for line in fh]
    assert recs[0]["meta"]
    n_blocks = len([r for r in recs if "block" in r])
    # resume: all blocks already done, output identical
    again = format_scan_output(cfg, scan_range(cfg))
    assert first == again
    with open(ckpt) as fh:
        assert len(fh.readlines()) == n_blocks + 1  # nothing re-journaled
    # a different configuration must refuse the same journal
    other = ScanConfig(lo=2, hi=600, block_size=16, checkpoint=ckpt)
    with pytest.raises(ValueError):
        scan_range(other)


def test_partial_checkpoint_resumes_to_identical_bytes(tmp_path):
    ckpt = str(tmp_path / "partial.ckpt")
    cfg = ScanConfig(lo=2, hi=500, block_size=16, checkpoint=ckpt)
    reference = format_scan_output(cfg, scan_range(cfg))
    # truncate the journal to simulate an interrupted run
    with open(ckpt) as fh:
        lines = fh.readlines()
    with open(ckpt, "w") as fh:
        fh.writelines(lines[: 1 + len(lines) // 2])
    resumed = format_scan_output(cfg, scan_range(cfg))
    assert resumed == reference


def test_torn_journal_tail_resumes_at_every_offset(tmp_path):
    ckpt = tmp_path / "torn.ckpt"
    cfg = ScanConfig(lo=2, hi=60, block_size=4, checkpoint=str(ckpt))
    reference = format_scan_output(cfg, scan_range(cfg))
    journal = ckpt.read_bytes()
    assert journal.count(b"\n") == 6  # the header and five blocks
    for cut in range(len(journal)):
        ckpt.write_bytes(journal[:cut])
        assert format_scan_output(cfg, scan_range(cfg)) == reference, cut
        assert ckpt.read_bytes() == journal, cut


def test_malformed_complete_journal_line_rejected(tmp_path):
    ckpt = tmp_path / "bad.ckpt"
    cfg = ScanConfig(lo=2, hi=60, block_size=4, checkpoint=str(ckpt))
    scan_range(cfg)
    with open(ckpt, "ab") as fh:
        fh.write(b'{"block":9,"rows":[[2,0,\n')
    with pytest.raises(ValueError):
        scan_range(cfg)


def test_csv_round_trip(tmp_path):
    cfg = ScanConfig(lo=2, hi=100)
    profiles = scan_range(cfg)
    path = tmp_path / "scan.csv"
    path.write_text(format_scan_output(cfg, profiles), encoding="utf-8")
    meta, parsed = read_scan_output(str(path))
    assert meta["variant"] == "canonical"
    assert [(a.p, a.w, a.W, a.delta, a.witnesses) for a in parsed] == \
        [(b.p, b.w, b.W, b.delta, b.witnesses) for b in profiles]


def test_jsonl_round_trip(tmp_path):
    cfg = ScanConfig(lo=2, hi=100, fmt="jsonl")
    profiles = scan_range(cfg)
    path = tmp_path / "scan.jsonl"
    path.write_text(format_scan_output(cfg, profiles), encoding="utf-8")
    meta, parsed = read_scan_output(str(path))
    assert meta["schema"].endswith("v1")
    assert [(a.p, a.delta) for a in parsed] == [(b.p, b.delta) for b in profiles]


def _write_with_row_of_11_edited(tmp_path, fmt, field, value) -> tuple[str, int]:
    """A scan file of [2, 100] with one field of p = 11's row changed; returns
    the path and that row's line number."""
    cfg = ScanConfig(lo=2, hi=100, fmt=fmt)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(("11,", '{"p":11,')))
    if fmt == "csv":
        cells = lines[i].split(",")
        cells[CSV_COLUMNS.split(",").index(field)] = value
        lines[i] = ",".join(cells)
    else:
        rec = json.loads(lines[i])
        rec[field] = value
        lines[i] = json.dumps(rec, separators=(",", ":"))
    path = tmp_path / f"scan.{fmt}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), i + 1


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_corrupted_checksum_rejected_with_line(tmp_path, fmt):
    path, lineno = _write_with_row_of_11_edited(tmp_path, fmt, "checksum", "deadbeef")
    with pytest.raises(ValueError, match=f"checksum mismatch on line {lineno} \\(p=11\\)"):
        read_scan_output(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_corrupted_delta_under_original_checksum_rejected(tmp_path, fmt):
    # p = 11 has delta 2; its stored checksum is left as written
    path, lineno = _write_with_row_of_11_edited(tmp_path, fmt, "delta",
                                                "3" if fmt == "csv" else 3)
    with pytest.raises(ValueError, match=f"checksum mismatch on line {lineno} "):
        read_scan_output(path)


def _write_with_row_of_11_replaced(tmp_path, fmt, edit) -> tuple[str, int]:
    """A scan file of [2, 100] whose p = 11 line is replaced by edit(line);
    returns the path and that line's number."""
    cfg = ScanConfig(lo=2, hi=100, fmt=fmt)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(("11,", '{"p":11,')))
    lines[i] = edit(lines[i])
    path = tmp_path / f"scan.{fmt}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), i + 1


_DROP = object()


def _json_edit(**changes):
    def edit(line):
        rec = json.loads(line)
        for key, value in changes.items():
            if value is _DROP:
                del rec[key]
            else:
                rec[key] = value
        return json.dumps(rec, separators=(",", ":"))
    return edit


@pytest.mark.parametrize("fmt,edit", [
    ("jsonl", _json_edit(delta=_DROP)),
    ("jsonl", _json_edit(extra=1)),
    ("jsonl", _json_edit(p="11", delta="2")),  # str() of these matches the checksum
    ("jsonl", _json_edit(witnesses=["3"])),
    ("jsonl", _json_edit(r=None)),
    ("csv", lambda line: ",".join(line.split(",")[:6])),
    ("csv", lambda line: line + ",0"),
    ("csv", lambda line: "x" + line),
    ("csv", lambda line: line.replace("11,3,", "11,,", 1)),
    # int() reads these back as the row they replace, so the checksum matches.
    ("csv", lambda line: line.replace("11,", "+1_1,", 1)),
    ("csv", lambda line: line.replace("11,3,", "11, 3,", 1)),
    ("csv", lambda line: "0" + line),
    ("csv", lambda line: line.replace(",0;1,", ",0;01,", 1)),
], ids=["missing-key", "extra-key", "string-p-and-delta", "string-witness", "null-r",
        "six-cells", "eight-cells", "non-integer-p", "empty-r",
        "underscore-sign-p", "space-r", "zero-padded-p", "zero-padded-witness"])
def test_malformed_row_rejected_with_path_and_line(tmp_path, fmt, edit):
    path, lineno = _write_with_row_of_11_replaced(tmp_path, fmt, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: line {lineno}: "):
        read_scan_output(path)


@pytest.mark.parametrize("record", [
    b'{"x":1}\n',
    b'[1,2]\n',
    b'{"block":0,"rows":[[2,0,null,1,null]]}\n',      # a row without witnesses
    b'{"block":0,"rows":[[2,0,null,"1",null,[]]]}\n',  # a string statistic
    b'{"block":"0","rows":[]}\n',
], ids=["unknown-key", "not-an-object", "short-row", "string-statistic", "string-block"])
def test_stray_journal_record_rejected_with_path_and_line(tmp_path, record):
    ckpt = tmp_path / "stray.ckpt"
    cfg = ScanConfig(lo=2, hi=60, block_size=4, checkpoint=str(ckpt))
    scan_range(cfg)
    n_lines = ckpt.read_bytes().count(b"\n")
    with open(ckpt, "ab") as fh:
        fh.write(record)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: line {n_lines + 1}: "):
        scan_range(cfg)


_stat = st.none() | st.integers(min_value=0, max_value=10**6)
_rows = st.tuples(st.integers(min_value=2, max_value=10**12), st.integers(min_value=0, max_value=40),
                  _stat, _stat, _stat,
                  st.lists(st.integers(min_value=0, max_value=10**12), max_size=300)
                  ).map(list)


@given(_rows)
def test_row_codecs_round_trip(row):
    assert len(row) == len(FIELDS)
    for encode, decode in ((_csv_encode, _csv_decode), (_jsonl_encode, _jsonl_decode)):
        assert decode(encode(row) + "\n") == (row, _row_checksum(row))


def test_worker_count_is_bounded():
    assert worker_count(1, 20, 2) == 1
    assert worker_count(8, 20, 2) == 2     # CPUs
    assert worker_count(8, 3, 64) == 3     # blocks left
    assert worker_count(4, 20, 64) == 4    # the request
    assert worker_count(8, 20, None) == 1  # unknown CPU count
    assert worker_count(10**6, 1, 10**6) == 1
    assert worker_count(4, 0, 8) == 0      # nothing left to do


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# hamroots.scan.v9 variant=canonical\np,r\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(path))
    jpath = tmp_path / "bad.jsonl"
    jpath.write_text(json.dumps({"schema": "other"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(jpath))


@pytest.mark.parametrize("text,lineno,message", [
    ('{"schema":"hamroots.scan.v1" "variant":"canonical"}\n', 1, "Expecting ',' delimiter"),
    ('{"schema":"other"}\n', 1, "unknown scan schema 'other'"),
    ("# hamroots.scan.v9 variant=canonical\n", 1, "unknown scan schema header"),
    ("# hamroots.scan.v1 variant=canonical compute=w\np,r\n", 2, "unexpected CSV columns"),
], ids=["invalid-json", "unknown-schema", "unknown-csv-schema", "csv-columns"])
def test_bad_header_rejected_with_path_and_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.scan"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {lineno}: {message}"):
        read_scan_output(str(path))


def test_count_table_identities():
    profiles = scan_range(ScanConfig(lo=2, hi=1000, tasks=2))
    table = CountTable.from_profiles(profiles, [1000])
    row = table.rows[1000]
    assert row["pi"] == 168
    assert row["w"] == [87, 80, 0, 0]
    assert row["W"] == [68, 100, 0, 0]
    assert table.sum_identity_ok(1000, "w")
    assert table.sum_identity_ok(1000, "W")
    assert table.sum_identity_ok(1000, "delta")


def test_frequencies_at_1000():
    profiles = scan_range(ScanConfig(lo=2, hi=1000, compute=("w", "W")))
    freq = scan_frequencies(profiles, 1000)
    assert (freq["w1"], freq["W1"], freq["pi"]) == (87, 68, 168)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(lo=5, hi=3)
    with pytest.raises(ValueError):
        ScanConfig(lo=1, hi=10)
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, variant="mystery")
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, compute=("w", "Z"))
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, fmt="xml")
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, tasks=0)


def test_fingerprint_sensitivity():
    base = ScanConfig(lo=3, hi=100)
    assert base.fingerprint() == ScanConfig(lo=3, hi=100).fingerprint()
    assert base.fingerprint() != ScanConfig(lo=3, hi=101).fingerprint()
    assert base.fingerprint() != ScanConfig(lo=3, hi=100, variant="domain0").fingerprint()
    assert base.fingerprint() != ScanConfig(lo=3, hi=100, compute=("w",)).fingerprint()


@pytest.mark.parametrize("variant,stats,message", [
    ("canonical", {"w": 3, "W": 2}, "p=23 variant=canonical: w=3 > W=2"),
    ("domain0", {"w": 1, "W": 2, "delta": 1}, "p=23 variant=domain0: W=2 > delta=1"),
], ids=["w-above-W", "W-above-delta"])
def test_invariant_violation_names_prime_variant_and_values(monkeypatch, capsys,
                                                            variant, stats, message):
    monkeypatch.setattr(scan, "hamming_profile", lambda ctx, var, compute: HammingProfile(
        p=ctx.p, r=ctx.r, variant=var.name, **stats))
    with pytest.raises(InvariantViolation) as exc:
        scan_range(ScanConfig(lo=23, hi=23, variant=variant))
    assert str(exc.value) == message
    assert main(["scan", "--range", "23", "23", "--variant", variant]) == 4
    assert capsys.readouterr().err == f"invariant violation: {message}\n"
