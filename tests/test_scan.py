import json
import re
import zlib

import pytest
from hypothesis import given, strategies as st

from hamroots import hamming, numtheory, scan
from hamroots.cli import main
from hamroots.errors import InvariantViolation
from hamroots.hamming import CANONICAL, DOMAIN0, Radii, lists_core_witnesses, viewed_profile
from hamroots.scan import (STATS, CountTable, ScanConfig, _line_decoder,
                           _line_encoder, format_scan_output, read_scan_output,
                           scan_range, worker_count)


def test_scan_first_rows_frozen():
    profiles = scan_range(ScanConfig(lo=3, hi=7))
    rows = [(p.p, p.w, p.W, p.delta, p.witnesses) for p in profiles]
    assert rows == [
        (3, 1, 1, 2, (1,)),
        (5, 1, 1, 2, (0, 4)),
        (7, 2, 2, 2, (6,)),
    ]


def test_scan_of_a_window_without_primes_is_empty():
    assert scan_range(ScanConfig(lo=24, hi=28)) == []


def test_scan_includes_p2_with_weight_only():
    profiles = scan_range(ScanConfig(lo=2, hi=7))
    first = profiles[0]
    assert (first.p, first.r, first.w, first.W, first.delta) == (2, 0, None, 1, None)


def test_scan_factors_each_block_in_one_sieve(monkeypatch):
    """A scan never factors its primes one at a time: factorize_pm1 factors
    every p - 1 of a block, and nothing downstream calls factorize."""
    def refuse(n):
        raise AssertionError(f"factorize({n}) called during a scan")
    for module in (numtheory, hamming, scan):
        monkeypatch.setattr(module, "factorize", refuse, raising=False)
    profiles = scan_range(ScanConfig(lo=2, hi=10_000))
    assert len(profiles) == 1229


def test_scan_deterministic_across_task_counts(monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 32)
    cfg1 = ScanConfig(lo=2, hi=1500, tasks=1)
    cfg8 = ScanConfig(lo=2, hi=1500, tasks=8)
    assert format_scan_output(cfg1, scan_range(cfg1)) == \
        format_scan_output(cfg8, scan_range(cfg8))


def _domain0(profiles):
    """The profiles under the domain0 view of their radii."""
    return [viewed_profile(pr.p, pr.r, pr.w, pr.W, pr.radii, DOMAIN0) for pr in profiles]


def test_scan_domain0_variant_rows():
    profiles = _domain0(scan_range(ScanConfig(lo=3, hi=23)))
    by_p = {p.p: p for p in profiles}
    assert by_p[23].delta == 2  # canonical would give 1
    assert all(p.W <= p.delta for p in profiles)


def test_checkpoint_resume_and_fingerprint(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    ckpt = tmp_path / "scan.ckpt"
    cfg = ScanConfig(lo=2, hi=500, checkpoint=str(ckpt))
    first = format_scan_output(cfg, scan_range(cfg))
    # the journal is the output, and its first two lines fingerprint the scan
    journal = ckpt.read_text()
    assert journal == first
    assert journal.splitlines()[:2] == [
        "# hamroots.scan.v4 lo=2 hi=500 targets=literal compute=w,W,delta",
        "p,r,w,W,core,dist_0,dist_p,witnesses,checksum"]
    # resume: all blocks already done, output identical, nothing re-journaled
    assert format_scan_output(cfg, scan_range(cfg)) == first
    assert ckpt.read_text() == journal
    # a different configuration must refuse the same journal
    other = ScanConfig(lo=2, hi=600, checkpoint=str(ckpt))
    with pytest.raises(ValueError):
        scan_range(other)


@pytest.mark.parametrize("tasks", [1, 2])
def test_journal_is_byte_identical_to_the_output(tmp_path, monkeypatch, tasks):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    ckpt = tmp_path / "scan.ckpt"
    cfg = ScanConfig(lo=2, hi=300, tasks=tasks, checkpoint=str(ckpt))
    assert format_scan_output(cfg, scan_range(cfg)) == ckpt.read_text()


@pytest.mark.parametrize("compute", [("w", "W"), ("w", "W", "delta")], ids=["w-W", "delta"])
def test_journal_resumes_under_another_domain_convention(tmp_path, monkeypatch, compute):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    ckpt = tmp_path / "scan.ckpt"
    scan_range(ScanConfig(lo=2, hi=300, compute=compute, checkpoint=str(ckpt)))
    journal = ckpt.read_text()
    ckpt.write_text("".join(journal.splitlines(keepends=True)[:2 + 16 + 3]))
    computed = []
    block = scan._scan_block
    monkeypatch.setattr(scan, "_scan_block", lambda args: computed.append(args[0]) or block(args))
    fresh = ScanConfig(lo=2, hi=300, compute=compute)
    resumed = scan_range(ScanConfig(**{**vars(fresh), "checkpoint": str(ckpt)}))
    assert ckpt.read_text() == journal
    assert computed[0][0] == 59  # the first prime after the one whole block kept
    assert _domain0(resumed) == _domain0(scan_range(fresh))


def test_partial_checkpoint_resumes_to_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    ckpt = str(tmp_path / "partial.ckpt")
    cfg = ScanConfig(lo=2, hi=500, checkpoint=ckpt)
    reference = format_scan_output(cfg, scan_range(cfg))
    # truncate the journal to simulate an interrupted run
    with open(ckpt) as fh:
        lines = fh.readlines()
    with open(ckpt, "w") as fh:
        fh.writelines(lines[: 1 + len(lines) // 2])
    resumed = format_scan_output(cfg, scan_range(cfg))
    assert resumed == reference


def test_torn_journal_tail_resumes_at_every_offset(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    ckpt = tmp_path / "torn.ckpt"
    cfg = ScanConfig(lo=2, hi=60, checkpoint=str(ckpt))
    reference = format_scan_output(cfg, scan_range(cfg))
    journal = ckpt.read_bytes()
    assert journal == reference.encode()
    assert journal.count(b"\n") == 2 + 17  # the header and the primes up to 59
    for cut in range(len(journal)):  # the header's bytes included
        ckpt.write_bytes(journal[:cut])
        assert format_scan_output(cfg, scan_range(cfg)) == reference, cut
        assert ckpt.read_bytes() == journal, cut


def test_resume_recomputes_only_the_blocks_after_the_last_whole_one(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    ckpt = tmp_path / "blocks.ckpt"
    cfg = ScanConfig(lo=2, hi=60, checkpoint=str(ckpt))
    scan_range(cfg)
    lines = ckpt.read_text().splitlines(keepends=True)
    ckpt.write_text("".join(lines[:2 + 4 + 3]))  # one whole block and three rows
    computed = []
    block = scan._scan_block
    monkeypatch.setattr(scan, "_scan_block", lambda args: computed.append(args[0]) or block(args))
    scan_range(cfg)
    assert computed == [[11, 13, 17, 19], [23, 29, 31, 37], [41, 43, 47, 53], [59]]
    assert ckpt.read_text() == "".join(lines)


def test_malformed_complete_journal_line_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    ckpt = tmp_path / "bad.ckpt"
    cfg = ScanConfig(lo=2, hi=60, checkpoint=str(ckpt))
    scan_range(cfg)
    with open(ckpt, "ab") as fh:
        fh.write(b'{"block":9,"rows":[[2,0,\n')
    with pytest.raises(ValueError):
        scan_range(cfg)


@pytest.mark.parametrize("targets", ["literal", "reduced"])
def test_csv_round_trip(tmp_path, targets):
    """A scan and its file give the same profiles: the base view of the targets."""
    cfg = ScanConfig(lo=2, hi=100, targets=targets)
    path = tmp_path / "scan.csv"
    path.write_text(format_scan_output(cfg, scan_range(cfg)), encoding="utf-8")
    assert read_scan_output(str(path)) == (cfg, scan_range(cfg))


@pytest.mark.parametrize("compute,columns", [
    (("w", "W", "delta"), "p,r,w,W,core,dist_0,dist_p,witnesses,checksum"),
    (("W", "w"), "p,r,w,W,checksum"),
    (("delta",), "p,r,core,dist_0,dist_p,witnesses,checksum"),
    (("W",), "p,r,W,checksum"),
], ids=["all", "w-W", "delta", "W"])
def test_columns_follow_the_computed_statistics(tmp_path, compute, columns):
    cfg = ScanConfig(lo=2, hi=30, compute=compute)
    profiles = scan_range(cfg)
    text = format_scan_output(cfg, profiles)
    stats = ",".join(name for name in STATS if name in compute)
    targets = "targets=literal " if "delta" in compute else ""
    assert text.splitlines()[:2] == [
        f"# hamroots.scan.v4 lo=2 hi=30 {targets}compute={stats}", columns]
    n_cells = len(columns.split(","))
    assert all(len(line.split(",")) == n_cells for line in text.splitlines()[1:])
    path = tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    scanned, parsed = read_scan_output(str(path))
    assert scanned.compute == tuple(stats.split(","))
    assert scanned.targets == "literal"
    assert parsed == profiles
    assert _domain0(parsed) == _domain0(profiles)


def _write_with_row_of_11_edited(tmp_path, field, value) -> tuple[str, int]:
    """A scan file of [2, 100] with one field of p = 11's row changed; returns
    the path and that row's line number."""
    cfg = ScanConfig(lo=2, hi=100)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("11,"))
    cells = lines[i].split(",")
    cells[lines[1].split(",").index(field)] = value
    lines[i] = ",".join(cells)
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), i + 1


def test_corrupted_checksum_rejected_with_line(tmp_path):
    path, lineno = _write_with_row_of_11_edited(tmp_path, "checksum", "deadbeef")
    with pytest.raises(ValueError, match=f"checksum mismatch on line {lineno} \\(p=11\\)"):
        read_scan_output(path)


def test_corrupted_delta_under_original_checksum_rejected(tmp_path):
    # p = 11 has core radius 2; its stored checksum is left as written
    path, lineno = _write_with_row_of_11_edited(tmp_path, "core", "3")
    with pytest.raises(ValueError, match=f"checksum mismatch on line {lineno} "):
        read_scan_output(path)


def test_journal_with_an_edited_row_is_refused_on_resume(tmp_path, capsys):
    out, ckpt = tmp_path / "scan.csv", tmp_path / "scan.csv.part"
    argv = ["scan", "--range", "2", "100", "--compute", "w,W", "--output", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    out.replace(ckpt)  # the journal of a scan killed before its rename
    lines = ckpt.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("11,3,1,"))
    lines[i] = "11,3,3," + lines[i][len("11,3,1,"):]  # w of p = 11, 1 -> 3
    ckpt.write_text("".join(lines))
    message = f"{ckpt}: checksum mismatch on line {i + 1} (p=11)"
    cfg = ScanConfig(lo=2, hi=100, compute=("w", "W"), checkpoint=str(ckpt))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scan_range(cfg)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert ckpt.read_text() == "".join(lines)  # a refused journal is left as it was
    assert not out.exists()


def _write_with_row_of_11_replaced(tmp_path, edit) -> tuple[str, int]:
    """A scan file of [2, 100] whose p = 11 line is replaced by edit(line);
    returns the path and that line's number."""
    cfg = ScanConfig(lo=2, hi=100)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("11,"))
    lines[i] = edit(lines[i])
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), i + 1


@pytest.mark.parametrize("edit", [
    lambda line: ",".join(line.split(",")[:6]),
    lambda line: line + ",0",
    lambda line: "x" + line,
    lambda line: line.replace("11,3,", "11,,", 1),
    # int() reads these back as the cell they replace.
    lambda line: line.replace("11,", "+1_1,", 1),
    lambda line: line.replace("11,3,", "11, 3,", 1),
    lambda line: "0" + line,
    lambda line: re.sub(r",(\d+),(\w+)$", r",0\1,\2", line),  # p = 11's witness 1
], ids=["six-cells", "eight-cells", "non-integer-p", "empty-r",
        "underscore-sign-p", "space-r", "zero-padded-p", "zero-padded-witness"])
def test_malformed_row_rejected_with_path_and_line(tmp_path, edit):
    path, lineno = _write_with_row_of_11_replaced(tmp_path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: line {lineno}: "):
        read_scan_output(path)


@pytest.mark.parametrize("targets,p,witnesses,message", [
    # 31: core 1, both endpoints at 2, so neither literal view reads the core
    ("literal", 31, "1", "witnesses listed where no view of literal targets reads them"),
    ("literal", 29, "", "witnesses missing where a view of literal targets reads them"),
    # 17: core 1, p at 2 under reduced targets
    ("reduced", 17, "1", "witnesses listed where no view of reduced targets reads them"),
    ("reduced", 29, "", "witnesses missing where a view of reduced targets reads them"),
], ids=["literal-unread-listed", "literal-read-missing", "reduced-unread-listed",
        "reduced-read-missing"])
def test_witness_lists_must_follow_the_views_that_read_them(tmp_path, targets, p, witnesses,
                                                            message):
    cfg = ScanConfig(lo=2, hi=100, targets=targets, compute=("delta",))
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{p},"))
    cells = lines[i].split(",")
    assert bool(cells[-2]) != bool(witnesses)
    text = ",".join([*cells[:-2], witnesses])
    lines[i] = f"{text},{zlib.crc32(text.encode()):08x}"  # a row the checksum vouches for
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: line {i + 1}: {re.escape(message)}$"):
        read_scan_output(str(path))


@pytest.mark.parametrize("edit,lineno,message", [
    (lambda lines: lines[:-1], 27, "the file ends before the row of p=97"),
    (lambda lines: lines[:-1] + [lines[-1][:-1]], 27, "the file ends before the row of p=97"),
    (lambda lines: lines[:5] + lines[6:], 6, "p=11 is not the next prime of [2, 100]"),
    (lambda lines: lines + lines[-1:], 28, "p=97 is not the next prime of [2, 100]"),
], ids=["last-row-missing", "torn-last-row", "row-missing", "row-repeated"])
def test_rows_must_be_the_primes_of_the_header_range(tmp_path, edit, lineno, message):
    cfg = ScanConfig(lo=2, hi=100)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines(keepends=True)
    path = tmp_path / "scan.csv"
    path.write_text("".join(edit(lines)), encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: line {lineno}: {re.escape(message)}$"):
        read_scan_output(str(path))


@pytest.mark.parametrize("record", [
    b'{"x":1}\n',
    b'[1,2]\n',
    b'{"block":0,"rows":[[2,0,null,1,null]]}\n',      # a row without witnesses
    b'{"block":0,"rows":[[2,0,null,"1",null,[]]]}\n',  # a string statistic
    b'{"block":"0","rows":[]}\n',
], ids=["unknown-key", "not-an-object", "short-row", "string-statistic", "string-block"])
def test_stray_journal_record_rejected_with_path_and_line(tmp_path, monkeypatch, record):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    ckpt = tmp_path / "stray.ckpt"
    cfg = ScanConfig(lo=2, hi=60, checkpoint=str(ckpt))
    scan_range(cfg)
    n_lines = ckpt.read_bytes().count(b"\n")
    with open(ckpt, "ab") as fh:
        fh.write(record)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: line {n_lines + 1}: "):
        scan_range(cfg)


def _rows_of(lo, hi) -> list[str]:
    cfg = ScanConfig(lo=lo, hi=hi, compute=("w", "W"))
    return format_scan_output(cfg, scan_range(cfg)).splitlines()[2:]


@pytest.mark.parametrize("journal,lineno,message", [
    (lambda header, rows: rows, 1,
     "expected '# hamroots.scan.v4 lo=2 hi=60 compute=w,W', "
     "got '2,0,,1,55d2e9b1'"),
    (lambda header, rows: header + _rows_of(7, 60), 3,
     "p=7 is not the next prime of [2, 60]"),
    (lambda header, rows: header + rows + _rows_of(2, 61)[-1:], 20,
     "p=61 is not the next prime of [2, 60]"),
], ids=["no-meta", "foreign-primes", "block-out-of-range"])
def test_journal_not_of_this_scan_rejected(tmp_path, journal, lineno, message):
    ckpt = tmp_path / "foreign.ckpt"
    cfg = ScanConfig(lo=2, hi=60, compute=("w", "W"), checkpoint=str(ckpt))
    lines = format_scan_output(cfg, scan_range(ScanConfig(lo=2, hi=60, compute=("w", "W"))))
    header, rows = lines.splitlines()[:2], lines.splitlines()[2:]
    ckpt.write_text("".join(line + "\n" for line in journal(header, rows)))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(ckpt))}: line {lineno}: {re.escape(message)}$"):
        scan_range(cfg)


def test_journal_of_another_scan_is_refused(tmp_path):
    ckpt = tmp_path / "scan.ckpt"
    base = {"lo": 3, "hi": 100, "checkpoint": str(ckpt)}
    scan_range(ScanConfig(**base))
    journal = ckpt.read_bytes()
    # neither the task count nor the order of the compute names is in the header
    scan_range(ScanConfig(**base, tasks=2, compute=("delta", "W", "w")))
    assert ckpt.read_bytes() == journal
    for change in ({"lo": 2}, {"hi": 101}, {"targets": "reduced"}, {"compute": ("w", "W")}):
        with pytest.raises(ValueError, match=f"^{re.escape(str(ckpt))}: line 1: expected "):
            scan_range(ScanConfig(**{**base, **change}))
        assert ckpt.read_bytes() == journal


_stat = st.none() | st.integers(min_value=0, max_value=10**6)
_radii = st.none() | st.builds(
    Radii, *[st.integers(min_value=0, max_value=40)] * 3,
    st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=300).map(tuple)
).map(lambda radii: radii if lists_core_witnesses(*radii[:3], False)
      else radii._replace(witnesses=()))  # literal targets, as the config's
_rows = st.tuples(st.integers(min_value=2, max_value=10**12), st.integers(min_value=0, max_value=40),
                  _stat, _stat, _radii)
_computes = st.sets(st.sampled_from(STATS), min_size=1).map(tuple)


@given(_rows, _computes)
def test_row_codecs_round_trip(row, compute):
    cfg = ScanConfig(lo=2, hi=3, compute=compute)
    p, r, w, big_w, radii = row
    prof = viewed_profile(p, r, w if "w" in compute else None, big_w if "W" in compute else None,
                          radii if "delta" in compute else None, CANONICAL)
    line = _line_encoder(cfg)(prof)
    assert line.endswith("\n") and "\n" not in line[:-1]
    assert _line_decoder(cfg)(line[:-1]) == prof
    text, _, checksum = line[:-1].rpartition(",")
    assert checksum == "%08x" % zlib.crc32(text.encode())


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
    path.write_text("# hamroots.scan.v9 targets=literal\np,r\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(path))
    jpath = tmp_path / "bad.jsonl"
    jpath.write_text(json.dumps({"schema": "other"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(jpath))


_W_COLUMNS = "p,r,w,checksum"
_D_COLUMNS = "p,r,core,dist_0,dist_p,witnesses,checksum"


@pytest.mark.parametrize("text,lineno,message", [
    ('{"schema":"hamroots.scan.v1" "variant":"canonical"}\n', 1,
     "unknown scan schema header '{\"schema\""),
    ('{"schema":"other"}\n', 1, "unknown scan schema header"),
    ("# hamroots.scan.v9 targets=literal\n", 1, "unknown scan schema header"),
    ("# hamroots.scan.v1 variant=canonical compute=w\np,r,w,W,delta,witnesses,checksum\n", 1,
     "unknown scan schema header '# hamroots.scan.v1 "),
    ("# hamroots.scan.v2 lo=2 hi=10 variant=canonical compute=w\np,r,w,checksum\n", 1,
     "unknown scan schema header '# hamroots.scan.v2 "),
    ("# hamroots.scan.v3 lo=2 hi=10 compute=w\np,r,w,checksum\n", 1,
     "unknown scan schema header '# hamroots.scan.v3 "),
    ("# hamroots.scan.v4 lo=2 hi=10 compute=w\np,r\n", 2,
     f"expected '{_W_COLUMNS}', got 'p,r'"),
    (f"# hamroots.scan.v4 lo=2 hi=10 compute=delta\n{_D_COLUMNS}\n", 1,
     "unknown radius targets None"),
    (f"# hamroots.scan.v4 lo=2 hi=10 targets=odd compute=delta\n{_D_COLUMNS}\n", 1,
     "unknown radius targets 'odd'"),
    (f"# hamroots.scan.v4 lo=2 hi=10 targets=literal compute=w\n{_W_COLUMNS}\n", 1,
     "expected '# hamroots.scan.v4 lo=2 hi=10 compute=w', got "),
    (f"# hamroots.scan.v4 lo=2 hi=10 variant=domain0 targets=literal compute=delta\n"
     f"{_D_COLUMNS}\n", 1, "expected '# hamroots.scan.v4 lo=2 hi=10 targets=literal "
     "compute=delta', got "),
    (f"# hamroots.scan.v4 lo=2 hi=10\n{_W_COLUMNS}\n", 1,
     "compute set must be a nonempty subset of w,W,delta, got None"),
    (f"# hamroots.scan.v4 hi=10 compute=w\n{_W_COLUMNS}\n", 1,
     "invalid literal for int"),
    (f"# hamroots.scan.v4 lo=02 hi=10 compute=w\n{_W_COLUMNS}\n", 1,
     "'02' is not a canonical integer"),
    (f"# hamroots.scan.v4 lo=10 hi=5 compute=w\n{_W_COLUMNS}\n", 1,
     r"bad scan range \[10, 5\]"),
    ("# hamroots.scan.v4 lo=2 hi=10 compute=W,w\np,r,w,W,checksum\n", 1,
     "expected '# hamroots.scan.v4 lo=2 hi=10 compute=w,W', got "),
], ids=["invalid-json", "unknown-schema", "unknown-csv-schema", "v1-header", "v2-header",
        "v3-header",
        "csv-columns", "csv-no-targets", "csv-unknown-targets", "targets-without-delta",
        "variant-in-header", "csv-no-compute", "no-lo", "zero-padded-lo", "empty-range",
        "compute-out-of-order"])
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
    row = CountTable.from_profiles(profiles, [1000]).rows[1000]
    assert (row["w"][0], row["W"][0], row["pi"]) == (87, 68, 168)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(lo=5, hi=3)
    with pytest.raises(ValueError):
        ScanConfig(lo=1, hi=10)
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, targets="mystery")
    with pytest.raises(ValueError):  # a view is not a target set
        ScanConfig(lo=3, hi=10, targets="canonical")
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, compute=("w", "Z"))
    with pytest.raises(ValueError):
        ScanConfig(lo=3, hi=10, tasks=0)


@pytest.mark.parametrize("engine,result,message", [
    ("sparsest", ((3, 7), (2, 5)), "p=23 targets=literal: w=3 > W=2"),
    # W of 23 is 2; the check compares it with the distance of 0 under
    # literal targets, whose domain0 view these radii would make 1.
    ("dilation_radii", Radii(1, 1, 1, (1,)),
     "p=23 targets=literal: the sparsest-root search gives W=2, "
     "the dilation puts 0 at distance 1"),
], ids=["w-above-W", "W-above-delta"])
def test_invariant_violation_names_prime_variant_and_values(monkeypatch, capsys,
                                                            engine, result, message):
    monkeypatch.setattr(scan, engine, lambda *args, **kwargs: result)
    with pytest.raises(InvariantViolation) as exc:
        scan_range(ScanConfig(lo=23, hi=23))
    assert str(exc.value) == message
    assert main(["scan", "--range", "23", "23", "--targets", "literal"]) == 4
    assert capsys.readouterr().err == f"invariant violation: {message}\n"
