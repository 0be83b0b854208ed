import argparse
import contextlib
import functools
import gc
import json
import math
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hamroots
from hamroots import cli, cubes, hamming, numtheory, scan
from hamroots.cli import main
from hamroots.errors import InvariantViolation
from hamroots.hamming import BASE_VIEWS, CANONICAL, DOMAIN0, HammingProfile, Radii
from hamroots.scan import (STATS, CountTable, ScanConfig, _block_encoder, _line_decoder,
                           format_scan_output, read_scan_output, scan_range, worker_count)


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
    """A scan never factors its primes one at a time for its statistics:
    factorize_pm1 factors every p - 1 of a block. The one factorize per odd
    prime is the delta bitmap check's phi(p - 1), through euler_phi, which
    must not read the block sieve that the bitmap was built from."""
    called = []
    factorize = numtheory.factorize
    for module in (numtheory, hamming, scan):
        monkeypatch.setattr(module, "factorize",
                            lambda n: called.append(n) or factorize(n), raising=False)
    numtheory.euler_phi.cache_clear()
    assert len(scan_range(ScanConfig(lo=2, hi=10_000, compute=("w", "W")))) == 1229
    assert called == []
    profiles = scan_range(ScanConfig(lo=2, hi=10_000))
    assert len(profiles) == 1229
    assert called == [prof.p - 1 for prof in profiles[1:]]


def test_ww_scan_builds_no_prime_context(monkeypatch):
    """A w,W scan reads p and the odd exponents (p-1)/q off the block sieve
    and builds no PrimeContext; a delta scan, whose primitive-root bitmap is
    cached on a context, builds one for each odd prime."""
    cfg = ScanConfig(lo=2, hi=10_000, compute=("w", "W"))
    expected = scan_range(cfg)

    def refuse(*args):
        raise AssertionError(f"PrimeContext{args} built during a w,W scan")
    for module in (numtheory, scan):
        monkeypatch.setattr(module, "PrimeContext", refuse)
    assert scan_range(cfg) == expected
    assert len(expected) == 1229
    monkeypatch.undo()
    built = []
    monkeypatch.setattr(scan, "PrimeContext",
                        lambda p, qs: built.append(p) or numtheory.PrimeContext(p, qs))
    profiles = scan_range(ScanConfig(lo=2, hi=300))
    assert built == [prof.p for prof in profiles if prof.p > 2]
    assert all(prof.delta is not None for prof in profiles[1:])


def test_scan_deterministic_across_task_counts(monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 32)
    cfg1 = ScanConfig(lo=2, hi=1500, tasks=1)
    cfg8 = ScanConfig(lo=2, hi=1500, tasks=8)
    assert format_scan_output(cfg1, scan_range(cfg1)) == \
        format_scan_output(cfg8, scan_range(cfg8))


def _domain0(profiles):
    """The profiles under the domain0 view of their radii."""
    return [HammingProfile(pr.p, pr.r, pr.w, pr.W, variant=DOMAIN0.name, radii=pr.radii)
            for pr in profiles]


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
        "# hamroots.scan.v7 lo=2 hi=500 targets=literal compute=w,W,delta",
        "p,w,W,core,dist_0,dist_p,core_count"]
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
    ckpt.write_text("".join(journal.splitlines(keepends=True)[:2 + 17 + 3]))
    computed = []
    block = scan._scan_block
    monkeypatch.setattr(scan, "_scan_block", lambda args: computed.append(args[0]) or block(args))
    fresh = ScanConfig(lo=2, hi=300, compute=compute)
    resumed = scan_range(ScanConfig(**{**fresh._asdict(), "checkpoint": str(ckpt)}))
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
    # the header, the primes up to 59 and a checksum line after each of 5 blocks
    assert journal.count(b"\n") == 2 + 17 + 5
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
    ckpt.write_text("".join(lines[:2 + 5 + 3]))  # one block with its checksum line and three rows
    computed = []
    block = scan._scan_block
    monkeypatch.setattr(scan, "_scan_block", lambda args: computed.append(args[0]) or block(args))
    scan_range(cfg)
    assert computed == [[11, 13, 17, 19], [23, 29, 31, 37], [41, 43, 47, 53], [59]]
    assert ckpt.read_text() == "".join(lines)


# The file of [2, 60] in blocks of 4: rows on lines 3-6, 8-11, 13-16, 18-21
# and 23 (the prime 59), each block's checksum line after its rows.
_BLOCK_EDITS = {
    "checksum-mismatch": (lambda lines: lines[:11] + ["# crc32 00000000\n"] + lines[12:], 12,
                          "checksum mismatch on the rows of lines 8-11"),
    "short-block-mid-range": (lambda lines: forged(lines[:10] + lines[11:]), 11,
                              "a checksum line after 3 rows, fewer than 4, before the last "
                              "prime of [2, 60]"),
    "too-many-rows": (lambda lines: forged(lines[:11] + lines[12:]), 12,
                      "more than 4 rows before a checksum line"),
    "block-after-the-last": (lambda lines: forged(lines + lines[-2:]), 25,
                             "the scan of [2, 60] ends on line 24, but the file goes on"),
}


@pytest.mark.parametrize("reader", ["scan-file", "journal"])
@pytest.mark.parametrize("edit,lineno,message", _BLOCK_EDITS.values(), ids=_BLOCK_EDITS)
def test_blocks_must_be_whole_and_checksummed(tmp_path, monkeypatch, reader, edit, lineno,
                                              message):
    """A block is its rows and a checksum line that holds their crc32: all
    but the range's last hold `BLOCK_SIZE` rows, and the file ends after
    that last block. The reader and a resume refuse any other, naming the
    line, and a refused journal is left as it was."""
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    cfg = ScanConfig(lo=2, hi=60, compute=("w", "W"))
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines(keepends=True)
    assert len(lines) == 24 and lines[11].startswith("# crc32 ")
    path = tmp_path / "scan.csv"
    path.write_text("".join(edit(lines)))
    text = path.read_text()
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {lineno}: {message}')}$"):
        if reader == "scan-file":
            read_scan_output(str(path))
        else:
            scan_range(cfg._replace(checkpoint=str(path)))
    assert path.read_text() == text


@pytest.mark.parametrize("cut", ["mid-row", "before-the-checksum-line", "mid-checksum-line"])
def test_a_part_cut_within_a_block_resumes_to_identical_bytes(tmp_path, monkeypatch, cut):
    """A `.part` cut by a crash within its third block, in a row, just
    before the block's checksum line or in that line, keeps the two blocks
    before it, whose rows alone are decoded, and computes the rest again."""
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    out, part = tmp_path / "scan.csv", tmp_path / "scan.csv.part"
    argv = ["scan", "--range", "2", "60", "--compute", "w,W", "--output", str(out)]
    assert main(argv) == 0
    whole = out.read_bytes()
    lines = whole.splitlines(keepends=True)
    assert lines[13].startswith(b"29,") and lines[16].startswith(b"# crc32 ")
    offset = {"mid-row": len(b"".join(lines[:13])) + 2,
              "before-the-checksum-line": len(b"".join(lines[:16])),
              "mid-checksum-line": len(b"".join(lines[:16])) + 10}[cut]
    out.unlink()
    part.write_bytes(whole[:offset])
    decoded, computed = _counting_decoder(monkeypatch), []
    block = scan._scan_block
    monkeypatch.setattr(scan, "_scan_block", lambda args: computed.append(args[0]) or block(args))
    assert main(argv) == 0
    assert decoded == [2, 3, 5, 7, 11, 13, 17, 19]
    assert computed == [[23, 29, 31, 37], [41, 43, 47, 53], [59]]
    assert out.read_bytes() == whole and not part.exists()


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
    (("w", "W", "delta"), "p,w,W,core,dist_0,dist_p,core_count"),
    (("W", "w"), "p,w,W"),
    (("delta",), "p,core,dist_0,dist_p,core_count"),
    (("W",), "p,W"),
], ids=["all", "w-W", "delta", "W"])
def test_columns_follow_the_computed_statistics(tmp_path, compute, columns):
    cfg = ScanConfig(lo=2, hi=30, compute=compute)
    profiles = scan_range(cfg)
    text = format_scan_output(cfg, profiles)
    stats = ",".join(name for name in STATS if name in compute)
    targets = "targets=literal " if "delta" in compute else ""
    assert text.splitlines()[:2] == [
        f"# hamroots.scan.v7 lo=2 hi=30 {targets}compute={stats}", columns]
    n_cells = len(columns.split(","))
    assert all(len(line.split(",")) == n_cells for line in text.splitlines()[1:-1])
    assert re.fullmatch("# crc32 [0-9a-f]{8}", text.splitlines()[-1])
    path = tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    scanned, parsed = read_scan_output(str(path))
    assert scanned.compute == tuple(stats.split(","))
    assert scanned.targets == "literal"
    assert parsed == profiles
    assert _domain0(parsed) == _domain0(profiles)


def forged(lines: list[str]) -> str:
    """The text of a scan file's lines, newlines kept, with each checksum
    line recomputed from the rows before it: edited rows under checksums
    that vouch for them, which the reader decodes and checks cell by cell."""
    text, block = "".join(lines[:2]), ""
    for line in lines[2:]:
        if line.startswith("# crc32 ") and line.endswith("\n"):  # a torn one stays torn
            line, block = f"# crc32 {zlib.crc32(block.encode()):08x}\n", ""
        else:
            block += line
        text += line
    return text


def _scan_file_of_2_to_100(tmp_path, edit) -> str:
    """The path of the scan file of [2, 100], one block of 25 rows on lines
    3 to 27 and its checksum line on line 28, its lines edited by edit."""
    cfg = ScanConfig(lo=2, hi=100)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines(keepends=True)
    assert len(lines) == 28 and lines[27].startswith("# crc32 ")
    path = tmp_path / "scan.csv"
    path.write_text("".join(edit(lines)), encoding="utf-8")
    return str(path)


def _counting_decoder(monkeypatch) -> list[int]:
    """The p of each row that the reader decodes, in order, from now on."""
    decoded, line_decoder = [], scan._line_decoder

    def counting(config):
        decode = line_decoder(config)

        def counted(line):
            prof = decode(line)
            decoded.append(prof.p)
            return prof
        return counted
    monkeypatch.setattr(scan, "_line_decoder", counting)
    return decoded


def _with_row_of_11_edited(field, value):
    """An edit of a scan file's lines that sets one field of p = 11's row."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("11,"))
        cells = lines[i][:-1].split(",")
        cells[lines[1][:-1].split(",").index(field)] = value
        return lines[:i] + [",".join(cells) + "\n"] + lines[i + 1:]
    return edit


def test_corrupted_checksum_rejected_with_line(tmp_path):
    path = _scan_file_of_2_to_100(tmp_path, lambda lines: lines[:27] + ["# crc32 deadbeef\n"])
    message = f"{path}: line 28: checksum mismatch on the rows of lines 3-27"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_scan_output(path)


def test_corrupted_delta_under_original_checksum_rejected(tmp_path, monkeypatch):
    """p = 11 has core radius 2; edited to 3 under the block's checksum as
    written, the block is refused at its checksum line before any of its
    rows is decoded."""
    path = _scan_file_of_2_to_100(tmp_path, _with_row_of_11_edited("core", "3"))
    decoded = _counting_decoder(monkeypatch)
    message = f"{path}: line 28: checksum mismatch on the rows of lines 3-27"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_scan_output(path)
    assert decoded == []


def test_journal_with_an_edited_row_is_refused_on_resume(tmp_path, capsys, monkeypatch):
    # In one block, and in the second of several, after a whole block has
    # been yielded: either way the journal is cut only after the whole read.
    for block_size, p, streamed in ((scan.BLOCK_SIZE, 11, []),
                                    (8, 29, [2, 3, 5, 7, 11, 13, 17, 19])):
        monkeypatch.setattr(scan, "BLOCK_SIZE", block_size)
        out, ckpt = tmp_path / f"scan{p}.csv", tmp_path / f"scan{p}.csv.part"
        argv = ["scan", "--range", "2", "100", "--compute", "w,W", "--output", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        out.replace(ckpt)  # the journal of a scan killed before its rename
        lines = ckpt.read_text().splitlines(keepends=True)
        row = f"{p},"
        i = next(i for i, line in enumerate(lines) if line.startswith(row + "1,"))
        lines[i] = row + "3," + lines[i][len(row + "1,"):]  # w of p, 1 -> 3
        ckpt.write_text("".join(lines))
        # the checksum line of p's block, and the line of the block's first row
        end = next(j for j in range(i, len(lines)) if lines[j].startswith("# crc32 "))
        first = max(j for j in range(i) if j < 2 or lines[j].startswith("# crc32 ")) + 2
        message = f"{ckpt}: line {end + 1}: checksum mismatch on the rows of lines {first}-{end}"
        cfg = ScanConfig(lo=2, hi=100, compute=("w", "W"), checkpoint=str(ckpt))
        yielded = []
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            yielded.extend(prof.p for prof in scan.scan_profiles(cfg))
        assert yielded == streamed
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert ckpt.read_text() == "".join(lines)  # a refused journal is left as it was
        assert not out.exists()


def test_row_whose_p_is_not_the_next_prime_is_refused(tmp_path, capsys):
    """A row holds p and not r, which the reader derives from p. The row of 5
    edited to p = 7, whose r is that of 5, under a recomputed block checksum
    is refused by the reader and by a resume of its journal."""
    out, ckpt = tmp_path / "scan.csv", tmp_path / "scan.csv.part"
    argv = ["scan", "--range", "2", "100", "--compute", "w,W", "--output", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
    lines[i] = "7," + lines[i][len("5,"):]
    out.write_text(forged(lines))
    message = f"line {i + 1}: p=7 is not the next prime of [2, 100]"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{out}: {message}')}$"):
        read_scan_output(str(out))
    out.replace(ckpt)  # the journal of a scan killed before its rename
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {ckpt}: {message}\n")
    assert ckpt.read_text() == forged(lines)  # a refused journal is left as it was
    assert not out.exists()


def test_every_profile_has_the_r_of_its_prime(tmp_path, monkeypatch):
    """No row holds r, so every profile gets the r of its prime's context:
    scanned afresh, resumed from a journal and read with --scan-file."""
    monkeypatch.setattr(scan, "BLOCK_SIZE", 256)
    ckpt = tmp_path / "scan.csv.part"
    cfg = ScanConfig(lo=2, hi=10**4, checkpoint=str(ckpt))
    fresh = scan_range(cfg)
    lines = ckpt.read_text().splitlines(keepends=True)
    ckpt.write_text("".join(lines[:2 + 3 * 257 + 10]))  # three blocks and ten rows
    resumed = scan_range(cfg)
    args = argparse.Namespace(command="table", limit=10**4, tasks=1, scan_file=str(ckpt))
    read = list(cli._census_profiles(args, 2, STATS, CANONICAL.name))
    assert len(fresh) == 1229 and fresh == resumed == read
    for prof in fresh + resumed + read:
        assert prof.r == numtheory.PrimeContext.for_prime(prof.p).r


def _write_with_row_of_11_replaced(tmp_path, edit) -> tuple[str, int]:
    """A scan file of [2, 100] whose p = 11 line, line 7, is replaced by
    edit(line) under a recomputed block checksum; returns the path and 7."""
    def replace(lines):
        assert lines[6].startswith("11,")
        return forged(lines[:6] + [edit(lines[6][:-1]) + "\n"] + lines[7:])
    return _scan_file_of_2_to_100(tmp_path, replace), 7


def _blank(line: str, *cells: int) -> str:
    """line with the cells at these indices emptied."""
    return ",".join("" if j in cells else cell for j, cell in enumerate(line.split(",")))


@pytest.mark.parametrize("edit", [
    lambda line: ",".join(line.split(",")[:6]),
    lambda line: line + ",0",
    lambda line: "x" + line,
    lambda line: _blank(line, 0),
    # int() reads these back as the cell they replace.
    lambda line: line.replace("11,", "+1_1,", 1),
    lambda line: line.replace("11,1,", "11, 1,", 1),
    lambda line: "0" + line,
    lambda line: re.sub(r",(\d+)$", r",0\1", line),  # p = 11's core count 1
    # The writer leaves these empty in the row of p = 2 alone.
    lambda line: _blank(line, 1),
    lambda line: _blank(line, 2),
    lambda line: _blank(line, 3, 4, 5, 6),
], ids=["six-cells", "eight-cells", "non-integer-p", "empty-p",
        "underscore-sign-p", "space-w", "zero-padded-p", "zero-padded-witness",
        "empty-w", "empty-W", "empty-radii"])
def test_malformed_row_rejected_with_path_and_line(tmp_path, edit):
    path, lineno = _write_with_row_of_11_replaced(tmp_path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: line {lineno}: "):
        read_scan_output(path)


@pytest.mark.parametrize("cells, got", [
    ({2: ""}, ",,,,,"),           # W blanked
    ({1: "1"}, "1,1,,,,"),        # w set
    ({3: "0", 4: "1", 5: "1", 6: "1"}, ",1,0,1,1,1"),  # radii filled
], ids=["empty-W", "w-set", "radii-filled"])
def test_the_row_of_2_must_be_the_one_the_writer_writes(tmp_path, cells, got):
    """p = 2 has no w and no radii, and W = 1; a row of 2 edited under a
    recomputed block checksum is refused like any malformed row."""
    cfg = ScanConfig(lo=2, hi=100)
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines(keepends=True)
    assert lines[2] == "2,,1,,,,\n"
    row = lines[2][:-1].split(",")
    for j, cell in cells.items():
        row[j] = cell
    lines[2] = ",".join(row) + "\n"
    path = tmp_path / "scan.csv"
    path.write_text(forged(lines), encoding="utf-8")
    message = f"{path}: line 3: the row of p=2 must hold ',1,,,,' after p, got '{got}'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_scan_output(str(path))


def _delta_scan_3000(targets):
    """The delta scan of [3, 3000] under these targets, and its file."""
    cfg = ScanConfig(lo=3, hi=3000, targets=targets, compute=("delta",))
    profiles = scan_range(cfg)
    return cfg, profiles, format_scan_output(cfg, profiles)


@pytest.mark.parametrize("targets", sorted(BASE_VIEWS))
def test_derived_witnesses_have_the_row_count_and_are_the_oracle_lists(tmp_path, targets):
    """A row holds the count of the core witnesses, not their list. Every
    profile derives its list when read: it has the row's count and is the
    list of `covering_radius` for the base view, and so for a profile read
    back from the file."""
    cfg, profiles, text = _delta_scan_3000(targets)
    path = tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    base = BASE_VIEWS[targets]
    assert read_scan_output(str(path)) == (cfg, profiles)
    for prof in profiles:
        assert prof.variant == base.name and prof.witness_count >= 1
        wits = prof.witnesses
        assert len(wits) == prof.witness_count, prof.p
        assert (prof.delta, wits) == hamming.covering_radius(
            numtheory.PrimeContext.for_prime(prof.p), base), prof.p


@pytest.mark.parametrize("targets", sorted(BASE_VIEWS))
@pytest.mark.parametrize("offset", [-1, 1])
def test_a_row_whose_core_count_is_off_is_refused_when_its_witnesses_are_read(
        tmp_path, targets, offset):
    """A core_count one off, under a recomputed block checksum, reads back;
    the derived list then disagrees with the row, and reading it names the
    prime, the statistic and the engine."""
    cfg, _, text = _delta_scan_3000(targets)
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("29,"))
    cells = lines[i][:-1].split(",")
    cells[-1] = str(int(cells[-1]) + offset)
    lines[i] = ",".join(cells) + "\n"
    path = tmp_path / "scan.csv"
    path.write_text(forged(lines), encoding="utf-8")  # a row the checksum vouches for
    mutant = next(prof for prof in read_scan_output(str(path))[1] if prof.p == 29)
    delta, wits = hamming.covering_radius(numtheory.PrimeContext.for_prime(29),
                                          BASE_VIEWS[targets])
    assert mutant.radii.core == mutant.delta == delta  # the core witnesses are read
    assert mutant.witness_count == len(wits) + offset
    with pytest.raises(InvariantViolation) as exc:
        mutant.witnesses
    assert str(exc.value) == (
        f"p=29 variant={BASE_VIEWS[targets].name}: the row gives delta={delta} with "
        f"{len(wits) + offset} witness classes, but the dilation for delta "
        f"(covering_radius) lists {len(wits)} at delta={delta}")


def test_comparing_printing_and_counting_profiles_derive_no_list(monkeypatch):
    """Equality, repr and CountTable read what a profile holds; with
    `covering_radius` refusing to run they still work. Reading the witnesses
    runs it, also for a profile whose core is nearer than delta, whose list
    is the class 0 alone."""
    profiles = scan_range(ScanConfig(lo=2, hi=3000))
    domain0 = _domain0(profiles)
    again = scan_range(ScanConfig(lo=2, hi=3000))
    nearer = [prof for prof in domain0[1:] if prof.radii.core < prof.delta]
    assert len(nearer) == 39 and {prof.witnesses for prof in nearer} == {(0,)}
    assert {prof.witness_count for prof in nearer} == {1}

    def refuse(*args):
        raise AssertionError("a witness list was derived")
    monkeypatch.setattr(hamming, "covering_radius", refuse)
    assert profiles == again and profiles != domain0
    assert all("witnesses" not in repr(prof) for prof in profiles[1:] + domain0[1:])
    assert repr(profiles[1]) == ("HammingProfile(p=3, r=1, w=1, W=1, delta=2, witness_count=1, "
                                 "variant='canonical', radii=Radii(core=2, dist_0=1, dist_p=1, "
                                 "count=1))")
    table = CountTable.from_profiles(profiles, [1000])
    assert table.rows[1000]["delta"] == [20, 144, 3, 0]
    assert CountTable.from_profiles(domain0, [1000]).rows[1000]["delta"] == [11, 153, 3, 0]
    for prof in (profiles[1], nearer[0]):
        with pytest.raises(AssertionError, match="a witness list was derived"):
            prof.witnesses


@pytest.mark.parametrize("compute", [("w", "W"), STATS])
def test_a_profile_without_delta_has_no_witnesses(compute):
    """p = 2, a w,W scan and a profile built from its statistics without
    delta count no witness and list none, as the benchmark's reference rows
    without delta expect; one built with a list counts that list."""
    profiles = scan_range(ScanConfig(lo=2, hi=100, compute=compute))
    without = profiles if "delta" not in compute else profiles[:1]
    assert without[0].p == 2
    assert [(prof.witness_count, prof.witnesses) for prof in without] == [(0, ())] * len(without)
    built = hamming.HammingProfile(p=5, r=2, w=1, W=1, delta=None, witnesses=(),
                                   variant=CANONICAL.name)
    assert (built.witness_count, built.witnesses) == (0, ())
    listed = hamming.HammingProfile(p=7, r=2, w=2, W=2, delta=2, witnesses=(6,),
                                    variant=CANONICAL.name)
    assert (listed.witness_count, listed.witnesses) == (1, (6,))


# Edits of the file of [2, 100]: the rows of 2 to 97 on lines 3 to 27, the
# checksum line on line 28. A file cut before a row or within one ends in a
# block without its checksum line, which is not decoded; forged() vouches for
# the rows of the others.
@pytest.mark.parametrize("edit,lineno,message", [
    (lambda lines: lines[:-2], 27, "the file ends before the row of p=97"),
    (lambda lines: lines[:-2] + [lines[-2][:-1]], 27, "the file ends before the row of p=97"),
    (lambda lines: lines[:-1], 28, "the file ends before the checksum line of its last block"),
    (lambda lines: lines[:-1] + [lines[-1][:-1]], 28,
     "the file ends before the checksum line of its last block"),
    (lambda lines: lines[:5] + lines[6:], 6, "p=11 is not the next prime of [2, 100]"),
    (lambda lines: lines[:-1] + lines[-2:], 28, "p=97 is not the next prime of [2, 100]"),
    (lambda lines: lines[:-2] + lines[-1:], 27,
     "a checksum line after 24 rows, fewer than 4096, before the last prime of [2, 100]"),
    (lambda lines: lines + lines[-2:], 29, "the scan of [2, 100] ends on line 28, "
                                           "but the file goes on"),
    (lambda lines: lines + ["97,"], 29, "the scan of [2, 100] ends on line 28, "
                                        "but the file goes on"),
], ids=["last-row-missing", "torn-last-row", "checksum-line-missing", "torn-checksum-line",
        "row-missing", "row-repeated", "short-block-mid-range", "block-after-the-last",
        "torn-line-after-the-last"])
def test_rows_must_be_the_primes_of_the_header_range(tmp_path, edit, lineno, message):
    path = _scan_file_of_2_to_100(tmp_path, lambda lines: forged(edit(lines)))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: line {lineno}: "
                                         f"{re.escape(message)}$"):
        read_scan_output(path)


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


@pytest.mark.parametrize("skipped,refused", [(65521, 65537), (65537, 65539)],
                         ids=["last-of-a-window", "first-of-the-next"])
@pytest.mark.parametrize("reader", ["scan-file", "journal"])
def test_a_row_that_skips_a_prime_at_a_window_seam_is_refused(tmp_path, reader, skipped,
                                                              refused):
    """The reader checks each row against the prime stream as it crosses
    from one sieved window to the next: 65521 is the last prime below the
    seam at 2^16 and 65537 the first above it."""
    assert numtheory._SIEVE_WINDOW == 65536
    cfg = ScanConfig(lo=65500, hi=65600, compute=("w",))
    lines = format_scan_output(cfg, scan_range(cfg)).splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{skipped},"))
    path = tmp_path / "scan.csv"
    path.write_text(forged(lines[:i] + lines[i + 1:]))
    message = f"{path}: line {i + 1}: p={refused} is not the next prime of [65500, 65600]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if reader == "scan-file":
            read_scan_output(str(path))
        else:
            scan_range(cfg._replace(checkpoint=str(path)))


def _rows_of(lo, hi) -> list[str]:
    """The blocks of the w,W scan of [lo, hi]: its rows and checksum lines."""
    cfg = ScanConfig(lo=lo, hi=hi, compute=("w", "W"))
    return format_scan_output(cfg, scan_range(cfg)).splitlines()[2:]


@pytest.mark.parametrize("journal,lineno,message", [
    (lambda header, rows: rows, 1,
     "expected '# hamroots.scan.v7 lo=2 hi=60 compute=w,W', got '2,,1'"),
    (lambda header, rows: header + _rows_of(7, 60), 3,
     "p=7 is not the next prime of [2, 60]"),
    (lambda header, rows: header + rows + _rows_of(61, 61), 21,
     "the scan of [2, 60] ends on line 20, but the file goes on"),
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


_stat = st.integers(min_value=0, max_value=10**6)
_radii = st.builds(
    Radii, *[st.integers(min_value=0, max_value=40)] * 3, st.integers(min_value=1, max_value=10**12))
# Rows as the writer writes them: only the row of p = 2 has None cells, and
# it has W = 1.
_rows = (st.just((2, 0, None, 1, None))
         | st.builds(lambda p, w, big_w, radii: (p, (p - 1).bit_length() - 1, w, big_w, radii),
                     st.integers(min_value=3, max_value=10**12), _stat, _stat, _radii))
_computes = st.sets(st.sampled_from(STATS), min_size=1).map(tuple)


@given(_rows, _computes)
def test_row_codecs_round_trip(row, compute):
    cfg = ScanConfig(lo=2, hi=3, compute=compute)
    p, r, w, big_w, radii = row
    prof = HammingProfile(p, r, w if "w" in compute else None, big_w if "W" in compute else None,
                          variant=CANONICAL.name, radii=radii if "delta" in compute else None)
    line, checksum, end = _block_encoder(cfg)([prof]).split("\n")
    assert _line_decoder(cfg)(line) == prof
    assert (checksum, end) == ("# crc32 %08x" % zlib.crc32(f"{line}\n".encode()), "")


def _line_oracle(config):
    """The encoder the block encoder replaced: one profile at a time, each
    cell through str(), and the block's checksum line through an f-string."""
    names = ["p", *[name for name in ("w", "W") if name in config.compute]]
    with_radii = "delta" in config.compute

    def encode(prof):
        cells = ["" if v is None else str(v) for v in (getattr(prof, n) for n in names)]
        if with_radii:
            radii = prof.radii
            cells += ["", "", "", ""] if radii is None else [*map(str, radii)]
        return ",".join(cells) + "\n"

    def encode_block(profiles):
        text = "".join(map(encode, profiles))
        return f"{text}# crc32 {zlib.crc32(text.encode()):08x}\n" if profiles else ""
    return encode_block


@given(st.sampled_from(sorted(BASE_VIEWS)), _computes, st.lists(_rows, max_size=12))
def test_block_encoder_matches_the_line_oracle(targets, compute, rows):
    """Same bytes as one line at a time, for rows with None cells, radii
    and either radius targets."""
    cfg = ScanConfig(lo=2, hi=3, targets=targets, compute=compute)
    base = BASE_VIEWS[targets].name
    profiles = [HammingProfile(p, r, w if "w" in compute else None,
                               big_w if "W" in compute else None,
                               variant=base, radii=radii if "delta" in compute else None)
                for p, r, w, big_w, radii in rows]
    assert _block_encoder(cfg)(profiles) == _line_oracle(cfg)(profiles)


@pytest.mark.parametrize("targets", sorted(BASE_VIEWS))
@pytest.mark.parametrize("compute", [("w", "W"), ("W",), ("w", "delta"), STATS])
def test_block_encoder_matches_the_line_oracle_on_a_scan(targets, compute):
    """The rows of a real scan: p = 2 has no w and no radii, and the core
    counts run from one witness to many."""
    cfg = ScanConfig(lo=2, hi=400, targets=targets, compute=compute)
    profiles = scan_range(cfg)
    assert profiles[0].p == 2 and profiles[0].w is None and profiles[0].radii is None
    if "delta" in compute:
        assert min(prof.radii.count for prof in profiles[1:]) == 1
        assert max(prof.radii.count for prof in profiles[1:]) > 100
    assert _block_encoder(cfg)(profiles) == _line_oracle(cfg)(profiles)


def test_worker_count_is_bounded():
    assert worker_count(1, 20, 2) == 1
    assert worker_count(8, 20, 2) == 2     # CPUs
    assert worker_count(8, 3, 64) == 3     # blocks the range can hold
    assert worker_count(4, 20, 64) == 4    # the request
    assert worker_count(8, 20, None) == 1  # unknown CPU count
    assert worker_count(10**6, 1, 10**6) == 1
    assert worker_count(4, 0, 8) == 0      # no block


def _two_cpus(monkeypatch):
    """Let a tasks=2 scan start its pool on a machine of any CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_pool_is_sized_by_the_cpus_this_process_may_run_on(monkeypatch):
    """Pinned to one CPU of two, a tasks=2 scan computes in process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one usable CPU")
    monkeypatch.setattr("multiprocessing.pool.Pool", no_pool)  # what every context starts
    pinned = scan_range(ScanConfig(lo=2, hi=20000, tasks=2, compute=("w", "W")))
    assert pinned == scan_range(ScanConfig(lo=2, hi=20000, compute=("w", "W")))


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="needs the forkserver start method")
def test_pool_forks_under_a_forkserver_default():
    """With forkserver as the default start method, as on Linux from Python
    3.14, the pool still forks from the scan: a forkserver worker would see
    the server as its parent and `_die_with_parent` would end it, so the scan
    would never finish."""
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    script = """
import multiprocessing, multiprocessing.context as mpc, os
from hamroots.scan import ScanConfig, scan_range
multiprocessing.set_start_method("forkserver")
os.sched_getaffinity = lambda pid: {0, 1}
methods, pool = [], mpc.BaseContext.Pool
def spy(ctx, *args, **kwargs):
    methods.append(ctx.get_start_method())
    return pool(ctx, *args, **kwargs)
mpc.BaseContext.Pool = spy
config = dict(lo=2, hi=60000, compute=("w", "W"))  # two blocks of primes
print(methods, scan_range(ScanConfig(tasks=2, **config)) == scan_range(ScanConfig(**config)))
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["['fork']", "True"]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and two CPUs")
def test_pool_workers_die_with_a_killed_scan(tmp_path):
    """SIGKILL to a two-task scan takes its workers with it: none lives on
    to die on the closed result pipe with a traceback."""
    out = tmp_path / "F"
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hamroots", "scan", "--range", "3", "3000000",
                             "--compute", "W", "--tasks", "2", "--output", str(out)],
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    try:
        part, deadline = tmp_path / "F.part", time.monotonic() + 60
        # The header and the first block are written, so both workers hold a block.
        while not (part.exists() and part.read_text().count("\n") > 2):
            assert proc.poll() is None and time.monotonic() < deadline, "no block was written"
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        # The workers share the parent's stderr, so it ends once all of them are gone.
        assert select.select([proc.stderr], [], [], 10)[0], "stderr still open after 10 s"
        assert b"Traceback" not in proc.stderr.read()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()


def test_pool_starts_before_the_sieve_and_the_resume(tmp_path, monkeypatch):
    """The workers fork before the parent sieves the range or reads the
    journal, so they inherit neither. The prime stream is lazy: the resume
    is called first, and each window is sieved as the resume or the blocks
    reach it, every one with the pool alive."""
    _two_cpus(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    seen = []

    def watch(name, call):
        return lambda *args: seen.append((name, bool(multiprocessing.active_children()))) \
            or call(*args)
    monkeypatch.setattr(numtheory, "sieve_primes", watch("sieve", numtheory.sieve_primes))
    monkeypatch.setattr(scan, "_resume", watch("resume", scan._resume))
    cfg = ScanConfig(lo=2, hi=500, tasks=2, compute=("w", "W"),
                     checkpoint=str(tmp_path / "scan.ckpt"))
    assert len(scan_range(cfg)) == 95
    assert seen[0] == ("resume", True) and ("sieve", True) in seen
    assert set(seen) == {("resume", True), ("sieve", True)}


def test_two_task_resume_matches_a_fresh_serial_scan(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    serial = ScanConfig(lo=2, hi=2000, checkpoint=str(tmp_path / "serial.ckpt"))
    expected = format_scan_output(serial, scan_range(serial))
    ckpt = tmp_path / "half.ckpt"
    lines = expected.splitlines(keepends=True)
    ckpt.write_text("".join(lines[:len(lines) // 2]))
    resumed = ScanConfig(lo=2, hi=2000, tasks=2, checkpoint=str(ckpt))
    assert format_scan_output(resumed, scan_range(resumed)) == expected
    assert ckpt.read_text() == expected


def test_a_scan_closed_after_its_first_block_leaves_whole_blocks(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    serial = ScanConfig(lo=2, hi=2000)
    fresh = scan_range(serial)
    expected = format_scan_output(serial, fresh)
    ckpt = tmp_path / "closed.ckpt"
    cfg = ScanConfig(lo=2, hi=2000, tasks=2, checkpoint=str(ckpt))
    profiles = scan.scan_profiles(cfg)
    first = [next(profiles) for _ in range(16)]
    assert multiprocessing.active_children()  # the pool is still running
    profiles.close()
    assert multiprocessing.active_children() == []
    assert first == fresh[:16]
    # the header and the first block, which a rerun resumes
    assert ckpt.read_text() == "".join(expected.splitlines(keepends=True)[:2 + 16 + 1])
    resumed = ScanConfig(lo=2, hi=2000, checkpoint=str(ckpt))
    assert format_scan_output(resumed, scan_range(resumed)) == expected
    assert ckpt.read_text() == expected


@pytest.mark.parametrize("run", ["fresh", "resumed", "scan-file", "table-paper-diff"])
def test_a_scan_holds_at_most_about_one_block_of_profiles(tmp_path, monkeypatch, capsys, run):
    """Sampled at each profile that a scan makes, or that a census makes as
    it reads the scan's file, the profiles alive beyond those held before
    never exceed two blocks, in a range of 42 blocks; so too for a table
    whose --paper-diff itemizes nothing without delta."""
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    out = tmp_path / "scan.csv"
    argv = ["scan", "--range", "2", "5000", "--compute", "w,W", "--output", str(out)]
    assert main(argv) == 0
    if run == "table-paper-diff":
        argv = ["table", "--limit", "5000", "--compute", "w,W", "--paper-diff"]
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr().out
    elif run == "scan-file":
        argv = ["frequencies", "--limit", "5000", "--scan-file", str(out)]
        capsys.readouterr()
        assert main(argv[:3]) == 0  # in memory
        expected = capsys.readouterr().out
    else:
        expected = out.read_bytes()
        if run == "resumed":
            out.with_name("scan.csv.part").write_bytes(expected[:len(expected) // 2])
        out.unlink()
    gc.collect()

    def live():
        return sum(type(obj) is HammingProfile for obj in gc.get_objects())
    before, seen = live(), []

    def sampled(*args, **kwargs):
        seen.append(live())
        return HammingProfile(*args, **kwargs)
    monkeypatch.setattr(scan, "HammingProfile", sampled)
    assert main(argv) == 0
    assert (out.read_bytes() if run in ("fresh", "resumed")
            else capsys.readouterr().out) == expected
    assert len(seen) > 10 and max(seen) - before <= 2 * 16


_SCAN_BLOCK = scan._scan_block


def _block_in_a_worker_without(journal: str, args):
    """_scan_block, computed in a pool worker that holds no descriptor of
    the journal."""
    assert multiprocessing.parent_process() is not None, "block computed in the parent"
    links = set()
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the descriptor listdir used is gone
            links.add(os.readlink(f"/proc/self/fd/{fd}"))
    assert journal not in links, f"worker {os.getpid()} holds {journal}"
    return _SCAN_BLOCK(args)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_workers_do_not_hold_the_journal(tmp_path, monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 16)
    ckpt = tmp_path / "scan.ckpt"
    ckpt.touch()
    monkeypatch.setattr(scan, "_scan_block",
                        functools.partial(_block_in_a_worker_without, os.path.realpath(ckpt)))
    cfg = ScanConfig(lo=2, hi=500, tasks=2, compute=("w", "W"), checkpoint=str(ckpt))
    profiles = scan_range(cfg)
    assert ckpt.read_text() == format_scan_output(cfg, profiles)
    assert len(profiles) == 95


def _drop_the_last_root(bm):
    return bm ^ 1 << bm.bit_length() - 1


def _shift_by_one(bm):
    return bm << 1


def _least_root_to_bit_0(bm):
    return bm ^ (bm & -bm) | 1


def _read_in_a_scan(lo, hi, tmp_path):
    return lambda: scan_range(ScanConfig(lo=lo, hi=hi, compute=("delta",)))


def _read_prime_by_prime(read, cap=None):
    """The reader that calls `read` on `PrimeContext.for_prime(p)` for each
    prime p of the range, or of its part up to `cap`."""
    def prepare(lo, hi, tmp_path):
        primes = numtheory.sieve_primes(hi if cap is None else min(hi, cap), lo)
        return lambda: [read(numtheory.PrimeContext.for_prime(p)) for p in primes]
    return prepare


def _read_witnesses_of_a_scan_file(lo, hi, tmp_path):
    """The reader of the witnesses that the profiles of a scan file derive:
    the file is written before the bitmap is mutated, and read after."""
    path = str(tmp_path / "scan.csv")
    scan_range(ScanConfig(lo=lo, hi=hi, compute=("delta",), checkpoint=path))
    return lambda: [prof.witnesses for prof in read_scan_output(path)[1]]


# Each reader of the primitive-root bitmap, as a function of the range and a
# directory that prepares what it reads and returns the call that reads it.
_BITMAP_READERS = {
    "scan_range": _read_in_a_scan,
    "covering_radius": _read_prime_by_prime(hamming.covering_radius),
    "covering_radius_bfs": _read_prime_by_prime(hamming.covering_radius_bfs),
    "cube_census": _read_prime_by_prime(cubes.cube_census, cubes.EXHAUSTIVE_P_CAP),
    "witnesses": _read_witnesses_of_a_scan_file,
}


def _read_by_each(cases, without):
    """Each case (id -> arguments) crossed with each reader of the bitmap,
    but those that `without` names for its id; a case keeps its own id in a
    scan and adds the reader's name to it otherwise."""
    return [pytest.param(*case, reader, id=case_id if reader == "scan_range"
                         else f"{case_id}-{reader}")
            for case_id, case in cases.items() for reader in _BITMAP_READERS
            if reader not in without.get(case_id, ())]


@pytest.mark.parametrize("mutate,p,fault,reader", _read_by_each({
    "drop-23": (_drop_the_last_root, 23, "has 9 bits set, not phi(p-1) = 10"),
    "drop-1000003": (_drop_the_last_root, 1000003, "has 333331 bits set, not phi(p-1) = 333332"),
    "shift-3": (_shift_by_one, 3, "sets a bit at or above p"),
    "shift-23": (_shift_by_one, 23, "lacks the least primitive root 5"),
    "bit0-23": (_least_root_to_bit_0, 23, "sets bit 0"),
}, without={"drop-1000003": ["cube_census"]}))
def test_delta_scan_checks_the_bitmap_it_dilates(monkeypatch, tmp_path, mutate, p, fault,
                                                 reader):
    """A delta scan without W, so that no other engine meets the bitmap,
    still refuses one that is not the primitive roots of p; so does every
    other reader of the bitmap, whatever engines it has."""
    read = _BITMAP_READERS[reader](p, p, tmp_path)
    build = numtheory._build_pr_bitmap
    monkeypatch.setattr(numtheory, "_build_pr_bitmap", lambda ctx: mutate(build(ctx)))
    with pytest.raises(InvariantViolation) as exc:
        read()
    assert str(exc.value) == f"p={p}: the primitive-root bitmap (_build_pr_bitmap) {fault}"


def _walked_bitmap(ctx, g, end, mirror):
    """The bitmap of g^t for the t in [0, end) coprime to p - 1, with the
    mirror bits p - g^t when asked: the primitive roots by a plain walk, with
    the generator, the range of exponents and the mirror of roots under
    x -> p - x, which holds only for p = 1 mod 4, exposed for mutation."""
    p, m = ctx.p, ctx.p - 1
    digits, x = bytearray(b"0") * p, 1
    for t in range(end):
        if math.gcd(t, m) == 1:
            digits[x] = 49  # ord("1")
            if mirror:
                digits[p - x] = 49
        x = x * g % p
    digits.reverse()
    return int(digits, 2)


def _walk_end(p):
    return (p - 1) // 2 if p % 4 == 1 else p - 1


def _mirror_for_every_p(ctx):
    return _walked_bitmap(ctx, numtheory.least_primitive_root(ctx), (ctx.p - 1) // 2, True)


def _drop_the_last_block(ctx):
    """The walk without its last block of 4096 exponents, or all of them
    below 4096: roots lost from the end of the walk."""
    end, block = _walk_end(ctx.p), 4096
    return _walked_bitmap(ctx, numtheory.least_primitive_root(ctx), (end - 1) // block * block,
                          ctx.p % 4 == 1)


def _walk_from_g_squared(ctx):
    g = numtheory.least_primitive_root(ctx)
    return _walked_bitmap(ctx, g * g % ctx.p, _walk_end(ctx.p), ctx.p % 4 == 1)


@pytest.mark.parametrize("p", [3, 7, 13, 8209, 1000003, 1000033])
def test_walked_bitmap_unmutated_is_the_bitmap(p):
    ctx = numtheory.PrimeContext.for_prime(p)
    assert _walked_bitmap(ctx, numtheory.least_primitive_root(ctx), _walk_end(p),
                          p % 4 == 1) == numtheory._build_pr_bitmap(ctx)


_WALK_CASES = {f"{mutant.__name__}-{lo}-{hi}": (mutant, lo, hi)
               for lo, hi in [(3, 2000), (1000003, 1000003)]
               for mutant in [_mirror_for_every_p, _drop_the_last_block, _walk_from_g_squared]}


@pytest.mark.parametrize("mutant,lo,hi,reader", _read_by_each(
    _WALK_CASES, without={case_id: ["cube_census"] for case_id, (_, lo, _) in _WALK_CASES.items()
                          if lo > cubes.EXHAUSTIVE_P_CAP}))
def test_delta_scan_refuses_a_mutated_bitmap_walk(monkeypatch, tmp_path, mutant, lo, hi,
                                                  reader):
    read = _BITMAP_READERS[reader](lo, hi, tmp_path)
    monkeypatch.setattr(numtheory, "_build_pr_bitmap", mutant)
    with pytest.raises(InvariantViolation, match=r"^p=\d+: the primitive-root bitmap "
                                                 r"\(_build_pr_bitmap\) "):
        read()


def _with_the_powers_of_the_largest_prime(build):
    """`build` with the powers g^t set for the t that only the largest
    prime q of p - 1 shares with p - 1: the bitmap of a build that skips its
    walk of the q-th powers."""
    def mutant(ctx):
        p, qs = ctx.p, ctx.factors_pm1
        g, rest = numtheory.least_primitive_root(ctx), math.prod(qs[:-1])
        return build(ctx) | sum(1 << pow(g, t, p) for t in range(0, p - 1, qs[-1])
                                if math.gcd(t, rest) == 1)
    return mutant


# 1000003 - 1 = 2*3*166667 gains g^166667 and g^833335; 1000367 - 1 =
# 2*197*2539 gains the g^(2539*k) for the odd k < 394 but 197.
@pytest.mark.parametrize("p,count,phi,reader", _read_by_each(
    {"1000003": (1000003, 333334, 333332), "1000367": (1000367, 497644, 497448)},
    without={"1000003": ["cube_census"], "1000367": ["cube_census"]}))
def test_bitmap_check_refuses_a_build_that_skips_a_walked_prime(monkeypatch, tmp_path, p,
                                                                 count, phi, reader):
    read = _BITMAP_READERS[reader](p, p, tmp_path)
    monkeypatch.setattr(numtheory, "_build_pr_bitmap",
                        _with_the_powers_of_the_largest_prime(numtheory._build_pr_bitmap))
    with pytest.raises(InvariantViolation) as exc:
        read()
    assert str(exc.value) == (f"p={p}: the primitive-root bitmap (_build_pr_bitmap) "
                              f"has {count} bits set, not phi(p-1) = {phi}")


@pytest.mark.parametrize("p,x,reader", _read_by_each(
    {"7-4": (7, 4), "1000003-200001": (1000003, 200001)},
    without={"1000003-200001": ["cube_census"]}))
def test_bitmap_check_compares_fixed_positions_with_pow(monkeypatch, tmp_path, p, x, reader):
    """The mirror applied for p = 3 mod 4 keeps the popcount, bit 0, the
    bits at or above p and the least root; only the positions checked with
    `is_primitive_root` refuse it."""
    read = _BITMAP_READERS[reader](p, p, tmp_path)
    monkeypatch.setattr(numtheory, "_build_pr_bitmap", _mirror_for_every_p)
    with pytest.raises(InvariantViolation) as exc:
        read()
    assert str(exc.value) == (f"p={p}: the primitive-root bitmap (_build_pr_bitmap) "
                              f"has bit {x} = 1, but is_primitive_root({x}) is False")


def _drop_shuffle(which):
    """A `_flip_shuffles` that loses its first, middle or last pair, so
    `dilate` never flips that bit: the radii can stay right while the
    uncovered set going into the last round grows."""
    shuffles = hamming._flip_shuffles

    def dropped(length):
        pairs = shuffles(length)
        i = {"first": 0, "middle": length // 2, "last": length - 1}[which]
        return pairs[:i] + pairs[i + 1:]
    return dropped


_CERTIFICATE = (r"the dilation for delta puts n=\d+ at distance 2, "
                r"but is_primitive_root finds the target \d+ 1 flips away")


@pytest.mark.parametrize("lo,hi,targets,message", [
    # p = 3 has bit length 2, so a lost bit leaves a point that no target reaches
    (3, 2000, "literal", r"the dilation for delta "),
    (1000000, 1000040, "literal", _CERTIFICATE),
    (1000000, 1000040, "reduced", _CERTIFICATE),
], ids=["3-2000", "delta_large", "delta_large-reduced"])
@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_delta_scan_refuses_a_dilation_that_skips_a_shuffle(monkeypatch, which, lo, hi,
                                                             targets, message):
    monkeypatch.setattr(hamming, "_flip_shuffles", _drop_shuffle(which))
    with pytest.raises(InvariantViolation, match=f"^p=\\d+ targets={targets}: {message}"):
        scan_range(ScanConfig(lo=lo, hi=hi, targets=targets, compute=("delta",)))


def _early_exit_mutant(p, which):
    """A `_covers` whose outstanding points lose bit 0 or bit p, or one that
    answers True untested, so a round after the first stops too soon."""
    covers = hamming._covers
    if which == "untested":
        return lambda ball, points, length: True
    drop = {"bit 0": 1, "bit p": 1 << p}[which]
    return lambda ball, points, length: covers(ball, points & ~drop, length)


@pytest.mark.parametrize("p,targets,which", [
    # 1753 is covered but for the point 0 after two rounds (dist_0 = 3 > core = 2)
    (1753, "literal", "bit 0"),
    (1753, "reduced", "bit 0"),
    (1753, "literal", "untested"),
    (1753, "reduced", "untested"),
    # no prime below 3000 has an endpoint p farther than the core and 0 and
    # than 2; 597031 has, under literal targets: dist_p = 3, core = dist_0 = 2
    (597031, "literal", "bit p"),
])
def test_delta_scan_refuses_an_early_exit_that_misses_an_endpoint(monkeypatch, p, targets,
                                                                 which):
    """Each mutant puts the last endpoint at distance 2, one flip short: the
    core radius stays right, so only the endpoint certificate refuses it."""
    monkeypatch.setattr(hamming, "_covers", _early_exit_mutant(p, which))
    n = p if which == "bit p" else 0
    with pytest.raises(InvariantViolation) as exc:
        scan_range(ScanConfig(lo=p, hi=p, targets=targets, compute=("delta",)))
    assert str(exc.value) == (f"p={p} targets={targets}: the dilation for delta puts "
                              f"n={n} at distance 2, but is_primitive_root finds no target 2 "
                              f"flips away")


@pytest.mark.parametrize("targets", ["literal", "reduced"])
@pytest.mark.parametrize("p", [17, 8209, 1000003])
def test_core_certificate_names_the_point_and_what_pow_finds(monkeypatch, targets, p):
    """The certificate passes the dilation's own uncovered set and refuses
    it at a core radius one off either way, with `is_primitive_root` alone."""
    ctx = numtheory.PrimeContext.for_prime(p)
    seen = []
    monkeypatch.setattr(hamming, "_certify_core", lambda *args: seen.append(args))
    radii = hamming.dilation_radii(ctx, targets)
    monkeypatch.undo()
    (_, _, core, uncovered), = seen
    n = (uncovered & -uncovered).bit_length() - 1  # the lowest point is certified first
    assert core == radii.core and uncovered >> n & 1
    hamming._certify_core(ctx, targets, core, uncovered)
    prefix = (f"p={p} targets={targets}: the dilation for delta puts n={n} at "
              f"distance")
    with pytest.raises(InvariantViolation) as exc:
        hamming._certify_core(ctx, targets, core + 1, uncovered)
    assert re.fullmatch(rf"{re.escape(prefix)} {core + 1}, but is_primitive_root finds "
                        rf"the target \d+ {core} flips away", str(exc.value))
    with pytest.raises(InvariantViolation) as exc:
        hamming._certify_core(ctx, targets, core - 1, uncovered)
    assert str(exc.value) == (f"{prefix} {core - 1}, but is_primitive_root finds no target "
                              f"{core - 1} flips away")


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("p", [1000037, 1000133])
def test_core_certificate_checks_the_lowest_point_at_or_above_each_eighth(p, k):
    """The certificate checks the lowest point of the uncovered set at or
    above k*p/8 for each k. With the least primitive root at or above k*p/8
    added to the set, it must refuse that root, a target 0 flips from itself.
    The 3 points of 1000037 lie in eighths 2, 3 and 7, so a certificate that
    stops at the first empty window misses the roots of the later ones. The
    19 points of 1000133 fill every eighth, so only window k reaches the root
    added to eighth k, and one that skips a window misses it."""
    ctx = numtheory.PrimeContext.for_prime(p)
    radii, uncovered = hamming._dilation(ctx, "literal")
    assert radii.count == {1000037: 3, 1000133: 19}[p]
    root = next(x for x in range(k * p // 8, p) if numtheory.is_primitive_root(x, ctx))
    with pytest.raises(InvariantViolation) as exc:
        hamming._certify_core(ctx, "literal", radii.core, uncovered | 1 << root)
    assert str(exc.value) == (f"p={p} targets=literal: the dilation for delta puts "
                              f"n={root} at distance {radii.core}, but is_primitive_root finds "
                              f"the target {root} 0 flips away")


def test_core_certificate_counts_only_literal_targets_in_1_to_p_minus_1():
    """16 is the core witness of 17 at distance 3 under literal targets. One
    flip away lies 20, whose residue 3 is a primitive root: a target only
    under reduced targets, although `is_primitive_root(20)` holds."""
    ctx = numtheory.PrimeContext.for_prime(17)
    assert numtheory.is_primitive_root(20, ctx)
    assert hamming.dilation_radii(ctx, "literal") == Radii(3, 2, 2, 1)
    hamming._certify_core(ctx, "literal", 3, 1 << 16)
    with pytest.raises(InvariantViolation) as exc:
        hamming._certify_core(ctx, "reduced", 3, 1 << 16)
    assert str(exc.value) == ("p=17 targets=reduced: the dilation for delta puts "
                              "n=16 at distance 3, but is_primitive_root finds the target "
                              "20 1 flips away")


def test_delta_scan_holds_one_p_byte_buffer_and_one_bit_length_of_masks():
    """A delta scan of the four primes in [10^6, 10^6 + 40] peaks within one
    p-byte buffer, the L * 2^L / 8 bytes of the masks of bit length L = 20
    and 0.5 MB: about 3.95 MB. A copy of the coprime exponents, the bitmap's
    digits or its set bits as a string, each the size of p, takes it past
    that. The peak is tracemalloc's: the most Python memory that the scan
    held at once, counted from a start just before it, in a fresh process,
    so that no mask is cached yet. It counts no memory allocated before the
    start, so it does not depend on whether the imports read cached bytecode
    or compiled the sources, which changes how much freed memory the scan
    could reuse, and so the high-water mark of the process."""
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    script = """
import tracemalloc
from hamroots.scan import ScanConfig, scan_range
tracemalloc.start()
scan_range(ScanConfig(1000000, 1000040, compute=("delta",)))
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    p, length = 1000039, 20
    assert float(out) <= (p + length * (1 << length) // 8) / 2**20 + 0.5


def test_a_ww_scan_holds_about_as_much_for_a_range_ten_times_wider():
    """A W scan of [3, 10^6] peaks within 1 MB of the W scan of [3, 10^5].
    The primes are sieved a window of 2^16 numbers at a time and cut into
    blocks, so neither the range's flags (1 MB at 10^6) nor its 78,497
    primes (about 2.8 MB as a list) are held; what may differ is bounded by
    a window and a block, not by the range's primes: a window's primes held
    beside a partial block. Each peak is tracemalloc's, counted from a start
    just before the scan, in a fresh process, as in the delta test above.
    What is measured is the prime stream and the blocks, so `_scan_block`
    is stubbed with a row maker that gives each prime W = 1, and the sweep,
    which tracemalloc slows about 25 times, is not traced."""
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    script = """
import sys, tracemalloc
from hamroots import scan
scan._scan_block = lambda args: [(p, None, 1, None) for p in args[0]]
config = scan.ScanConfig(3, int(sys.argv[1]), compute=("W",))
tracemalloc.start()
for _ in scan.scan_profiles(config):
    pass
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""
    peak = {hi: float(subprocess.run([sys.executable, "-c", script, str(hi)], env=env,
                                     capture_output=True, text=True, check=True,
                                     timeout=120).stdout)
            for hi in (10**5, 10**6)}
    assert peak[10**6] <= peak[10**5] + 1, peak


def _the_block_sieve_loses_the_largest_prime(monkeypatch):
    """Every context, the scan's and (in place of trial division)
    `for_prime`'s, gets p - 1 from a block sieve that loses its largest
    prime, so its bitmap holds the exponents coprime to the rest."""
    factorize_pm1 = scan.factorize_pm1

    def sieve(primes):
        return (qs[:-1] for qs in factorize_pm1(primes))
    monkeypatch.setattr(scan, "factorize_pm1", sieve)
    monkeypatch.setattr(numtheory.PrimeContext, "for_prime",
                        classmethod(lambda cls, p: cls(p, next(sieve([p])))))


def _trial_division_loses_the_largest_prime(monkeypatch):
    """`euler_phi` and `for_prime` get n without its largest prime."""
    factorize = numtheory.factorize

    def lossy(n):
        qs = factorize(n)
        return [q for q in qs if q != qs[-1]]
    monkeypatch.setattr(numtheory, "factorize", lossy)


_LOST_FROM_31 = "was built from the factors (2, 3) of p-1, leaving 5"
_LOST_FROM_1000003 = "was built from the factors (2, 3) of p-1, leaving 166667"


@pytest.mark.parametrize("lose,p,in_a_scan,elsewhere,reader", _read_by_each({
    "31-10-8": (_the_block_sieve_loses_the_largest_prime, 31,
                "has 10 bits set, not phi(p-1) = 8", "has 10 bits set, not phi(p-1) = 8"),
    "1000003-333334-333332": (_the_block_sieve_loses_the_largest_prime, 1000003,
                              "has 333334 bits set, not phi(p-1) = 333332",
                              "has 333334 bits set, not phi(p-1) = 333332"),
    "factorize-31": (_trial_division_loses_the_largest_prime, 31,
                     "has 8 bits set, not phi(p-1) = 10", _LOST_FROM_31),
    "factorize-1000003": (_trial_division_loses_the_largest_prime, 1000003,
                          "has 333332 bits set, not phi(p-1) = 333334", _LOST_FROM_1000003),
}, without={
    "1000003-333334-333332": ["cube_census"], "factorize-1000003": ["cube_census"],
}))
def test_bitmap_check_does_not_take_phi_from_the_block_sieve(monkeypatch, tmp_path, lose, p,
                                                             in_a_scan, elsewhere, reader):
    """phi(p - 1) comes from trial division, and the context's primes are
    divided out of p - 1, so every reader refuses the bitmap when either
    engine loses the largest prime of p - 1. A scan's context takes its
    primes from the block sieve, so trial division's loss shows there as a
    wrong phi; a `for_prime` context takes them from trial division, so it
    shows there as a prime left over. phi is cleared before, so that a lossy
    phi is not hidden by a cached one, and after, so that it is not kept."""
    read = _BITMAP_READERS[reader](p, p, tmp_path)
    lose(monkeypatch)
    numtheory.euler_phi.cache_clear()
    try:
        with pytest.raises(InvariantViolation) as exc:
            read()
    finally:
        numtheory.euler_phi.cache_clear()
    fault = in_a_scan if reader == "scan_range" else elsewhere
    assert str(exc.value) == f"p={p}: the primitive-root bitmap (_build_pr_bitmap) {fault}"


def _mutated(mutate):
    build = numtheory._build_pr_bitmap
    return lambda ctx: mutate(build(ctx))


# The mutant builds that every reader of the bitmap refuses in the tests
# above, each over the range of primes it is refused at.
_MUTANT_BUILDS = {
    "drop-23": (_mutated(_drop_the_last_root), 23, 23),
    "drop-1000003": (_mutated(_drop_the_last_root), 1000003, 1000003),
    "shift-3": (_mutated(_shift_by_one), 3, 3),
    "shift-23": (_mutated(_shift_by_one), 23, 23),
    "bit0-23": (_mutated(_least_root_to_bit_0), 23, 23),
    **_WALK_CASES,
    **{f"skip-{p}": (_with_the_powers_of_the_largest_prime(numtheory._build_pr_bitmap), p, p)
       for p in (1000003, 1000367)},
    **{f"mirror-{p}": (_mirror_for_every_p, p, p) for p in (7, 1000003)},
}


@pytest.mark.parametrize("mutant,lo,hi", [pytest.param(*case, id=case_id)
                                          for case_id, case in _MUTANT_BUILDS.items()])
def test_ball_search_reads_no_bitmap(monkeypatch, mutant, lo, hi):
    """`min_flips_to_primroot` answers under a mutant build as it does under
    the true one, at the first and last three n in [1, p] where the two
    bitmaps differ, for each prime of the range: it tests each candidate
    with `is_primitive_root`, so no bitmap is built or checked."""
    expected = {}
    for p in numtheory.sieve_primes(hi, lo):
        ctx = numtheory.PrimeContext.for_prime(p)
        differ = list(numtheory.set_bits((mutant(ctx) ^ numtheory._build_pr_bitmap(ctx))
                                         & (2 << p) - 2))  # the n in [1, p]
        for n in differ[:3] + differ[-3:]:
            expected[p, n] = hamming.min_flips_to_primroot(n, ctx)
    assert expected
    monkeypatch.setattr(numtheory, "_build_pr_bitmap", mutant)
    contexts = {p: numtheory.PrimeContext.for_prime(p) for p, _ in expected}
    assert {(p, n): hamming.min_flips_to_primroot(n, contexts[p])
            for p, n in expected} == expected
    assert all(ctx._pr_bitmap is None for ctx in contexts.values())


@pytest.mark.parametrize("lose,p,rest", [
    pytest.param(_the_block_sieve_loses_the_largest_prime, 31, 5, id="block-sieve-31"),
    pytest.param(_the_block_sieve_loses_the_largest_prime, 1000003, 166667,
                 id="block-sieve-1000003"),
    pytest.param(_trial_division_loses_the_largest_prime, 31, 5, id="factorize-31"),
    pytest.param(_trial_division_loses_the_largest_prime, 1000003, 166667,
                 id="factorize-1000003"),
])
def test_ball_search_refuses_a_context_that_lost_a_prime(monkeypatch, lose, p, rest):
    """`is_primitive_root` tests only the context's primes of p - 1, so the
    search, which reads no bitmap and so meets no bitmap check, refuses a
    context that lacks one, whichever engine lost it."""
    lose(monkeypatch)
    ctx = numtheory.PrimeContext.for_prime(p)
    with pytest.raises(InvariantViolation) as exc:
        hamming.min_flips_to_primroot(1, ctx)
    assert str(exc.value) == (f"p={p}: the context of is_primitive_root was built from the "
                              f"factors (2, 3) of p-1, leaving {rest}")


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# hamroots.scan.v9 targets=literal\np,r\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(path))
    jpath = tmp_path / "bad.jsonl"
    jpath.write_text(json.dumps({"schema": "other"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_scan_output(str(jpath))


_W_COLUMNS = "p,w"
_D_COLUMNS = "p,core,dist_0,dist_p,core_count"


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
    ("# hamroots.scan.v4 lo=2 hi=10 targets=literal compute=delta\n"
     "p,r,core,dist_0,dist_p,witnesses,checksum\n3,1,2,1,1,1,752b43d6\n", 1,
     "unknown scan schema header '# hamroots.scan.v4 "),
    ("# hamroots.scan.v5 lo=2 hi=10 compute=w\np,r,w,checksum\n3,1,1,8701c1fe\n", 1,
     "unknown scan schema header '# hamroots.scan.v5 "),
    ("# hamroots.scan.v6 lo=2 hi=10 compute=w\np,w,checksum\n3,1,8701c1fe\n", 1,
     "unknown scan schema header '# hamroots.scan.v6 "),
    ("# hamroots.scan.v7 lo=2 hi=10 compute=w\np,w,checksum\n", 2,
     f"expected '{_W_COLUMNS}', got 'p,w,checksum'"),
    (f"# hamroots.scan.v7 lo=2 hi=10 compute=delta\n{_D_COLUMNS}\n", 1,
     "unknown radius targets None"),
    (f"# hamroots.scan.v7 lo=2 hi=10 targets=odd compute=delta\n{_D_COLUMNS}\n", 1,
     "unknown radius targets 'odd'"),
    (f"# hamroots.scan.v7 lo=2 hi=10 targets=literal compute=w\n{_W_COLUMNS}\n", 1,
     "expected '# hamroots.scan.v7 lo=2 hi=10 compute=w', got "),
    (f"# hamroots.scan.v7 lo=2 hi=10 variant=domain0 targets=literal compute=delta\n"
     f"{_D_COLUMNS}\n", 1, "expected '# hamroots.scan.v7 lo=2 hi=10 targets=literal "
     "compute=delta', got "),
    (f"# hamroots.scan.v7 lo=2 hi=10\n{_W_COLUMNS}\n", 1,
     "compute set must be a nonempty subset of w,W,delta, got None"),
    (f"# hamroots.scan.v7 hi=10 compute=w\n{_W_COLUMNS}\n", 1,
     "invalid literal for int"),
    (f"# hamroots.scan.v7 lo=02 hi=10 compute=w\n{_W_COLUMNS}\n", 1,
     "'02' is not a canonical integer"),
    (f"# hamroots.scan.v7 lo=10 hi=5 compute=w\n{_W_COLUMNS}\n", 1,
     r"bad scan range \[10, 5\]"),
    ("# hamroots.scan.v7 lo=2 hi=10 compute=W,w\np,w,W\n", 1,
     "expected '# hamroots.scan.v7 lo=2 hi=10 compute=w,W', got "),
], ids=["invalid-json", "unknown-schema", "unknown-csv-schema", "v1-header", "v2-header",
        "v3-header", "v4-header", "v5-header", "v6-header",
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
    # each table has zero rows of its own, at its thresholds sorted
    first, second = CountTable([10, 1]), CountTable(thresholds=[1, 10])
    assert first.thresholds == second.thresholds == [1, 10]
    first.rows[10]["pi"] = 5
    first.rows[10]["w"][0] = 5
    assert second.rows[10] == {"pi": 0, "w": [0, 0, 0, 0], "W": [0, 0, 0, 0],
                               "delta": [0, 0, 0, 0]}
    assert first.rows[1] == second.rows[1]


def test_frequencies_at_1000():
    profiles = scan_range(ScanConfig(lo=2, hi=1000, compute=("w", "W")))
    row = CountTable.from_profiles(profiles, [1000]).rows[1000]
    assert (row["w"][0], row["W"][0], row["pi"]) == (87, 68, 168)


def test_config_validation():
    with pytest.raises(ValueError, match=r"^bad scan range \[5, 3\]$"):
        ScanConfig(lo=5, hi=3)
    with pytest.raises(ValueError, match=r"^bad scan range \[1, 10\]$"):
        ScanConfig(1, 10)
    with pytest.raises(ValueError, match="^unknown radius targets 'mystery'$"):
        ScanConfig(lo=3, hi=10, targets="mystery")
    with pytest.raises(ValueError, match="^unknown radius targets 'canonical'$"):
        ScanConfig(lo=3, hi=10, targets="canonical")  # a view is not a target set
    with pytest.raises(ValueError, match=r"^compute set must be a nonempty subset of "
                                         r"w,W,delta, got \('w', 'Z'\)$"):
        ScanConfig(lo=3, hi=10, compute=("w", "Z"))
    with pytest.raises(ValueError, match="^compute set must be a nonempty subset"):
        ScanConfig(3, 10, 1, "literal", ())
    with pytest.raises(ValueError, match="^tasks must be >= 1$"):
        ScanConfig(lo=3, hi=10, tasks=0)
    # counts must be ints (a bool is not), and a checkpoint None or a path:
    # an int would be taken as an open file descriptor
    for field, value in (("lo", 2.0), ("hi", 1e3), ("hi", "100"), ("tasks", 1.5),
                         ("tasks", True), ("lo", False)):
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            ScanConfig(**{"lo": 2, "hi": 100, field: value})
    for value in (3, b"j", ["j"]):
        with pytest.raises(ValueError, match=r"^checkpoint must be None or a path, got "
                                             + re.escape(repr(value)) + "$"):
            ScanConfig(lo=2, hi=100, checkpoint=value)
    # _replace and _make check as the constructor does
    with pytest.raises(ValueError, match=r"^bad scan range \[1, 10\]$"):
        ScanConfig(3, 10)._replace(lo=1, tasks=0)
    with pytest.raises(ValueError, match="^tasks must be >= 1$"):
        ScanConfig._make((3, 10, 0))
    with pytest.raises(ValueError, match="^checkpoint must be None or a path, got 3$"):
        ScanConfig(3, 10)._replace(checkpoint=3)
    with pytest.raises(ValueError, match="^hi must be an int, got 1000.0$"):
        ScanConfig(3, 10)._replace(hi=1e3)
    assert ScanConfig(3, 10, checkpoint=Path("j")).checkpoint == Path("j")
    # A valid config is built by position or by keyword, with the same
    # defaults, is equal by value, and no field can be assigned.
    config = ScanConfig(3, 10)
    assert (config.lo, config.hi, config.tasks, config.targets, config.compute,
            config.checkpoint) == (3, 10, 1, "literal", STATS, None)
    assert config == ScanConfig(lo=3, hi=10, tasks=1, targets="literal", compute=STATS)
    assert ScanConfig(3, 10, 2, "reduced", ("w",), "j") == ScanConfig(
        lo=3, hi=10, tasks=2, targets="reduced", compute=("w",), checkpoint="j")
    assert config != ScanConfig(3, 10, tasks=2)
    assert config._asdict() == {"lo": 3, "hi": 10, "tasks": 1, "targets": "literal",
                                "compute": STATS, "checkpoint": None}
    for name in ("lo", "tasks", "checkpoint", "other"):
        with pytest.raises(AttributeError):
            setattr(config, name, 4)


@pytest.mark.parametrize("engine,result,message", [
    ("sparsest", ((3, 7), (2, 5)), "p=23 targets=literal: w=3 > W=2"),
    # W of 23 is 2; the check compares it with the distance of 0 under
    # literal targets, whose domain0 view these radii would make 1.
    ("dilation_radii", Radii(1, 1, 1, 1),
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
