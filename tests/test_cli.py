import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import hamroots
from hamroots import cli, hamming, numtheory, scan
from hamroots.cli import build_parser, main
from hamroots.errors import InvariantViolation
from hamroots.numtheory import sieve_primes
from hamroots.scan import ScanConfig, format_scan_output, read_scan_output, scan_range
from test_scan import forged


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_command(capsys):
    code, out = run(capsys, "constants")
    assert code == 0
    assert "0.11002786" in out
    assert "0.07581633" in out
    assert "0.3739558" in out  # reference digits shown alongside
    assert "Artin constant A(1000000) = 0.37395" in out  # at the reference digits' limit


def test_scan_command_matches_library(capsys):
    code, out = run(capsys, "scan", "--range", "3", "7")
    assert code == 0
    cfg = ScanConfig(lo=3, hi=7)
    assert out == format_scan_output(cfg, scan_range(cfg))


def test_scan_jsonl_and_output_file(tmp_path, capsys):
    target = tmp_path / "rows.jsonl"
    with pytest.raises(SystemExit) as exc:  # CSV is the only encoding
        main(["scan", "--range", "3", "31", "--format", "jsonl", "--output", str(target)])
    assert exc.value.code == 1
    assert not target.exists()
    code, _ = run(capsys, "scan", "--range", "3", "31", "--output", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "# hamroots.scan.v7 lo=3 hi=31 targets=literal compute=w,W,delta"
    assert len(lines) == 2 + 10 + 1  # header, columns, pi(31) - 1 primes, their checksum line


def test_table_command_w_columns_clean(capsys):
    code, out = run(capsys, "table", "--limit", "1000", "--tasks", "2")
    assert code == 0
    diff_lines = [l for l in out.splitlines() if "reference minus computed" in l]
    assert len(diff_lines) == 1
    cells = diff_lines[0].split()
    # w=1 W=1 at positions 2,3; w/W diffs are all zero, radius diffs are not
    assert cells[0] == "diff" and cells[1] == "+0"
    assert cells[2] == "+0" and cells[3] == "+0"
    assert cells[5] == "+0" and cells[6] == "+0"


def test_delta3_command(capsys):
    code, out = run(capsys, "delta3", "--limit", "100", "--paper-diff")
    assert code == 0
    assert "17: classes 16" in out
    assert "67: classes 65" in out
    assert "HEADLINE" not in out


def test_frequencies_command(capsys):
    code, out = run(capsys, "frequencies", "--limit", "1000")
    assert code == 0
    assert "87/168" in out and "68/168" in out


def test_cubes_command_reports_chain(capsys):
    code, out = run(capsys, "cubes", "--range", "3", "13")
    assert code == 0  # the weak chain holds; f_bar < f is not a violation
    lines = out.splitlines()
    assert lines[0].startswith("p,f,F,")
    assert any(l.startswith("5,2,2,1,1,(0;1,4)") for l in lines)
    assert any("ok,ok" in l for l in lines)  # p = 11 satisfies the chain


def test_cubes_range_without_odd_primes_prints_only_the_header(capsys):
    for lo in ("0", "1"):
        code, out = run(capsys, "cubes", "--range", lo, "2")
        assert code == 0
        assert out.splitlines() == [
            "p,f,F,f_bar,F_bar,f_witness,F_witness,f_bar_witness,F_bar_witness,chain,hs_bound"]


def test_cubes_above_the_exhaustive_cap_prints_lower_bounds(capsys):
    code, out = run(capsys, "cubes", "--range", "59", "67")
    assert code == 0
    lines = out.splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["59", "61", "67"]
    assert lines[1].endswith(",ok,ok")  # p = 59 is exact: all four dimensions
    for line in lines[2:]:  # f and F only, from the heuristic
        assert re.fullmatch(r"6[17],[1-9]\d*,[1-9]\d*,,,\(.*\),\(.*\),,,lower-bound,", line)
    assert out == run(capsys, "cubes", "--range", "59", "67")[1]  # fixed seed


def test_charsum_indicator(capsys):
    code, out = run(capsys, "charsum", "indicator", "--p", "97")
    assert code == 0
    assert "exact match 96/96" in out


def test_charsum_pv(capsys):
    code, out = run(capsys, "charsum", "pv", "--p", "101")
    assert code == 0
    assert "max interval-sum ratio" in out


def test_charsum_double(capsys):
    code, out = run(capsys, "charsum", "double", "--p", "17", "--n", "17",
                    "--k", "2", "--l", "1", "--m", "1")
    assert code == 0
    assert "S = -2" in out


def test_charsum_weil(capsys):
    code, out = run(capsys, "charsum", "weil", "--p", "17", "--coeffs", "0,1,1")
    assert code == 0
    assert "ratio" in out


# The whole stdout and exit code of each charsum kind and of the cube census,
# so that a change to the character-sum or cube layers keeps their bytes; the
# other tests of these commands check fragments.
_PINNED_OUTPUTS = [
    (['charsum', 'pv', '--p', '101'], 0,
     'max interval-sum ratio mod 101 (nu=1): 1.123185 at chi_45, window (0, 50]\n'),
    (['charsum', 'pv', '--p', '97', '--nu', '2'], 0,
     'max interval-sum ratio mod 97 (nu=2): 0.672157 at chi_15, window (0, 48]\n'),
    (['charsum', 'weil', '--p', '17', '--coeffs', '0,1,1'], 0,
     '|sum| = 1.000000, bound = 23.363276, ratio = 0.042802, applicable = True\n'),
    (['charsum', 'weil', '--p', '7', '--coeffs', '0,0,1'], 0,
     '|sum| = 6.000000, bound = 5.148394, ratio = 1.165412, applicable = False '
     '(bound inapplicable (F is an m-th power, m=2))\n'),
    (['charsum', 'hoelder', '--p', '101', '--n', '50', '--k', '3', '--l', '1', '--m', '1'], 0,
     '|S| = 1.000000, bound = 40.058467, ratio = 0.024964\n'),
    (['charsum', 'double', '--p', '17', '--n', '17', '--k', '2', '--l', '1', '--m', '1'], 0,
     'S = -2 (2 terms, |S| = 2.000000)\n'),
    (['charsum', 'double', '--p', '101', '--n', '7', '--k', '3', '--l', '1', '--m', '2',
      '--j', '5'], 0,
     'S = (0.16697747245474093+1.503282246207319j) (18 terms, |S| = 1.512527)\n'),
    (['charsum', 'indicator', '--p', '97'], 0,
     'indicator identity mod 97: exact match 96/96 residues\n'),
    (['cubes', '--range', '3', '70'], 0,
     'p,f,F,f_bar,F_bar,f_witness,F_witness,f_bar_witness,F_bar_witness,chain,hs_bound\n'
     '3,1,1,0,0,(0;1),(0;1),(2;),(2;),ok,ok\n'
     '5,2,2,1,1,(0;1,4),(0;1,4),(2;1),(2;1),ok,ok\n'
     '7,2,3,1,1,(1;1,6),(2;2,4,5),(3;2),(3;2),ok,ok\n'
     '11,2,3,2,2,(0;1,3),(0;1,4,10),(2;5,6),(2;5,6),ok,ok\n'
     '13,3,4,2,2,(0;1,3,9),(0;1,4,8,9),(2;3,6),(2;4,5),ok,ok\n'
     '17,3,3,3,3,(1;1,15,16),(1;1,15,16),(3;8,9,11),(3;8,9,11),ok,ok\n'
     '19,2,4,2,2,(0;1,4),(0;1,7,17,18),(2;1,10),(2;1,11),ok,ok\n'
     '23,3,4,2,2,(1;1,2,22),(4;5,9,14,18),(5;2,10),(5;2,10),ok,ok\n'
     '29,4,5,3,3,(0;1,5,24,28),(12;5,8,13,16,21),(2;1,8,16),(2;1,8,16),ok,ok\n'
     '31,3,6,3,2,(1;1,7,30),(23;4,9,13,18,22,27),(3;8,12,19),(3;8,10),ok,ok\n'
     '37,4,6,4,3,(0;1,10,27,36),(0;3,4,7,30,33,34),(2;4,16,17,33),(2;3,13,17),ok,ok\n'
     '41,4,5,4,4,(0;1,9,32,40),(1;1,2,38,39,40),(3;9,12,23,32),(6;5,18,23,24),ok,ok\n'
     '43,3,7,3,3,(0;1,9,14),(8;1,14,15,28,29,30,42),(2;1,5,25),(5;13,15,28),ok,ok\n'
     '47,3,5,3,3,(0;1,2,6),(27;9,10,19,28,38),(5;5,10,25),(5;5,10,25),ok,ok\n'
     '53,4,5,4,4,(0;1,6,9,37),(0;6,7,10,36,47),(2;1,24,29,48),(2;1,24,29,48),ok,ok\n'
     '59,4,4,4,4,(1;11,14,45,48),(0;1,4,16,58),(2;22,28,31,37),(2;22,28,31,37),ok,ok\n'
     '61,4,7,,,(1;3,15,45,57),(3;1,9,12,24,37,45,49),,,lower-bound,\n'
     '67,3,6,,,(0;29,62,64),(54;16,21,32,35,46,51),,,lower-bound,\n'),
]


@pytest.mark.parametrize("argv, code, out", _PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in _PINNED_OUTPUTS])
def test_charsum_and_cubes_outputs_are_pinned(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out)


# Census outputs too long to keep, as (argv, exit code, stdout bytes, sha256
# of stdout): the scan rows, the count tables with their itemized variant
# differences, the radius-3 witness classes of both domains, among them those
# of 1753 and 2089 under domain0, and the w=1 and W=1 frequencies. The scan
# pins are the v6 files pinned before, turned into v7: each row's checksum
# cell checked and dropped, one crc32 line added per block of 4096 rows.
_PINNED_CENSUS = [
    (["scan", "--range", "2", "10000"], 0, 22056,
     "fe885843a8b03eed562bb3081a7053e1df92a9b27c4b6292ed02d7333ad4f675"),
    (["scan", "--range", "2", "30000", "--compute", "w"], 0, 24597,
     "33a23b45e64ce1e4e3283fcb9b104e2cd9d358120b15994fcfde1f259609e438"),
    (["table", "--limit", "10000", "--paper-diff"], 0, 591372,
     "2dc2701132afb8b1e8ee84f8d6281ab9a808c63525b854743412da9dabb02dc4"),
    (["table", "--limit", "10000", "--paper-diff", "--variant", "domain0"], 0, 513,
     "eb1be9b0462ac828299e05ecd56050b83c0acebbe64ed5f70b458ed7e2deb068"),
    (["delta3", "--limit", "20000", "--paper-diff"], 0, 312,
     "cf18010b6594f79a1c59094b083a156dd1fee44bf7db8707ab70a407b4a78f09"),
    (["delta3", "--limit", "20000", "--paper-diff", "--variant", "domain0"], 0, 309,
     "ca31a91ede308c12b85574d77753cdac420bc6483da51323427dfd161c1542dc"),
    (["frequencies", "--limit", "100000"], 0, 113,
     "54ed424f78ada1b6f4c56756fda1c58f06c8646732fdf1c2ecb0c086502cbb8b"),
]


@pytest.mark.parametrize("argv, code, size, digest", _PINNED_CENSUS,
                         ids=[" ".join(argv) for argv, *_ in _PINNED_CENSUS])
def test_census_outputs_are_pinned(capsys, argv, code, size, digest):
    got, out = run(capsys, *argv)
    out = out.encode()
    assert (got, len(out), hashlib.sha256(out).hexdigest()) == (code, size, digest)


def test_usage_errors_exit_1(capsys):
    assert run_err(capsys, "scan", "--range", "9", "3") == (
        1, "", "error: bad scan range [9, 3]\n")
    assert run_err(capsys, "cubes", "--range", "70", "50") == (
        1, "", "error: bad cube range [70, 50]\n")
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing required --range
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, err", [
    (("delta3", "--limit", "2"), "error: --limit 2 is below 3, the least prime delta3 reads\n"),
    (("frequencies", "--limit", "1"),
     "error: --limit 1 is below 2, the least prime frequencies reads\n"),
], ids=["delta3", "frequencies"])
def test_census_limit_below_the_least_prime_names_the_flag(capsys, argv, err):
    assert run_err(capsys, *argv) == (1, "", err)


def test_io_error_exit_2(capsys, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["scan", "--range", "3", "7", "--output", str(missing_dir)]) == 2


def test_engine_failure_exits_4_with_one_line(monkeypatch, capsys):
    # a dilation that never grows the ball leaves the domain uncovered
    monkeypatch.setattr(hamming, "dilate", lambda bitmap, length: bitmap)
    code, out, err = run_err(capsys, "scan", "--range", "7", "7", "--compute", "delta")
    assert (code, out) == (4, "")
    assert err == ("invariant violation: p=7 targets=literal: the dilation for delta "
                   "leaves the domain uncovered after 3 rounds\n")


def test_scan_output_path_is_opened_before_the_scan(tmp_path, monkeypatch):
    blocks = []
    monkeypatch.setattr(scan, "_scan_block", lambda args: blocks.append(args) or [])
    target = tmp_path / "missing" / "out.csv"
    assert main(["scan", "--range", "3", "7", "--output", str(target)]) == 2
    assert blocks == []


def _fail_in_block(monkeypatch, n):
    """Make the n-th block of the next scans raise an InvariantViolation."""
    real, seen = scan._scan_block, []

    def block(args):
        seen.append(args)
        if len(seen) == n:
            raise InvariantViolation(f"p={args[0][0]} targets=literal: injected")
        return real(args)
    monkeypatch.setattr(scan, "_scan_block", block)


def test_failed_scan_leaves_the_old_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    argv = ["scan", "--range", "3", "60", "--compute", "w,W"]
    fresh = run(capsys, *argv)[1]
    target, part = tmp_path / "out.csv", tmp_path / "out.csv.part"
    target.write_bytes(b"old bytes\n")
    with monkeypatch.context() as patch:
        _fail_in_block(patch, 2)
        assert main([*argv, "--output", str(target)]) == 4
    assert target.read_bytes() == b"old bytes\n"
    assert part.read_text() == "".join(fresh.splitlines(keepends=True)[:2 + 4 + 1])
    assert main([*argv, "--output", str(target)]) == 0  # resumes after block 1
    assert target.read_text() == fresh
    assert list(tmp_path.iterdir()) == [target]  # no .part or temporary file left


def test_a_failed_scan_to_stdout_prints_nothing_and_leaves_no_file(tmp_path, monkeypatch,
                                                                   capsys):
    """A scan to stdout writes its journal in a temporary directory and
    copies it out once whole: a scan that fails in its second block prints
    nothing, and neither it nor a scan that succeeds leaves a file."""
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    argv = ["scan", "--range", "3", "60", "--compute", "w,W"]
    with monkeypatch.context() as patch:
        _fail_in_block(patch, 2)
        assert run_err(capsys, *argv) == (
            4, "", "invariant violation: p=13 targets=literal: injected\n")
    assert list(tmp_path.iterdir()) == []
    cfg = ScanConfig(lo=3, hi=60, compute=("w", "W"))
    assert run(capsys, *argv) == (0, format_scan_output(cfg, scan_range(cfg)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("other", [["--range", "3", "100"], ["--compute", "w"]],
                         ids=["range", "compute"])
def test_part_file_of_another_scan_is_refused(tmp_path, capsys, other):
    target, part = tmp_path / "out.csv", tmp_path / "out.csv.part"
    argv = ["scan", "--range", "3", "60", "--compute", "w,W", "--output"]
    assert main([*argv, str(part)]) == 0  # a finished scan of [3, 60], named as the .part
    target.write_bytes(b"old bytes\n")
    journal = part.read_bytes()
    code, out, err = run_err(capsys, "scan", "--range", "3", "60", "--compute", "w,W",
                             *other, "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {part}: line 1: expected ")
    assert part.read_bytes() == journal and target.read_bytes() == b"old bytes\n"


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_cli_option_surface_is_pinned():
    common = {"-h", "--help"}
    expected = {
        "scan": {"--range", "--tasks", "--targets", "--compute", "--output"},
        "table": {"--limit", "--tasks", "--variant", "--compute", "--scan-file",
                  "--paper-diff"},
        "delta3": {"--limit", "--tasks", "--variant", "--scan-file", "--paper-diff"},
        "frequencies": {"--limit", "--tasks", "--scan-file"},
        "cubes": {"--range"},
        "charsum": set(),
        "charsum indicator": {"--p"},
        "charsum pv": {"--p", "--nu"},
        "charsum weil": {"--p", "--coeffs", "--start", "--length"},
        "charsum hoelder": {"--p", "--n", "--k", "--l", "--m", "--nu"},
        "charsum double": {"--p", "--n", "--k", "--l", "--m", "--j"},
        "constants": set(),
    }
    seen = {}
    pending = [((), build_parser())]
    while pending:
        prefix, parser = pending.pop()
        for name, sub in _subcommands(parser).items():
            key = prefix + (name,)
            seen[" ".join(key)] = {o for a in sub._actions for o in a.option_strings}
            pending.append((key, sub))
    assert seen == {name: opts | common for name, opts in expected.items()}


def _readme_synopsis():
    """The entries of the README's command-line block, one string each; an
    entry's continuation lines are indented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface\n\n```\n", 1)[1].split("\n```", 1)[0]
    entries = []
    for line in block.splitlines():
        if line.startswith("hamroots "):
            entries.append(line)
        else:
            entries[-1] += " " + line.strip()
    return entries


def test_readme_synopsis_matches_the_parser():
    """Each subcommand appears in the synopsis with exactly the parser's
    options; charsum shows its kinds and the options they share, then [...]."""
    commands = _subcommands(build_parser())
    shown = {}
    for entry in _readme_synopsis():
        words = entry.split()
        shown[words[1]] = (entry, set(re.findall(r"--[a-z][-a-z]*", entry)))
    assert set(shown) == set(commands)

    def options(parser):
        return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    for name, (entry, opts) in shown.items():
        if name == "charsum":
            kinds = _subcommands(commands[name])
            assert entry.split()[2] == "{" + "|".join(kinds) + "}" and entry.endswith("[...]")
            assert opts and all(opts <= options(kind) for kind in kinds.values())
        else:
            assert opts == options(commands[name]), name


def test_readme_scan_example_is_the_commands_stdout(capsys):
    """The README's example file is what `hamroots scan --range 2 13` prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("(`hamroots scan --range 2 13`):\n\n```\n", 1)[1].split("```", 1)[0]
    assert run(capsys, "scan", "--range", "2", "13") == (0, example)


def test_scan_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--range", "3", "7", "--seed", "1"])
    assert exc.value.code == 1


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scan_file(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    assert main(["scan", *argv, "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_table_scan_file_covering_the_limit_is_accepted(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "1000")
    code, out = run(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert code == 0  # the largest prime is 997, below the limit
    assert out == run(capsys, "table", "--limit", "1000")[1]


def test_table_scan_file_missing_primes_is_refused(tmp_path, capsys):
    for name, lo, hi in (("high.csv", "9000", "10000"), ("no2.csv", "3", "1000")):
        path = _scan_file(tmp_path, capsys, name, "--range", lo, hi, "--compute", "w,W")
        code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
        assert code == 1 and out == ""
        assert "does not cover" in err


def test_table_scan_file_must_hold_the_requested_statistics(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    code, out, err = run_err(capsys, "table", "--limit", "1000",
                             "--compute", "delta", "--scan-file", path)
    assert code == 1 and out == ""
    assert "scan file lacks delta, which table needs" in err
    code, out = run(capsys, "table", "--limit", "1000", "--compute", "w,W",
                    "--scan-file", path)
    assert code == 0
    assert out == run(capsys, "table", "--limit", "1000", "--compute", "w,W")[1]


@pytest.mark.parametrize("compute,got", [("", "()"), ("foo", "('foo',)")],
                         ids=["empty", "unknown"])
def test_table_compute_set_is_checked_alike_for_either_source(tmp_path, capsys, compute, got):
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    message = f"error: compute set must be a nonempty subset of w,W,delta, got {got}\n"
    for source in ([], ["--scan-file", path]):
        code, out, err = run_err(capsys, "table", "--limit", "1000", "--compute", compute, *source)
        assert (code, out, err) == (1, "", message), source


def test_scan_file_bytes_depend_only_on_the_targets(tmp_path, capsys):
    def scan_bytes(*argv):
        path = _scan_file(tmp_path, capsys, "s.csv", "--range", "2", "300", *argv)
        return Path(path).read_bytes()
    assert scan_bytes() == scan_bytes("--targets", "literal") != scan_bytes("--targets", "reduced")
    assert scan_bytes("--compute", "w,W") == scan_bytes("--compute", "w,W", "--targets", "reduced")
    with pytest.raises(SystemExit) as exc:  # the domain is a view, not a scan option
        main(["scan", "--range", "2", "300", "--variant", "domain0"])
    assert exc.value.code == 1


def test_table_scan_file_targets_must_match(tmp_path, capsys):
    # a literal-target file serves both literal variants
    path = _scan_file(tmp_path, capsys, "lit.csv", "--range", "2", "1000",
                      "--targets", "literal")
    for variant in ("canonical", "domain0"):
        for flags in ([], ["--paper-diff"]):
            code, out = run(capsys, "table", "--limit", "1000", "--variant", variant,
                            *flags, "--scan-file", path)
            assert code == 0
            assert out == run(capsys, "table", "--limit", "1000", "--variant", variant,
                              *flags)[1]
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--variant", "reduced",
                             "--scan-file", path)
    assert code == 1 and out == ""
    assert "scan file radii are for literal targets, --variant reduced needs reduced" in err
    reduced = _scan_file(tmp_path, capsys, "red.csv", "--range", "2", "1000",
                         "--targets", "reduced")
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", reduced)
    assert code == 1 and out == ""
    assert "scan file radii are for reduced targets, --variant canonical needs literal" in err
    code, out = run(capsys, "table", "--limit", "1000", "--variant", "reduced",
                    "--paper-diff", "--scan-file", reduced)
    assert code == 0
    assert out == run(capsys, "table", "--limit", "1000", "--variant", "reduced",
                      "--paper-diff")[1]


def test_table_scan_file_without_radii_serves_every_variant(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    for variant in ("domain0", "reduced"):
        code, out = run(capsys, "table", "--limit", "1000", "--compute", "w,W",
                        "--variant", variant, "--scan-file", path)
        assert code == 0
        assert out == run(capsys, "table", "--limit", "1000", "--compute", "w,W")[1]


def test_table_scan_file_bad_checksum_is_refused(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "1000")
    lines = Path(path).read_text().splitlines(keepends=True)
    assert len(lines) == 2 + 168 + 1
    lines[-1] = "# crc32 deadbeef\n"
    Path(path).write_text("".join(lines))
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 171: checksum mismatch on the rows of lines 3-170\n"


def test_table_scan_file_refuses_worker_flags(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--compute", "w,W",
                             "--tasks", "64", "--scan-file", path)
    assert code == 1 and out == ""
    assert "--tasks does not apply to a finished scan" in err
    code, out = run(capsys, "table", "--limit", "1000", "--compute", "w,W",
                    "--tasks", "1", "--scan-file", path)
    assert code == 0


def test_table_scan_file_columns_follow_compute(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "1000")
    for compute in ("w", "W,delta"):
        code, out = run(capsys, "table", "--limit", "1000", "--compute", compute,
                        "--scan-file", path)
        assert code == 0
        assert out == run(capsys, "table", "--limit", "1000", "--compute", compute)[1]


@pytest.mark.parametrize("variant", ["canonical", "domain0"])
def test_delta3_scan_file_matches_the_scan(tmp_path, capsys, variant):
    path = _scan_file(tmp_path, capsys, "d.csv", "--range", "3", "10000", "--compute", "delta")
    argv = ["delta3", "--limit", "10000", "--variant", variant, "--paper-diff"]
    code, out = run(capsys, *argv, "--scan-file", path)
    assert code == 0 and "17: classes" in out
    assert out == run(capsys, *argv)[1]


def test_delta3_scan_file_refusals(tmp_path, capsys):
    ww = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "300", "--compute", "w,W")
    literal = _scan_file(tmp_path, capsys, "d.csv", "--range", "2", "300", "--compute", "delta")
    short = _scan_file(tmp_path, capsys, "s.csv", "--range", "5", "300", "--compute", "delta")
    for path, flags, message in (
            (ww, [], "scan file lacks delta, which delta3 needs"),
            (literal, ["--variant", "reduced"],
             "scan file radii are for literal targets, --variant reduced needs reduced"),
            (literal, ["--limit", "400"], "does not cover the primes up to 400"),
            (short, [], "does not cover the primes up to 300")):
        code, out, err = run_err(capsys, "delta3", "--limit", "300", *flags,
                                 "--scan-file", path)
        assert code == 1 and out == ""
        assert message in err and "--compute" not in err


def test_an_empty_cell_in_an_odd_primes_row_is_refused(tmp_path, capsys):
    """Only the row of p = 2 has empty cells. A file whose row of p = 5 has
    its radii blanked under a recomputed block checksum is refused by the
    reader and by delta3, which would otherwise compare a delta of None
    with 3."""
    path = _scan_file(tmp_path, capsys, "d.csv", "--range", "2", "100", "--compute", "delta")
    lines = Path(path).read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("5,"))
    lines[i] = "5,,,,\n"
    Path(path).write_text(forged(lines))
    message = f"{path}: line {i + 1}: the row of p=5 has an empty cell, which only p = 2 may have"
    assert run_err(capsys, "delta3", "--limit", "100", "--scan-file", path) == (
        1, "", f"error: {message}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_scan_output(path)


def test_a_forged_endpoint_radius_is_refused_when_delta3_reads_its_witnesses(tmp_path, capsys):
    """The row of 7 holds the radii (2, 2, 1, 1). With dist_0 forged to 3
    under a recomputed block checksum, the domain0 view puts 7 at radius 3 with
    the class 0 as its one witness; delta3 derives that list again, by
    `covering_radius`, which finds radius 2, and exits 4."""
    path = _scan_file(tmp_path, capsys, "d.csv", "--range", "3", "100", "--compute", "delta")
    lines = Path(path).read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("7,"))
    assert lines[i] == "7,2,2,1,1\n"
    lines[i] = "7,2,3,1,1\n"
    Path(path).write_text(forged(lines))
    code, out, err = run_err(capsys, "delta3", "--limit", "100", "--variant", "domain0",
                             "--scan-file", path)
    assert (code, out) == (4, "")  # the report is built whole before it is printed
    assert err == ("invariant violation: p=7 variant=domain0: the row gives delta=3 with 1 "
                   "witness classes, but the dilation for delta (covering_radius) lists 2 "
                   "at delta=2\n")


def test_a_forged_endpoint_radius_leaves_no_partial_table_report(tmp_path, monkeypatch,
                                                                 capsys):
    """The same forged row of 7 in a full scan of [2, 1000]: table counts it
    at canonical radius 2, as the row says, and then --paper-diff itemizes 7,
    the domain0 view differing, and derives its domain0 list, which
    `covering_radius` refuses. Nothing of the report is printed, and the
    temporary directory it was written to is gone, as after a table that
    succeeds."""
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "1000")
    lines = Path(path).read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("7,"))
    assert lines[i] == "7,2,2,2,2,1,1\n"
    lines[i] = "7,2,2,2,3,1,1\n"
    Path(path).write_text(forged(lines))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--paper-diff",
                             "--scan-file", path)
    assert (code, out) == (4, "")
    assert err == ("invariant violation: p=7 variant=domain0: the row gives delta=3 with 1 "
                   "witness classes, but the dilation for delta (covering_radius) lists 2 "
                   "at delta=2\n")
    assert list(temp.iterdir()) == []
    code, out = run(capsys, "table", "--limit", "1000", "--paper-diff", "--scan-file", path,
                    "--compute", "w,W")
    assert code == 0 and out.startswith(" j     pi     w=1")
    assert list(temp.iterdir()) == []


def test_table_paper_diff_builds_a_domain0_profile_only_for_each_itemized_prime(
        tmp_path, capsys, monkeypatch):
    """table --paper-diff compares each row's domain0 radius with the
    scanned variant's and builds a domain0 profile only for the 56 primes to
    10^4 it itemizes. Under --variant domain0, where each profile read is
    re-viewed, it builds one per prime read and none to itemize."""
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "10000")
    built = []

    class Counted(hamming.HammingProfile):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(cli, "HammingProfile", Counted)
    code, out = run(capsys, "table", "--limit", "10000", "--paper-diff", "--scan-file", path)
    assert code == 0
    assert len(built) == out.count("\n  p=") == 56
    built.clear()
    code, out = run(capsys, "table", "--limit", "10000", "--variant", "domain0", "--paper-diff",
                    "--scan-file", path)
    assert code == 0 and "\n  p=" not in out
    assert len(built) <= len(sieve_primes(10000))


def test_table_paper_diff_holds_about_as_much_as_the_table_alone(tmp_path, capsys):
    """`table --paper-diff` counts the profiles and picks out the primes to
    itemize in one pass, spools its report to a file and writes each
    witness list a chunk at a time. So at --limit 10000, whose report is
    591,372 bytes, it peaks within 0.25 MB of the table alone, read from the
    same scan file. Each peak is tracemalloc's, counted from a start just
    before the command, in a fresh process whose stdout is discarded."""
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "10000")
    env = dict(os.environ, PYTHONPATH=str(Path(hamroots.__file__).parents[1]))
    script = """
import sys, tracemalloc
from hamroots.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, tracemalloc.get_traced_memory()[1] / 2**20, file=sys.stderr)
"""
    peak = {}
    for flags in ((), ("--paper-diff",)):
        err = subprocess.run([sys.executable, "-c", script, "table", "--limit", "10000",
                              "--scan-file", path, *flags], env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True, check=True, timeout=120).stderr
        code, peak[flags] = err.split()
        assert code == "0", err
    assert float(peak[("--paper-diff",)]) <= float(peak[()]) + 0.25, peak


def test_the_row_of_2_without_its_W_is_refused(tmp_path, capsys):
    """The row of 2 holds W = 1. Blanked under a recomputed block checksum, it
    would make table report a miscount and frequencies print W=1: 67/168;
    both refuse the file instead."""
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    lines = Path(path).read_text().splitlines(keepends=True)
    assert lines[2] == "2,,1\n"
    lines[2] = "2,,\n"
    Path(path).write_text(forged(lines))
    message = f"{path}: line 3: the row of p=2 must hold ',1' after p, got ','"
    for argv in (["table", "--limit", "1000", "--compute", "w,W"],
                 ["frequencies", "--limit", "1000"]):
        assert run_err(capsys, *argv, "--scan-file", path) == (1, "", f"error: {message}\n")


# The scan of [2, 10] as the previous schemas wrote it: v5 with r in every
# row, v6 with a checksum cell ending every row.
_OLD_FILES = {
    "v5": ("# hamroots.scan.v5 lo=2 hi=10 compute=w,W\np,r,w,W,checksum\n2,0,,1,55d2e9b1\n"
           "3,1,1,1,4f6ac07f\n5,2,1,1,6b1a8f95\n7,2,2,2,67ca715f\n"),
    "v6": ("# hamroots.scan.v6 lo=2 hi=10 compute=w,W\np,w,W,checksum\n2,,1,22de3b26\n"
           "3,1,1,8701c1fe\n5,1,1,0841345e\n7,2,2,e9ce88dd\n"),
}


@pytest.mark.parametrize("schema", sorted(_OLD_FILES))
def test_an_older_file_or_journal_is_refused_at_its_first_line(tmp_path, capsys, schema):
    out, part = tmp_path / "ww.csv", tmp_path / "ww.csv.part"
    old = _OLD_FILES[schema]
    message = (f"line 1: unknown scan schema header "
               f"'# hamroots.scan.{schema} lo=2 hi=10 compute=w,W'")
    out.write_text(old)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{out}: {message}')}$"):
        read_scan_output(str(out))
    assert run_err(capsys, "frequencies", "--limit", "10", "--scan-file", str(out)) == (
        1, "", f"error: {out}: {message}\n")
    out.replace(part)  # an older journal, resumed: its first line is not this scan's
    argv = ["scan", "--range", "2", "10", "--compute", "w,W", "--output", str(out)]
    assert run_err(capsys, *argv) == (
        1, "", f"error: {part}: line 1: expected '# hamroots.scan.v7 lo=2 hi=10 compute=w,W', "
               f"got '# hamroots.scan.{schema} lo=2 hi=10 compute=w,W'\n")
    assert part.read_text() == old and not out.exists()


def test_frequencies_scan_file_matches_the_scan(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "ww.csv", "--range", "2", "1000", "--compute", "w,W")
    code, out = run(capsys, "frequencies", "--limit", "1000", "--scan-file", path)
    assert code == 0 and "87/168" in out
    assert out == run(capsys, "frequencies", "--limit", "1000")[1]


def test_frequencies_paper_diff_needs_the_reference_limit(monkeypatch, capsys):
    # the reference line comes with --limit 1000000 alone; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["frequencies", "--limit", "1000", "--paper-diff"])
    assert exc.value.code == 1
    code, out = run(capsys, "frequencies", "--limit", "1000")
    assert code == 0 and "reference" not in out
    # a short scan stands in for the census to 10^6: only the limit decides
    monkeypatch.setattr(cli, "scan_profiles", lambda config: scan_range(
        ScanConfig(lo=2, hi=1000, compute=config.compute)))
    code, out = run(capsys, "frequencies", "--limit", "1000000")
    assert code == 0
    assert out.splitlines()[-1] == ("reference: w=1 39276/78498 ~ 0.500344, "
                                    "W=1 29342/78498 ~ 0.373792")


def test_table_scan_file_malformed_row_is_refused_by_line(tmp_path, capsys):
    path = _scan_file(tmp_path, capsys, "full.csv", "--range", "2", "1000")
    lines = Path(path).read_text().splitlines(keepends=True)
    assert lines[5].startswith("7,2,2,2,2,")
    lines[5] = lines[5].replace("7,2,2,2,2,", "7,2,2,2,", 1)  # the row of 7 loses a cell
    Path(path).write_text(forged(lines))
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert code == 1 and out == ""
    assert f"{path}: line 6: expected 7 columns, got 6" in err


def test_scan_stray_journal_record_is_refused_by_line(tmp_path, capsys):
    target, part = tmp_path / "scan.csv", tmp_path / "scan.csv.part"
    argv = ["scan", "--range", "2", "1000", "--compute", "w,W", "--output", str(target)]
    assert main(argv) == 0
    capsys.readouterr()
    target.replace(part)  # the journal of a scan killed before its rename
    n_lines = len(part.read_text().splitlines())
    with open(part, "a") as fh:
        fh.write('{"x":1}\n')
    code, out, err = run_err(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"error: {part}: line {n_lines + 1}: the scan of [2, 1000] ends on line "
                   f"{n_lines}, but the file goes on\n")
    assert not target.exists()


def test_charsum_pv_at_p2_is_an_error(capsys):
    code, out, err = run_err(capsys, "charsum", "pv", "--p", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: no non-principal character mod 2")


@pytest.mark.parametrize("variant", ["canonical", "reduced"])
def test_table_paper_diff_names_the_scanned_variant(capsys, variant):
    code, out = run(capsys, "table", "--limit", "1000", "--variant", variant, "--paper-diff")
    assert code == 0
    items = out.split(f"# {variant} vs domain0 radius differences:\n")[1].splitlines()
    assert items and all(f": {variant}=" in line for line in items)


def test_a_scan_file_is_read_up_to_the_first_row_past_the_limit(tmp_path, capsys, monkeypatch):
    path = _scan_file(tmp_path, capsys, "wide.csv", "--range", "2", "3000")
    decoded, line_decoder = [], scan._line_decoder

    def counting_decoder(config):
        decode = line_decoder(config)

        def counted(line):
            prof = decode(line)
            decoded.append(prof.p)
            return prof
        return counted
    monkeypatch.setattr(scan, "_line_decoder", counting_decoder)
    code, out = run(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert decoded == sieve_primes(1009)  # 1009 is the first prime above 1000
    assert (code, out) == (0, run(capsys, "table", "--limit", "1000")[1])
    # A file that ends before the limit is still refused at its end.
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:2 + 100]))  # the rows of the first 100 primes
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 103: the file ends before the row of p=547\n"


def test_a_scan_file_read_sieves_only_the_windows_it_reads(tmp_path, capsys, monkeypatch):
    """table --limit 1000 reads a w,W scan of [2, 200000], whose primes span
    four windows of 2^16 numbers, up to its row of 1009, and so sieves the
    first window alone (a delta scan of that range would take a minute)."""
    path = _scan_file(tmp_path, capsys, "wide.csv", "--range", "2", "200000", "--compute", "w,W")
    windows, sieve = [], numtheory.sieve_primes
    monkeypatch.setattr(numtheory, "sieve_primes",
                        lambda limit, lo=2: windows.append((lo, limit)) or sieve(limit, lo))
    code, out = run(capsys, "table", "--limit", "1000", "--compute", "w,W", "--scan-file", path)
    assert windows and all(limit < numtheory._SIEVE_WINDOW for _, limit in windows), windows
    assert (code, out) == (0, run(capsys, "table", "--limit", "1000", "--compute", "w,W")[1])


# table --limit 1000 --variant reduced --paper-diff, recorded while the
# domain0 radii of its itemization came from a per-prime dilation: the table,
# each itemized prime as (p, reduced delta, domain0 delta, domain0 classes),
# and a digest of the whole stdout, whose reduced witness lists run to 13 kB.
_REDUCED_TABLE = (
    " j     pi     w=1     W=1 delta=1     w=2     W=2 delta=2     w=3     W=3 delta=3\n"
    " 3    168      87      68      23      80     100     144       0       0       0\n"
    "diff     +0      +0      +0     -11      +0      +0      +9      +0      +0      +3"
    "   (reference minus computed)\n"
    "# reduced vs domain0 radius differences:\n")
_REDUCED_ITEMS = [
    (17, 2, 3, "16"), (23, 1, 2, "0"), (47, 1, 2, "0"), (67, 2, 3, "65"), (167, 1, 2, "0"),
    (257, 2, 3, "256"), (263, 1, 2, "0"), (293, 1, 2, "65"), (479, 1, 2, "0"),
    (677, 1, 2, "340;452;609"), (719, 1, 2, "0"), (839, 1, 2, "0"), (863, 1, 2, "0"),
    (887, 1, 2, "0"), (983, 1, 2, "0;866")]
_REDUCED_SHA256 = "6599b16a1923469c4ea8ed2f2b92f7db4811b0ef6c9122e30828b93ccef3ff39"


@pytest.mark.parametrize("source", ["memory", "scan-file"])
def test_reduced_paper_diff_output_is_pinned(tmp_path, capsys, source):
    flags = [] if source == "memory" else [
        "--scan-file", _scan_file(tmp_path, capsys, "red.csv", "--range", "2", "1000",
                                  "--targets", "reduced")]
    code, out = run(capsys, "table", "--limit", "1000", "--variant", "reduced", "--paper-diff",
                    *flags)
    assert code == 0 and out.startswith(_REDUCED_TABLE)
    items = re.findall(r"  p=(\d+): reduced=(\d) \(classes [\d;]+\) domain0=(\d) "
                       r"\(classes ([\d;]+)\)\n", out)
    assert [(int(p), int(a), int(b), c) for p, a, b, c in items] == _REDUCED_ITEMS
    assert len(out.splitlines()) == 4 + len(_REDUCED_ITEMS)
    assert hashlib.sha256(out.encode()).hexdigest() == _REDUCED_SHA256
