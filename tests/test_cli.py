import argparse
import re
from pathlib import Path

import pytest

from hamroots import cli, hamming, scan
from hamroots.cli import build_parser, main
from hamroots.errors import InvariantViolation
from hamroots.scan import ScanConfig, format_scan_output, scan_range


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
    assert lines[0] == "# hamroots.scan.v5 lo=3 hi=31 targets=literal compute=w,W,delta"
    assert len(lines) == 2 + 10  # header, columns, pi(31) - 1 primes


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
    code, out = run(capsys, "cubes", "--range", "1", "2")
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


def test_usage_errors_exit_1(capsys):
    assert main(["scan", "--range", "9", "3"]) == 1
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
    assert part.read_text() == "".join(fresh.splitlines(keepends=True)[:2 + 4])
    assert main([*argv, "--output", str(target)]) == 0  # resumes after block 1
    assert target.read_text() == fresh
    assert list(tmp_path.iterdir()) == [target]  # no .part or temporary file left


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
    lines[2:] = [line.rsplit(",", 1)[0] + ",deadbeef\n" for line in lines[2:]]
    Path(path).write_text("".join(lines))
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert code == 1 and out == ""
    assert "checksum mismatch on line 3" in err


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
    lines[5] = lines[5].replace("7,2,2,2,2,", "7,2,2,2,", 1)  # p = 7 loses its core cell
    Path(path).write_text("".join(lines))
    code, out, err = run_err(capsys, "table", "--limit", "1000", "--scan-file", path)
    assert code == 1 and out == ""
    assert f"{path}: line 6: expected 9 columns, got 8" in err


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
    assert f"{part}: line {n_lines + 1}: expected 5 columns, got 1" in err
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
