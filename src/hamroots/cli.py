"""Command-line frontend.

Exit codes: 0 ok, 1 usage, 2 I/O failure, 3 capability limit, 4 invariant
violation. Subcommands: scan, table, delta3, frequencies, cubes, charsum,
constants. The character sums, constants and cube search are reached through
the package's lazy names, so a census command loads only the scan engine.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shutil
import sys
import tempfile
from typing import Iterator

import hamroots

from . import reference
from .errors import CapabilityError, InvariantViolation
from .hamming import BASE_VIEWS, DOMAIN0, VARIANTS, HammingProfile
from .numtheory import PrimeContext, divisors, is_primitive_root, sieve_primes
from .scan import CountTable, ScanConfig, scan_profiles, stream_scan_output


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hamroots")
    subs = parser.add_subparsers(dest="command", required=True)

    # Census flags, declared once and shared by the subcommands that read them.
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--tasks", type=int, default=1)
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--variant", choices=sorted(VARIANTS), default="canonical")
    compute = argparse.ArgumentParser(add_help=False)
    compute.add_argument("--compute", default="w,W,delta",
                         help="comma-joined subset of w,W,delta")
    scan_file = argparse.ArgumentParser(add_help=False)
    scan_file.add_argument("--scan-file", metavar="PATH",
                           help="reuse a previous scan instead of recomputing")

    scan = subs.add_parser("scan", help="per-prime statistics over a range",
                           parents=[workers, compute])
    scan.add_argument("--range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    scan.add_argument("--targets", choices=sorted(BASE_VIEWS), default="literal")
    scan.add_argument("--output", metavar="PATH",
                      help="written as PATH.part, which a rerun resumes, then renamed")
    scan.set_defaults(func=cmd_scan)

    census = [workers, variant, scan_file]
    table = subs.add_parser("table", help="census table with reference diffs",
                            parents=[*census, compute])
    table.add_argument("--limit", type=int, required=True)
    table.add_argument("--paper-diff", action="store_true",
                       help="itemize per-prime differences between radius variants")
    table.set_defaults(func=cmd_table)

    d3 = subs.add_parser("delta3", help="primes of covering radius 3", parents=census)
    d3.add_argument("--limit", type=int, default=reference.RADIUS3_SEARCH_LIMIT)
    d3.add_argument("--paper-diff", action="store_true",
                    help="compare witness classes against the reference list")
    d3.set_defaults(func=cmd_delta3)

    freq = subs.add_parser("frequencies", help="observed w=1 / W=1 densities",
                           parents=[workers, scan_file])
    freq.add_argument("--limit", type=int, required=True)
    freq.set_defaults(func=cmd_frequencies)

    cubes = subs.add_parser("cubes", help="cube avoidance/containment census")
    cubes.add_argument("--range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    cubes.set_defaults(func=cmd_cubes)

    # Character-sum flags, declared once like the census flags.
    prime, split, nu = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    prime.add_argument("--p", type=int, required=True)
    for flag in ("--n", "--k", "--l", "--m"):
        split.add_argument(flag, type=int, required=True)
    nu.add_argument("--nu", type=int, default=1)

    charsum = subs.add_parser("charsum", help="character-sum checks and reports")
    kinds = charsum.add_subparsers(dest="kind", required=True)
    ind = kinds.add_parser("indicator", help="indicator identity over all residues",
                           parents=[prime])
    ind.set_defaults(func=cmd_charsum_indicator)
    pv = kinds.add_parser("pv", help="interval-sum report over all non-principal characters",
                          parents=[prime, nu])
    pv.set_defaults(func=cmd_charsum_pv)
    weil = kinds.add_parser("weil", help="polynomial character-sum report", parents=[prime])
    weil.add_argument("--coeffs", required=True, help="comma-joined, lowest degree first")
    weil.add_argument("--start", type=int, default=0)
    weil.add_argument("--length", type=int, default=None)
    weil.set_defaults(func=cmd_charsum_weil)
    hoe = kinds.add_parser("hoelder", help="split-sum report", parents=[prime, split, nu])
    hoe.set_defaults(func=cmd_charsum_hoelder)
    dbl = kinds.add_parser("double", help="exact split character sum", parents=[prime, split])
    dbl.add_argument("--j", type=int, default=None, help="character exponent (default: quadratic)")
    dbl.set_defaults(func=cmd_charsum_double)

    cst = subs.add_parser("constants", help="named constants with reference digits")
    cst.set_defaults(func=cmd_constants)

    return parser


def _compute_tuple(flag_value: str) -> tuple[str, ...]:
    return tuple(part for part in flag_value.split(",") if part)


def cmd_scan(args) -> int:
    # The rows go to the scan's checkpoint journal, appended a block at a
    # time. With --output it is PATH.part, which a rerun resumes, and only a
    # whole scan is renamed onto PATH, so a failure leaves any old output.
    # Without, it sits in a temporary directory and a whole scan is copied to
    # stdout, so a failure prints nothing.
    with (contextlib.nullcontext() if args.output else tempfile.TemporaryDirectory()) as tmp:
        config = ScanConfig(lo=args.range[0], hi=args.range[1], tasks=args.tasks,
                            targets=args.targets, compute=_compute_tuple(args.compute),
                            checkpoint=f"{args.output}.part" if args.output
                            else os.path.join(tmp, "scan.part"))
        for _ in scan_profiles(config):
            pass
        if args.output:
            os.replace(config.checkpoint, args.output)
        else:
            with open(config.checkpoint, encoding="utf-8", newline="") as fh:
                shutil.copyfileobj(fh, sys.stdout)
    return 0


def _census_profiles(args, lo: int, compute: tuple[str, ...],
                     variant_name: str) -> Iterator[HammingProfile]:
    """The profiles of the primes in [lo, --limit] under the variant, with the
    statistics of compute: scanned in memory, or read from --scan-file, which
    must cover that range, hold those statistics and, for delta, have the
    radius targets of the variant. Either way the variant is a view of the
    scan's radii, and the profiles stream. The flags and the file's header
    are checked before this returns, its rows as they are read."""
    variant = VARIANTS[variant_name]
    # One check of the flags, the same for either source.
    if args.limit < lo:
        raise ValueError(f"--limit {args.limit} is below {lo}, "
                         f"the least prime {args.command} reads")
    config = ScanConfig(lo=lo, hi=args.limit, tasks=args.tasks, targets=variant.targets,
                        compute=compute)
    if not args.scan_file:
        profiles = scan_profiles(config)
    elif args.tasks != 1:
        raise ValueError("--tasks does not apply to a finished scan read with --scan-file")
    else:
        scanned, profiles = stream_scan_output(args.scan_file)
        if scanned.lo > lo or scanned.hi < args.limit:
            raise ValueError(f"scan file does not cover the primes up to {args.limit}")
        missing = set(compute) - set(scanned.compute)
        if missing:
            raise ValueError(f"scan file lacks {','.join(sorted(missing))}, "
                             f"which {args.command} needs")
        if "delta" in compute and scanned.targets != variant.targets:
            raise ValueError(f"scan file radii are for {scanned.targets} targets, "
                             f"--variant {variant_name} needs {variant.targets} targets")
        # Read up to the first row past --limit, so every row used is checked
        # and none after it is read, then drop the rows below lo.
        profiles = itertools.dropwhile(
            lambda pr: pr.p < lo, itertools.takewhile(lambda pr: pr.p <= args.limit, profiles))
    # The profiles are in the base view of the variant's targets, and a view
    # changes only delta and its witnesses: only a delta census re-views them.
    if "delta" not in compute or variant is BASE_VIEWS[variant.targets]:
        return profiles
    return (HammingProfile(pr.p, pr.r, pr.w, pr.W, variant=variant.name, radii=pr.radii)
            for pr in profiles)


def cmd_table(args) -> int:
    exponents = [j for j in sorted(reference.COUNT_TABLE) if 10**j <= args.limit]
    if not exponents:
        raise ValueError("limit below the smallest tabulated threshold 10^3")
    compute = _compute_tuple(args.compute)
    profiles = _census_profiles(args, 2, compute, args.variant)
    itemize = args.paper_diff and "delta" in compute
    if itemize:  # read twice, by the table and by the itemization
        profiles = list(profiles)
    table = CountTable.from_profiles(profiles, [10**j for j in exponents])
    header = f"{'j':>2} {'pi':>6}" + "".join(
        f" {stat + '=' + str(i):>7}" for i in (1, 2, 3) for stat in ("w", "W", "delta"))
    lines, violation = [header], False
    for j in exponents:
        row = table.rows[10**j]
        ref = reference.COUNT_TABLE[j]
        line = f"{j:>2} {row['pi']:>6}"
        diff = f"{'diff':>2} {ref['pi'] - row['pi']:>+6}"
        for i in (1, 2, 3):
            for stat in ("w", "W", "delta"):
                have = row[stat][i - 1] if stat in compute else None
                line += f" {have if have is not None else '-':>7}"
                d = "" if have is None else format(ref[stat][i - 1] - have, "+d")
                diff += f" {d:>7}"
        lines += [line, diff + "   (reference minus computed)"]
        for stat in ("w", "delta", "W"):
            if stat in compute and not table.sum_identity_ok(10**j, stat):
                lines.append(f"!! {stat} counts at 10^{j} do not sum to "
                             f"{'pi' if stat == 'W' else 'pi-1'}")
                violation = True
    if itemize:
        lines += _itemize_variant_differences(args, profiles)
    print(*lines, sep="\n")  # once whole, so a list refused as it is derived prints nothing
    return 4 if violation else 0


def _itemize_variant_differences(args, profiles: list[HammingProfile]) -> Iterator[str]:
    """The lines listing the primes whose radius under the scanned variant
    differs from the domain0 one (the convention the reference delta columns
    follow). The domain0 profile is a view of each row's radii; under reduced
    targets, whose radii do not give it, of the row of a literal-target scan."""
    yield f"# {args.variant} vs domain0 radius differences:"
    literal = profiles if VARIANTS[args.variant].targets == "literal" else scan_profiles(
        ScanConfig(lo=2, hi=args.limit, tasks=args.tasks, compute=("delta",)))
    for prof, lit in zip(profiles, literal, strict=True):
        if prof.delta is None:
            continue
        alt = HammingProfile(prof.p, prof.r, prof.w, prof.W, variant=DOMAIN0.name, radii=lit.radii)
        if alt.delta != prof.delta:
            yield (f"  p={prof.p}: {args.variant}={prof.delta} (classes "
                   f"{';'.join(map(str, prof.witnesses))}) domain0={alt.delta} "
                   f"(classes {';'.join(map(str, alt.witnesses))})")


def cmd_delta3(args) -> int:
    if args.limit > reference.RADIUS3_SEARCH_LIMIT:
        raise CapabilityError(f"radius-3 census capped at {reference.RADIUS3_SEARCH_LIMIT}")
    radius3, deep = {}, []
    for pr in _census_profiles(args, 3, ("delta",), args.variant):
        if pr.delta == 3:
            radius3[pr.p] = pr
        elif pr.delta > 3:
            deep.append(pr.p)
    lines = [f"# primes <= {args.limit} with covering radius 3 ({args.variant} variant)"]
    for p, pr in radius3.items():
        wits = pr.witnesses  # derived again on each read
        line = f"{p}: classes {';'.join(map(str, wits))}"
        if args.paper_diff:
            ref = reference.RADIUS3_CLASSES.get(p)
            if ref is None:
                line += "  [not in reference list]"
            else:
                ours = set(wits)
                marks = [f"{c}{'+' if c in ours else '-'}" for c in ref]
                extra = sorted(ours - set(ref))
                line += f"  reference: {';'.join(marks)}"
                if extra:
                    line += f" extra: {';'.join(map(str, extra))}"
        lines.append(line)
    if args.paper_diff:
        missing = [p for p in reference.RADIUS3_CLASSES if p <= args.limit and p not in radius3]
        if missing:
            lines.append(f"# reference primes not at radius 3 under {args.variant}: "
                         f"{', '.join(map(str, missing))}")
    if deep:
        lines.append(f"!! HEADLINE DISCREPANCY: radius >= 4 at {', '.join(map(str, deep))}")
    print(*lines, sep="\n")  # once whole, as in table
    return 0


def cmd_frequencies(args) -> int:
    profiles = _census_profiles(args, 2, ("w", "W"), "canonical")
    row = CountTable.from_profiles(profiles, [args.limit]).rows[args.limit]
    pi, w1, big_w1 = row["pi"], row["w"][0], row["W"][0]
    artin = hamroots.artin_constant(min(args.limit, 1_000_000))
    print(f"pi({args.limit}) = {pi}")
    print(f"w=1: {w1}/{pi} = {w1 / pi:.6f}   (limit 1/2)")
    print(f"W=1: {big_w1}/{pi} = {big_w1 / pi:.6f}   (Artin constant {artin:.7f})")
    if args.limit == 10**6:  # the one limit with reference figures
        ref = reference.FREQ_10_6
        print(f"reference: w=1 {ref['w1']}/{ref['pi']} ~ {reference.FREQ_W1_DIGITS}, "
              f"W=1 {ref['W1']}/{ref['pi']} ~ {reference.FREQ_BIGW1_DIGITS}")
    return 0


def cmd_cubes(args) -> int:
    from .cubes import EXHAUSTIVE_P_CAP
    lo, hi = args.range
    if hi < lo:
        raise ValueError(f"bad cube range [{lo}, {hi}]")
    rc = 0
    print("p,f,F,f_bar,F_bar,f_witness,F_witness,f_bar_witness,F_bar_witness,chain,hs_bound")
    for p in sieve_primes(hi, max(lo, 3)) if hi >= 2 else ():
        ctx = PrimeContext.for_prime(p)
        if p > EXHAUSTIVE_P_CAP:  # heuristic lower bounds for f and F only
            f = hamroots.max_avoiding_dimension(ctx, hamroots.NONRESIDUE)
            big_f = hamroots.max_avoiding_dimension(ctx, hamroots.PRIMROOT)
            print(f"{p},{f.dim},{big_f.dim},,,{f.witness},{big_f.witness},,,lower-bound,")
            continue
        census = hamroots.cube_census(ctx)
        violations = census.chain_violations()
        chain = "ok" if not violations else "|".join(violations)
        hs_ok = census.avoid_nonresidue.dim < 12 * p**0.25
        print(",".join([
            str(p),
            str(census.avoid_nonresidue.dim), str(census.avoid_primroot.dim),
            str(census.inside_nonresidue.dim), str(census.inside_primroot.dim),
            str(census.avoid_nonresidue.witness), str(census.avoid_primroot.witness),
            str(census.inside_nonresidue.witness), str(census.inside_primroot.witness),
            chain, "ok" if hs_ok else "violated",
        ]))
        if violations:
            rc = 4
    return rc


def cmd_charsum_indicator(args) -> int:
    ctx = PrimeContext.for_prime(args.p)
    good = 0
    for a in range(1, args.p):
        if int(hamroots.primroot_indicator(ctx, a)) == int(is_primitive_root(a, ctx)):
            good += 1
    print(f"indicator identity mod {args.p}: exact match {good}/{args.p - 1} residues")
    return 0 if good == args.p - 1 else 4


def cmd_charsum_pv(args) -> int:
    ctx = PrimeContext.for_prime(args.p)
    worst = None
    m = args.p - 1
    for d in divisors(m)[1:]:
        for chi in hamroots.build_characters(ctx, d):
            for start in (0, args.p // 3):
                for length in (args.p // 2, args.p - 1):
                    rep = hamroots.pv_burgess_bound_report(chi, start, length, args.nu)
                    if worst is None or rep.ratio > worst[0]:
                        worst = (rep.ratio, chi.j, start, length)
    if worst is None:
        raise ValueError(f"no non-principal character mod {args.p}: "
                         f"p - 1 = {m} has no divisor above 1")
    ratio, j, start, length = worst
    print(f"max interval-sum ratio mod {args.p} (nu={args.nu}): {ratio:.6f} "
          f"at chi_{j}, window ({start}, {start + length}]")
    return 0


def cmd_charsum_weil(args) -> int:
    ctx = PrimeContext.for_prime(args.p)
    coeffs = [int(c) for c in args.coeffs.split(",")]
    chi = hamroots.legendre_character(ctx)
    total, report = hamroots.poly_char_sum(ctx, chi, coeffs, args.start, args.length)
    print(f"|sum| = {report.magnitude:.6f}, bound = {report.bound:.6f}, "
          f"ratio = {report.ratio:.6f}, applicable = {report.applicable}"
          + (f" ({report.note})" if report.note else ""))
    return 0


def cmd_charsum_hoelder(args) -> int:
    ctx = PrimeContext.for_prime(args.p)
    chi = hamroots.legendre_character(ctx)
    rep = hamroots.hoelder_bound_report(ctx, args.n, args.k, args.l, args.m, chi, args.nu)
    print(f"|S| = {rep.magnitude:.6f}, bound = {rep.bound:.6f}, ratio = {rep.ratio:.6f}"
          + ("" if rep.applicable else f"  [{rep.note}]"))
    return 0


def cmd_charsum_double(args) -> int:
    ctx = PrimeContext.for_prime(args.p)
    chi = (hamroots.legendre_character(ctx) if args.j is None
           else hamroots.Character(ctx, args.j % (args.p - 1)))
    total = hamroots.split_char_sum(ctx, args.n, args.k, args.l, args.m, chi)
    rational = total.as_rational()
    shown = rational if rational is not None else total.value()
    print(f"S = {shown} ({total.n_terms} terms, |S| = {total.magnitude():.6f})")
    return 0


def cmd_constants(args) -> int:
    rho = hamroots.entropy_half_point()
    theta = hamroots.sparse_weight_constant()
    artin = hamroots.artin_constant(10**6)  # the limit of the reference digits
    print(f"entropy half-point rho0 = {rho:.10f}   "
          f"(reference digits {reference.ENTROPY_HALF_POINT_DIGITS})")
    print(f"1/(8 sqrt e)    theta0 = {theta:.10f}   "
          f"(reference digits {reference.SPARSE_WEIGHT_DIGITS})")
    print(f"Artin constant A({10**6}) = {artin:.10f}   "
          f"(reference digits {reference.ARTIN_DIGITS})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
