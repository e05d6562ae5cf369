"""Command-line entry point.

Subcommands: verify (Monte Carlo campaign), sweep (one-parameter family),
tangle (report for a state file), table1 (normal-form bound cross-check).
Exit codes: 0 ok, 1 violations found, 2 usage or input error (an unreadable
input or unwritable output included), 3 campaign samples failed, 4 internal
error (any other exception, its traceback printed to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
import warnings
from contextlib import nullcontext
from decimal import Decimal, localcontext

import numpy as np

from .harness import (
    SWEEP_BINDINGS,
    TABLE1_FIELDS,
    VIOLATION_THRESHOLD,
    CampaignConfig,
    _csv_file,
    run_campaign,
    sweep_family,
    table1_check,
)
from .monogamy import MU3, tangle_report
from .qstate import state_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SAMPLES_FAILED = 3
EXIT_INTERNAL = 4

# A bound on a sweep's run time; its memory stays flat, as its grid is bounded
# in chunks. Measured 7,900 points/s (class 5, 20,000 points, one core of a
# shared 2-core x86-64 VM): about 13 s at this cap.
MAX_SWEEP_POINTS = 100_000


def _parse_classes(spec: str) -> tuple:
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ValueError(f"--classes: {part!r} is not a class or a range lo-hi") from None
        if first > last:
            raise ValueError(f"--classes: {part!r} runs backwards; classes must not be empty")
        out.extend(range(first, last + 1))
    return tuple(sorted(set(out)))


@functools.cache  # built on first use; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtangle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a Monte Carlo campaign over SLOCC classes")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--classes", default="1-8", help="classes to sample, e.g. 1-8 or 1,3,5")
    p.add_argument("--samples", type=int, default=10000, help="samples per class")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--mu3", type=float, default=MU3, help="exponent on the three-tangle terms")
    p.add_argument(
        "--threshold", type=float, default=VIOLATION_THRESHOLD, help="negativity threshold"
    )
    p.add_argument("--out", default="campaign.csv", help="CSV output path")
    p.add_argument("--summary", default=None, help="JSON summary path")
    p.add_argument(
        "--workers", type=int, default=1, help="processes that evaluate spans, this one included"
    )
    p.add_argument("--json", action="store_true", help="print the summary as JSON")

    p = sub.add_parser("sweep", help="sweep a one-parameter normal-form family")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument(
        "--class", dest="slocc_class", type=int, required=True, choices=sorted(SWEEP_BINDINGS)
    )
    p.add_argument("--a-min", type=float, default=0.0)
    p.add_argument("--a-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--mu3", type=float, default=MU3)
    p.add_argument("--threshold", type=float, default=VIOLATION_THRESHOLD)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tangle", help="tangle report for a JSON state file")
    p.set_defaults(run=_cmd_tangle)
    p.add_argument("state_file")
    p.add_argument("--focus", type=int, default=1)
    p.add_argument("--mu3", type=float, default=MU3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table1", help="normal-form marginal bound cross-check")
    p.set_defaults(run=_cmd_table1)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_verify(args) -> int:
    cfg = CampaignConfig(
        classes=_parse_classes(args.classes),
        samples_per_class=args.samples,
        master_seed=args.seed,
        mu3=args.mu3,
        negativity_threshold=args.threshold,
        workers=args.workers,
    )
    summary = run_campaign(cfg, args.out, summary_path=args.summary)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"points tested: {summary['total_points']}")
        print(f"violations:    {summary['violation_count']}")
        print(f"errors:        {summary['error_count']}")
        if summary["min_residual"] is None:
            print("min residual:  none (no state was evaluated)")
        else:
            print(f"min residual:  {summary['min_residual']:.3e} at {summary['min_residual_at']}")
    if summary["error_count"]:
        return EXIT_SAMPLES_FAILED
    return EXIT_VIOLATION if summary["violation_count"] else EXIT_OK


def _cmd_sweep(args) -> int:
    # The grid ends at its last point not above --a-max. The span gets a few
    # ulps of its endpoints as slack, at most half a step, so that a step
    # that divides it up to roundoff keeps its last point; that point is then
    # clamped to --a-max. Point k is the double nearest the decimal
    # a_min + k step, each read as the decimal its repr writes, so that a
    # step of 0.1 gives 0.3, not 0.30000000000000004.
    span = args.a_max - args.a_min
    slack = min(4 * sys.float_info.epsilon * (abs(args.a_min) + abs(args.a_max)), args.step / 2)
    steps = (span + slack) / args.step if args.step > 0 else np.nan
    # Also rejects NaN, and a step so small that the grid's count overflows.
    if not (args.step < np.inf and span >= 0 and steps < MAX_SWEEP_POINTS):
        raise ValueError(
            "the sweep grid needs a finite --step > 0, --a-max >= --a-min and "
            f"at most {MAX_SWEEP_POINTS} points"
        )
    with localcontext() as ctx:
        ctx.prec = 700  # exact sums: a double's repr has digits from 1e308 to 1e-340
        a_min, step = Decimal(repr(args.a_min)), Decimal(repr(args.step))
        points = [float(a_min + step * k) for k in range(int(steps) + 1)]
    grid = np.minimum(points, args.a_max)
    result = sweep_family(
        args.slocc_class, grid, mu3=args.mu3, threshold=args.threshold, csv_path=args.out
    )
    if args.json:
        print(json.dumps(result))
    else:
        print(f"class {result['class']}: {len(result['rows'])} grid points, "
              f"{len(result['flagged'])} degenerate, {len(result['violations'])} violations")
        if result["rows"]:
            worst = min(min(r[1:]) for r in result["rows"])
            print(f"smallest residual: {worst:.3e}")
    return EXIT_VIOLATION if result["violations"] else EXIT_OK


def _cmd_tangle(args) -> int:
    report = tangle_report(state_from_json(args.state_file), args.focus, mu3=args.mu3)
    if args.json:
        print(json.dumps(report))
        return EXIT_OK
    print(f"n = {report['n_qubits']}, focus = {report['focus']}")
    print(f"tau1 = {report['tau1']:.12f}")
    if "tau2" in report:
        print(f"tau2 = {report['tau2']:.12f}")
    if "tau2_terms" in report:
        for j, v in report["tau2_terms"].items():
            print(f"tau2[{report['focus']}|{j}] = {v:.12f}")
        print(f"CKW residual = {report['ckw_residual']:.12f}")
    if "tau3" in report:
        print(f"tau3 = {report['tau3']:.12f}")
    if "sm_report" in report:
        sm = report["sm_report"]
        for pair, bound in sm["tau3_bounds"].items():
            print(f"tau3up[{report['focus']}|{pair}] = {bound['value']:.12f} ({bound['method']})")
        print(f"residual_lower = {sm['residual_lower']:.12f} (mu3 = {sm['mu3']})")
    return EXIT_OK


def _cell(value) -> str:
    """A table1 CSV cell: the repr of a number, and an empty cell for None."""
    return "" if value is None else repr(value)


def _cmd_table1(args) -> int:
    # The file opens before the first engine call, so an unwritable path
    # fails before any work.
    with _csv_file(args.out, TABLE1_FIELDS) if args.out else nullcontext() as fh:
        rows = table1_check()
        if fh is not None:
            fh.write("".join(
                f"{r['class']},{_cell(r['param'])},{'|'.join(map(str, r['triple']))},"
                f"{int(r['declared_zero'])},{_cell(r['table_bound'])},{r['rdl_value']!r},"
                f"{r['rdl_method']},{int(r['violation'])}\n"
                for r in rows
            ))  # fmt: skip
    bad = [r for r in rows if r["violation"]]
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"{len(rows)} marginal checks, {len(bad)} zero-row violations")
        for r in bad:
            print(f"  class {r['class']} a={r['param']} triple={r['triple']}: "
                  f"rdl={r['rdl_value']:.3e} ({r['rdl_method']})")
    return EXIT_VIOLATION if bad else EXIT_OK


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """Write "--option X" as "--option=X" when X parses as a negative number:
    argparse takes a separate "-1e-3" for an option name, since only plain
    decimals count as negative numbers."""
    out: list = []
    for token in argv:
        if out and out[-1].startswith("--") and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _print_warning(message, *args, **kwargs) -> None:
    """A warning as one "warning:" line on stderr, without a source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.run(args)
        except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception:  # a fault of the program or its platform; KeyboardInterrupt passes
            traceback.print_exc()
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
