"""Command-line entry point.

Subcommands: verify (Monte Carlo campaign), sweep (one-parameter family),
tangle (report for a state file), table1 (normal-form bound cross-check).
Exit codes: 0 ok, 1 violations found, 2 usage error, 3 campaign samples failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import (
    CampaignConfig,
    run_campaign,
    sweep_family,
    table1_check,
    tangle_report,
    write_table1_csv,
)
from .qstate import state_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SAMPLES_FAILED = 3


def _parse_classes(spec: str) -> tuple:
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return tuple(sorted(set(out)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtangle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a Monte Carlo campaign over SLOCC classes")
    p.add_argument("--classes", default="1-8", help="classes to sample, e.g. 1-8 or 1,3,5")
    p.add_argument("--samples", type=int, default=10000, help="samples per class")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--mu3", type=float, default=1.5, help="exponent on the three-tangle terms")
    p.add_argument("--threshold", type=float, default=-1e-7, help="negativity threshold")
    p.add_argument("--out", default="campaign.csv", help="CSV output path")
    p.add_argument("--summary", default=None, help="JSON summary path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true", help="print the summary as JSON")

    p = sub.add_parser("sweep", help="sweep a one-parameter normal-form family")
    p.add_argument("--class", dest="slocc_class", type=int, required=True, choices=range(2, 7))
    p.add_argument("--a-min", type=float, default=0.0)
    p.add_argument("--a-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--mu3", type=float, default=1.5)
    p.add_argument("--threshold", type=float, default=-1e-7)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tangle", help="tangle report for a JSON state file")
    p.add_argument("state_file")
    p.add_argument("--focus", type=int, default=1)
    p.add_argument("--mu3", type=float, default=1.5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table1", help="normal-form marginal bound cross-check")
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
        print(json.dumps(summary.to_json_dict(), indent=2))
    else:
        print(f"points tested: {summary.total_points}")
        print(f"violations:    {summary.violation_count}")
        print(f"errors:        {summary.error_count}")
        if summary.min_residual is None:
            print("min residual:  none (no state was evaluated)")
        else:
            print(f"min residual:  {summary.min_residual:.3e} at {summary.min_residual_at}")
    if summary.error_count:
        return EXIT_SAMPLES_FAILED
    return EXIT_VIOLATION if summary.violation_count else EXIT_OK


def _cmd_sweep(args) -> int:
    span = args.a_max - args.a_min
    if not (0 < args.step < np.inf and 0 <= span < np.inf):  # also rejects NaN
        raise ValueError("the sweep grid needs a finite --step > 0 and --a-max >= --a-min")
    n_steps = int(round(span / args.step))
    grid = args.a_min + args.step * np.arange(n_steps + 1)
    result = sweep_family(
        args.slocc_class, grid, mu3=args.mu3, threshold=args.threshold, csv_path=args.out
    )
    if args.json:
        print(
            json.dumps(
                {
                    "class": result.slocc_class,
                    "rows": result.rows,
                    "flagged": result.flagged,
                    "violations": result.violations,
                }
            )
        )
    else:
        print(f"class {result.slocc_class}: {len(result.rows)} grid points, "
              f"{len(result.flagged)} degenerate, {len(result.violations)} violations")
        if result.rows:
            worst = min(min(r[1:]) for r in result.rows)
            print(f"smallest residual: {worst:.3e}")
    return EXIT_VIOLATION if result.violations else EXIT_OK


def _cmd_tangle(args) -> int:
    try:
        psi = state_from_json(args.state_file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read state file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = tangle_report(psi, args.focus, mu3=args.mu3)
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


def _cmd_table1(args) -> int:
    entries = table1_check()
    bad = [e for e in entries if e.violation]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "class": e.slocc_class,
                        "param": e.param_value,
                        "triple": list(e.triple),
                        "declared_zero": e.declared_zero,
                        "table_bound": e.table_bound,
                        "rdl_value": e.rdl_value,
                        "rdl_method": e.rdl_method,
                        "violation": e.violation,
                    }
                    for e in entries
                ]
            )
        )
    else:
        print(f"{len(entries)} marginal checks, {len(bad)} zero-row violations")
        for e in bad:
            print(f"  class {e.slocc_class} a={e.param_value} triple={e.triple}: "
                  f"rdl={e.rdl_value:.3e} ({e.rdl_method})")
    if args.out:
        write_table1_csv(entries, args.out)
    return EXIT_VIOLATION if bad else EXIT_OK


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_threshold(argv: list) -> list:
    """Write "--threshold X" as "--threshold=X" when X is a number: argparse
    takes a separate "-1e-6" for an option name, since only plain decimals
    count as negative numbers."""
    out: list = []
    for token in argv:
        if out and out[-1] == "--threshold" and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_threshold(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "tangle":
            return _cmd_tangle(args)
        if args.command == "table1":
            return _cmd_table1(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
