"""Command-line interface.

Subcommands: moments, bvn, simulate, verify-one-sided, verify-two-sided,
special-cases, rate-fit.  Every run logs its fully resolved configuration
(including defaulted fields and the seed) to stderr on a ``config:`` line,
so any output file can be reproduced from that line alone; simulate and
verify runs add the estimator's ``estimate:`` line (workers, block size,
tabled n, lattice).  Exit status is nonzero exactly when a declared-tolerance
check fails.

Worker count comes from the BELIEFCLT_WORKERS environment variable and
defaults to the number of logical cores.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import re
import sys
from pathlib import Path

from . import __version__
from .errors import BeliefCltError
from .gauss import bvn_cdf
from .harness import (
    MIN_FIT_POINTS,
    RATE_SLOPE_WINDOW,
    ExperimentRow,
    VerificationReport,
    fit_rate,
    one_sided_report,
    special_cases_report,
    two_sided_report,
)
from .modelio import (
    REPORT_SCHEMA,
    SIM_SCHEMA,
    csv_text,
    emit_csv,
    load_model,
    load_plan,
    report_rows,
    sim_rows,
)
from .moments import moments_by_enumeration, moments_by_integration
from .montecarlo import estimate_events

log = logging.getLogger("beliefclt")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefclt",
        description="Central limit theorem experiments for belief measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups, each given only to the subcommands whose handler reads it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "text"), default="csv",
                     help="csv, or text: the CSV on stdout with tabs for commas")
    out = argparse.ArgumentParser(add_help=False, parents=[fmt])
    out.add_argument("--out-dir", default=".",
                     help="directory for CSV files (default: .); "
                          "--format text prints to stdout instead")
    overrides = argparse.ArgumentParser(add_help=False, parents=[out])
    overrides.add_argument("--seed", type=int, help="override the plan seed")
    overrides.add_argument("--reps", type=int, help="override the plan replication count")

    p = sub.add_parser("moments", parents=[fmt],
                       help="Choquet moments of a model, both routes")
    p.add_argument("model", help="model file")

    p = sub.add_parser("bvn", parents=[fmt],
                       help="standard bivariate normal CDF P(X<=a, Y<=b)")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("rho", type=float)
    # Python 3.11's argparse takes only tokens like -1 and -1.5 for negative
    # numbers, so -1e-3, -1e3 and -inf would read as unknown options.  bvn has
    # no option that starts with -<digit>, -.<digit>, -inf or -nan, so every
    # such token is a positional.  This sets a private attribute: argparse
    # has no public hook for it.
    p._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    p = sub.add_parser("simulate", parents=[overrides],
                       help="run a simulation plan, write frequencies")
    p.add_argument("plan", help="plan file")

    for name in ("verify-one-sided", "verify-two-sided"):
        p = sub.add_parser(name, parents=[overrides],
                           help=f"{name.replace('-', ' ')} limit check")
        p.add_argument("plan", help="plan file")

    sub.add_parser("special-cases", parents=[out],
                   help="closed-form checks: Bernoulli, additive, bound invariance")

    p = sub.add_parser("rate-fit", help="fit the convergence rate of a report CSV")
    p.add_argument("report", help="report CSV produced by a verify subcommand")
    return parser


def _log_config(args: argparse.Namespace, **resolved) -> None:
    """Log the subcommand's arguments, then the values resolved from them."""
    fields = {**vars(args), **resolved}
    log.info("config: %s", " ".join(f"{k}={v}" for k, v in fields.items()))


def _simulate(args: argparse.Namespace):
    """(plan, moments, simulation) of the plan file with --seed and --reps
    applied; logs the resolved plan, and the estimate logs its own values."""
    plan = load_plan(args.plan)
    overrides = {k: v for k, v in (("seed", args.seed), ("reps", args.reps)) if v is not None}
    if overrides:  # a replaced plan is checked again
        plan = dataclasses.replace(plan, **overrides)
    _log_config(args, n_values=list(plan.n_values), reps=plan.reps, seed=plan.seed,
                alpha_one_sided=plan.alpha_one_sided,
                alpha_two_sided_pairs=len(plan.alpha_two_sided), slack=plan.slack,
                run_id=plan.digest())
    moments = moments_by_enumeration(plan.model)
    return plan, moments, estimate_events(plan, moments)


def _write_or_print(args: argparse.Namespace, rows, schema, filename: str | None = None) -> None:
    """The one table printer: CSV to ``--out-dir/filename``, or to stdout
    without a file name; ``--format text`` prints it with tabs for commas."""
    text = args.format == "text"
    if text or filename is None:
        table = csv_text(rows, schema)
        sys.stdout.write(table.replace(",", "\t") if text else table)
        return
    path = Path(args.out_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(rows, schema, path)
    print(f"wrote {path}")


def _report_summary(report: VerificationReport) -> str:
    lines = []
    worst = max(report.rows, key=lambda r: r.deviation - r.tolerance, default=None)
    n_pass = sum(r.passed for r in report.rows)
    lines.append(f"{report.name}: {n_pass}/{len(report.rows)} rows within tolerance")
    if worst is not None:
        lines.append(
            f"  worst row: {worst.experiment} n={worst.n} "
            f"alpha=({worst.alpha1:g}, {worst.alpha2:g}) "
            f"deviation={worst.deviation:.3e} tolerance={worst.tolerance:.3e}"
        )
    if report.rate is not None:
        r = report.rate
        if r.insufficient_signal:
            lines.append("  rate fit: insufficient signal "
                         f"({len(r.used_n)} points above the noise floor)")
        else:
            lines.append(
                f"  rate fit: slope={r.slope:.4f} K_hat={r.k_hat:.4f} "
                f"points={list(r.used_n)} "
                f"{'within' if r.slope_in_window else 'OUTSIDE'} {list(RATE_SLOPE_WINDOW)}"
            )
    lines.append(f"  overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _write_report(args: argparse.Namespace, report: VerificationReport, filename: str) -> int:
    """Write the report table, print its summary; 1 when a check fails."""
    _write_or_print(args, report_rows(report), REPORT_SCHEMA, filename)
    print(_report_summary(report))
    return 0 if report.passed else 1


def _cmd_moments(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    _log_config(args, focal=len(model.focal), bound=model.bound)
    de = dataclasses.asdict(moments_by_enumeration(model, allow_degenerate=True))
    di = dataclasses.asdict(moments_by_integration(model, allow_degenerate=True))
    rows = [(f, a, b, 0.0 if math.isnan(a) and math.isnan(b) else abs(a - b))
            for (f, a), b in zip(de.items(), di.values())]
    _write_or_print(args, rows, ("field", "enumeration", "integration", "abs_delta"))
    print(f"max route delta: {max(row[3] for row in rows):.3e}", file=sys.stderr)
    return 0


def _cmd_bvn(args: argparse.Namespace) -> int:
    _log_config(args)
    value = bvn_cdf(args.a, args.b, args.rho)
    _write_or_print(args, [(args.a, args.b, args.rho, value)], ("a", "b", "rho", "value"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, _, sim = _simulate(args)
    _write_or_print(args, sim_rows(sim), SIM_SCHEMA, f"simulate_{sim.run_id}.csv")
    return 0


def _cmd_verify(args: argparse.Namespace, two_sided: bool) -> int:
    plan, moments, sim = _simulate(args)
    report = two_sided_report(sim, moments, plan) if two_sided else one_sided_report(sim, plan)
    return _write_report(args, report, f"report_{report.name}_{sim.run_id}.csv")


def _cmd_special_cases(args: argparse.Namespace) -> int:
    _log_config(args)
    return _write_report(args, special_cases_report(), "report_special_cases.csv")


def _cmd_rate_fit(args: argparse.Namespace) -> int:
    _log_config(args)
    rows = []
    with open(args.report, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = ("experiment", "n", "alpha1", "alpha2", "theory", "empirical", "se")
        missing = [c for c in needed if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.report} is not a report CSV: "
                             f"it lacks the columns {', '.join(missing)}")
        for rec in reader:
            rows.append(ExperimentRow(
                rec["experiment"], int(rec["n"]), float(rec["alpha1"]),
                float(rec["alpha2"]), float(rec["theory"]),
                float(rec["empirical"]), float(rec["se"]), math.inf,
            ))
    report = VerificationReport("rate_fit_input", tuple(rows))
    fit = fit_rate(report)
    for n, dev in fit.max_deviation:
        print(f"n={n:>7}  max deviation = {dev:.6e}")
    if fit.insufficient_signal:
        print(f"insufficient signal: {len(fit.used_n)} points above the "
              f"noise floor, need {MIN_FIT_POINTS}")
        return 0
    print(f"slope = {fit.slope:.6f}  intercept = {fit.intercept:.6f}  "
          f"K_hat = {fit.k_hat:.6f}  points = {list(fit.used_n)}")
    print(f"slope within {list(RATE_SLOPE_WINDOW)}: {fit.slope_in_window}")
    return 0 if fit.slope_in_window else 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    args = build_parser().parse_args(argv)
    handlers = {
        "moments": _cmd_moments,
        "bvn": _cmd_bvn,
        "simulate": _cmd_simulate,
        "verify-one-sided": lambda a: _cmd_verify(a, two_sided=False),
        "verify-two-sided": lambda a: _cmd_verify(a, two_sided=True),
        "special-cases": _cmd_special_cases,
        "rate-fit": _cmd_rate_fit,
    }
    try:
        return handlers[args.command](args)
    except (BeliefCltError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
