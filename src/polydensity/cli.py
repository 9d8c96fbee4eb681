"""Command-line entry point.

Subcommands:
  check      run the hypothesis checks for a config and report pass/fail
  densities  predicted densities only (singular series x archimedean factor)
  expsum     complete exponential sum table S_{a,q} for a modulus
  count      exhaustive lattice counts only
  verify     full experiment: counts vs predictions, emitted as a report
  report     re-emit a saved JSON report as csv or plot-data

Exit codes: 0 success, 2 hypothesis gate failed, 3 partial results (budget
abort, undecided values, or an unconverged or uncertified integral), 4
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .counting import BudgetExceededError
from .expsums import ExpSumTable, big_g, t_f
from .poly import PolynomialError
from .reports import csv_text, report_from_dict, to_csv, to_json, to_plot_data
from .verify import (
    ConfigError,
    check_hypotheses,
    count_for,
    euler_for,
    li_for,
    parse_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_GATE = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4

FORMATS = ("json", "csv", "plot-data")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polydensity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        return p

    with_config("check", "run hypothesis checks")

    p = with_config("densities", "predicted densities for each P")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = with_config("expsum", "exponential sum table for one modulus")
    p.add_argument("--q", type=int, required=True, help="modulus q >= 1")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = with_config("count", "exhaustive lattice counts for each P")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = with_config("verify", "full experiment (counts vs predictions)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--format", choices=FORMATS, default="json", help="output format (default json)"
    )

    p = sub.add_parser("report", help="re-emit a saved JSON report")
    p.add_argument("report", help="path to a JSON report from `verify`")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("--out", help="write here instead of stdout")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _render(report, fmt: str) -> str:
    """The report as text in one of ``FORMATS``.  ``to_json`` is looked up
    in this module at call time, so a wrapper installed here takes effect."""
    return {"json": to_json, "csv": to_csv, "plot-data": to_plot_data}[fmt](report)


def _cmd_check(args) -> int:
    cfg = parse_config(_load_config(args.config))
    report = check_hypotheses(
        cfg["polys"], cfg["box"], cfg["mode"], cfg["sigma_override"]
    )
    print(f"mode: {report.mode}")
    if report.sigma_used is not None:
        s = report.sigma_used
        print(f"sigma: {s.value} ({s.method})")
    for check in report.checks:
        line = f"[{check.status:^7}] {check.name}"
        if check.detail:
            line += f": {check.detail}"
        print(line)
    return EXIT_OK if report.all_passed else EXIT_GATE


def _cmd_densities(args) -> int:
    cfg = parse_config(_load_config(args.config))
    report = check_hypotheses(
        cfg["polys"], cfg["box"], cfg["mode"], cfg["sigma_override"]
    )
    if not report.all_passed and not cfg["force"]:
        print("hypothesis checks failed; rerun with force to override", file=sys.stderr)
        return EXIT_GATE
    try:
        euler = euler_for(cfg, report.sigma_used)
    except BudgetExceededError as exc:
        print(f"euler product: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    rows = []
    code = EXIT_OK
    for P in cfg["P_grid"]:
        li_value, _, li_problem = li_for(cfg, P)
        if li_problem:
            print(li_problem, file=sys.stderr)
            code = EXIT_BUDGET
        if li_value is None:
            continue
        rows.append(
            [P, repr(euler.value), repr(euler.tail_bound), repr(li_value),
             repr(euler.value * li_value)]
        )
    _write(
        csv_text(["P", "euler_value", "euler_tail", "li_value", "predicted"], rows),
        args.out,
    )
    return code


def _cmd_expsum(args) -> int:
    cfg = parse_config(_load_config(args.config))
    if args.q < 1:
        raise ConfigError("q must be a positive integer")
    f = cfg["polys"][0]
    try:
        table = ExpSumTable.build(f, args.q, budget=cfg["budget"])
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    header, *rows = table.csv_rows()
    rows.append([str(args.q), "T_f", repr(t_f(f, args.q, budget=cfg["budget"])), ""])
    rows.append([str(args.q), "G", str(big_g(args.q)), ""])
    _write(csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_count(args) -> int:
    cfg = parse_config(_load_config(args.config))
    rows = []
    code = EXIT_OK
    for P in cfg["P_grid"]:
        try:
            counted, undecided = count_for(cfg, P)
        except BudgetExceededError as exc:
            print(f"P={P}: budget exceeded: {exc}", file=sys.stderr)
            code = EXIT_BUDGET
            continue
        rows.append([P, counted.lattice_points, counted.count])
        if undecided:
            print(undecided, file=sys.stderr)
            code = EXIT_BUDGET
    _write(csv_text(["P", "lattice_points", "count"], rows), args.out)
    return code


def _cmd_verify(args) -> int:
    report = run_experiment(_load_config(args.config))
    _write(_render(report, args.format), args.out)
    if report.metadata.get("gated"):
        print("hypothesis checks failed; no rows computed", file=sys.stderr)
        return EXIT_GATE
    if report.partial:
        for err in report.row_errors:
            print(err, file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        report = report_from_dict(doc)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load report {args.report!r}: {exc}") from exc
    _write(_render(report, args.format), args.out)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "densities": _cmd_densities,
    "expsum": _cmd_expsum,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PolynomialError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
