"""Command line interface.

Subcommands: ``estimate`` (day-by-day estimates from a line list),
``fit-survival`` (delay model fits), ``simulate`` (replicate study of a
synthetic scenario), ``coverage`` (interval coverage of the same).

Exit codes: 0 success, 2 usage error, 3 unreadable input, 4 malformed
input, 5 estimation failure, 1 unexpected error. Outputs are written
atomically (temporary file + rename) with a one-line ``#`` metadata header
recording the subcommand and flags, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
import warnings
from dataclasses import astuple, fields
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .errors import AssumptionWarning, CfrError, EstimationError, ParseError
from .estimators import DelaySchedule, EstimateSeries, estimate_series
from .linelist import MAX_DAY, EpidemicTable, _case_days, _file_records, _fold
from .simulation import (
    ESTIMATORS,
    Scenario,
    StepRates,
    StudyResult,
    _first_eval_day,
    load_example_arm,
    read_arm_csv,
    read_rates_csv,
    run_study,
)
from .survival import (
    DelaySample,
    NegBinomial,
    SurvivalModel,
    Zinb,
    fit_empirical,
    fit_nb_mle,
    fit_zinb_mle,
    nb_loglik,
    point_mass,
    zinb_loglik,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_MALFORMED = 4
EXIT_ESTIMATION = 5


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _meta_line(args: argparse.Namespace) -> str:
    skip = {"func", "command"}
    parts = [
        f"{key.replace('_', '-')}={value}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    ]
    return f"# cfrkit {__version__} | {args.command} | " + " ".join(parts)


def _write_csv(
    path: str, meta: str, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write atomically: a temp file in the target directory, then rename."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(meta + "\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_table(path: str, meta: str, columns: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write ordered (name, column) pairs: integer columns print as
    integers, the rest with ``_fmt``."""
    cells = [
        [str(v) if col.dtype.kind in "iu" else _fmt(v) for v in col.tolist()]
        for _, col in columns
    ]
    _write_csv(path, meta, [name for name, _ in columns], zip(*cells))


def _checked(convert, accept, expected: str):
    """An argparse ``type`` that converts a flag's value and rejects values
    ``accept`` refuses, so argparse exits 2 naming the flag."""

    def parse(value: str):
        try:
            converted = convert(value)
            if accept(converted):
                return converted
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


_OPEN_UNIT = _checked(float, lambda a: 0.0 < a < 1.0, "a number in (0, 1)")
# At alpha <= 2**-53, 1 - alpha/2 rounds to 1 and has no normal quantile.
_ALPHA = _checked(float, lambda a: 2.0**-53 < a < 1.0, "a number in (2**-53, 1)")
_AT_LEAST_ONE = _checked(int, lambda n: n >= 1, "an integer >= 1")
_AT_LEAST_ZERO = _checked(int, lambda n: n >= 0, "an integer >= 0")
_DAY = _checked(int, lambda n: 0 <= n <= MAX_DAY, f"a day in 0..{MAX_DAY}")
_ISO_DATE = _checked(date.fromisoformat, lambda d: True, "an ISO date such as 2020-03-03")


def _parse_delay_spec(spec: str) -> SurvivalModel:
    """Parse nb:MU,R | zinb:PI,MU,R | point:K into a delay model."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "nb":
            mu, r = (float(x) for x in rest.split(","))
            return NegBinomial(mu, r)
        if kind == "zinb":
            pi, mu, r = (float(x) for x in rest.split(","))
            return Zinb(pi, mu, r)
        if kind == "point":
            if (lag := int(rest)) > MAX_DAY:
                raise ValueError(f"lag {lag} is past the last day {MAX_DAY}")
            return point_mass(lag)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"--delay: bad delay spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"--delay: unknown delay family {kind!r} (expected nb, zinb, or point)"
    )


def _read_params_csv(path: str) -> SurvivalModel:
    """Load a parametric delay model from a fit-survival parameter file.

    Rows without distribution parameters (the empirical entry) are skipped;
    among the rest the highest log-likelihood wins. A row whose log-likelihood
    is blank or NaN ranks below every row with one; the first such row wins
    among them. Records are read one at a time; one the reader rejects is
    named before a bad row above it.
    """
    best: tuple[tuple[bool, float], SurvivalModel] | None = None
    bad: tuple[int, ValueError] | None = None  # line and error of the first bad row
    with open(path, "rb") as handle:
        records = _file_records(handle, path)
        header = [cell.strip() for cell in next(records, (0, []))[1]]
        for line_no, cells in records:
            row = {name: cell.strip() for name, cell in zip(header, cells)}
            mu_raw, r_raw = row.get("mu"), row.get("r")
            if bad or not mu_raw or not r_raw:
                continue
            try:
                mu, r, pi = float(mu_raw), float(r_raw), float(row.get("pi") or 0.0)
                if row.get("model") == "zinb" or pi > 0:
                    model: SurvivalModel = Zinb(pi, mu, r)
                else:
                    model = NegBinomial(mu, r)
                loglik = float(row.get("loglik") or "nan")
            except ValueError as exc:
                bad = line_no, exc
                continue
            rank = (loglik == loglik, loglik)  # NaN != NaN: ranks below every number
            if best is None or rank > best[0]:
                best = (rank, model)
    if bad:
        line_no, exc = bad
        raise ParseError(f"{path}: bad delay model parameters at line {line_no} ({exc})") from exc
    if best is None:
        raise ParseError(f"{path}: no parametric delay model rows found")
    return best[1]


# ---------------------------------------------------------------------------
# Subcommands


def _series_columns(series: EstimateSeries) -> list[tuple[str, np.ndarray]]:
    """Every EstimateSeries column that was computed, in field order."""
    columns = [(f.name, getattr(series, f.name)) for f in fields(series)]
    return [(name, col) for name, col in columns if col is not None]


def _read_linelist(args: argparse.Namespace) -> tuple[EpidemicTable, np.ndarray]:
    """The table and the lags, in row order, of the input line list, folded
    from its day pieces as they stream from the file: no column of every
    row is held."""
    path = args.input_flag or args.input
    if not path:
        raise argparse.ArgumentTypeError("an input line-list CSV is required")
    # The bytes are read as parse_csv reads them, in blocks; a line ends at
    # "\n" alone, so a bare "\r" is a parse error rather than a line break.
    with open(path, "rb") as handle:
        table, lags = _fold(_case_days(handle, args.epoch))
    if table.n_days == 0:
        raise EstimationError(f"{path}: the line list has no case rows")
    return table, lags


def _day_range(args: argparse.Namespace, cases: np.ndarray, known: bool) -> range:
    """Evaluation days of daily ``cases``: from ``--from``, else the default
    first day, to ``--to`` clipped to the last day, every ``--every`` days
    where the command has that flag. An empty request is an EstimationError."""
    last_day = cases.size - 1
    start = _first_eval_day(cases, known, args.lookback) if args.from_day is None else args.from_day
    stop = last_day if args.to_day is None else min(args.to_day, last_day)
    if start > stop:
        raise EstimationError(
            f"no evaluation days: requested {start}..{stop} with data ending at {last_day}"
        )
    return range(start, stop + 1, getattr(args, "every", 1))


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.survival == "file" and not args.survival_file:
        raise argparse.ArgumentTypeError("--survival file needs --survival-file")
    if args.survival_file is not None and args.survival != "file":
        raise argparse.ArgumentTypeError("--survival-file needs --survival file")
    table, lags = _read_linelist(args)

    schedule = None
    if args.survival in ("nb", "zinb"):
        fit = fit_nb_mle if args.survival == "nb" else fit_zinb_mle
        schedule = DelaySchedule(fit(DelaySample(lags)))
    elif args.survival == "file":
        schedule = DelaySchedule(_read_params_csv(args.survival_file))
    # args.survival == "empirical": leave None, estimate_series refits per day.

    series = estimate_series(
        table,
        _day_range(args, table.cases, known=False),
        alpha=args.alpha,
        schedule=schedule,
        lookback=args.lookback,
        include_final=args.with_final,
    )
    _write_table(args.output, _meta_line(args), _series_columns(series))
    return EXIT_OK


def _cmd_fit_survival(args: argparse.Namespace) -> int:
    table, lags = _read_linelist(args)
    sample = DelaySample(lags)

    empirical = fit_empirical(table, table.n_days - 1, lookback=args.lookback)

    # Empirical log-likelihood over its own eligible support.
    emp_pmf = np.diff(np.concatenate([[0.0], empirical.cdf_table]))
    emp_ll = 0.0
    eligible = lags[lags <= empirical.cdf_table.size - 1]
    for k, count in zip(*np.unique(eligible, return_counts=True)):
        mass = emp_pmf[int(k)]
        if mass > 0:
            emp_ll += float(count) * float(np.log(mass))

    param_rows = [["empirical", "", "", "", _fmt(emp_ll), str(empirical.n_obs)]]
    for name, fit, loglik in (("nb", fit_nb_mle, nb_loglik), ("zinb", fit_zinb_mle, zinb_loglik)):
        params = astuple(fit(sample))  # (mu, r) or (pi, mu, r)
        cells = [""] * (3 - len(params)) + [_fmt(v) for v in params]
        param_rows.append([name, *cells, _fmt(loglik(sample, *params)), str(len(sample))])
    _write_csv(
        args.output,
        _meta_line(args),
        ["model", "pi", "mu", "r", "loglik", "n"],
        param_rows,
    )

    cdf_path = args.cdf_output
    if cdf_path is None:
        out = Path(args.output)
        cdf_path = str(out.with_name(out.stem + "_cdf" + out.suffix))
    cdf = empirical.cdf_table
    _write_table(cdf_path, _meta_line(args), [("k", np.arange(cdf.size)), ("cdf", cdf)])
    return EXIT_OK


_STEP = {"c1": 0.1, "c2": 0.05, "dstar": 120}  # the step's flags, which --rates-file replaces


def _run_study(args: argparse.Namespace, keep_series: bool = False) -> StudyResult:
    """Run the replicate study of the scenario the flags describe."""
    given = [f"--{name}" for name in _STEP if getattr(args, name) is not None]
    if args.rates_file and given:
        raise argparse.ArgumentTypeError(f"--rates-file conflicts with {', '.join(given)}")
    arm = read_arm_csv(Path(args.arm_file)) if args.arm_file else load_example_arm()
    if (args.arm_days or 0) > arm.size:  # argparse checked it is at least 1
        raise argparse.ArgumentTypeError(f"--arm-days must lie in 1..{arm.size}")
    arm = arm[: args.arm_days]
    span = arm.size * (2 if args.symmetric else 1)
    horizon = args.horizon if args.horizon is not None else span - 1 + args.tail_days
    if horizon > MAX_DAY:
        raise argparse.ArgumentTypeError(f"--tail-days: horizon {horizon} is past day {MAX_DAY}")
    if args.rates_file:
        p_spec = read_rates_csv(Path(args.rates_file))
        if len(p_spec) <= horizon:
            raise ParseError(f"{args.rates_file}: no rate for day {horizon}, the horizon")
    else:  # the defaults are set here, so that the meta line records them
        vars(args).update({k: v for k, v in _STEP.items() if getattr(args, k) is None})
        p_spec = StepRates(args.c1, args.c2, args.dstar)
    scenario = Scenario(
        rising_arm=arm,
        symmetric=args.symmetric,
        p_spec=p_spec,
        delay=_parse_delay_spec(args.delay),
        horizon=horizon,
        seed=args.seed,
        replicates=args.replicates,
    )
    return run_study(
        scenario,
        args.mode,
        eval_days=_day_range(args, scenario.curve, args.mode == "known"),
        alpha=args.alpha,
        lookback=args.lookback,
        keep_series=keep_series,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _run_study(args, keep_series=args.per_replicate_dir is not None)
    columns = [("t", result.days), ("r_t", result.r_t), ("cfr_true", result.cfr_true)]
    for name in ESTIMATORS:
        columns += [(f"{stat}_{name}", getattr(result, f"{stat}_{name}")) for stat in ("mean", "se")]
    summary = result.coverage
    columns += [
        ("coverage", summary.coverage),
        ("coverage_se", summary.coverage_se),
        ("mean_ci_length", summary.mean_ci_length),
    ]
    _write_table(args.output, _meta_line(args), columns)

    if args.per_replicate_dir is not None:
        directory = Path(args.per_replicate_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for index, rep in enumerate(result.replicates):
            _write_table(
                str(directory / f"replicate_{index:04d}.csv"),
                _meta_line(args) + f" replicate={index}",
                _series_columns(rep.series),
            )
    return EXIT_OK


def _cmd_coverage(args: argparse.Namespace) -> int:
    summary = _run_study(args).coverage
    _write_table(
        args.output,
        _meta_line(args),
        [
            ("t", summary.days),
            ("r_t", summary.r_t),
            ("mean_coverage", summary.coverage),
            ("coverage_se", summary.coverage_se),
            ("mean_ci_length", summary.mean_ci_length),
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    """Flags every subcommand takes."""
    sub.add_argument("-o", "--output", required=True, help="output CSV path")
    sub.add_argument(
        "--lookback",
        type=_AT_LEAST_ZERO,
        default=45,
        help="days a cohort must age before entering the empirical delay fit (default 45)",
    )


def _add_day_options(sub: argparse.ArgumentParser) -> None:
    """Interval level and evaluation days, for the subcommands that estimate."""
    sub.add_argument("--alpha", type=_ALPHA, default=0.05, help="interval level (default 0.05)")
    sub.add_argument(
        "--from",
        dest="from_day",
        type=_AT_LEAST_ZERO,
        default=None,
        help="first evaluation day (default 2 * lookback, or the first day with cases "
        "in a known-mode study)",
    )
    sub.add_argument(
        "--to",
        dest="to_day",
        type=_AT_LEAST_ZERO,
        default=None,
        help="last evaluation day (default: the last day of the data or of the scenario)",
    )


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "input",
        nargs="?",
        default=None,
        help="line-list CSV (confirm_date,death_date)",
    )
    sub.add_argument(
        "--input",
        dest="input_flag",
        default=None,
        help="line-list CSV; alternative to the positional argument",
    )
    _add_common_options(sub)
    sub.add_argument(
        "--epoch",
        type=_ISO_DATE,
        default=None,
        help="calendar date of day 0, e.g. 2020-03-03; required for date-valued inputs",
    )


def _add_scenario_options(sub: argparse.ArgumentParser, default_mode: str) -> None:
    _add_common_options(sub)
    sub.add_argument(
        "--arm-file",
        default=None,
        help="CSV with a 'cases' column giving the rising arm (default: bundled curve)",
    )
    sub.add_argument(
        "--arm-days", type=_AT_LEAST_ONE, default=None, help="truncate the arm to its first N days"
    )
    sub.add_argument(
        "--symmetric",
        action="store_true",
        help="mirror the arm around its peak",
    )
    sub.add_argument("--c1", type=_OPEN_UNIT, help="daily rate before the step (default 0.1)")
    sub.add_argument("--c2", type=_OPEN_UNIT, help="daily rate from the step on (default 0.05)")
    sub.add_argument("--dstar", type=_AT_LEAST_ZERO, help="step day (default 120)")
    sub.add_argument(
        "--rates-file",
        help="CSV whose 'p' column gives the daily rates of days 0..horizon, in place of the step",
    )
    sub.add_argument(
        "--delay",
        default="nb:10.79,0.88",
        help="delay model: nb:MU,R | zinb:PI,MU,R | point:K (default nb:10.79,0.88)",
    )
    sub.add_argument("--seed", type=_AT_LEAST_ZERO, default=0, help="study seed (default 0)")
    sub.add_argument(
        "--replicates", type=_AT_LEAST_ONE, default=200, help="number of replicates (default 200)"
    )
    sub.add_argument(
        "--horizon",
        type=_DAY,
        default=None,
        help="last simulated day (default: curve end + tail days)",
    )
    sub.add_argument(
        "--tail-days",
        type=_DAY,
        default=150,
        help="zero-case days appended after the curve when --horizon is absent (default 150)",
    )
    sub.add_argument(
        "--mode",
        choices=["known", "estimated"],
        default=default_mode,
        help=f"evaluation mode (default {default_mode})",
    )
    _add_day_options(sub)
    sub.add_argument("--every", type=_AT_LEAST_ONE, default=1, help="evaluation-day stride (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrkit",
        description="Delay-adjusted case fatality rate estimation.",
        epilog=(
            "exit codes: 0 ok, 2 usage, 3 unreadable input, 4 malformed input, "
            "5 estimation failure, 1 unexpected"
        ),
    )
    parser.add_argument("--version", action="version", version=f"cfrkit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser(
        "estimate", help="day-by-day estimates and intervals from a line list"
    )
    _add_io_options(est)
    est.add_argument(
        "--survival",
        choices=["empirical", "nb", "zinb", "file"],
        default="empirical",
        help="delay CDF source (default: per-day empirical refit)",
    )
    est.add_argument(
        "--survival-file",
        default=None,
        help="parameter CSV from fit-survival, used with --survival file",
    )
    _add_day_options(est)
    est.add_argument(
        "--with-final",
        action="store_true",
        help="append the hindsight cfr_final column (uses recorded outcomes)",
    )
    est.set_defaults(func=_cmd_estimate)

    fit = commands.add_parser("fit-survival", help="fit delay models to a line list")
    _add_io_options(fit)
    fit.add_argument(
        "--cdf-output",
        default=None,
        help="empirical CDF table path (default: output stem + _cdf.csv)",
    )
    fit.set_defaults(func=_cmd_fit_survival)

    sim = commands.add_parser(
        "simulate", help="replicate study of a synthetic scenario"
    )
    _add_scenario_options(sim, default_mode="known")
    sim.add_argument(
        "--per-replicate-dir",
        default=None,
        help="also write one estimate CSV per replicate into this directory",
    )
    sim.set_defaults(func=_cmd_simulate)

    cov = commands.add_parser(
        "coverage", help="interval coverage study of a synthetic scenario"
    )
    _add_scenario_options(cov, default_mode="estimated")
    cov.set_defaults(func=_cmd_coverage)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Run the subcommand, printing each distinct AssumptionWarning once as a
    ``cfrkit: warning:`` line; any other warning shows as Python shows it.
    They are shown after recording stops: shown while recording, a warning
    would be recorded again, and the loop would never end."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AssumptionWarning)
            return args.func(args)
    finally:
        shown = set()
        for w in caught:
            if not issubclass(w.category, AssumptionWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            elif str(w.message) not in shown:
                shown.add(str(w.message))
                print(f"cfrkit: warning: {w.message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return _run(args)
    except argparse.ArgumentTypeError as exc:
        print(f"cfrkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cfrkit: cannot read or write file: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except ParseError as exc:
        print(f"cfrkit: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (CfrError, ValueError) as exc:
        print(f"cfrkit: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except Exception as exc:  # pragma: no cover - safety net
        print(f"cfrkit: unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
