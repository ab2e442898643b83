"""Command line behaviour: schemas, exit codes, determinism, atomicity."""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
from datetime import date, timedelta
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrkit import (
    MAX_CASES,
    DelaySchedule,
    NegBinomial,
    ParseError,
    Scenario,
    StepRates,
    Zinb,
    aggregate,
    estimate_series,
    fit_nb_mle,
    illustrative_daily_rates,
    parse_csv,
    run_study,
)
import cfrkit.cli as cli
import cfrkit.estimators as estimators
import cfrkit.linelist as linelist_module
from cfrkit import load_example_arm, read_arm_csv
from cfrkit.cli import main
from cfrkit.survival import DelaySample

# The bundled 1000-row example is deliberately sparse, so the window rates
# legitimately fail A2 on some days; the warning is part of the contract.
pytestmark = pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")


@pytest.fixture
def linelist_file(tmp_path):
    text = resources.files("cfrkit.data").joinpath("example_linelist.csv").read_text()
    path = tmp_path / "linelist.csv"
    path.write_text(text)
    return path


def read_output(path):
    """Split an output CSV into its metadata line and parsed rows."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# cfrkit")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows


# ---------------------------------------------------------------------------
# estimate


def test_estimate_schema_and_values(tmp_path, linelist_file):
    out = tmp_path / "est.csv"
    code = main(
        [
            "estimate",
            str(linelist_file),
            "-o",
            str(out),
            "--epoch",
            "2020-03-03",
            "--from",
            "100",
            "--to",
            "105",
        ]
    )
    assert code == 0
    meta, rows = read_output(out)
    assert "estimate" in meta
    assert list(rows[0].keys()) == [
        "t",
        "r_t",
        "cfr_naive",
        "cfr",
        "ci_low",
        "ci_high",
        "cfr_garske",
        "cfr_garske_mod",
    ]
    assert [r["t"] for r in rows] == [str(t) for t in range(100, 106)]

    # Values match the library path exactly.
    linelist = parse_csv(linelist_file.read_text(), epoch=date(2020, 3, 3))
    table = aggregate(linelist)
    series = estimate_series(table, range(100, 106), lookback=45)
    for row, i in zip(rows, range(len(series))):
        assert float(row["cfr"]) == series.cfr[i]
        assert float(row["ci_low"]) == series.ci_low[i]
        assert int(row["r_t"]) == series.r_t[i]


def test_estimate_with_final_column(tmp_path, linelist_file):
    out = tmp_path / "est.csv"
    code = main(
        [
            "estimate",
            "--input",
            str(linelist_file),
            "-o",
            str(out),
            "--epoch",
            "2020-03-03",
            "--from",
            "95",
            "--to",
            "96",
            "--with-final",
        ]
    )
    assert code == 0
    _, rows = read_output(out)
    assert "cfr_final" in rows[0]


def test_estimate_nb_survival(tmp_path, linelist_file):
    out = tmp_path / "est.csv"
    code = main(
        [
            "estimate",
            str(linelist_file),
            "-o",
            str(out),
            "--epoch",
            "2020-03-03",
            "--survival",
            "nb",
            "--from",
            "100",
            "--to",
            "101",
        ]
    )
    assert code == 0
    _, rows = read_output(out)
    linelist = parse_csv(linelist_file.read_text(), epoch=date(2020, 3, 3))
    table = aggregate(linelist)
    nb = fit_nb_mle(DelaySample.from_linelist(linelist))
    series = estimate_series(table, [100, 101], schedule=DelaySchedule(nb))
    assert float(rows[0]["cfr"]) == pytest.approx(series.cfr[0], rel=1e-12)


def test_estimate_deterministic_bytes(tmp_path, linelist_file):
    digests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        args = [
            "estimate",
            str(linelist_file),
            "-o",
            str(out),
            "--epoch",
            "2020-03-03",
            "--from",
            "100",
            "--to",
            "102",
        ]
        assert main(args) == 0
        content = out.read_bytes().replace(name.encode(), b"OUT")
        digests.append(hashlib.sha256(content).hexdigest())
    assert digests[0] == digests[1]


# SHA-256 of `cfrkit estimate` on the bundled line list, recorded before the
# all-days estimator kernel replaced the per-day loop; the kernel must keep
# every output byte.
@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "997369415a73c6b0dc7e09fa8e116cf263cc02105240e34b73622890e5cf774d"),
        (["--with-final"], "67ec2b3a1a4eeb3e3fecba1e40f5732c2f8a93ffddb6dbd4ec0b31321cc874d5"),
    ],
    ids=["default", "with_final"],
)
def test_estimate_golden_digest(tmp_path, linelist_file, monkeypatch, extra, digest):
    monkeypatch.chdir(tmp_path)
    args = ["estimate", linelist_file.name, "--epoch", "2020-03-03", "-o", "out.csv", *extra]
    assert main(args) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest


# A 26-day arm whose cases stop for 10 days.
GAP_ARM = [2, 3, 4, 5, 6, 8, 10, 12] + [0] * 10 + [14, 16, 18, 20, 22, 24, 26, 28]


# SHA-256 of the other subcommands' outputs, recorded before the flags and
# the study runner were shared between subcommands. The point-mass delay
# keeps scipy's CDF out of the simulated outputs, and the empirical CDF table
# uses none, so these bytes do not depend on the scipy version.
@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["simulate", "--delay", "point:0", "--arm-days", "40", "--symmetric", "--dstar",
             "30", "--replicates", "3", "--seed", "11", "--per-replicate-dir", "reps",
             "-o", "simulate.csv"],
            {
                "simulate.csv": "04c1a3ca8f8f4dec57b995c974af4e987f5657626dddf3d9b22d359d8e304636",
                "reps/replicate_0000.csv":
                    "991038833a1c8af48bf6524c900a83b7c30cca512d2300525095258346d32b72",
                "reps/replicate_0001.csv":
                    "12976fd965339db9a40b50fa6f471bfd73dcc7454408124cfea4d6e21f4b5caf",
                "reps/replicate_0002.csv":
                    "42e3bba61413508177e14d7de47ac889835f0425b17aefcfb056528fbe909e53",
            },
        ),
        (
            ["coverage", "--delay", "point:0", "--arm-days", "60", "--symmetric", "--dstar",
             "40", "--replicates", "3", "--seed", "7", "--every", "10", "-o", "coverage.csv"],
            {"coverage.csv": "3d50b97648e9e37c75e201efff1a987670555ce949bfef2c26bfc44bc27182fb"},
        ),
        (
            ["fit-survival", "linelist.csv", "--epoch", "2020-03-03", "-o", "fit.csv"],
            {"fit_cdf.csv": "62ee56bafd2cef65d759e379e66a02d3dfb797ee9a00d481575624723a722bc9"},
        ),
        # Recorded before the estimated-mode kernel was rewritten to make
        # fewer passes. GAP_ARM's 10-day gap gives fallback windows, its few
        # early cases give clamped empirical F on 45 days. The NB delay is
        # only sampled, by numpy; F is refit from the deaths.
        (
            ["simulate", "--mode", "estimated", "--per-replicate-dir", "reps", "--arm-file",
             "arm.csv", "--symmetric", "--dstar", "20", "--delay", "nb:6,1.5", "--lookback",
             "10", "--replicates", "3", "--seed", "5", "-o", "simulate.csv"],
            {
                "simulate.csv": "4e00f42844fdfccc2eca25414d516c365d7ba6d0c6a9d55d55411b287d534f54",
                "reps/replicate_0000.csv":
                    "8c734d258b0b39cad88d1d34bebdb52fa042a53de0660873c8b6fe063a76ad1e",
                "reps/replicate_0001.csv":
                    "865e5e570d852ee54b88dcdabf68def2cd293a2c14501969593acb5d7b7273f8",
                "reps/replicate_0002.csv":
                    "f5e8c3286c5144d77505ccd3e73efd12fcffb7f159e5948cf311529ee6c25404",
            },
        ),
    ],
    ids=["simulate", "coverage", "fit_survival_cdf", "simulate_estimated"],
)
def test_subcommand_golden_digest(tmp_path, linelist_file, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arm.csv").write_text("cases\n" + "\n".join(map(str, GAP_ARM)) + "\n")
    assert main(argv) == 0
    found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert found == digests


def test_estimate_does_not_touch_input(tmp_path, linelist_file):
    before = hashlib.sha256(linelist_file.read_bytes()).hexdigest()
    main(
        [
            "estimate",
            str(linelist_file),
            "-o",
            str(tmp_path / "o.csv"),
            "--epoch",
            "2020-03-03",
            "--from",
            "100",
            "--to",
            "100",
        ]
    )
    assert hashlib.sha256(linelist_file.read_bytes()).hexdigest() == before


def test_estimate_no_stray_temp_files(tmp_path, linelist_file):
    out = tmp_path / "est.csv"
    main(
        [
            "estimate",
            str(linelist_file),
            "-o",
            str(out),
            "--epoch",
            "2020-03-03",
            "--from",
            "100",
            "--to",
            "100",
        ]
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["est.csv", "linelist.csv"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_unreadable_input(tmp_path, capsys):
    code = main(["estimate", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "o.csv")])
    assert code == 3
    assert "cannot read" in capsys.readouterr().err


def test_exit_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("confirm_date,death_date\n5,2\n")
    code = main(["estimate", str(bad), "-o", str(tmp_path / "o.csv")])
    assert code == 4
    assert "death precedes confirmation at line 2" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_exit_day_past_max_day(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linelist_module, "MAX_DAY", 30)
    bad = tmp_path / "typo.csv"
    bad.write_text("confirm_date,death_date\n2020-03-03,\n2020-03-04,2020-04-03\n")
    for command in ("estimate", "fit-survival"):
        out = tmp_path / f"{command}.csv"
        code = main([command, str(bad), "--epoch", "2020-03-03", "-o", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "line 3: death_date '2020-04-03' is day 31, past the last day 30" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "rows, line",
    [
        # Three distinct lines: the record-by-record loop reads them.
        ["1,\n", 3],
        # Twenty repeats and the bad line: a chunk whose distinct lines are
        # parsed once each, on their own.
        ["1,\n" * 20, 22],
    ],
)
def test_exit_oversized_cell_names_line(tmp_path, capsys, rows, line):
    big = tmp_path / "big.csv"
    big.write_text("confirm_date,death_date\n" + rows + "2," + "9" * 140_000 + "\n3,\n")
    code = main(["estimate", str(big), "-o", str(tmp_path / "o.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"cfrkit: line {line}: field larger than field limit" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "rows",
    [
        # A bare carriage return inside an unquoted field.
        "1,\n1,\r2\n",
        # The same on the second line of a quoted record.
        '1,\n"2\n",3\r4\n',
    ],
)
def test_exit_bare_carriage_return_names_line(tmp_path, capsys, rows):
    # A file reads as the same text passed to parse_csv: "\r" ends no line.
    bad = tmp_path / "cr.csv"
    bad.write_bytes(("confirm_date,death_date\n" + rows).encode())
    assert main(["estimate", str(bad), "-o", str(tmp_path / "o.csv")]) == 4
    assert "cfrkit: line 3: new-line character seen" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_exit_latin1_linelist_names_line(tmp_path, capsys):
    """A line list that is not UTF-8 exits 4 and names the line of its
    first bad byte."""
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("region,confirm_date,death_date\nCórdoba,2020-03-05,\n".encode("latin-1"))
    out = tmp_path / "o.csv"
    assert main(["estimate", str(bad), "--epoch", "2020-03-03", "-o", str(out)]) == 4
    assert "cfrkit: line 2: 'utf-8' codec can't decode byte 0xf3" in capsys.readouterr().err
    assert not out.exists()


def test_utf8_region_names_take_the_block_path(tmp_path, linelist_file, monkeypatch):
    """Non-ASCII region names stay on the block path, and the series equals
    that of a copy with ASCII names."""
    blocks = []
    block_days = linelist_module._block_days
    monkeypatch.setattr(
        linelist_module, "_block_days", lambda *args: blocks.append(block_days(*args)) or blocks[-1]
    )
    header, *rows = linelist_file.read_text().splitlines()
    outputs = []
    for name, regions in (("ascii", ["Cordoba", "Neuquen"]), ("utf8", ["Córdoba", "Neuquén"])):
        path = tmp_path / f"{name}.csv"
        lines = [f"region,{header}", *(f"{regions[i % 2]},{row}" for i, row in enumerate(rows))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"{name}_est.csv"
        assert main(["estimate", str(path), "--epoch", "2020-03-03", "-o", str(out)]) == 0
        outputs.append(out.read_bytes().split(b"\n", 1)[1])  # past the meta line
    assert blocks and all(blocks)
    assert outputs[0] == outputs[1]


def test_exit_estimation_failure(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("confirm_date,death_date\n0,1\n2,\n")
    code = main(["estimate", str(short), "-o", str(tmp_path / "o.csv")])
    assert code == 5
    assert "no evaluation days" in capsys.readouterr().err


def test_exit_empty_linelist(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("confirm_date,death_date\n# no cases yet\n\n")
    for command in ("estimate", "fit-survival"):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(empty), "-o", str(out)]) == 5
        assert f"{empty}: the line list has no case rows" in capsys.readouterr().err
        assert not out.exists()


def test_exit_empty_study_grid(tmp_path, capsys):
    for command in ("simulate", "coverage"):
        out = tmp_path / f"{command}.csv"
        args = ["--arm-days", "40", "--symmetric", "--dstar", "30", "--from", "5", "--to", "3"]
        assert main([command, *args, "-o", str(out)]) == 5
        err = capsys.readouterr().err
        assert "no evaluation days: requested 5..3 with data ending at 229" in err
        assert not out.exists()
    # The default estimated-mode grid starts at 2 * lookback = 90, past horizon 14.
    out = tmp_path / "default.csv"
    args = ["coverage", "--arm-days", "10", "--tail-days", "5", "--dstar", "5"]
    assert main([*args, "-o", str(out)]) == 5
    assert "no evaluation days: requested 90..14 with data ending at 14" in capsys.readouterr().err
    assert not out.exists()
    scenario = Scenario(
        rising_arm=load_example_arm()[:10],
        symmetric=False,
        p_spec=StepRates(0.1, 0.05, 5),
        delay=NegBinomial(10.79, 0.88),
        horizon=14,
        seed=0,
        replicates=1,
    )
    with pytest.raises(ValueError, match="default grid starts at day 90, past the horizon 14"):
        run_study(scenario, "estimated")


@pytest.mark.parametrize("lookback, first", [(0, 6), (1, 6), (2, 6), (4, 8)])
def test_estimate_default_grid_starts_at_day_6_or_later(tmp_path, linelist_file, lookback, first):
    """The default first day is max(2 * lookback, 6): the window rate
    estimator needs t >= 6."""
    out = tmp_path / "est.csv"
    argv = ["estimate", str(linelist_file), "--epoch", "2020-03-03", "--lookback", str(lookback)]
    assert main([*argv, "-o", str(out)]) == 0
    assert read_output(out)[1][0]["t"] == str(first)


def test_estimated_coverage_at_a_short_lookback(tmp_path):
    out = tmp_path / "cov.csv"
    args = ["--arm-days", "60", "--symmetric", "--dstar", "40", "--every", "20", "--lookback", "2"]
    assert main(["coverage", *args, "--replicates", "2", "-o", str(out)]) == 0
    assert read_output(out)[1][0]["t"] == "6"


def test_study_to_day_clips_to_horizon(tmp_path):
    args = ["simulate", "--arm-days", "40", "--symmetric", "--dstar", "30", "--replicates", "3"]
    clipped, full = tmp_path / "clipped.csv", tmp_path / "full.csv"
    assert main([*args, "--to", "500", "-o", str(clipped)]) == 0
    assert main([*args, "-o", str(full)]) == 0
    # The metadata line records the differing flags; everything after it matches.
    assert clipped.read_bytes().split(b"\n", 1)[1] == full.read_bytes().split(b"\n", 1)[1]


def test_assumption_warning_is_one_cli_line(tmp_path, linelist_file, capsys):
    out = tmp_path / "est.csv"
    assert main(["estimate", str(linelist_file), "--epoch", "2020-03-03", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    line = "cfrkit: warning: assumptions A1-A3 failed on some evaluated days"
    assert err.count(line) == 1
    assert "cli.py" not in err
    assert "estimate_series(" not in err


def test_exit_usage_errors(tmp_path, capsys):
    assert main(["estimate"]) == 2  # missing --output
    assert main(["no-such-command"]) == 2
    assert main(["estimate", "-o", str(tmp_path / "o.csv")]) == 2  # no input path
    capsys.readouterr()


def test_exit_bad_delay_spec(tmp_path, capsys):
    code = main(
        ["simulate", "-o", str(tmp_path / "o.csv"), "--delay", "weibull:2,3",
         "--arm-days", "10", "--dstar", "5", "--replicates", "1"]
    )
    assert code == 2
    assert "delay" in capsys.readouterr().err


def test_exit_infinite_delay_parameter(tmp_path, capsys):
    code = main(
        ["simulate", "-o", str(tmp_path / "o.csv"), "--delay", "nb:inf,0.9",
         "--arm-days", "10", "--dstar", "5", "--replicates", "1"]
    )
    assert code == 2
    assert "--delay" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--every", "0"),
        ("simulate", "--alpha", "0"),
        ("estimate", "--alpha", "1e-17"),
        ("coverage", "--alpha", repr(2.0**-53)),
        ("simulate", "--replicates", "0"),
        ("estimate", "--lookback", "-1"),
        ("estimate", "--epoch", "2020-13-01"),
        ("estimate", "--from", "-5"),
        ("estimate", "--to", "-1"),
        ("simulate", "--c1", "0"),
        ("simulate", "--c2", "1.5"),
        ("simulate", "--dstar", "-1"),
        ("simulate", "--horizon", "-1"),
        ("simulate", "--tail-days", "-1"),
        ("simulate", "--from", "-5"),
        ("simulate", "--to", "-1"),
        ("simulate", "--arm-days", "0"),
        ("simulate", "--seed", "-1"),
        ("coverage", "--seed", "-1"),
    ],
)
def test_exit_bad_flag_value(tmp_path, linelist_file, capsys, command, flag, value):
    out = tmp_path / "o.csv"
    inputs = [str(linelist_file)] if command == "estimate" else []
    assert main([command, *inputs, "-o", str(out), flag, value]) == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_alpha_flag_refuses_what_the_estimators_refuse():
    """--alpha refuses, as a usage error, each alpha the estimators refuse."""
    for alpha in (2.0**-53, np.nextafter(2.0**-53, 1.0), 1e-17, 0.05, np.nextafter(1.0, 0.0)):
        alpha = float(alpha)
        try:
            estimators._check_alpha(alpha)
        except ValueError:
            with pytest.raises(argparse.ArgumentTypeError):
                cli._ALPHA(repr(alpha))
        else:
            assert cli._ALPHA(repr(alpha)) == alpha


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--horizon", "10"], "cfrkit: --horizon: 10 cuts the 301-day curve short\n"),
        (["--dstar", "1000", "--arm-days", "50"],
         "cfrkit: --dstar: 1000 is past day 49, the curve's last with cases\n"),
        (["--dstar", "100", "--arm-days", "50", "--symmetric"],
         "cfrkit: --dstar: 100 is past day 99, the curve's last with cases\n"),
    ],
    ids=["horizon", "dstar", "dstar-symmetric"],
)
@pytest.mark.parametrize("command", ["simulate", "coverage"])
def test_exit_flag_outside_the_scenario(tmp_path, capsys, command, flags, message):
    """A horizon before the curve's end, or a step day after its last case,
    exits 2 naming the flag, as an out-of-range flag value does."""
    out = tmp_path / "o.csv"
    assert main([command, *flags, "--replicates", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_default_step_day_past_the_curve_exits_5(tmp_path, capsys):
    """Only a --dstar that was given is a usage error: the default step day,
    120, past a 50-day curve is the scenario's own error."""
    out = tmp_path / "o.csv"
    assert main(["simulate", "--arm-days", "50", "--replicates", "1", "-o", str(out)]) == 5
    assert capsys.readouterr().err == "cfrkit: d_star falls outside the case-curve support\n"


@pytest.mark.parametrize("arm_file", [False, True], ids=["example-arm", "arm-file"])
@pytest.mark.parametrize("command", ["simulate", "coverage"])
def test_exit_arm_days_past_the_arm(tmp_path, capsys, command, arm_file):
    """--arm-days past the arm's last day exits 2 naming the arm's length."""
    out = tmp_path / "o.csv"
    argv = [command, "--arm-days", "302", "--replicates", "1", "-o", str(out)]
    days = 301
    if arm_file:
        (tmp_path / "arm.csv").write_text("cases\n5\n10\n20\n")
        argv += ["--arm-file", str(tmp_path / "arm.csv")]
        days = 3
    assert main(argv) == 2
    assert capsys.readouterr().err == f"cfrkit: --arm-days must lie in 1..{days}\n"
    assert not out.exists()


def test_exit_survival_file_without_file_mode(tmp_path, linelist_file, capsys):
    out = tmp_path / "o.csv"
    argv = ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03"]
    no_file = ["--survival-file", str(tmp_path / "nofile.csv")]
    for extra in ([], ["--survival", "nb"]):
        assert main([*argv, *no_file, *extra]) == 2
        assert "cfrkit: --survival-file needs --survival file" in capsys.readouterr().err
    # Both flag checks come before the line list is read.
    argv[1] = str(tmp_path / "missing.csv")
    assert main([*argv, *no_file]) == 2
    assert main([*argv, "--survival", "file"]) == 2
    assert "cfrkit: --survival file needs --survival-file" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit-survival


def test_fit_survival_outputs(tmp_path, linelist_file):
    out = tmp_path / "fit.csv"
    code = main(
        ["fit-survival", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03"]
    )
    assert code == 0
    meta, rows = read_output(out)
    assert [r["model"] for r in rows] == ["empirical", "nb", "zinb"]
    nb_row = rows[1]
    assert nb_row["pi"] == ""
    assert float(nb_row["mu"]) > 0 and float(nb_row["r"]) > 0
    assert float(nb_row["loglik"]) < 0
    assert int(nb_row["n"]) == 25

    _, cdf_rows = read_output(tmp_path / "fit_cdf.csv")
    cdf = [float(r["cdf"]) for r in cdf_rows]
    assert cdf == sorted(cdf)
    assert cdf[-1] == 1.0
    assert [int(r["k"]) for r in cdf_rows] == list(range(len(cdf)))


def test_fit_survival_file_roundtrip(tmp_path, linelist_file):
    fit_out = tmp_path / "fit.csv"
    main(["fit-survival", str(linelist_file), "-o", str(fit_out), "--epoch", "2020-03-03"])
    est_out = tmp_path / "est.csv"
    code = main(
        [
            "estimate",
            str(linelist_file),
            "-o",
            str(est_out),
            "--epoch",
            "2020-03-03",
            "--survival",
            "file",
            "--survival-file",
            str(fit_out),
            "--from",
            "100",
            "--to",
            "100",
        ]
    )
    assert code == 0
    _, rows = read_output(est_out)
    assert float(rows[0]["cfr"]) > 0


@pytest.mark.parametrize("column", ["mu", "r", "pi", "loglik"])
def test_survival_file_non_numeric_parameter(tmp_path, linelist_file, capsys, column):
    values = {"mu": "10.8", "r": "0.9", "pi": "0.1", "loglik": "-80.5"}
    values[column] = "abc"
    params = tmp_path / "fit.csv"
    params.write_text(
        "# cfrkit fit-survival\n"
        "model,mu,r,pi,loglik,n\n"
        "empirical,,,,-75.0,25\n"
        "\n"
        f"zinb,{values['mu']},{values['r']},{values['pi']},{values['loglik']},25\n"
    )
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
         "--survival", "file", "--survival-file", str(params)]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert str(params) in err and "line 5" in err
    assert not out.exists()


def test_survival_file_multiline_record_names_its_first_line(tmp_path, linelist_file, capsys):
    params = tmp_path / "fit.csv"
    params.write_text('model,mu,r,pi,loglik,n\nnb,"10\n8",0.9,0,-80.5,25\n')
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
         "--survival", "file", "--survival-file", str(params)]
    )
    assert code == 4
    assert f"{params}: bad delay model parameters at line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "record,message",
    [
        # The blank and # lines belong to the quoted mu, which is no number.
        ('nb,"10\n\n# note\n",0.9,0,-80.5,25\n', "bad delay model parameters at line 2"),
        # The comment's quote would swallow the nb row.
        ('# note,"x\nnb,10,0.9,0,-80.5,25\n"\n', "line 2: comment row holds a quoted line break"),
        # An indented comment is skipped, as in a line list; the next row is bad.
        ("  # note,x,0.9,0,-80.5,25\nnb,y,0.9,0,-80.5,25\n",
         "bad delay model parameters at line 3"),
    ],
    ids=["blank-and-comment-in-cell", "comment-with-line-break", "indented-comment"],
)
def test_survival_file_quoted_cell_keeps_its_lines(
    tmp_path, linelist_file, capsys, record, message
):
    params = tmp_path / "fit.csv"
    params.write_text("model,mu,r,pi,loglik,n\n" + record)
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
         "--survival", "file", "--survival-file", str(params)]
    )
    assert code == 4
    assert f"{params}: {message}" in capsys.readouterr().err
    assert not out.exists()


# An arm file and a parameter file with the same fault, and the line the
# faulty record starts on. A bare "\r" ends no line; a cell past the csv
# module's field limit is rejected by it.
MALFORMED_ARM = {
    "bare-cr": ("cases\n5\r6\n", 2),
    "oversized-cell": ("cases\n5\n" + "9" * 200_000 + "\n", 3),
}
MALFORMED_PARAMS = {
    "bare-cr": ("model,mu,r,pi,loglik,n\nnb,10\r,0.9,0,-80.5,25\n", 2),
    "oversized-cell": (
        'model,mu,r,pi,loglik,n\n# note\nnb,"' + "9" * 200_000 + '",0.9,0,-80.5,25\n', 3
    ),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_PARAMS))
def test_survival_file_malformed_record_exits_4(tmp_path, linelist_file, capsys, fault):
    text, line = MALFORMED_PARAMS[fault]
    params = tmp_path / "fit.csv"
    params.write_bytes(text.encode())
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
         "--survival", "file", "--survival-file", str(params)]
    )
    assert code == 4
    assert f"{params}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


READER_FAULTS = {name: (text.encode(), line) for name, (text, line) in MALFORMED_PARAMS.items()}
READER_FAULTS["not-utf-8"] = (b"model,mu,r,pi,loglik,n\nnb,10\xe9,0.9,0,-80.5,25\n", 2)


@pytest.mark.parametrize("fault", sorted(READER_FAULTS))
def test_survival_file_malformed_record_wins_over_a_bad_row_above(tmp_path, fault):
    """The records are read one at a time, and a bad row is named only once
    the reader has read them all."""
    text, line = READER_FAULTS[fault]
    header, rest = text.split(b"\n", 1)
    params = tmp_path / "fit.csv"
    params.write_bytes(header + b"\nnb,abc,0.9,0,-80.5,25\n" + rest)
    with pytest.raises(ParseError, match=f"^{re.escape(str(params))}: line {line + 1}: "):
        cli._read_params_csv(str(params))


@pytest.mark.parametrize(
    "text,message",
    [
        # A mean that overflows to inf would reach the sampler as p = 0.
        (b"model,pi,mu,r,loglik,n\nnb,,1e999,0.9,-80.5,25\n",
         "bad delay model parameters at line 2"),
        # A byte that is not UTF-8 names its own line.
        (b"model,pi,mu,r,loglik,n\n# fitted\nnb,,10\xe9,0.9,-80.5,25\n",
         "line 3: 'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["infinite-mu", "not-utf-8"],
)
def test_survival_file_bad_value_names_its_line(tmp_path, linelist_file, capsys, text, message):
    params = tmp_path / "fit.csv"
    params.write_bytes(text)
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
         "--survival", "file", "--survival-file", str(params)]
    )
    assert code == 4
    assert f"{params}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_survival_file_header_names_are_stripped(tmp_path, linelist_file):
    """A header written with spaces after its commas names the same columns,
    as it does in an arm file or a line list."""
    outputs = []
    for name, sep in (("plain", ","), ("spaced", ", ")):
        params = tmp_path / f"{name}.csv"
        header = sep.join(["model", "pi", "mu", "r", "loglik", "n"])
        params.write_text(f"{header}\nempirical,,,,-90.1,25\nnb,0,10.5,0.9,-80.5,25\n")
        out = tmp_path / f"{name}_est.csv"
        code = main(
            ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
             "--survival", "file", "--survival-file", str(params)]
        )
        assert code == 0
        outputs.append(out.read_bytes().split(b"\n", 1)[1])  # past the meta line
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("loglik", ["", "nan"])
def test_survival_file_row_without_loglik_ranks_last(tmp_path, loglik):
    """A row with no log-likelihood loses to one with any, in either order;
    among rows with none the first wins."""
    bare, fitted = f"nb,3,0.5,0,{loglik},25\n", "nb,10.5,0.9,0,-80.5,25\n"
    for name, rows in (("bare_first", bare + fitted), ("fitted_first", fitted + bare)):
        params = tmp_path / f"{name}.csv"
        params.write_text("model,mu,r,pi,loglik,n\n" + rows)
        assert cli._read_params_csv(str(params)) == NegBinomial(10.5, 0.9)
    params = tmp_path / "all_bare.csv"
    params.write_text(f"model,mu,r,pi,loglik,n\n{bare}nb,4,0.6,0,{loglik},25\n")
    assert cli._read_params_csv(str(params)) == NegBinomial(3.0, 0.5)
    params = tmp_path / "no_loglik.csv"
    params.write_text("model,mu,r,pi,n\nempirical,,,,25\nnb,3,0.5,0,25\n")
    assert cli._read_params_csv(str(params)) == NegBinomial(3.0, 0.5)


def test_survival_file_crlf_reads_as_lf(tmp_path, linelist_file):
    text = "model,mu,r,pi,loglik,n\nempirical,,,,-90.1,25\nnb,10.5,0.9,0,-80.5,25\n"
    outputs = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        params = tmp_path / f"{name}.csv"
        params.write_bytes(text.replace("\n", newline).encode())
        out = tmp_path / f"{name}_est.csv"
        code = main(
            ["estimate", str(linelist_file), "-o", str(out), "--epoch", "2020-03-03",
             "--survival", "file", "--survival-file", str(params)]
        )
        assert code == 0
        outputs.append(out.read_bytes().split(b"\n", 1)[1])  # past the meta line
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# simulate / coverage


def test_simulate_aggregated_output(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "-o",
            str(out),
            "--arm-days",
            "40",
            "--symmetric",
            "--dstar",
            "30",
            "--replicates",
            "4",
            "--seed",
            "11",
            "--from",
            "20",
            "--to",
            "60",
            "--every",
            "20",
        ]
    )
    assert code == 0
    meta, rows = read_output(out)
    assert "seed=11" in meta
    assert list(rows[0].keys()) == [
        "t",
        "r_t",
        "cfr_true",
        "mean_cfr_naive",
        "se_cfr_naive",
        "mean_cfr",
        "se_cfr",
        "mean_cfr_garske",
        "se_cfr_garske",
        "mean_cfr_garske_mod",
        "se_cfr_garske_mod",
        "mean_cfr_final",
        "se_cfr_final",
        "coverage",
        "coverage_se",
        "mean_ci_length",
    ]
    assert [r["t"] for r in rows] == ["20", "40", "60"]
    for row in rows:
        assert 0.0 <= float(row["coverage"]) <= 1.0
        assert float(row["mean_ci_length"]) >= 0.0
        assert float(row["se_cfr"]) >= 0.0


def test_simulate_per_replicate_files(tmp_path):
    out = tmp_path / "sim.csv"
    rep_dir = tmp_path / "reps"
    code = main(
        [
            "simulate",
            "-o",
            str(out),
            "--arm-days",
            "30",
            "--symmetric",
            "--dstar",
            "25",
            "--replicates",
            "3",
            "--seed",
            "2",
            "--from",
            "10",
            "--to",
            "30",
            "--every",
            "10",
            "--per-replicate-dir",
            str(rep_dir),
        ]
    )
    assert code == 0
    files = sorted(p.name for p in rep_dir.iterdir())
    assert files == ["replicate_0000.csv", "replicate_0001.csv", "replicate_0002.csv"]
    _, rows = read_output(rep_dir / "replicate_0000.csv")
    assert list(rows[0].keys()) == [
        "t",
        "r_t",
        "cfr_naive",
        "cfr",
        "ci_low",
        "ci_high",
        "cfr_garske",
        "cfr_garske_mod",
        "cfr_final",
        "cfr_true",
    ]


def test_simulate_arm_file_matches_bundled_arm(tmp_path):
    arm_file = tmp_path / "arm.csv"
    lines = ["# first 40 days of the bundled arm", "", "day,cases"]
    lines += [f"{day},{count}" for day, count in enumerate(load_example_arm()[:40])]
    arm_file.write_text("\n".join(lines) + "\n")
    args = ["simulate", "--symmetric", "--dstar", "30", "--replicates", "2", "--to", "60"]
    from_file, bundled = tmp_path / "file.csv", tmp_path / "bundled.csv"
    assert main(args + ["--arm-file", str(arm_file), "-o", str(from_file)]) == 0
    assert main(args + ["--arm-days", "40", "-o", str(bundled)]) == 0
    # The metadata line records the differing flags; everything after it matches.
    _, file_body = from_file.read_bytes().split(b"\n", 1)
    _, bundled_body = bundled.read_bytes().split(b"\n", 1)
    assert file_body == bundled_body


def test_simulate_arm_file_bad_count(tmp_path, capsys):
    arm_file = tmp_path / "arm.csv"
    out = tmp_path / "o.csv"
    # The last is a quoted record on lines 5 and 6, named by its first line.
    for bad in ("7.5", "-3", '"7\n5"'):
        arm_file.write_text(f"cases\n5\n# note\n\n{bad}\n")
        assert main(["simulate", "--arm-file", str(arm_file), "-o", str(out)]) == 4
        assert f"{arm_file}: bad case count at line 5" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        # The blank and # lines belong to the quoted count, which is no integer.
        ('cases\n5\n"6\n\n# note\n"\n7\n', "bad case count at line 3"),
        # The comment's quote would swallow the next count.
        ('cases\n5\n# note,"x\n6\n"\n7\n', "line 3: comment row holds a quoted line break"),
        # An indented comment is skipped, as in a line list; the next count is bad.
        ("cases\n  # note\n5\n-3\n", "bad case count at line 4"),
    ],
    ids=["blank-and-comment-in-cell", "comment-with-line-break", "indented-comment"],
)
def test_simulate_arm_file_quoted_cell_keeps_its_lines(tmp_path, capsys, text, message):
    arm_file = tmp_path / "arm.csv"
    arm_file.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["simulate", "--arm-file", str(arm_file), "-o", str(out)]) == 4
    assert f"{arm_file}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fault", sorted(MALFORMED_ARM))
def test_simulate_arm_file_malformed_record_exits_4(tmp_path, capsys, fault):
    text, line = MALFORMED_ARM[fault]
    arm_file = tmp_path / "arm.csv"
    arm_file.write_bytes(text.encode())
    out = tmp_path / "o.csv"
    assert main(["simulate", "--arm-file", str(arm_file), "-o", str(out)]) == 4
    assert f"{arm_file}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


def test_simulate_arm_file_bad_byte_names_its_line(tmp_path, capsys):
    # Past the first 8 KB, where a text decoder would name its chunk's start.
    lines = [b"cases"] + [b"5"] * 3000
    lines[2501] = b"5\xff"
    arm_file = tmp_path / "arm.csv"
    arm_file.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--arm-file", str(arm_file), "--replicates", "1", "-o", str(out)]) == 4
    assert f"{arm_file}: line 2502: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_arm_file_count_past_int64_exits_4(tmp_path, capsys):
    arm_file = tmp_path / "arm.csv"
    arm_file.write_text("cases\n5\n99999999999999999999\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--arm-file", str(arm_file), "--replicates", "1", "-o", str(out)]) == 4
    assert f"{arm_file}: bad case count at line 3" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_arm_file_crlf_reads_as_lf(tmp_path):
    arm = load_example_arm()[:40]
    args = ["simulate", "--symmetric", "--dstar", "30", "--replicates", "2", "--to", "60"]
    outputs = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        arm_file = tmp_path / f"{name}.csv"
        text = newline.join(["# a comment", "", "cases", *map(str, arm)]) + newline
        arm_file.write_bytes(text.encode())
        assert read_arm_csv(arm_file).tolist() == arm.tolist()
        out = tmp_path / f"{name}_out.csv"
        assert main([*args, "--arm-file", str(arm_file), "-o", str(out)]) == 0
        outputs.append(out.read_bytes().split(b"\n", 1)[1])  # past the meta line
    assert outputs[0] == outputs[1]


def test_simulate_deterministic(tmp_path):
    args = [
        "simulate",
        "--arm-days",
        "30",
        "--symmetric",
        "--dstar",
        "20",
        "--replicates",
        "3",
        "--seed",
        "5",
        "--from",
        "30",
        "--to",
        "30",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    body1 = out1.read_text().replace("s1.csv", "OUT")
    body2 = out2.read_text().replace("s2.csv", "OUT")
    assert body1 == body2


def test_coverage_schema(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(
        [
            "coverage",
            "-o",
            str(out),
            "--arm-days",
            "60",
            "--symmetric",
            "--dstar",
            "40",
            "--replicates",
            "3",
            "--seed",
            "7",
            "--mode",
            "known",
            "--from",
            "40",
            "--to",
            "80",
            "--every",
            "40",
        ]
    )
    assert code == 0
    _, rows = read_output(out)
    assert list(rows[0].keys()) == [
        "t",
        "r_t",
        "mean_coverage",
        "coverage_se",
        "mean_ci_length",
    ]
    r_t = [int(r["r_t"]) for r in rows]
    assert r_t == sorted(r_t)


# ---------------------------------------------------------------------------
# Daily rates from a file (--rates-file)

_RATES = resources.files("cfrkit.data").joinpath("example_daily_rates.csv")


def test_bundled_rates_file_holds_the_illustrative_rates_exactly():
    """752 days, the default horizon of the mirrored bundled arm, each
    written with 17 digits so that it reads back as the same float."""
    with _RATES.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [int(row["day"]) for row in rows] == list(range(752))
    assert [float(row["p"]) for row in rows] == illustrative_daily_rates(752).p.tolist()


@pytest.mark.parametrize(
    "command, mode", [("coverage", "known"), ("coverage", "estimated"), ("simulate", "known")]
)
def test_rates_file_study_matches_run_study(tmp_path, command, mode):
    """A study under --rates-file is `run_study` on a Scenario of the file's
    DailyRates: every coverage column equals its value as a float."""
    out = tmp_path / "study.csv"
    argv = [command, "--mode", mode, "--rates-file", str(_RATES), "--delay",
            "zinb:0.103,12.59,1.2191", "--horizon", "300", "--seed", "11", "--every", "30",
            "--replicates", "3", "-o", str(out)]
    assert main(argv) == 0
    scenario = Scenario(load_example_arm(), False, illustrative_daily_rates(301),
                        Zinb(0.103, 12.59, 1.2191), horizon=300, seed=11, replicates=3)
    days = range(0 if mode == "known" else 90, 301, 30)
    cov = run_study(scenario, mode, eval_days=days).coverage
    meta, rows = read_output(out)
    assert f"rates-file={_RATES}" in meta and "c1=" not in meta and "dstar=" not in meta
    coverage = "mean_coverage" if command == "coverage" else "coverage"
    names = ["t", "r_t", coverage, "coverage_se", "mean_ci_length"]
    found = [[float(row[name]) for name in names] for row in rows]
    expected = zip(cov.days, cov.r_t, cov.coverage, cov.coverage_se, cov.mean_ci_length)
    assert found == [[float(value) for value in row] for row in expected]


# A scenario of 70 days, 0..69: the mirrored 30-day arm and 10 tail days.
_SHORT_STUDY = ["coverage", "--mode", "known", "--arm-days", "30", "--symmetric",
                "--tail-days", "10", "--replicates", "1"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("p\n" + "0.05\n" * 70, None),
        ("day,p\n0,0.05\n# note\n1,nan\n", "bad daily rate at line 4 (nan outside 0..1)"),
        ("p\n0.05\n1.5\n", "bad daily rate at line 3 (1.5 outside 0..1)"),
        ("p\n0.05\n-0.1\n", "bad daily rate at line 3 (-0.1 outside 0..1)"),
        ("p\n0.05\ninf\n", "bad daily rate at line 3 (inf outside 0..1)"),
        ("p\n0.05\nx\n", "bad daily rate at line 3 (could not convert"),
        ("p\n" + "0.05\n" * 69, "no rate for day 69, the horizon"),
        ("rate\n0.05\n", "needs a 'p' column"),
        ("p\n\n# none\n", "no daily rates found"),
        ("p\n" + "0.05\n" * 3654, "3654 rows, past the days 0..3652"),
    ],
    ids=["70-days", "nan", "above-1", "negative", "inf", "not-a-number", "short", "no-column",
         "empty", "past-last-day"],
)
def test_rates_file_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "rates.csv"
    path.write_text(text)
    out = tmp_path / "cov.csv"
    code = main([*_SHORT_STUDY, "--rates-file", str(path), "-o", str(out)])
    if message is None:
        assert code == 0 and out.exists()
        return
    assert code == 4
    assert f"cfrkit: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [(["--c1", "0.1"], "--c1"), (["--c2", "0.2"], "--c2"),
     (["--dstar", "5", "--c1", "0.3"], "--c1, --dstar")],
)
def test_rates_file_conflicts_with_step_flags(tmp_path, capsys, flags, named):
    out = tmp_path / "cov.csv"
    assert main([*_SHORT_STUDY, "--rates-file", str(_RATES), *flags, "-o", str(out)]) == 2
    assert f"cfrkit: --rates-file conflicts with {named}\n" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "cfrkit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scipy is imported on first use


_SCIPY_MODULES = ("scipy.stats", "scipy.optimize", "scipy.special")


def _fresh_cli_runs(*argvs, modules=_SCIPY_MODULES):
    """Run ``cli.main`` on each argv in a fresh interpreter that imports cfrkit
    from this checkout; return the exit codes and which of ``modules`` loaded."""
    script = (
        "import sys\n"
        "import cfrkit, cfrkit.cli\n"
        f"print(*[cfrkit.cli.main(argv) for argv in {list(argvs)!r}])\n"
        f"print(*[name for name in {modules!r} if name in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    codes, modules = done.stdout.split("\n")[:2]
    return [int(code) for code in codes.split()], modules.split()


def test_import_loads_no_scipy():
    assert _fresh_cli_runs() == ([], [])


def test_import_loads_no_thread_pool_or_calendar():
    # The drawing pool and the ISO-date table import these on first use.
    assert _fresh_cli_runs(modules=("concurrent.futures", "calendar")) == ([], [])


def test_empirical_paths_load_no_scipy(tmp_path, linelist_file):
    estimate = ["estimate", str(linelist_file), "--epoch", "2020-03-03", "-o", str(tmp_path / "e.csv")]
    coverage = ["coverage", "--mode", "estimated", "--replicates", "2", "--arm-days", "60",
                "--symmetric", "--dstar", "40", "-o", str(tmp_path / "c.csv")]
    assert _fresh_cli_runs(estimate, coverage) == ([0, 0], [])


def test_nb_estimate_loads_scipy(tmp_path, linelist_file):
    estimate = ["estimate", str(linelist_file), "--epoch", "2020-03-03", "--survival", "nb",
                "-o", str(tmp_path / "e.csv")]
    assert _fresh_cli_runs(estimate) == ([0], ["scipy.optimize", "scipy.special"])


@pytest.mark.parametrize("command", ["coverage", "simulate"])
def test_known_mode_study_loads_scipy_special_only(tmp_path, command):
    # The default NB delay tabulates its CDF through scipy.special alone.
    study = [command, "--mode", "known", "--replicates", "2", "--arm-days", "60",
             "--symmetric", "--dstar", "40", "--every", "10", "-o", str(tmp_path / "s.csv")]
    assert _fresh_cli_runs(study) == ([0], ["scipy.special"])


# ---------------------------------------------------------------------------
# Memory: warnings shown once, and a long day span on few rows

_LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS and /proc/self/status are Linux's"
)


def _child(script: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with Python's default warning
    filters, importing cfrkit from this checkout. One BLAS thread keeps the
    address space that an RLIMIT_AS cap counts from growing with the cores."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env.update(
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )


def _peak_over_import(argv: list[str]) -> tuple[str, int, int, int]:
    """Run ``cfrkit.cli.main(argv)`` in a ``_child``; return its stderr, the
    command's exit code, and the child's peak resident memory in KiB after
    the import and after the command. The peak is VmHWM, not ru_maxrss:
    Linux carries a process's peak ru_maxrss over exec into its child, so
    under pytest a child's ru_maxrss starts at the pytest process's peak."""
    done = _child(
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "import cfrkit.cli\n"
        "base = peak()\n"
        f"code = cfrkit.cli.main({argv!r})\n"
        "print(code, base, peak())\n"
    )
    code, base, peak = map(int, done.stdout.split())
    return done.stderr, code, base, peak


@_LINUX_ONLY
def test_fit_survival_shows_a_runtime_warning_once(tmp_path):
    """A warning other than AssumptionWarning is shown once, after the
    command. Shown while warnings were still recorded, it was recorded again
    and shown again until memory ran out; the 1 GiB address-space cap and
    the timeout make such a loop fail fast."""
    path = tmp_path / "ll.csv"
    # Every lag is 1..5, so the ZINB fit warns that the sample has no zero lag.
    rows = "".join(f"{d},{d + 1 + d % 5}\n" for d in range(100))
    path.write_text("confirm_date,death_date\n" + rows)
    out = tmp_path / "fits.csv"
    argv = ["fit-survival", str(path), "-o", str(out)]
    done = _child(
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "import cfrkit.cli\n"
        f"sys.exit(cfrkit.cli.main({argv!r}))\n"
    )
    assert done.returncode == 0, done.stderr
    assert out.exists() and (tmp_path / "fits_cdf.csv").exists()
    assert done.stderr.count("RuntimeWarning: no zero lags in sample") == 1, done.stderr


@_LINUX_ONLY
@pytest.mark.parametrize(
    "command, message",
    [
        ("estimate", "insufficient resolved deaths for empirical fit"),
        ("fit-survival", "dispersion unidentifiable: all lags equal"),
    ],
)
def test_long_day_span_costs_no_more_than_its_rows(tmp_path, command, message):
    """Two rows ten years apart: the memory a command takes beyond the
    import's stays under 50 MB, whatever the span of days."""
    path = tmp_path / "span.csv"
    path.write_text("confirm_date,death_date\n0,3652\n3652,\n")
    argv = [command, str(path), "-o", str(tmp_path / "out.csv")]
    stderr, code, base, peak = _peak_over_import(argv)
    assert code == 5
    assert f"cfrkit: {message}" in stderr
    assert peak < base + 50 * 1024, f"peak {peak} KiB, import {base} KiB"


@_LINUX_ONLY
def test_long_arm_file_is_counted_not_kept(tmp_path):
    """An arm file of 2,000,000 rows took about 400 MB over the import
    before its row count was checked; its rows past MAX_DAY + 1 are now
    counted as they are read, and the message keeps their true number."""
    arm = tmp_path / "arm.csv"
    arm.write_text("cases\n" + "1\n" * 2_000_000)
    argv = ["simulate", "--arm-file", str(arm), "--replicates", "1", "-o", str(tmp_path / "o.csv")]
    stderr, code, base, peak = _peak_over_import(argv)
    assert code == 4
    assert f"cfrkit: {arm}: 2000000 rows, past the days 0..3652" in stderr
    assert peak < base + 50 * 1024, f"peak {peak} KiB, import {base} KiB"


@_LINUX_ONLY
def test_long_parameter_file_is_read_a_record_at_a_time(tmp_path, linelist_file):
    """A parameter file of 2,000,000 rows took about 810 MB over the import
    when its records were listed before the best row was picked; they are
    now read one at a time."""
    params = tmp_path / "fit.csv"
    rows = "empirical,,,,-90.1,25\n" * 2_000_000
    params.write_text(f"model,pi,mu,r,loglik,n\n{rows}nb,,10,1,-5,100\n")
    argv = ["estimate", str(linelist_file), "--epoch", "2020-03-03", "--survival", "file",
            "--survival-file", str(params), "-o", str(tmp_path / "o.csv")]
    _, code, base, peak = _peak_over_import(argv)
    assert code == 0
    assert peak < base + 50 * 1024, f"peak {peak} KiB, import {base} KiB"


@_LINUX_ONLY
@pytest.mark.parametrize("quoted", [False, True], ids=["plain-lf", "quoted-crlf"])
def test_estimate_memory_does_not_grow_with_rows(tmp_path, quoted):
    """`cfrkit estimate` folds a line list's day pieces into the table as
    they are read, so it holds O(deaths + days + one block), not a column
    of every row: 600,000 rows over 200 days peak within 4 MB of 6,000. The
    quoted CRLF copy takes the record loop, which flushes every
    ``_CHUNK_LINES`` records."""
    line = '"{}","{}","{}"\r\n' if quoted else "{},{},{}\n"
    epoch = date(2020, 3, 3)
    dates = [str(epoch + timedelta(days)) for days in range(213)]
    grown = []
    for rows in (6_000, 600_000):
        path = tmp_path / f"ll_{rows}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(line.format("region", "confirm_date", "death_date"))
            # Every 50th case dies, 0..12 days after its confirmation.
            handle.writelines(
                line.format("north", dates[i % 200], "" if i % 50 else dates[i % 200 + i % 13])
                for i in range(rows)
            )
        argv = ["estimate", str(path), "--epoch", str(epoch), "-o", str(tmp_path / f"{rows}.csv")]
        _, code, base, peak = _peak_over_import(argv)
        assert code == 0
        grown.append(peak - base)
    assert grown[1] < grown[0] + 4 * 1024, f"grew {grown[1]} KiB at 600k rows, {grown[0]} at 6k"


def _capped_cli(argv: list[str], gib: int, timeout: float = 60) -> subprocess.CompletedProcess:
    """``cfrkit.cli.main(argv)`` in a child under a ``gib`` GiB address-space
    cap, so that a command which allocates what it should not fails fast."""
    return _child(
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({gib} << 30, {gib} << 30))\n"
        "import cfrkit.cli\n"
        f"sys.exit(cfrkit.cli.main({argv!r}))\n",
        timeout,
    )


@_LINUX_ONLY
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["simulate", "--horizon", "1000000000"], 2,
         "argument --horizon: expected a day in 0..3652, got '1000000000'"),
        (["simulate", "--tail-days", "1000000000"], 2,
         "argument --tail-days: expected a day in 0..3652, got '1000000000'"),
        (["simulate", "--arm-days", "200", "--symmetric", "--tail-days", "3300"], 2,
         "cfrkit: --tail-days: horizon 3699 is past day 3652"),
        (["coverage", "--horizon", "200000000"], 2,
         "argument --horizon: expected a day in 0..3652, got '200000000'"),
        (["simulate", "--delay", "point:1000000000"], 2,
         "cfrkit: --delay: bad delay spec 'point:1000000000': lag 1000000000 is past the last day"),
        (["simulate", "--arm-file", "{arm}"], 4, "cfrkit: {arm}: 3654 rows, past the days 0..3652"),
    ],
    ids=["horizon", "tail-days", "derived-horizon", "coverage-horizon", "point-lag", "arm-file"],
)
def test_study_day_span_is_bounded_before_it_is_allocated(tmp_path, argv, code, message):
    """Each of these asked for 1.5-7.5 GiB, or ran a study of thousands of
    days; each now stops at MAX_DAY, naming the flag or the file."""
    arm = tmp_path / "arm.csv"
    arm.write_text("cases\n" + "1\n" * 3654)
    argv = [arg.format(arm=arm) for arg in argv] + ["--replicates", "1", "-o", str(tmp_path / "o.csv")]
    done = _capped_cli(argv, gib=2)
    assert done.returncode == code, done.stderr
    assert message.format(arm=arm) in done.stderr


@_LINUX_ONLY
@pytest.mark.parametrize(
    "count, message",
    [(10**8, f"bad case count at line 2 (100000000 outside 0..{MAX_CASES})"),
     (10**6, f"130000000 cases, past the {MAX_CASES} a scenario may hold")],
    ids=["count", "total"],
)
def test_arm_file_cases_are_bounded(tmp_path, count, message):
    """130 days of 10**8 cases made a replicate's draw ask for 9.31 GiB. An
    arm file with a count or a total past MAX_CASES exits 4 at once."""
    arm = tmp_path / "arm.csv"
    arm.write_text("cases\n" + f"{count}\n" * 130)
    argv = ["simulate", "--arm-file", str(arm), "--replicates", "1", "-o", str(tmp_path / "o.csv")]
    done = _capped_cli(argv, gib=3, timeout=20)
    assert done.returncode == 4, done.stderr
    assert f"cfrkit: {arm}: {message}" in done.stderr


def test_study_with_lags_past_2_16(tmp_path):
    """Lags from NB(20000, 0.5) run past 2**16, so a table's lag events do
    not fit 32-bit packed keys and take the argsort path, whose counts must
    stay integers."""
    out = tmp_path / "cov.csv"
    argv = ["coverage", "--mode", "estimated", "--delay", "nb:20000,0.5", "--replicates", "1",
            "--every", "50", "-o", str(out)]
    assert main(argv) == 0
    _, rows = read_output(out)
    assert [int(row["t"]) for row in rows] == list(range(90, 451, 50))


@_LINUX_ONLY
def test_estimated_study_with_lags_near_2_35_is_bounded(tmp_path):
    """NB(1e9, 0.5) draws lags near 2**35, and the empirical fit's (days x
    lags) counts asked for 1.08 TiB. No lag past the last evaluation day is
    eligible, so the counts stop there, and no death has resolved by then."""
    argv = ["coverage", "--mode", "estimated", "--delay", "nb:1e9,0.5", "--replicates", "1",
            "--every", "50", "-o", str(tmp_path / "cov.csv")]
    done = _capped_cli(argv, gib=2)
    assert done.returncode == 5, done.stderr
    assert "insufficient resolved deaths for empirical fit" in done.stderr


# ---------------------------------------------------------------------------
# The four CSV inputs under fuzzed text


def test_estimate_line_list_with_lines_before_its_header(tmp_path, linelist_file):
    """A line list exported with a comment and a blank line above its header
    gives the plain file's estimate, as arm and parameter files do."""
    commented = tmp_path / "commented.csv"
    commented.write_text("# exported 2020-10-01 by a line-list tool\n\n" + linelist_file.read_text())
    outputs = []
    for path in (linelist_file, commented):
        out = tmp_path / f"{path.stem}_est.csv"
        assert main(["estimate", str(path), "-o", str(out), "--epoch", "2020-03-03"]) == 0
        outputs.append(out.read_bytes().split(b"\n", 1)[1])  # past the meta line
    assert outputs[0] == outputs[1]


_FUZZ_LINELIST = "confirm_date,death_date\n" + "".join(
    f"{day % 30},{day % 30 + 3}\n" for day in range(60)
)
# Each reader's header, and the cfrkit command line that reads a file under it.
_FUZZ_READERS = {
    "line list": ("confirm_date,death_date\n", ["estimate", "{file}", "--from", "0"]),
    "arm file": ("cases\n", ["simulate", "--arm-file", "{file}", "--replicates", "1"]),
    "parameter file": (
        "model,pi,mu,r,loglik,n\n",
        ["estimate", "{linelist}", "--from", "0", "--survival", "file", "--survival-file", "{file}"],
    ),
    # One day, day 0, so that a single good rate runs the study.
    "rates file": (
        "p\n",
        ["coverage", "--rates-file", "{file}", "--mode", "known", "--arm-days", "1",
         "--horizon", "0", "--replicates", "1"],
    ),
}


def _oracle_records(text: str) -> tuple[list[int], int | None]:
    """The start lines of the records of ``text`` that are neither blank nor
    a comment, up to the first record that no reader may take, and that
    record's start line (None if every record may be read): one the csv
    module rejects, or a comment holding a quoted line break."""
    reader = csv.reader(io.StringIO(text, newline="\n"))  # lines end at "\n" alone
    data, line = [], 1
    try:
        for row in reader:
            if row and row[0].lstrip().startswith("#"):
                if any("\n" in cell for cell in row):
                    return data, line
            elif any(cell.strip() for cell in row):
                data.append(line)
            line = reader.line_num + 1
    except csv.Error:
        return data, line
    return data, None


@given(st.text(alphabet=',"\n\r#-019x ', max_size=60))
@settings(max_examples=150, deadline=None)
def test_fuzzed_text_parses_the_same_in_all_four_readers(tmp_path_factory, body):
    """Each text, under each reader's header, exits 0, 4 or 5. A parse error
    names the start line of a record that is neither blank nor a comment,
    or the first record no reader may take, which every reader then
    reaches: so all four readers skip the same records."""
    folder = tmp_path_factory.mktemp("fuzz")
    linelist = folder / "ll.csv"
    linelist.write_text(_FUZZ_LINELIST)
    for name, (header, argv) in _FUZZ_READERS.items():
        text = header + body
        data, broken = _oracle_records(text)
        path = folder / "input.csv"
        path.write_bytes(text.encode())
        args = [arg.format(file=path, linelist=linelist) for arg in argv]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*args, "-o", str(folder / "out.csv")])
        message = err.getvalue().replace(str(path), "PATH")
        assert code in (0, 4, 5), (name, text, message)
        if broken is not None:
            assert code == 4, (name, text, message)
        # Three exit-4 messages are about the whole file and name no line.
        empty = "no case counts found" in message or "no daily rates found" in message
        if empty:
            assert data == [1], (name, text, message, data)  # the header alone
        if code != 4 or empty or "no parametric" in message:
            continue
        lines = [int(n) for n in re.findall(r"\bline (\d+)\b", message)]
        assert len(lines) == 1, (name, text, message)
        assert lines[0] in data or lines[0] == broken, (name, text, message, data, broken)
        assert 1 <= lines[0] <= text.count("\n") + (not text.endswith("\n"))
