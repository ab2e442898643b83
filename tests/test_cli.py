"""Command line behaviour: schemas, exit codes, determinism, atomicity."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import subprocess
import sys
from datetime import date
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cfrkit import (
    DelaySchedule,
    NegBinomial,
    Scenario,
    StepRates,
    aggregate,
    estimate_series,
    fit_nb_mle,
    parse_csv,
    run_study,
)
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
    ],
    ids=["simulate", "coverage", "fit_survival_cdf"],
)
def test_subcommand_golden_digest(tmp_path, linelist_file, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)
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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--every", "0"),
        ("simulate", "--alpha", "0"),
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
        ('# note,"x\nnb,10,0.9,0,-80.5,25\n"\n', "comment row at line 2 holds a quoted line break"),
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
    assert f"{params}: malformed CSV record at line {line} (" in capsys.readouterr().err
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
        ('cases\n5\n# note,"x\n6\n"\n7\n', "comment row at line 3 holds a quoted line break"),
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
    assert f"{arm_file}: malformed CSV record at line {line} (" in capsys.readouterr().err
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


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "cfrkit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scipy is imported on first use


_SCIPY_MODULES = ("scipy.stats", "scipy.optimize", "scipy.special")


def _fresh_cli_runs(*argvs):
    """Run ``cli.main`` on each argv in a fresh interpreter that imports cfrkit
    from this checkout; return the exit codes and the scipy modules loaded."""
    script = (
        "import sys\n"
        "import cfrkit, cfrkit.cli\n"
        f"print(*[cfrkit.cli.main(argv) for argv in {list(argvs)!r}])\n"
        f"print(*[name for name in {_SCIPY_MODULES!r} if name in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    codes, modules = done.stdout.split("\n")[:2]
    return [int(code) for code in codes.split()], modules.split()


def test_import_loads_no_scipy():
    assert _fresh_cli_runs() == ([], [])


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
