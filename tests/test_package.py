"""The package's public names."""

from __future__ import annotations

import contextlib
import io
from datetime import date
from importlib import resources
from pathlib import Path

import pytest

import cfrkit
from cfrkit import errors, estimators, linelist, simulation, survival

# Every name the package exported before it gathered the modules' own lists.
EARLIER_NAMES = [
    "AssumptionReport", "AssumptionWarning", "CfrError",
    "CoverageSummary", "DailyRates", "DegenerateSampleError", "DelaySample",
    "DelaySchedule", "Empirical", "EpidemicTable", "EstimateSeries",
    "EstimationError", "LineList", "NegBinomial", "ParseError",
    "ReplicateResult", "Scenario", "StepRates", "StudyResult", "SurvivalModel",
    "Zinb", "aggregate", "build_curve", "cfr_final", "cfr_garske",
    "cfr_garske_mod", "cfr_naive", "cfr_proposed", "cfr_true",
    "confidence_interval", "estimate_series", "fit_empirical", "fit_nb_mle",
    "fit_zinb_mle", "illustrative_daily_rates", "load_example_arm", "nb_loglik",
    "normal_quantile", "p_hat_daily", "parse_csv", "point_mass", "run_study",
    "simulate_replicate", "validate_assumptions", "variance_cfr", "zinb_loglik",
    "__version__",
]


def test_public_names_are_the_modules_lists():
    names = cfrkit.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(cfrkit, name)
    modules = (errors, estimators, linelist, simulation, survival)
    assert set(names) == {n for m in modules for n in m.__all__} | {"__version__"}
    assert len(EARLIER_NAMES) == 47
    assert set(EARLIER_NAMES) <= set(names)
    assert {"MAX_DAY", "ESTIMATORS", "read_arm_csv"} <= set(names)
    assert "main" not in names



@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_readme_library_tour_runs(tmp_path, monkeypatch):
    """The tour's code block, on the bundled line list as ``linelist.csv``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    data = resources.files("cfrkit.data").joinpath("example_linelist.csv").read_bytes()
    (tmp_path / "linelist.csv").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(tour, "README.md", "exec"), scope)
    series = scope["series"]
    assert out.getvalue() == f"{series.cfr[-1]} {series.ci_low[-1]} {series.ci_high[-1]}\n"
    assert scope["linelist"].epoch == date(2020, 3, 3)
    assert scope["sample"].lags.tolist() == scope["linelist"].lags.tolist()
    assert scope["nb"].mu > 0
