"""Day, lag, lookback, count and index arguments of the public API.

Each is one finite whole number >= 0, read through one reader: any other
value raises a ValueError naming the argument, and a whole float or a numpy
integer reads as the int it equals.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from cfrkit import (
    DailyRates,
    DelaySchedule,
    EpidemicTable,
    Empirical,
    NegBinomial,
    Scenario,
    StepRates,
    cfr_final,
    cfr_garske,
    cfr_garske_mod,
    cfr_naive,
    cfr_proposed,
    cfr_true,
    estimate_series,
    fit_empirical,
    illustrative_daily_rates,
    p_hat_daily,
    point_mass,
    run_study,
    simulate_replicate,
    validate_assumptions,
    variance_cfr,
)

pytestmark = pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")

# 14 days of 10 cases; cohorts 0..5 have one death at lag 1 and one at lag 2.
TABLE = EpidemicTable.from_sparse([10] * 14, {d: {1: 1, 2: 1} for d in range(6)})
MODEL = Empirical([0.5, 0.8, 1.0])
SCHEDULE = DelaySchedule(MODEL)
RATES = DailyRates(np.full(14, 0.2))
SCENARIO = Scenario(
    np.array([5, 10, 20, 40, 60]), True, StepRates(0.1, 0.05, 6), NegBinomial(4.0, 1.0),
    horizon=30, seed=3, replicates=2,
)

# Each entry point called with the argument v, its result as plain values,
# and the argument's name. 6 is a valid value of each.
ENTRY_POINTS = {
    "observed_deaths": (lambda v: TABLE.observed_deaths(v).tolist(), "t"),
    "cumulative_cases": (lambda v: TABLE.cumulative_cases(v), "t"),
    "cumulative_final_deaths": (lambda v: TABLE.cumulative_final_deaths(v), "t"),
    "deaths_by-d": (lambda v: TABLE.deaths_by(v, 10), "d"),
    "deaths_by-t": (lambda v: TABLE.deaths_by(2, v), "t"),
    "from_sparse-day": (
        lambda v: EpidemicTable.from_sparse([5] * 8, {v: {1: 2}}).deaths.tolist(), "day"
    ),
    "from_sparse-lag": (
        lambda v: EpidemicTable.from_sparse([5, 5], {0: {v: 2}}).deaths.tolist(), "lag"
    ),
    "model_for": (
        lambda v: DelaySchedule([point_mass(k) for k in range(8)]).model_for(v).cdf_table.tolist(),
        "day",
    ),
    "cfr_true": (lambda v: cfr_true(TABLE, RATES, v), "t"),
    "cfr_naive": (lambda v: cfr_naive(TABLE, v), "t"),
    "cfr_final": (lambda v: cfr_final(TABLE, v), "t"),
    "cfr_proposed": (lambda v: cfr_proposed(TABLE, SCHEDULE, v), "t"),
    "cfr_garske": (lambda v: cfr_garske(TABLE, MODEL, v), "t"),
    "cfr_garske_mod": (lambda v: cfr_garske_mod(TABLE, SCHEDULE, v), "t"),
    "p_hat_daily": (lambda v: p_hat_daily(TABLE, SCHEDULE, v).p.tolist(), "t"),
    "variance_cfr": (lambda v: variance_cfr(TABLE, RATES, SCHEDULE, v), "t"),
    "validate_assumptions": (lambda v: validate_assumptions(RATES, SCHEDULE, v), "t"),
    "estimate_series": (
        lambda v: estimate_series(TABLE, [12], lookback=v).cfr.tolist(), "lookback"
    ),
    "run_study": (
        lambda v: run_study(SCENARIO, "estimated", eval_days=[20], lookback=v).mean_cfr.tolist(),
        "lookback",
    ),
    "run_study-default-grid": (
        lambda v: run_study(SCENARIO, "estimated", lookback=v).days.tolist(), "lookback"
    ),
    "Empirical": (lambda v: Empirical([0.5, 1.0], n_obs=v).floor, "n_obs"),
    "point_mass": (lambda v: point_mass(v).cdf_table.tolist(), "lag"),
    "fit_empirical-t": (lambda v: fit_empirical(TABLE, v, lookback=0).cdf_table.tolist(), "t"),
    "fit_empirical-lookback": (
        lambda v: fit_empirical(TABLE, 12, lookback=v).cdf_table.tolist(), "lookback"
    ),
    "StepRates": (lambda v: StepRates(0.1, 0.05, v), "d_star"),
    "simulate_replicate": (
        lambda v: simulate_replicate(SCENARIO, v).deaths.tolist(), "replicate_index"
    ),
    "illustrative_daily_rates": (lambda v: illustrative_daily_rates(v).p.tolist(), "n_days"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_whole_number_arguments_are_read_alike(entry):
    """6.5, inf and 2**70 were truncated, returned a number or raised an
    IndexError, TypeError, UFuncTypeError or OverflowError from numpy,
    depending on the function; a sequence is no single number."""
    call, name = ENTRY_POINTS[entry]
    for bad in (6.5, np.inf, 2**70, np.uint64(2**63)):
        message = f"^{name} must be finite whole numbers, got {re.escape(str(float(bad)))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be a single number, not a tuple$"):
        call((6,))
    with pytest.raises(ValueError):
        call(-1)
    expected = call(6)
    for same in (6.0, np.int64(6), np.uint8(6)):
        assert call(same) == expected
