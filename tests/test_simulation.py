"""Scenario construction, replicate determinism, and study aggregation."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import os
import re
import subprocess
import sys
import textwrap
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cfrkit import (
    ESTIMATORS,
    MAX_CASES,
    MAX_DAY,
    DailyRates,
    DelaySchedule,
    EpidemicTable,
    EstimateSeries,
    EstimationError,
    LineList,
    NegBinomial,
    Scenario,
    StepRates,
    SurvivalModel,
    aggregate,
    build_curve,
    cfr_proposed,
    estimate_series,
    illustrative_daily_rates,
    load_example_arm,
    point_mass,
    run_study,
    simulate_replicate,
)
import cfrkit.estimators as est
import cfrkit.simulation as simulation


def small_scenario(**overrides) -> Scenario:
    params = dict(
        rising_arm=np.array([5, 10, 20, 40, 60]),
        symmetric=True,
        p_spec=StepRates(0.1, 0.05, 6),
        delay=NegBinomial(4.0, 1.0),
        horizon=40,
        seed=3,
        replicates=4,
    )
    params.update(overrides)
    return Scenario(**params)


# ---------------------------------------------------------------------------
# Scenario / build_curve


def test_build_curve_mirror():
    sc = small_scenario(
        rising_arm=np.array([1, 2, 3]), horizon=8, p_spec=StepRates(0.1, 0.05, 4)
    )
    assert build_curve(sc).tolist() == [1, 2, 3, 3, 2, 1, 0, 0, 0]


def test_build_curve_not_symmetric():
    sc = small_scenario(rising_arm=np.array([4, 7]), symmetric=False, horizon=4,
                        p_spec=StepRates(0.1, 0.05, 1))
    assert build_curve(sc).tolist() == [4, 7, 0, 0, 0]


def test_build_curve_conservation():
    sc = small_scenario()
    assert int(sc.curve.sum()) == 2 * int(sc.rising_arm.sum())


def test_symmetry_rule():
    arm = np.arange(1, 159)
    sc = small_scenario(rising_arm=arm, horizon=480, p_spec=StepRates(0.1, 0.05, 120))
    curve = sc.curve
    for d in range(158):
        assert curve[158 + d] == curve[157 - d]
    assert np.all(curve[316:] == 0)


def test_scenario_validation():
    with pytest.raises(ValueError, match="horizon"):
        small_scenario(horizon=5)
    with pytest.raises(ValueError, match="at least one case"):
        small_scenario(rising_arm=np.array([0, 0]))
    with pytest.raises(ValueError, match="non-negative"):
        small_scenario(rising_arm=np.array([3, -1]))
    # Counts must be whole numbers: a fractional one is refused, not truncated.
    with pytest.raises(ValueError, match=r"^rising_arm counts must be finite whole numbers, got 10\.9$"):
        small_scenario(rising_arm=[10.9, 20.5])
    whole = small_scenario(rising_arm=[5.0, 10.0], p_spec=StepRates(0.1, 0.05, 1))
    assert whole.rising_arm.tolist() == [5, 10]
    with pytest.raises(ValueError, match="support"):
        small_scenario(p_spec=StepRates(0.1, 0.05, 30))
    with pytest.raises(ValueError, match="replicates"):
        small_scenario(replicates=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        small_scenario(seed=-1)
    with pytest.raises(ValueError, match="cover days"):
        small_scenario(p_spec=DailyRates([0.1] * 10))
    # A per-day schedule short of the horizon is refused here too, not in
    # the first draw with a message that names replicate 0.
    with pytest.raises(ValueError, match=r"^schedule covers days 0\.\.39, got 40$"):
        small_scenario(delay=DelaySchedule([NegBinomial(4.0, 1.0)] * 40))
    # A delay of another type is refused by name, not in the first draw.
    for delay in ("nb", [NegBinomial(4.0, 1.0)] * 50, None):
        with pytest.raises(TypeError, match=r"^delay must be a SurvivalModel or a DelaySchedule$"):
            small_scenario(delay=delay)


def test_scenario_bounds_its_day_span_and_cases():
    """A horizon past MAX_DAY, or a curve past MAX_CASES, is refused before
    the curve is built. The cases are summed exactly: these five counts
    wrap to 1 as an int64 sum."""
    with pytest.raises(ValueError, match=f"horizon {MAX_DAY + 1} is past the last day {MAX_DAY}"):
        small_scenario(horizon=MAX_DAY + 1)
    step = StepRates(0.1, 0.05, 1)
    small_scenario(rising_arm=np.array([MAX_CASES // 2]), p_spec=step)  # mirrored: MAX_CASES
    for arm in ([MAX_CASES // 2 + 1], [1 << 62] * 4 + [1]):
        with pytest.raises(ValueError, match=f"at least one case and at most {MAX_CASES}"):
            small_scenario(rising_arm=np.array(arm), p_spec=step)


def test_step_rates_validation():
    with pytest.raises(ValueError, match="c1"):
        StepRates(0.0, 0.05, 10)
    with pytest.raises(ValueError, match="c2"):
        StepRates(0.1, 1.0, 10)
    with pytest.raises(ValueError, match="d_star"):
        StepRates(0.1, 0.05, -1)


@pytest.mark.parametrize("name", ["replicates", "seed", "horizon"])
def test_scenario_counts_must_be_whole_numbers(name):
    """A fractional count was accepted, and then failed in run_study or
    build_curve with a TypeError; a whole float is kept as an int."""
    with pytest.raises(ValueError, match=rf"^{name} must be finite whole numbers, got 40\.5$"):
        small_scenario(**{name: 40.5})
    scenario = small_scenario(**{name: np.float64(40.0)})
    assert type(getattr(scenario, name)) is int and getattr(scenario, name) == 40


def test_scenario_keeps_a_seed_past_2_63():
    assert small_scenario(seed=1 << 70).seed == 1 << 70


def test_step_day_must_be_a_whole_number():
    """StepRates(0.1, 0.05, 5.5) put the step at day 6."""
    with pytest.raises(ValueError, match=r"^d_star must be finite whole numbers, got 5\.5$"):
        StepRates(0.1, 0.05, 5.5)
    assert type(StepRates(0.1, 0.05, np.int64(5)).d_star) is int


@pytest.mark.parametrize(
    "overrides, error, message",
    [
        (dict(rising_arm=np.array([], dtype=np.int64)), ValueError,
         "rising_arm must be a non-empty vector"),
        (dict(p_spec=0.1), TypeError, "p_spec must be DailyRates or StepRates"),
    ],
    ids=["empty-arm", "p-spec-type"],
)
def test_input_checks_raise_their_messages(overrides, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        small_scenario(**overrides)


def test_daily_rates_from_step():
    sc = small_scenario()
    p = sc.daily_rates.p
    assert np.all(p[:6] == 0.1)
    assert np.all(p[6:] == 0.05)
    assert len(sc.daily_rates) == sc.horizon + 1


def test_daily_rates_passthrough_sliced():
    rates = DailyRates(np.linspace(0.2, 0.1, 60))
    sc = small_scenario(p_spec=rates)
    assert len(sc.daily_rates) == 41
    assert sc.daily_rates.p == pytest.approx(rates.p[:41])


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(p_spec=DailyRates(np.linspace(0.2, 0.1, 60))),
        dict(delay=DelaySchedule([point_mass(0)] * 41)),
    ],
    ids=["step-rates", "daily-rates", "delay-schedule"],
)
def test_scenario_builds_its_derived_values_at_construction(overrides):
    """Drawing threads read these three values, so none is built on first use."""
    sc = small_scenario(**overrides)
    assert {"curve", "daily_rates", "schedule"} <= vars(sc).keys()
    assert [f.name for f in dataclasses.fields(sc)] == [
        "rising_arm", "symmetric", "p_spec", "delay", "horizon", "seed", "replicates",
    ]
    assert np.array_equal(sc.curve, build_curve(sc))
    if isinstance(sc.delay, DelaySchedule):
        assert sc.schedule is sc.delay
    else:
        assert sc.schedule.model_for(0) is sc.delay


# ---------------------------------------------------------------------------
# simulate_replicate


def test_replicate_deterministic_and_independent_of_order():
    sc = small_scenario()
    a1 = simulate_replicate(sc, 2)
    b = simulate_replicate(sc, 0)
    a2 = simulate_replicate(sc, 2)
    assert np.array_equal(a1.deaths, a2.deaths)
    assert np.array_equal(a1.cases, a2.cases)
    assert not np.array_equal(
        np.pad(b.deaths, ((0, 0), (0, max(0, a1.deaths.shape[1] - b.deaths.shape[1])))),
        np.pad(a1.deaths, ((0, 0), (0, max(0, b.deaths.shape[1] - a1.deaths.shape[1])))),
    )


def test_replicate_seed_changes_draws():
    sc1 = small_scenario(seed=3)
    sc2 = small_scenario(seed=4)
    t1 = simulate_replicate(sc1, 0)
    t2 = simulate_replicate(sc2, 0)
    assert t1.total_deaths != t2.total_deaths or not np.array_equal(
        t1.deaths[:, : min(t1.deaths.shape[1], t2.deaths.shape[1])],
        t2.deaths[:, : min(t1.deaths.shape[1], t2.deaths.shape[1])],
    )


def test_replicate_cases_equal_curve():
    sc = small_scenario()
    table = simulate_replicate(sc, 1)
    assert np.array_equal(table.cases, sc.curve)


def test_replicates_share_the_scenarios_read_only_curve():
    sc = small_scenario()
    assert not sc.curve.flags.writeable
    assert all(simulate_replicate(sc, i).cases is sc.curve for i in range(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: EpidemicTable([3, 2], [[1], [0]]),
        lambda: EpidemicTable.from_sparse([3, 2], {0: {1: 1}}),
        lambda: aggregate(LineList([0, 0, 1], [-1, 1, -1])),
        lambda: simulate_replicate(small_scenario(), 0),
    ],
    ids=["dense", "sparse", "line-list", "replicate"],
)
def test_table_builds_its_running_totals_at_construction(build):
    """A replicate's table is built on a drawing thread; the counter by
    cohort stays lazy, as ``fit-survival`` never reads it."""
    held = vars(build())
    assert {"_cum_cases", "_cum_totals"} <= held.keys()
    assert "_by_cohort" not in held


@pytest.mark.parametrize(
    "delay",
    [NegBinomial(4.0, 1.0), DelaySchedule([NegBinomial(4.0, 1.0)] * 41)],
    ids=["constant", "per-day"],
)
def test_replicate_reads_the_schedules_models_unchecked(monkeypatch, delay):
    """The Scenario checked that the schedule covers days 0..horizon."""
    sc = small_scenario(delay=delay)
    calls = []
    model_for = DelaySchedule.model_for
    monkeypatch.setattr(
        DelaySchedule, "model_for", lambda self, d: calls.append(d) or model_for(self, d)
    )
    simulate_replicate(sc, 0)
    assert calls == []


def test_per_day_schedule_of_one_model_draws_as_that_model():
    nb = NegBinomial(4.0, 1.0)
    constant, per_day = small_scenario(delay=nb), small_scenario(delay=DelaySchedule([nb] * 41))
    for index in range(3):
        a, b = simulate_replicate(constant, index), simulate_replicate(per_day, index)
        assert np.array_equal(a._day, b._day) and np.array_equal(a._lag, b._lag)


def test_replicate_death_total_near_mean():
    sc = small_scenario(rising_arm=np.full(50, 200), horizon=140,
                        p_spec=StepRates(0.1, 0.05, 50), replicates=1)
    expected = float((sc.curve * sc.daily_rates.p).sum())
    sd = float(np.sqrt((sc.curve * sc.daily_rates.p * (1 - sc.daily_rates.p)).sum()))
    totals = [simulate_replicate(sc, i).total_deaths for i in range(30)]
    # 6 sigma of the replicate-mean: generous against Monte Carlo wiggle.
    assert abs(np.mean(totals) - expected) < 6 * sd / np.sqrt(30)


def test_replicate_point_mass_lags():
    sc = small_scenario(delay=point_mass(2))
    table = simulate_replicate(sc, 0)
    assert table.deaths.shape[1] == 3
    assert table.deaths[:, :2].sum() == 0
    assert table.deaths[:, 2].sum() == table.total_deaths
    assert table.total_deaths > 0


def test_replicate_degenerate_p_one():
    # p = 1 - tiny with point-mass-at-0 delay: nearly every case dies at once.
    sc = small_scenario(
        p_spec=StepRates(0.999999, 0.999999, 0), delay=point_mass(0)
    )
    table = simulate_replicate(sc, 0)
    assert table.total_deaths >= int(0.99 * table.total_cases)
    assert np.array_equal(table.deaths[:, 0], table.final_deaths())


def test_replicate_per_day_schedule():
    models = [point_mass(0)] * 10 + [point_mass(3)] * 31
    sc = small_scenario(delay=DelaySchedule(models))
    table = simulate_replicate(sc, 0)
    early = table.deaths[:10]
    late = table.deaths[10:]
    assert early[:, 1:].sum() == 0
    assert late[:, :3].sum() == 0


def test_replicate_index_validation():
    with pytest.raises(ValueError):
        simulate_replicate(small_scenario(), -1)


# ---------------------------------------------------------------------------
# run_study


def test_run_study_aggregates_match_kept_series():
    sc = small_scenario(replicates=6)
    result = run_study(sc, "known", eval_days=[4, 9, 20], keep_series=True)
    assert len(result.replicates) == 6
    stacked = np.stack([rep.series.cfr for rep in result.replicates])
    assert result.mean_cfr == pytest.approx(stacked.mean(axis=0), rel=1e-12)
    expected_se = stacked.std(axis=0, ddof=1) / np.sqrt(6)
    assert result.se_cfr == pytest.approx(expected_se, rel=1e-9)
    hits = np.stack([rep.ci_hit for rep in result.replicates])
    assert result.coverage.coverage == pytest.approx(hits.mean(axis=0))
    lengths = np.stack([rep.ci_length for rep in result.replicates])
    assert result.coverage.mean_ci_length == pytest.approx(lengths.mean(axis=0))
    assert np.all(result.coverage.coverage_se >= 0)


def test_kept_cfr_true_matches_study_truth():
    """A study's truth is a running cumsum, and each kept series' cfr_true
    one pairwise sum per day, as estimate_series sums it: on the benchmark
    scenario they differ on 388 of its 466 days, by at most 6.9e-17. Both
    are written in 17 digits, so the outputs of simulate and of its
    --per-replicate-dir show it."""
    sc = Scenario(
        rising_arm=load_example_arm()[:158],
        symmetric=True,
        p_spec=StepRates(0.1, 0.05, 120),
        delay=NegBinomial(10.79, 0.88),
        horizon=465,
        seed=3,
        replicates=2,
    )
    result = run_study(sc, "known", keep_series=True)
    for rep in result.replicates:
        np.testing.assert_allclose(rep.series.cfr_true, result.cfr_true, rtol=1e-14, atol=0)


def test_run_study_known_matches_direct_estimates():
    sc = small_scenario(replicates=3)
    result = run_study(sc, "Known", eval_days=[8, 15], keep_series=True)
    table = simulate_replicate(sc, 0)
    assert result.replicates[0].series.cfr[0] == cfr_proposed(
        table, sc.schedule, 8
    )


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_run_study_names_failing_replicate():
    # Replicate 2 of seed 4 draws no deaths, so its empirical fit has no data.
    sc = Scenario(
        rising_arm=np.array([3]),
        symmetric=False,
        p_spec=StepRates(0.3, 0.3, 0),
        delay=point_mass(0),
        horizon=10,
        seed=4,
        replicates=4,
    )
    no_deaths = [simulate_replicate(sc, i).total_deaths == 0 for i in range(4)]
    assert no_deaths == [False, False, True, False]
    with pytest.raises(
        EstimationError,
        match="replicate 2 of scenario seed 4: insufficient resolved deaths",
    ):
        run_study(sc, "estimated", eval_days=[8], lookback=2)
    # The message is enough to reproduce the failure alone.
    with pytest.raises(EstimationError, match="insufficient resolved deaths"):
        estimate_series(simulate_replicate(sc, 2), [8], lookback=2)


def estimate_series_loop(sc, days, mode="known", lookback=45):
    """A study written as one estimate_series call per replicate, serially:
    the kept series, and the StudyResult arrays summed as run_study sums
    them."""
    truth = np.cumsum(sc.curve * sc.daily_rates.p)[days] / np.cumsum(sc.curve)[days]
    kwargs = dict(include_final=True, true_rates=sc.daily_rates, lookback=lookback)
    if mode == "known":
        kwargs.update(schedule=sc.schedule, rates=sc.daily_rates)
    sums = np.zeros((len(ESTIMATORS), len(days)))
    sumsq = np.zeros_like(sums)
    hit_sum = np.zeros(len(days))
    length_sum = np.zeros(len(days))
    kept = []
    for index in range(sc.replicates):
        series = estimate_series(simulate_replicate(sc, index), days, **kwargs)
        values = np.array([getattr(series, name) for name in ESTIMATORS])
        sums += values
        sumsq += values * values
        hit_sum += (series.ci_low <= truth) & (truth <= series.ci_high)
        length_sum += series.ci_high - series.ci_low
        kept.append(series)
    n = sc.replicates
    mean = sums / n
    se = np.sqrt(np.maximum(sumsq - n * mean * mean, 0.0) / (n - 1) / n)
    coverage = hit_sum / n
    arrays = {
        "days": days,
        "r_t": np.cumsum(sc.curve)[days],
        "cfr_true": truth,
        "coverage": coverage,
        "coverage_se": np.sqrt(coverage * (1.0 - coverage) / n),
        "mean_ci_length": length_sum / n,
    }
    for name, m, e in zip(ESTIMATORS, mean, se):
        arrays[f"mean_{name}"], arrays[f"se_{name}"] = m, e
    return kept, arrays


@pytest.mark.parametrize(
    "overrides,eval_days",
    [
        # The default grid runs from the first case to day 40, 30 days past
        # the curve's last case.
        ({}, None),
        ({"delay": DelaySchedule([NegBinomial(3.0 + d / 20, 1.0) for d in range(41)])}, None),
        ({}, [7]),
        # 151 days: three blocks, the last of them partly past the curve.
        ({"rising_arm": np.arange(5, 65, 3), "horizon": 150, "p_spec": StepRates(0.1, 0.05, 20)},
         None),
    ],
    ids=["constant", "per-day", "one-day", "three-blocks"],
)
def test_run_study_known_equals_estimate_series_loop(overrides, eval_days):
    """Terms built once per study give what one estimate_series call per
    replicate gives, bit for bit."""
    sc = small_scenario(replicates=5, **overrides)
    result = run_study(sc, "known", eval_days=eval_days, keep_series=True)
    kept, arrays = estimate_series_loop(sc, result.days)
    for got, want in zip([rep.series for rep in result.replicates], kept, strict=True):
        for name in EstimateSeries.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name, want in arrays.items():
        source = result.coverage if name in ("coverage", "coverage_se", "mean_ci_length") else result
        assert np.array_equal(getattr(source, name), want), name
    assert np.array_equal(result.coverage.days, result.days)
    assert np.array_equal(result.coverage.r_t, result.r_t)


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
@pytest.mark.parametrize(
    "delay",
    [NegBinomial(4.0, 1.0), DelaySchedule([NegBinomial(3.0 + d / 40, 1.0) for d in range(101)])],
    ids=["constant", "per-day"],
)
def test_run_study_estimated_equals_estimate_series_loop(delay):
    """Replicates drawn on the pool and taken in index order give what a
    serial loop over simulate_replicate gives, bit for bit."""
    sc = small_scenario(
        rising_arm=np.full(40, 80), horizon=100, p_spec=StepRates(0.1, 0.05, 40),
        delay=delay, replicates=5, seed=9,
    )
    result = run_study(sc, "estimated", lookback=20, keep_series=True)
    assert result.days.tolist() == list(range(40, 101))
    kept, arrays = estimate_series_loop(sc, result.days, mode="estimated", lookback=20)
    for got, want in zip([rep.series for rep in result.replicates], kept, strict=True):
        for name in EstimateSeries.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name, want in arrays.items():
        source = result.coverage if name in ("coverage", "coverage_se", "mean_ci_length") else result
        assert np.array_equal(getattr(source, name), want), name


@pytest.mark.parametrize(
    "eval_days,message",
    [
        # Day 0's cases have no delay mass by day 0.
        ([0, 5], "zero delay-weighted case total at day 0"),
        # Day 4's cases have no mass by day 5; earlier cohorts have all of it.
        ([5, 9],
         "assumption A1 violated: no delay CDF mass by day 5 for cases confirmed on day 4"),
    ],
    ids=["garske", "a1-cases"],
)
def test_run_study_known_deaths_free_error_keeps_its_message(eval_days, message):
    """A check that reads no deaths is raised by the first failing day, with
    the failing replicate named, as estimate_series raises it."""
    sc = small_scenario(delay=point_mass(2), seed=11)
    with pytest.raises(EstimationError) as raised:
        run_study(sc, "known", eval_days=eval_days)
    assert str(raised.value) == f"replicate 0 of scenario seed 11: {message}"
    with pytest.raises(EstimationError) as alone:
        estimate_series(
            simulate_replicate(sc, 0), eval_days, schedule=sc.schedule, rates=sc.daily_rates,
            include_final=True, true_rates=sc.daily_rates,
        )
    assert str(alone.value) == message


@pytest.mark.parametrize(
    "mode, kwargs, message",
    [
        ("estimated", dict(eval_days=[20], lookback=-1), "lookback must be non-negative"),
        # The default grid would start at day max(2 * lookback, 6) = 6.
        ("estimated", dict(lookback=-5), "lookback must be non-negative"),
        ("known", dict(alpha=1.5), "alpha must lie in (0, 1)"),
        ("estimated", dict(eval_days=[20], alpha=0.0), "alpha must lie in (0, 1)"),
    ],
    ids=["lookback", "lookback-default-grid", "alpha-known", "alpha-estimated"],
)
def test_run_study_bad_argument_fails_before_any_replicate(monkeypatch, mode, kwargs, message):
    """The study's arguments are checked while its deaths-free terms are
    built from the case curve, before any replicate is drawn, so their
    errors name no replicate."""
    drawn = []
    monkeypatch.setattr(simulation, "simulate_replicate", lambda scenario, index: drawn.append(index))
    with pytest.raises(ValueError) as raised:
        run_study(small_scenario(seed=7), mode, **kwargs)
    assert str(raised.value) == message
    assert drawn == []


@pytest.mark.parametrize(
    "days", [[10.7, 12.2], [np.inf], [2**70]], ids=["fraction", "inf", "past-int64"]
)
@pytest.mark.parametrize(
    "query, name",
    [
        (lambda sc, days: estimate_series(simulate_replicate(sc, 0), days, schedule=sc.schedule),
         "days"),
        (lambda sc, days: run_study(sc, "known", eval_days=days), "eval_days"),
        (lambda sc, days: simulate_replicate(sc, 0).observed_deaths(days[0]), "t"),
        (lambda sc, days: simulate_replicate(sc, 0).deaths_by(2, days[0]), "t"),
    ],
    ids=["estimate_series", "run_study", "observed_deaths", "deaths_by"],
)
def test_days_must_be_finite_whole_numbers(query, name, days):
    """A day that is no whole number is refused, not truncated."""
    message = f"^{name} must be finite whole numbers, got {re.escape(str(float(days[0])))}$"
    with pytest.raises(ValueError, match=message):
        query(small_scenario(), days)


def test_whole_float_days_are_kept():
    sc = small_scenario()
    table = simulate_replicate(sc, 0)
    series = estimate_series(table, [10.0, 12.0], schedule=sc.schedule)
    assert series.t.tolist() == [10, 12]
    assert run_study(sc, "known", eval_days=[10.0]).days.tolist() == [10]
    assert table.observed_deaths(12.0).tolist() == table.observed_deaths(12).tolist()
    assert table.deaths_by(2, 12.0) == table.deaths_by(2, 12)


@pytest.mark.parametrize("mode", ["known", "estimated"])
def test_run_study_refuses_an_evaluation_day_without_cases(monkeypatch, mode):
    """A requested day by which no case is confirmed is refused before any
    draw, as it would be skipped from every replicate's series."""
    drawn = []
    monkeypatch.setattr(simulation, "simulate_replicate", lambda scenario, index: drawn.append(index))
    sc = small_scenario(rising_arm=np.array([0, 10, 20, 40, 60]))
    with pytest.raises(ValueError, match="^every evaluation day needs at least one confirmed case$"):
        run_study(sc, mode, eval_days=[0, 3])
    assert drawn == []


@pytest.mark.parametrize(
    "mode, lookback, builds",
    [
        ("known", 45, 1),
        pytest.param(
            "estimated", 10, 6, marks=pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
        ),
    ],
    ids=["known", "estimated"],
)
def test_run_study_known_builds_deaths_free_terms_once(monkeypatch, mode, lookback, builds):
    """The Garske denominators and the variance terms read no deaths in
    known mode, so a study builds them once per block, not per replicate.
    In estimated mode F and the rates read deaths, so each of the six
    replicates builds them in every block."""
    calls = {"_garske_denominators": 0, "_variance_terms": 0}
    for name in calls:
        original = getattr(est, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(est, name, counting)
    sc = small_scenario(
        rising_arm=np.arange(5, 65, 3), horizon=150, p_spec=StepRates(0.1, 0.05, 20),
        replicates=6,
    )
    result = run_study(sc, mode, lookback=lookback)
    blocks = -(-result.days.size // est._BLOCK)
    assert blocks == 3
    assert calls == {"_garske_denominators": blocks * builds, "_variance_terms": blocks * builds}


# ---------------------------------------------------------------------------
# The drawing pool: run_study draws replicates on at most two threads


class _FailingDraws(SurvivalModel):
    """A delay model whose draws fail."""

    def cdf(self, k):
        return NegBinomial(4.0, 1.0).cdf(k)

    def sample(self, n, rng):
        raise ValueError("boom")


def run_fresh_python(script: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports cfrkit from this
    checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True,
        text=True, timeout=timeout, check=False,
    )


def test_run_study_draw_error_names_replicate_and_pool_recovers():
    sc = small_scenario(delay=_FailingDraws(), seed=4, replicates=6)
    with pytest.raises(ValueError, match=r"^replicate 0 of scenario seed 4: boom$"):
        run_study(sc, "known")
    good = small_scenario(seed=4, replicates=6)
    result = run_study(good, "known")
    assert np.array_equal(result.mean_cfr, estimate_series_loop(good, result.days)[1]["mean_cfr"])


def test_run_study_keeps_one_drawing_pool():
    run_study(small_scenario(replicates=3), "known", eval_days=[20])
    pool = simulation._pool
    for seed in range(20):
        run_study(small_scenario(seed=seed, replicates=3), "known", eval_days=[20])
    assert simulation._pool is pool
    assert threading.active_count() <= 1 + min(2, os.cpu_count() or 1)


def test_import_and_estimate_series_start_no_thread():
    done = run_fresh_python(
        """
        import threading
        import numpy as np
        import cfrkit
        sc = cfrkit.Scenario(
            rising_arm=np.array([5, 10, 20, 40, 60]), symmetric=True,
            p_spec=cfrkit.StepRates(0.1, 0.05, 6), delay=cfrkit.NegBinomial(4.0, 1.0),
            horizon=40, seed=3,
        )
        cfrkit.estimate_series(
            cfrkit.simulate_replicate(sc, 0), [10, 20], schedule=sc.schedule, rates=sc.daily_rates
        )
        print(threading.active_count())
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_study_in_forked_child():
    """A child forked after a study has none of the pool's threads; its own
    study must build a new pool rather than wait on the parent's."""
    done = run_fresh_python(
        """
        import os, signal, sys, time, traceback, warnings
        import numpy as np
        import cfrkit
        sc = cfrkit.Scenario(
            rising_arm=np.array([5, 10, 20, 40, 60]), symmetric=True,
            p_spec=cfrkit.StepRates(0.1, 0.05, 6), delay=cfrkit.NegBinomial(4.0, 1.0),
            horizon=40, seed=3, replicates=6,
        )
        before = cfrkit.run_study(sc, "known").mean_cfr
        with warnings.catch_warnings():
            # Newer Pythons warn when a process with threads forks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if np.array_equal(cfrkit.run_study(sc, "known").mean_cfr, before) else 3)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                sys.exit(os.waitstatus_to_exitcode(status))
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child's study did not finish in 30 s")
        """
    )
    assert done.returncode == 0, done.stderr


def test_concurrent_first_studies_share_one_pool(monkeypatch):
    """Callers on more threads than cores, switching often, start one pool
    between them, and each gets the serial loop's arrays."""
    made = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(simulation, "_pool", None)
    sc = small_scenario(replicates=6)
    results = [None] * 4

    def call(i):
        results[i] = run_study(sc, "known")

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(made) == 1
    arrays = estimate_series_loop(sc, results[0].days)[1]
    for result in results:
        for name in ("mean_cfr", "se_cfr", "mean_cfr_final"):
            assert np.array_equal(getattr(result, name), arrays[name]), name


def test_run_study_true_rate_column():
    sc = small_scenario(replicates=2)
    result = run_study(sc, "known", eval_days=[6, 20])
    curve, p = sc.curve, sc.daily_rates.p
    for i, t in enumerate((6, 20)):
        expected = float((curve[: t + 1] * p[: t + 1]).sum() / curve[: t + 1].sum())
        assert result.cfr_true[i] == pytest.approx(expected, rel=1e-12)


def test_run_study_mode_validation_and_grids():
    sc = small_scenario(replicates=2)
    with pytest.raises(ValueError, match="mode"):
        run_study(sc, "bogus")
    with pytest.raises(ValueError, match="within 0..horizon"):
        run_study(sc, "known", eval_days=[99])
    with pytest.raises(ValueError, match="non-empty"):
        run_study(sc, "known", eval_days=[])
    result = run_study(sc, "known")
    assert result.days.tolist() == list(range(0, 41))


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_run_study_estimated_default_grid_starts_at_day_6():
    """The window rate estimator needs t >= 6, so a lookback below 3 does
    not move the default grid before day 6."""
    assert run_study(small_scenario(replicates=1), "estimated", lookback=1).days[0] == 6


def test_run_study_estimated_mode_smoke():
    import warnings as _warnings

    sc = small_scenario(
        rising_arm=np.full(40, 80),
        horizon=100,
        p_spec=StepRates(0.1, 0.05, 40),
        replicates=3,
        seed=9,
    )
    with _warnings.catch_warnings():
        # Sparse late windows can push p-hat to 0; the warning is expected.
        _warnings.simplefilter("ignore")
        result = run_study(sc, "estimated", eval_days=[60, 90], lookback=20)
    assert result.days.tolist() == [60, 90]
    assert np.all(result.mean_cfr > 0)
    assert np.all(result.coverage.coverage <= 1.0)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        default_grid = run_study(sc, "Estimated", lookback=20)
    assert default_grid.days[0] == 40


def test_run_study_final_mean_tracks_truth():
    # Hindsight estimator at the final day: replicate mean within 3 SE.
    sc = small_scenario(
        rising_arm=np.full(30, 150), horizon=90,
        p_spec=StepRates(0.1, 0.05, 30), replicates=60, seed=23,
    )
    result = run_study(sc, "known", eval_days=[90])
    gap = abs(float(result.mean_cfr_final[0]) - float(result.cfr_true[0]))
    assert gap <= 3 * float(result.se_cfr_final[0])


def test_run_study_end_agreement():
    # Past the epidemic, all estimator means sit together.
    sc = small_scenario(
        rising_arm=np.full(20, 100), horizon=120,
        p_spec=StepRates(0.1, 0.05, 20), delay=NegBinomial(4.0, 1.0),
        replicates=40, seed=31,
    )
    result = run_study(sc, "known", eval_days=[120])
    means = [
        float(result.mean_cfr[0]),
        float(result.mean_cfr_naive[0]),
        float(result.mean_cfr_garske[0]),
        float(result.mean_cfr_garske_mod[0]),
        float(result.mean_cfr_final[0]),
    ]
    spread = max(means) - min(means)
    assert spread <= 3 * float(result.se_cfr[0]) + 1e-4


def test_p_hat_window_tracks_generating_step():
    # Window estimates at days flanking the step recover c1 and c2.
    sc = small_scenario(
        rising_arm=np.full(80, 120), horizon=200,
        p_spec=StepRates(0.1, 0.05, 80), replicates=40, seed=47,
    )
    from cfrkit import p_hat_daily

    values_before, values_after = [], []
    for i in range(sc.replicates):
        table = simulate_replicate(sc, i)
        rates = p_hat_daily(table, sc.schedule, 190)
        values_before.append(rates.p[50])
        values_after.append(rates.p[110])
    for values, target in ((values_before, 0.1), (values_after, 0.05)):
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(len(values)))
        assert abs(mean - target) <= 3 * se


# ---------------------------------------------------------------------------
# bundled data helpers


def test_load_example_arm_matches_file():
    arm = load_example_arm()
    assert arm.size == 301
    assert arm.min() >= 0 and arm[0] >= 1
    path = resources.files("cfrkit.data").joinpath("example_daily_cases.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["cases"]) for r in rows] == arm.tolist()
    # Large epidemic: over a million cumulative cases.
    assert arm.sum() > 1_000_000


def test_illustrative_daily_rates_shape():
    rates = illustrative_daily_rates(301)
    assert len(rates) == 301
    assert np.all(rates.p > 0.0) and np.all(rates.p < 1.0)
    assert np.all(np.diff(rates.p) < 0.0)
    with pytest.raises(ValueError):
        illustrative_daily_rates(0)
