"""Scenario construction, replicate determinism, and study aggregation."""

from __future__ import annotations

import csv
from importlib import resources

import numpy as np
import pytest

from cfrkit import (
    DailyRates,
    DelaySchedule,
    EstimationError,
    NegBinomial,
    Scenario,
    StepRates,
    build_curve,
    cfr_proposed,
    estimate_series,
    illustrative_daily_rates,
    load_example_arm,
    point_mass,
    run_study,
    simulate_replicate,
)


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
    with pytest.raises(ValueError, match="support"):
        small_scenario(p_spec=StepRates(0.1, 0.05, 30))
    with pytest.raises(ValueError, match="replicates"):
        small_scenario(replicates=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        small_scenario(seed=-1)
    with pytest.raises(ValueError, match="cover days"):
        small_scenario(p_spec=DailyRates([0.1] * 10))


def test_step_rates_validation():
    with pytest.raises(ValueError, match="c1"):
        StepRates(0.0, 0.05, 10)
    with pytest.raises(ValueError, match="c2"):
        StepRates(0.1, 1.0, 10)
    with pytest.raises(ValueError, match="d_star"):
        StepRates(0.1, 0.05, -1)


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
