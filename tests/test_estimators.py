"""Estimator values against hand computations and brute-force loop oracles."""

from __future__ import annotations

import gc
import math
import re
import statistics
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from cfrkit import estimators as est
from cfrkit import (
    MAX_DAY,
    AssumptionWarning,
    DailyRates,
    DelaySchedule,
    Empirical,
    EpidemicTable,
    EstimationError,
    NegBinomial,
    SurvivalModel,
    Zinb,
    cfr_final,
    cfr_garske,
    cfr_garske_mod,
    cfr_naive,
    cfr_proposed,
    cfr_true,
    confidence_interval,
    estimate_series,
    fit_empirical,
    normal_quantile,
    p_hat_daily,
    point_mass,
    validate_assumptions,
    variance_cfr,
)
from conftest import random_table


def two_point(q: float, lag: int) -> Empirical:
    """CDF with mass q at lag 0 and the rest at ``lag``."""
    table = np.full(lag + 1, q)
    table[-1] = 1.0
    return Empirical(table)


# ---------------------------------------------------------------------------
# normal_quantile


def test_normal_quantile_against_scipy():
    grid = np.concatenate(
        [np.array([1e-12, 1e-9, 1e-4, 0.02425]), np.linspace(0.001, 0.999, 97)]
    )
    for q in grid:
        assert normal_quantile(float(q)) == pytest.approx(
            float(stats.norm.ppf(q)), abs=1e-9
        )


def test_normal_quantile_key_values():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)


def normal_quantile_reference(q: float) -> float:
    """The three-branch form (lower tail, centre, upper tail) the shared-tail
    implementation must reproduce bit for bit."""
    a, b, c, d = est._NQ_A, est._NQ_B, est._NQ_C, est._NQ_D
    if q < est._NQ_SPLIT:
        u = math.sqrt(-2.0 * math.log(q))
        x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    elif q <= 1.0 - est._NQ_SPLIT:
        u = q - 0.5
        v = u * u
        x = (
            (((((a[0] * v + a[1]) * v + a[2]) * v + a[3]) * v + a[4]) * v + a[5])
            * u
            / (((((b[0] * v + b[1]) * v + b[2]) * v + b[3]) * v + b[4]) * v + 1.0)
        )
    else:
        # Polished as the lower tail at 1 - q, which is exact, then mirrored.
        p = 1.0 - q
        u = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
        e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
        return -(x - u / (1.0 + x * u / 2.0))
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def test_normal_quantile_is_accurate_in_both_tails():
    """Within 1e-12 of the standard library's inverse CDF down to tail
    masses of 1e-15. The upper tail's polish once lost digits to the
    cancellation in its CDF error near 1: 8e-9 at q = 1 - 3e-14."""
    exact = statistics.NormalDist().inv_cdf
    masses = [1e-15, 3e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 5e-4, 1e-3, 0.01, 0.02, 0.024]
    for mass in masses:
        for q in (mass, 1.0 - mass):
            assert normal_quantile(q) == pytest.approx(exact(q), abs=1e-12), q
    for q in np.linspace(0.97, 1.0 - 1e-15, 2001).tolist():
        assert normal_quantile(q) == pytest.approx(exact(q), abs=1e-12), q


def test_normal_quantile_matches_three_branch_reference():
    rng = np.random.default_rng(20)
    tails = 10.0 ** -rng.uniform(1.0, 300.0, 100_000)
    near = []
    for point in (est._NQ_SPLIT, 1.0 - est._NQ_SPLIT, 0.5):
        for direction in (0.0, 1.0):
            q = point
            for _ in range(500):
                near.append(q)
                q = float(np.nextafter(q, direction))
    alphas = np.array([0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001, 1e-4, 1e-6])
    grid = np.concatenate(
        [
            rng.random(400_000),
            tails,
            1.0 - tails[tails > 1e-16],
            near,
            alphas / 2.0,
            1.0 - alphas / 2.0,
        ]
    )
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    assert grid.size >= 500_000
    for q in grid.tolist():
        assert normal_quantile(q) == normal_quantile_reference(q), q


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


# ---------------------------------------------------------------------------
# DelaySchedule CDF table


def fitted_clamped_empirical() -> Empirical:
    """Fitted table with no lag-0 deaths, so its clamp floor is positive."""
    table = EpidemicTable.from_sparse([10] * 10, {d: {2: 1, 5: 1} for d in range(5)})
    model = fit_empirical(table, 9, lookback=3)
    assert model.cdf(0) == 0.0 and model.floor > 0.0
    return model


def assert_table_matches_scalar_cdf(schedule, n_days, models_for_day):
    """The raw F and floors that the kernel reads for each single day t are
    each cohort's own model's ``cdf(t - d)`` and ``floor``."""
    table = EpidemicTable.from_sparse([1] * n_days, {})
    # Ascending t grows the table past its first extent, past n_days - 1 too.
    for t in range(n_days + 40):
        c = est._cohorts(table, np.array([t]))
        raw, floor = schedule._fit(table, c)[:2]
        models = [models_for_day(d) for d in range(int(c.n[0]))]
        assert raw[0].tolist() == [model.cdf(t - d) for d, model in enumerate(models)]
        floors = np.broadcast_to(floor, raw.shape[1:]).tolist()
        assert floors == [model.floor for model in models]


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: NegBinomial(10.79, 0.88),
        lambda: Zinb(0.2, 4.0, 1.5),
        lambda: point_mass(3),
        fitted_clamped_empirical,
    ],
    ids=["nb", "zinb", "point_mass", "fitted_empirical"],
)
def test_constant_schedule_table_is_scalar_cdf(make_model):
    model = make_model()
    assert_table_matches_scalar_cdf(DelaySchedule(model), 12, lambda d: model)


def test_per_day_schedule_table_is_scalar_cdf():
    models = [
        NegBinomial(3.0, 2.0),
        Zinb(0.1, 6.0, 0.9),
        point_mass(2),
        fitted_clamped_empirical(),
        two_point(0.4, 7),
    ]
    schedule = DelaySchedule(models)
    assert_table_matches_scalar_cdf(schedule, len(models), lambda d: models[d])
    assert [schedule.model_for(d) for d in range(5)] == models
    rates = DailyRates(np.full(6, 0.1))
    for past_end in (
        lambda: schedule.model_for(5),
        lambda: validate_assumptions(rates, schedule, 5),
    ):
        with pytest.raises(ValueError, match=r"schedule covers days 0\.\.4, got 5"):
            past_end()
    constant = DelaySchedule(models[0])
    assert constant.model_for(10**6) is models[0]


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_schedule_refuses_a_day_past_max_day():
    """A known schedule's table would grow to the evaluation day: at 10**9
    that asked for 7.45 GiB. A day past MAX_DAY is refused before it grows;
    estimated mode tabulates nothing and still evaluates such a day."""
    table = EpidemicTable.from_sparse([5] * 60, {d: {1: 1, 3: 1} for d in range(50)})
    schedule = DelaySchedule(NegBinomial(10.0, 1.0))
    rates = DailyRates(np.full(60, 0.1))
    assert cfr_proposed(table, schedule, MAX_DAY) == pytest.approx(100 / 300)
    # MAX_DAY + 1 first: without the check it is cheap, where 10**9 is not.
    for day in (MAX_DAY + 1, 10**9):
        message = rf"^day {day} is past the last day {MAX_DAY}$"
        with pytest.raises(ValueError, match=message):
            estimate_series(table, [day], schedule=schedule, rates=rates)
        with pytest.raises(ValueError, match=message):
            cfr_proposed(table, schedule, day)
    assert schedule._table.shape[1] <= 2 * (MAX_DAY + 1)
    series = estimate_series(table, [MAX_DAY + 1], lookback=10)
    assert series.cfr.tolist() == [pytest.approx(100 / 300)]


class ConstantCdf(SurvivalModel):
    """A model whose CDF is ``value`` at every lag, under ``floor``."""

    def __init__(self, value: float, floor: float = 0.0):
        self.value, self.floor = value, floor

    def cdf(self, k):
        return np.full(np.shape(k), self.value)


@pytest.mark.parametrize(
    "models, message",
    [
        (ConstantCdf(np.nan), "cdf values must lie in [0, 1], got nan"),
        (ConstantCdf(2.0), "cdf values must lie in [0, 1], got 2.0"),
        ([NegBinomial(3.0, 2.0), ConstantCdf(-0.5)], "cdf values must lie in [0, 1], got -0.5"),
        (ConstantCdf(0.5, floor=np.nan), "floor values must lie in [0, 1], got nan"),
        ([point_mass(0), ConstantCdf(0.5, floor=1.5)], "floor values must lie in [0, 1], got 1.5"),
    ],
    ids=["cdf-nan", "cdf-past-1", "per-day-cdf-negative", "floor-nan", "per-day-floor-past-1"],
)
def test_schedule_refuses_f_outside_the_unit_interval(models, message):
    """Unchecked, a NaN F read as 1 gave the naive ratio, 0.1 here, and an
    F of 2.0 gave 0.05; neither raised."""
    table = EpidemicTable.from_sparse([10, 10], {0: {0: 2}})
    with pytest.raises(ValueError, match=f"^delay model {re.escape(message)}$"):
        cfr_proposed(table, DelaySchedule(models), 1)


@pytest.mark.parametrize(
    "model",
    [NegBinomial(1e-3, 1e-3), NegBinomial(1e3, 1e3), NegBinomial(1e3, 1e-3),
     Zinb(1.0 - 1e-6, 1e-3, 1e3), Zinb(1.0 - 1e-6, 1e3, 1e-3), Zinb(0.2, 4.0, 1.5)],
    ids=["nb-low", "nb-high", "nb-high-mu", "zinb-low", "zinb-high", "zinb"],
)
def test_builtin_models_pass_the_unit_interval_check(model):
    """The parameter box's corners, tabulated to the last day."""
    schedule = DelaySchedule(model)
    schedule.tabulate(MAX_DAY)
    assert 0.0 <= schedule._table.min() and schedule._table.max() <= 1.0


def test_series_tabulates_cdf_once(monkeypatch):
    calls = []
    original = NegBinomial.cdf

    def counting_cdf(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(NegBinomial, "cdf", counting_cdf)
    table = random_table(np.random.default_rng(5), n_days=200, max_cases=30)
    schedule = DelaySchedule(NegBinomial(4.0, 1.5))
    series = estimate_series(
        table, range(200), schedule=schedule, rates=DailyRates(np.full(200, 0.1))
    )
    assert len(series) == 200
    assert len(calls) == 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DelaySchedule([]), ValueError, "per-day schedule needs at least one model"),
        (lambda: DelaySchedule([object()]), TypeError,
         "schedule entries must be SurvivalModel instances"),
        (lambda: DelaySchedule(point_mass(0)).model_for(-1), ValueError, "day must be non-negative"),
        (lambda: DailyRates([]), ValueError, "p must be a non-empty vector"),
        (lambda: DailyRates([0.1, np.nan]), ValueError, "p must be finite"),
        (lambda: DailyRates([0.1, 1.5]), ValueError, r"p values must lie in \[0, 1\]"),
        (lambda: cfr_naive(EpidemicTable([1], [[0]]), -1), ValueError, "t must be non-negative"),
        (lambda: validate_assumptions(DailyRates([0.1]), DelaySchedule(point_mass(0)), -1),
         ValueError, "t must be non-negative"),
    ],
    ids=["empty-schedule", "schedule-entry", "model-for-negative-day", "empty-rates",
         "rates-not-finite", "rates-past-1", "cfr-naive-negative-t", "validate-negative-t"],
)
def test_input_checks_raise_their_messages(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# Point estimators: hand examples


def test_cfr_naive_and_final_hand():
    table = EpidemicTable.from_sparse([10, 10], {0: {0: 1, 3: 1}, 1: {1: 1}})
    assert cfr_naive(table, 0) == pytest.approx(0.1)
    assert cfr_naive(table, 1) == pytest.approx(0.05)
    assert cfr_naive(table, 2) == pytest.approx(0.1)
    assert cfr_naive(table, 10) == pytest.approx(0.15)
    assert cfr_final(table, 0) == pytest.approx(0.2)
    assert cfr_final(table, 1) == pytest.approx(0.15)


def test_cfr_true_hand():
    table = EpidemicTable.from_sparse([10, 30], {})
    rates = DailyRates([0.1, 0.05])
    assert cfr_true(table, rates, 0) == pytest.approx(0.1)
    assert cfr_true(table, rates, 1) == pytest.approx((1.0 + 1.5) / 40)
    assert cfr_true(table, rates, 9) == pytest.approx((1.0 + 1.5) / 40)


def test_cfr_proposed_hand():
    # One day, 10 cases, 2 deaths observed at t=0; F(0) = 0.4.
    table = EpidemicTable.from_sparse([10], {0: {0: 2}})
    schedule = DelaySchedule(two_point(0.4, 2))
    assert cfr_proposed(table, schedule, 0) == pytest.approx(2 / 0.4 / 10)
    # By t=2 the second support point has passed: F(2) = 1.
    assert cfr_proposed(table, schedule, 2) == pytest.approx(0.2)


def test_table_with_no_days():
    """A table with no days has no cases by any day: the single-day
    estimators raise, and a series skips every day, in either mode."""
    table = EpidemicTable.from_sparse([], {})
    for op in (
        lambda: cfr_naive(table, 3),
        lambda: cfr_final(table, 3),
        lambda: cfr_proposed(table, DelaySchedule(point_mass(0)), 3),
    ):
        with pytest.raises(EstimationError, match=r"^no cases confirmed by day 3$"):
            op()
    known = dict(schedule=DelaySchedule(point_mass(0)), rates=DailyRates([0.1]))
    for kwargs in (known, {}):
        series = estimate_series(table, [0, 3, 50], include_final=True, **kwargs)
        assert len(series) == 0
        assert series.t.dtype == series.r_t.dtype == np.int64
        assert series.cfr.size == series.cfr_final.size == series.ci_low.size == 0


def test_no_cases_errors():
    table = EpidemicTable.from_sparse([0, 4], {})
    for op in (
        lambda: cfr_naive(table, 0),
        lambda: cfr_proposed(table, DelaySchedule(point_mass(0)), 0),
        lambda: cfr_final(table, 0),
        lambda: cfr_true(table, DailyRates([0.1, 0.1]), 0),
    ):
        with pytest.raises(EstimationError, match="no cases"):
            op()


def test_proposed_a1_violation():
    # A death at t - d below the first support point: F = 0 with deaths > 0.
    table = EpidemicTable.from_sparse([10], {0: {0: 1}})
    schedule = DelaySchedule(two_point(0.0, 2))
    with pytest.raises(EstimationError, match="assumption A1"):
        cfr_proposed(table, schedule, 0)


def test_proposed_zero_deaths_need_no_mass():
    # Zero numerator keeps the term 0 even where F = 0.
    table = EpidemicTable.from_sparse([10, 7], {0: {2: 1}})
    schedule = DelaySchedule(two_point(0.0, 2))
    assert cfr_proposed(table, schedule, 2) == pytest.approx((1 / 1.0) / 17)


def test_proposed_brute_force_oracle():
    # Direct per-day loop over deaths_by calls, including t beyond the table.
    rng = np.random.default_rng(83)
    for _ in range(50):
        table = random_table(rng)
        models = [
            two_point(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 5)))
            for _ in range(table.n_days)
        ]
        schedule = DelaySchedule(models)
        for t in range(table.n_days + 6):
            expected = 0.0
            for d in range(min(t, table.n_days - 1) + 1):
                dead = table.deaths_by(d, t)
                if dead:
                    expected += dead / models[d].cdf(t - d)
            expected /= table.cumulative_cases(min(t, table.n_days - 1))
            assert cfr_proposed(table, schedule, t) == pytest.approx(
                expected, rel=1e-12
            )


def test_garske_hand_and_oracle():
    table = EpidemicTable.from_sparse([10, 20], {0: {0: 1}, 1: {0: 2}})
    model = two_point(0.5, 3)
    # t=1: M=3, denom = 10*F(1) + 20*F(0) = 10*0.5 + 20*0.5.
    assert cfr_garske(table, model, 1) == pytest.approx(3 / 15)
    rng = np.random.default_rng(99)
    for _ in range(30):
        t2 = random_table(rng)
        m2 = two_point(float(rng.uniform(0.2, 1.0)), int(rng.integers(1, 4)))
        for t in range(t2.n_days + 4):
            upto = min(t, t2.n_days - 1)
            denom = sum(int(t2.cases[d]) * m2.cdf(t - d) for d in range(upto + 1))
            numer = sum(t2.deaths_by(d, t) for d in range(upto + 1))
            if denom <= 0:
                continue
            assert cfr_garske(t2, m2, t) == pytest.approx(numer / denom, rel=1e-12)
            assert cfr_garske_mod(t2, DelaySchedule(m2), t) == pytest.approx(
                numer / denom, rel=1e-12
            )


def test_garske_zero_denominator():
    table = EpidemicTable.from_sparse([5], {})
    with pytest.raises(EstimationError, match="zero delay-weighted"):
        cfr_garske(table, two_point(0.0, 3), 1)


def test_garske_mod_per_day_oracle():
    table = EpidemicTable.from_sparse([8, 8, 8], {0: {1: 2}, 2: {0: 1}})
    models = [two_point(0.25, 2), two_point(0.5, 2), two_point(0.75, 2)]
    schedule = DelaySchedule(models)
    t = 2
    denom = 8 * models[0].cdf(2) + 8 * models[1].cdf(1) + 8 * models[2].cdf(0)
    assert cfr_garske_mod(table, schedule, t) == pytest.approx(3 / denom, rel=1e-12)


# ---------------------------------------------------------------------------
# Reduction and coincidence identities


def test_reduction_identity_f_equal_one():
    rng = np.random.default_rng(17)
    model = point_mass(0)
    schedule = DelaySchedule(model)
    for _ in range(25):
        table = random_table(rng)
        for t in range(table.n_days + 3):
            naive = cfr_naive(table, t)
            assert cfr_proposed(table, schedule, t) == naive
            assert cfr_garske(table, model, t) == naive
            assert cfr_garske_mod(table, schedule, t) == naive


def test_single_day_coincidence():
    table = EpidemicTable.from_sparse([20], {0: {0: 3}})
    schedule = DelaySchedule(two_point(0.3, 4))
    for t in range(5):
        assert cfr_proposed(table, schedule, t) == pytest.approx(
            cfr_garske_mod(table, schedule, t), rel=1e-12
        )


def test_flat_f_coincidence():
    # F_d(t - d) identical across d: numerator and denominator scaling agree.
    flat = Empirical([0.3, 0.3, 0.3, 1.0])
    table = EpidemicTable.from_sparse([5, 9, 4], {0: {1: 1}, 1: {0: 2}, 2: {0: 1}})
    schedule = DelaySchedule(flat)
    t = 2
    assert cfr_proposed(table, schedule, t) == pytest.approx(
        cfr_garske_mod(table, schedule, t), rel=1e-12
    )


def test_monotone_death_response():
    # Adding one death (within existing cases) never lowers the estimators.
    rng = np.random.default_rng(29)
    model = two_point(0.35, 3)
    schedule = DelaySchedule(model)
    for _ in range(40):
        table = random_table(rng)
        room = table.cases - table.deaths.sum(axis=1)
        candidates = np.nonzero(room > 0)[0]
        if candidates.size == 0:
            continue
        d = int(rng.choice(candidates))
        k = int(rng.integers(0, table.max_lag + 1))
        bumped_deaths = table.deaths.copy()
        bumped_deaths[d, k] += 1
        bumped = EpidemicTable(table.cases, bumped_deaths)
        for t in range(table.n_days + 5):
            assert cfr_proposed(bumped, schedule, t) >= cfr_proposed(
                table, schedule, t
            ) - 1e-15
            assert cfr_naive(bumped, t) >= cfr_naive(table, t) - 1e-15
            assert cfr_garske(bumped, model, t) >= cfr_garske(table, model, t) - 1e-15


def test_end_of_epidemic_convergence():
    # Past the last possible death, every estimator equals the final rate.
    rng = np.random.default_rng(55)
    model = two_point(0.4, 3)
    schedule = DelaySchedule(model)
    for _ in range(20):
        table = random_table(rng)
        t_end = table.n_days - 1 + max(table.max_lag, 3)
        final = cfr_final(table, t_end)
        assert cfr_naive(table, t_end) == pytest.approx(final, rel=1e-12)
        assert cfr_proposed(table, schedule, t_end) == pytest.approx(final, rel=1e-12)
        assert cfr_garske(table, model, t_end) == pytest.approx(final, rel=1e-12)
        assert cfr_garske_mod(table, schedule, t_end) == pytest.approx(
            final, rel=1e-12
        )


# ---------------------------------------------------------------------------
# p_hat_daily


def brute_p_hat(table, models, t):
    """Window estimator computed with plain loops; returns (p, fallback)."""
    upto = min(t, table.n_days - 1)

    def weight(d):
        dead = table.deaths_by(d, t)
        return dead / models[d].cdf(t - d) if dead else 0.0

    interior = {}
    computable = []
    for d_star in range(3, t - 2):
        num = den = 0.0
        for d in range(max(0, d_star - 3), min(d_star + 3, upto) + 1):
            num += weight(d)
            den += int(table.cases[d])
        if den > 0:
            interior[d_star] = min(max(num / den, 0.0), 1.0)
            computable.append(d_star)
    fallback = []
    for d_star in range(3, t - 2):
        if d_star not in interior:
            nearest = min(computable, key=lambda c: (abs(c - d_star), c))
            interior[d_star] = interior[nearest]
            fallback.append(d_star)
    p = np.empty(t + 1)
    for d in range(t + 1):
        d_eff = min(max(d, 3), t - 3)
        p[d] = interior[d_eff]
    return p, tuple(fallback)


def test_p_hat_requires_t_at_least_six():
    table = EpidemicTable.from_sparse([5] * 10, {})
    with pytest.raises(ValueError, match="t >= 6"):
        p_hat_daily(table, DelaySchedule(point_mass(0)), 5)


def test_p_hat_constant_pattern_is_flat():
    # Identical cases and same-day deaths every day: one value everywhere.
    cases = [100] * 15
    lag_counts = {d: {0: 5} for d in range(15)}
    table = EpidemicTable.from_sparse(cases, lag_counts)
    rates = p_hat_daily(table, DelaySchedule(point_mass(0)), 14)
    assert np.allclose(rates.p, 0.05)
    assert rates.fallback_days == ()


def test_p_hat_edge_rules():
    rng = np.random.default_rng(61)
    table = random_table(rng, n_days=20, max_cases=30)
    schedule = DelaySchedule(two_point(0.5, 2))
    t = 19
    rates = p_hat_daily(table, schedule, t)
    assert len(rates) == t + 1
    # Early days copy the first interior estimate; late days the last.
    assert rates.p[0] == rates.p[1] == rates.p[2] == rates.p[3]
    assert rates.p[t] == rates.p[t - 1] == rates.p[t - 2] == rates.p[t - 3]


def test_p_hat_brute_force_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n_days = int(rng.integers(7, 26))
        table = random_table(rng, n_days=n_days, max_cases=12)
        models = [
            two_point(float(rng.uniform(0.2, 0.9)), int(rng.integers(1, 4)))
            for _ in range(n_days)
        ]
        schedule = DelaySchedule(models)
        for t in (6, n_days - 1, n_days + 3, n_days + 9):
            if t < 6:
                continue
            model_for = models + [models[-1]] * (t + 1 - n_days)
            expected, fallback = brute_p_hat(table, model_for, t)
            rates = p_hat_daily(table, schedule, t)
            assert rates.p == pytest.approx(expected, abs=1e-12)
            assert rates.fallback_days == fallback


def test_p_hat_fallback_on_empty_window():
    # Days 10..16 have no cases, so windows centered there are empty.
    cases = [10] * 10 + [0] * 7 + [10] * 3
    lag_counts = {d: {0: 1} for d in range(10)} | {d: {0: 3} for d in (17, 18, 19)}
    table = EpidemicTable.from_sparse(cases, lag_counts)
    rates = p_hat_daily(table, DelaySchedule(point_mass(0)), 19)
    assert rates.fallback_days == (13,)
    # Tie between computable windows 12 and 14, whose rates differ, resolves
    # to the earlier day.
    assert rates.p[13] == rates.p[12] != rates.p[14]


def test_p_hat_clipped_to_unit_interval():
    # Tiny F inflates weights beyond the window case count.
    table = EpidemicTable.from_sparse([4] * 9, {d: {0: 2} for d in range(9)})
    schedule = DelaySchedule(two_point(0.01, 50))
    rates = p_hat_daily(table, schedule, 8)
    assert np.all(rates.p <= 1.0)
    assert np.all(rates.p >= 0.0)
    assert rates.p[4] == 1.0


# ---------------------------------------------------------------------------
# variance and intervals


def test_variance_hand_example():
    table = EpidemicTable.from_sparse([100], {0: {0: 5}})
    rates = DailyRates([0.1])
    schedule = DelaySchedule(two_point(0.5, 2))
    v = variance_cfr(table, rates, schedule, 0)
    assert v == pytest.approx((100 * 0.1 * (1 - 0.1 * 0.5) / 0.5) / 100**2)
    assert v == pytest.approx(0.0019)


def test_variance_f_one_reduces_to_binomial():
    table = EpidemicTable.from_sparse([50, 30], {})
    rates = DailyRates([0.2, 0.4])
    schedule = DelaySchedule(point_mass(0))
    v = variance_cfr(table, rates, schedule, 1)
    expected = (50 * 0.2 * 0.8 + 30 * 0.4 * 0.6) / 80**2
    assert v == pytest.approx(expected, rel=1e-12)


def test_variance_brute_force_oracle():
    rng = np.random.default_rng(71)
    for _ in range(30):
        table = random_table(rng)
        models = [
            two_point(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)))
            for _ in range(table.n_days)
        ]
        schedule = DelaySchedule(models)
        p = rng.uniform(0.0, 1.0, size=table.n_days)
        rates = DailyRates(p)
        for t in range(table.n_days):
            if table.cumulative_cases(t) == 0:
                continue
            r_t = table.cumulative_cases(t)
            expected = 0.0
            for d in range(t + 1):
                c, pd = int(table.cases[d]), float(p[d])
                if c * pd == 0:
                    continue
                f = models[d].cdf(t - d)
                expected += c * pd * (1 - pd * f) / f
            expected /= r_t**2
            assert variance_cfr(table, rates, schedule, t) == pytest.approx(
                expected, rel=1e-12
            )


def test_variance_requires_mass_only_where_active():
    table = EpidemicTable.from_sparse([10, 10], {})
    schedule = DelaySchedule(two_point(0.0, 3))
    # p = 0 on both days: no active term, variance 0 despite F = 0.
    assert variance_cfr(table, DailyRates([0.0, 0.0]), schedule, 1) == 0.0
    with pytest.raises(EstimationError, match="assumption A1"):
        variance_cfr(table, DailyRates([0.5, 0.0]), schedule, 1)


def test_confidence_interval_formula_and_clipping():
    low, high = confidence_interval(0.5, 0.0019, 0.05)
    half = 1.959963984540054 * math.sqrt(0.0019)
    assert low == pytest.approx(0.5 - half, rel=1e-9)
    assert high == pytest.approx(0.5 + half, rel=1e-9)
    assert confidence_interval(0.3, 0.0, 0.05) == (0.3, 0.3)
    # Clipped at 0 and 1.
    assert confidence_interval(0.01, 0.01, 0.05)[0] == 0.0
    assert confidence_interval(0.99, 0.01, 0.05)[1] == 1.0
    # Estimate outside [0, 1]: the bound sticks to the estimate, not below it.
    low, high = confidence_interval(1.3, 0.0001, 0.05)
    assert high == 1.3
    assert low <= 1.3


def test_confidence_interval_domain():
    with pytest.raises(ValueError):
        confidence_interval(0.1, -1e-9, 0.05)
    with pytest.raises(ValueError):
        confidence_interval(0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        confidence_interval(0.1, 0.1, 1.0)


def test_confidence_interval_refuses_nan_variance():
    # A NaN passes a test of variance < 0, and gave the interval (nan, nan).
    with pytest.raises(ValueError, match="^variance must be non-negative$"):
        confidence_interval(0.1, math.nan, 0.05)


def test_alpha_without_a_quantile_is_an_argument_error():
    """At alpha <= 2**-53, 1 - alpha/2 rounds to 1, which has no normal
    quantile: such an alpha is refused by name, not by the quantile. The
    next alpha up still gives an interval around the estimate."""
    table = EpidemicTable([10, 20], np.array([[1, 0], [0, 2]]))
    for alpha in (1e-17, 2.0**-53):
        message = f"^alpha must exceed 2\\*\\*-53, where 1 - alpha/2 rounds to 1, got {alpha}$"
        with pytest.raises(ValueError, match=message):
            confidence_interval(0.02, 1e-6, alpha)
        with pytest.raises(ValueError, match=message):
            estimate_series(table, [1], alpha=alpha, schedule=DelaySchedule(point_mass(0)))
    low, high = confidence_interval(0.02, 1e-6, np.nextafter(2.0**-53, 1.0))
    assert 0.0 <= low < 0.02 < high <= 1.0


@given(
    st.floats(0.0, 1.5),
    st.floats(0.0, 0.25),
    st.floats(0.001, 0.5),
)
@settings(max_examples=200)
def test_confidence_interval_ordering(cfr, v, alpha):
    low, high = confidence_interval(cfr, v, alpha)
    assert 0.0 <= low <= cfr <= high
    assert high <= max(1.0, cfr)


def test_interval_width_scales_with_alpha():
    w = {}
    for alpha in (0.01, 0.05, 0.2):
        low, high = confidence_interval(0.5, 0.001, alpha)
        w[alpha] = high - low
    assert w[0.01] > w[0.05] > w[0.2]


# ---------------------------------------------------------------------------
# validate_assumptions


def test_validate_assumptions_flags():
    rates = DailyRates([0.05, 0.1])
    ok = validate_assumptions(rates, DelaySchedule(two_point(0.3, 2)), 1)
    assert ok.all_ok and not ok.clamped
    assert ok.min_f0 == pytest.approx(0.3)
    assert ok.min_p == pytest.approx(0.05)
    assert ok.max_p == pytest.approx(0.1)

    a1_fail = validate_assumptions(rates, DelaySchedule(two_point(0.0, 2)), 1)
    assert not a1_fail.a1_ok and a1_fail.a2_ok and a1_fail.a3_ok

    a2_fail = validate_assumptions(DailyRates([0.0, 0.1]), DelaySchedule(point_mass(0)), 1)
    assert not a2_fail.a2_ok

    a3_fail = validate_assumptions(DailyRates([0.5, 1.0]), DelaySchedule(point_mass(0)), 1)
    assert not a3_fail.a3_ok


def test_validate_assumptions_clamped_pass():
    # Fitted empirical table with zero mass at 0: floor turns A1 on, flagged.
    model = Empirical([0.0, 0.5, 1.0], n_obs=9)
    report = validate_assumptions(DailyRates([0.1]), DelaySchedule(model), 0)
    assert report.a1_ok and report.clamped
    assert report.min_f0 == pytest.approx(0.1)


def test_validate_assumptions_per_day_min():
    models = [two_point(0.6, 2), two_point(0.2, 2), two_point(0.9, 2)]
    report = validate_assumptions(
        DailyRates([0.1, 0.1, 0.1]), DelaySchedule(models), 2
    )
    assert report.min_f0 == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# estimate_series


def test_series_matches_single_day_ops():
    check_series_matches_single_day_ops(DelaySchedule(two_point(0.4, 3)))


def test_series_matches_single_day_ops_per_day_schedule():
    check_series_matches_single_day_ops(
        DelaySchedule([two_point(0.2 + 0.05 * d, 3) for d in range(12)])
    )


def check_series_matches_single_day_ops(schedule):
    rng = np.random.default_rng(13)
    table = random_table(rng, n_days=12, max_cases=25)
    rates = DailyRates(np.full(12, 0.2))
    days = [0, 3, 7, 11]
    series = estimate_series(
        table, days, schedule=schedule, rates=rates, include_final=True,
        true_rates=rates,
    )
    assert series.t.tolist() == days
    for i, t in enumerate(days):
        assert series.r_t[i] == table.cumulative_cases(t)
        assert series.cfr_naive[i] == cfr_naive(table, t)
        assert series.cfr[i] == cfr_proposed(table, schedule, t)
        if schedule.is_constant:
            assert series.cfr_garske[i] == cfr_garske(table, schedule.model_for(0), t)
        else:
            assert series.cfr_garske[i] == cfr_garske_mod(table, schedule, t)
        assert series.cfr_garske_mod[i] == cfr_garske_mod(table, schedule, t)
        v = variance_cfr(table, rates, schedule, t)
        low, high = confidence_interval(series.cfr[i], v, 0.05)
        assert (series.ci_low[i], series.ci_high[i]) == (low, high)
        assert series.cfr_final[i] == cfr_final(table, t)
        assert series.cfr_true[i] == cfr_true(table, rates, t)
    # Each known-delay error of the every-branch oracle: the single-day
    # function that makes its check raises it on the day that fails first.
    table = _gap_table()
    for kwargs, days, single_day in known_mode_errors():
        want = run_series(estimate_series, table, days, **kwargs)[2]
        assert want is not None, kwargs
        with pytest.raises((ValueError, EstimationError)) as got:
            single_day(table, kwargs)
        assert (type(got.value), str(got.value)) == (type(want), str(want))


def test_series_variance_past_an_int64_square():
    """r_t**2 of 5e9 cases passes 2**63: squared in int64 it wrapped and gave
    a V 3.8 times too large, and at 3.5e9 one below 0."""
    for n in (3_500_000_000, 5_000_000_000):
        table = EpidemicTable.from_sparse([n, 10], {0: {0: 10}})
        schedule, rates = DelaySchedule(NegBinomial(3.0, 2.0)), DailyRates([0.03, 0.03])
        series = estimate_series(table, [1], schedule=schedule, rates=rates)
        v = variance_cfr(table, rates, schedule, 1)
        f1, f0 = schedule.model_for(0).cdf(1), schedule.model_for(1).cdf(0)
        terms = n * 0.03 * (1 - 0.03 * f1) / f1 + 10 * 0.03 * (1 - 0.03 * f0) / f0
        assert v == pytest.approx(terms / (n + 10) ** 2, rel=1e-12)
        want = confidence_interval(cfr_proposed(table, schedule, 1), v, 0.05)
        assert (series.ci_low[0], series.ci_high[0]) == want


def test_series_skips_days_without_cases():
    table = EpidemicTable(
        np.array([0, 0, 5, 5]), np.zeros((4, 1), dtype=np.int64)
    )
    series = estimate_series(
        table, [0, 1, 2, 3], schedule=DelaySchedule(point_mass(0)),
        rates=DailyRates([0.1] * 4),
    )
    assert series.t.tolist() == [2, 3]


def test_series_interval_invariant_and_dedup():
    rng = np.random.default_rng(19)
    table = random_table(rng, n_days=15, max_cases=40)
    schedule = DelaySchedule(two_point(0.5, 2))
    rates = DailyRates(np.full(15, 0.3))
    series = estimate_series(table, [5, 5, 3, 9], schedule=schedule, rates=rates)
    assert series.t.tolist() == [3, 5, 9]
    assert np.all(series.ci_low <= series.cfr)
    assert np.all(series.cfr <= series.ci_high)
    assert series.cfr_final is None and series.cfr_true is None


def test_series_warns_on_assumption_failure():
    table = EpidemicTable.from_sparse([10, 10, 10, 10, 10, 10, 10, 10], {0: {0: 1}})
    schedule = DelaySchedule(two_point(0.5, 2))
    # Estimated rates hit 0 in empty-death windows: A2 fails, one warning.
    with pytest.warns(AssumptionWarning):
        estimate_series(table, [7], schedule=schedule)


def test_series_empirical_refit_path():
    # No schedule given: each day refits the empirical CDF with the lookback.
    rng = np.random.default_rng(101)
    n_days = 140
    cases = np.full(n_days, 60)
    deaths = np.zeros((n_days, 8), dtype=np.int64)
    for d in range(n_days):
        lags = rng.integers(0, 8, size=6)
        np.add.at(deaths[d], lags, 1)
    table = EpidemicTable(cases, deaths)
    series = estimate_series(table, [100, 120], lookback=45)
    assert len(series) == 2
    assert np.all(series.cfr > 0)
    assert np.all(series.ci_low <= series.cfr) and np.all(series.cfr <= series.ci_high)


def as_of(table: EpidemicTable, t: int) -> EpidemicTable:
    """The table as it stood at day t: cases confirmed by t, and of their
    deaths only those by t (confirmation day d plus lag k at most t)."""
    cases = table.cases[: t + 1]
    d, k = np.indices((cases.size, table.deaths.shape[1]))
    return EpidemicTable(cases, np.where(d + k <= t, table.deaths[: t + 1], 0))


def _series_or_error(table, t, **kwargs):
    """Columns of ``estimate_series(table, [t])`` but cfr_final, with its
    warnings; or the type and message of the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            series = estimate_series(table, [t], **kwargs)
        except (ValueError, EstimationError) as exc:
            return type(exc), str(exc)
    names = ("t", "r_t", "cfr_naive", "cfr", "ci_low", "ci_high", "cfr_garske", "cfr_garske_mod")
    return [getattr(series, name).tolist() for name in names], [str(w.message) for w in caught]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_days=st.integers(1, 30),
    known=st.booleans(),
    lookback=st.integers(0, 8),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_series_at_t_reads_nothing_after_t(seed, n_days, known, lookback, data):
    # The real-time property: the estimate at day t depends only on cases
    # confirmed by t and deaths by t, in known and in estimated mode.
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_days=n_days, max_cases=30, max_lag=6)
    t = data.draw(st.integers(0, n_days - 1), label="t")
    if known:
        cdf = np.sort(rng.uniform(0.05, 1.0, size=6))
        kwargs = {
            "schedule": DelaySchedule(Empirical(np.append(cdf, 1.0))),
            "rates": DailyRates(rng.uniform(0.01, 0.5, size=n_days)),
        }
    else:
        kwargs = {"lookback": lookback}
    assert _series_or_error(table, t, **kwargs) == _series_or_error(as_of(table, t), t, **kwargs)


def test_series_negative_days_rejected():
    table = EpidemicTable.from_sparse([5], {})
    with pytest.raises(ValueError, match="non-negative"):
        estimate_series(table, [-1, 2], schedule=DelaySchedule(point_mass(0)),
                        rates=DailyRates([0.1]))


# ---------------------------------------------------------------------------
# estimate_series against the day-by-day loop it replaced
#
# ``reference_series`` is the per-day loop estimate_series ran before the
# block kernel, with the helpers it called, kept as the oracle: every column
# must agree under ==, and an error must be the same type and message.


def _ref_upto(table, t):
    if t < 0:
        raise ValueError("t must be non-negative")
    return min(t, table.n_days - 1)


def _ref_cases_through(table, t):
    upto = _ref_upto(table, t)
    if upto < 0:
        return 0
    return int(table._cum_cases[upto])


def _ref_rates_upto(rates, upto):
    if len(rates) < upto + 1:
        raise ValueError(f"rates must cover days 0..{upto}, got {len(rates)} entries")
    return rates.p[: upto + 1]


def _ref_fit_empirical(table, t, lookback):
    if t < 0:
        raise ValueError("t must be non-negative")
    if lookback < 0:
        raise ValueError("lookback must be non-negative")
    day_cap = min(t - lookback, table.n_days - 1)
    if day_cap < 0:
        raise EstimationError("insufficient resolved deaths for empirical fit")
    k = np.arange(table.max_lag + 1)
    day_lim = np.minimum(day_cap, t - k)
    cum_day = np.cumsum(table.deaths, axis=0)
    counts = np.where(day_lim >= 0, cum_day[np.maximum(day_lim, 0), k], 0)
    total = int(counts.sum())
    if total == 0:
        raise EstimationError("insufficient resolved deaths for empirical fit")
    k_max = int(np.nonzero(counts)[0][-1])
    cdf = np.cumsum(counts[: k_max + 1]) / total
    cdf[-1] = 1.0
    return Empirical(cdf, n_obs=total)


def _ref_models(schedule, last):
    """Delay models of days 0..last; an uncovered day names ``last``."""
    schedule.model_for(last)
    return [schedule.model_for(d) for d in range(last + 1)]


def _ref_f_values(schedule, t, upto):
    models = _ref_models(schedule, upto)
    raw = np.array([model.cdf(t - d) for d, model in enumerate(models)], dtype=float)
    return raw, np.maximum(raw, [model.floor for model in models])


def _ref_death_weights(deaths, f, t):
    bad = (deaths > 0) & (f <= 0.0)
    if np.any(bad):
        d_bad = int(np.nonzero(bad)[0][0])
        raise EstimationError(
            f"assumption A1 violated: no delay CDF mass by day {t} for deaths "
            f"confirmed on day {d_bad}"
        )
    return np.where(deaths > 0, deaths / np.where(f > 0.0, f, 1.0), 0.0)


def _ref_window_rates(cases, w, t):
    upto = cases.size - 1
    w_prefix = np.concatenate([[0.0], np.cumsum(w)])
    c_prefix = np.concatenate([[0], np.cumsum(cases)])
    d_star = np.arange(3, t - 2)
    lo = np.clip(d_star - 3, 0, upto + 1)
    hi = np.clip(d_star + 4, 0, upto + 1)
    num = w_prefix[hi] - w_prefix[lo]
    den = c_prefix[hi] - c_prefix[lo]
    computable = den > 0
    if not computable.any():
        raise EstimationError(f"no cases in any daily-rate window by day {t}")
    p_interior = np.zeros(d_star.size)
    p_interior[computable] = np.clip(num[computable] / den[computable], 0.0, 1.0)
    fallback = ()
    if not computable.all():
        comp_idx = np.nonzero(computable)[0]
        missing = np.nonzero(~computable)[0]
        pos = np.searchsorted(comp_idx, missing)
        left = comp_idx[np.clip(pos - 1, 0, comp_idx.size - 1)]
        right = comp_idx[np.clip(pos, 0, comp_idx.size - 1)]
        use_left = np.abs(missing - left) <= np.abs(right - missing)
        pick = np.where(use_left, left, right)
        p_interior[missing] = p_interior[pick]
        fallback = tuple(int(d) for d in d_star[missing])
    p = np.empty(t + 1)
    p[3 : t - 2] = p_interior
    p[:3] = p_interior[0]
    p[t - 2 :] = p_interior[-1]
    return DailyRates(p, fallback_days=fallback)


def _ref_variance(cases, p, f, t, r_t):
    active = (cases * p) > 0
    if np.any(active & (f <= 0.0)):
        d_bad = int(np.nonzero(active & (f <= 0.0))[0][0])
        raise EstimationError(
            f"assumption A1 violated: no delay CDF mass by day {t} for cases "
            f"confirmed on day {d_bad}"
        )
    f_safe = np.where(f > 0.0, f, 1.0)
    terms = np.where(active, cases * p * (1.0 - p * f) / f_safe, 0.0)
    return float(terms.sum() / r_t**2)


def _ref_garske(dead, cases, f, t):
    denom = float(cases @ f)
    if denom <= 0.0:
        raise EstimationError(f"zero delay-weighted case total at day {t}")
    return float(dead / denom)


def _ref_interval(cfr, variance, z):
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    half = z * math.sqrt(variance)
    return min(max(0.0, cfr - half), cfr), max(cfr, min(1.0, cfr + half))


def _ref_all_ok(rates, schedule, t):
    if t < 0:
        raise ValueError("t must be non-negative")
    p = _ref_rates_upto(rates, t)
    min_f0 = min(max(model.cdf(0), model.floor) for model in _ref_models(schedule, t))
    return min_f0 > 0.0 and float(p.min()) > 0.0 and float(p.max()) < 1.0


def reference_series(
    table, days, *, alpha=0.05, schedule=None, rates=None, lookback=45,
    include_final=False, true_rates=None,
):
    """The day-by-day estimate_series loop; returns (series, warned)."""
    day_grid = np.unique(np.asarray(days, dtype=np.int64))
    if day_grid.size and day_grid[0] < 0:
        raise ValueError("days must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    z = normal_quantile(1.0 - alpha / 2.0)
    if schedule is not None and day_grid.size:
        schedule.tabulate(int(day_grid[-1]))
    rows = []
    assumption_failed = False
    for t in day_grid.tolist():
        r_t = _ref_cases_through(table, t)
        if r_t == 0:
            continue
        sched_t = schedule if schedule is not None else DelaySchedule(
            _ref_fit_empirical(table, t, lookback)
        )
        if rates is None and t < 6:
            raise ValueError("daily rate estimation needs t >= 6")
        upto = _ref_upto(table, t)
        cases = table.cases[: upto + 1]
        deaths = table.observed_deaths(t)
        raw, f = _ref_f_values(sched_t, t, upto)
        w = _ref_death_weights(deaths, f, t)
        rates_t = rates if rates is not None else _ref_window_rates(cases, w, t)
        dead = deaths.sum()
        naive = float(dead / r_t)
        adjusted = float(w.sum() / r_t)
        garske = _ref_garske(dead, cases, raw, t)
        if not _ref_all_ok(rates_t, sched_t, t):
            assumption_failed = True
        v = _ref_variance(cases, _ref_rates_upto(rates_t, upto), f, t, r_t)
        low, high = _ref_interval(adjusted, v, z)
        final = cfr_final(table, t) if include_final else math.nan
        truth = cfr_true(table, true_rates, t) if true_rates is not None else math.nan
        rows.append((t, r_t, naive, adjusted, low, high, garske, garske, final, truth))
    cols = list(zip(*rows)) if rows else [[] for _ in range(10)]
    series = est.EstimateSeries(
        t=np.asarray(cols[0], dtype=np.int64),
        r_t=np.asarray(cols[1], dtype=np.int64),
        cfr_naive=np.asarray(cols[2], dtype=float),
        cfr=np.asarray(cols[3], dtype=float),
        ci_low=np.asarray(cols[4], dtype=float),
        ci_high=np.asarray(cols[5], dtype=float),
        cfr_garske=np.asarray(cols[6], dtype=float),
        cfr_garske_mod=np.asarray(cols[7], dtype=float),
        cfr_final=np.asarray(cols[8], dtype=float) if include_final else None,
        cfr_true=np.asarray(cols[9], dtype=float) if true_rates is not None else None,
    )
    return series, assumption_failed


def run_series(fn, *args, **kwargs):
    """(result, warned, error) of one series call, AssumptionWarnings
    recorded; a RuntimeWarning stays an error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AssumptionWarning)
        try:
            result = fn(*args, **kwargs)
        except (ValueError, EstimationError) as exc:
            return None, False, exc
    warned = any(issubclass(w.category, AssumptionWarning) for w in caught)
    return result, warned, None


def assert_same_series(got, want):
    for f in est.EstimateSeries.__dataclass_fields__:
        a, b = getattr(got, f), getattr(want, f)
        if b is None:
            assert a is None, f
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, f
            assert np.all(a == b), f


@st.composite
def series_cases(draw):
    """A table, a delay source, rates and a day grid for estimate_series."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_days = draw(st.integers(1, 40))
    max_lag = draw(st.integers(0, 8))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    cases = np.where(
        rng.random(n_days) < zero_frac, 0, rng.integers(1, 30, size=n_days)
    )
    first_lag = draw(st.integers(0, max_lag))  # > 0: empirical fits clamp at lag 0
    deaths = np.zeros((n_days, max_lag + 1), dtype=np.int64)
    for d in range(n_days):
        total = int(rng.integers(0, cases[d] + 1)) if rng.random() < 0.8 else 0
        np.add.at(deaths[d], rng.integers(first_lag, max_lag + 1, size=total), 1)
    table = EpidemicTable(cases, deaths)

    known_f = draw(st.booleans())
    schedule = None
    if known_f:
        kind = draw(st.sampled_from(["two_point", "nb", "fitted", "per_day", "per_day_floors"]))
        q = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        if kind == "two_point":
            schedule = DelaySchedule(two_point(q, draw(st.integers(1, 6))))
        elif kind == "nb":
            schedule = DelaySchedule(NegBinomial(draw(st.floats(0.5, 12.0)), 0.9))
        elif kind == "fitted":
            schedule = DelaySchedule(Empirical([0.0, 0.3, 1.0], n_obs=draw(st.integers(1, 9))))
        else:
            length = n_days + draw(st.sampled_from([11, 11, 0, -2]))
            # Floors mixed: fitted point masses, whose F is 0 below their lag,
            # among the two-point models.
            fitted = 0.5 if kind == "per_day_floors" else 0.0
            schedule = DelaySchedule([
                Empirical(point_mass(lag).cdf_table, n_obs=int(rng.integers(0, 9)))
                if rng.random() < fitted else
                two_point(float(rng.choice([0.0, 0.2, 0.7, 1.0], p=[0.1, 0.3, 0.3, 0.3])), lag)
                for lag in rng.integers(1, 6, size=max(length, 1)).tolist()
            ])
    rates = None
    if draw(st.booleans()):
        length = n_days + draw(st.sampled_from([11, 11, 0, -2]))
        rates = DailyRates(rng.choice([0.0, 0.02, 0.3, 0.9, 1.0], size=max(length, 1)))
    true_rates = None
    if draw(st.booleans()):
        true_rates = DailyRates(rng.random(max(n_days + draw(st.sampled_from([0, 0, -2])), 1)))
    first = min(draw(st.sampled_from([0, 6, 6, 12])), n_days)
    days = draw(st.lists(st.integers(first, n_days + 10), min_size=1, max_size=25))
    kwargs = dict(
        schedule=schedule,
        rates=rates,
        lookback=draw(st.sampled_from([0, 3, 6, 10])),
        include_final=draw(st.booleans()),
        true_rates=true_rates,
        alpha=draw(st.sampled_from([0.05, 0.2])),
    )
    return table, days, kwargs


def _fallback_past_the_cut():
    """Cases on days 10-11 and 25 only. Day 23's last windows, 16 and 17,
    hold no cases, and their nearest computable window in the whole table,
    19, lies past the day's cut, so they take window 11: window 19 holds
    none of day 23's cases, and would read 0 and warn."""
    cases = np.zeros(28, dtype=np.int64)
    cases[[10, 11, 25]] = [6, 4, 9]
    deaths = np.zeros((28, 4), dtype=np.int64)
    deaths[10, 1], deaths[11, [0, 3]], deaths[25, 2] = 2, [1, 1], 5
    kwargs = dict(schedule=DelaySchedule(two_point(0.4, 3)), rates=None, lookback=45,
                  include_final=False, true_rates=None, alpha=0.05)
    return EpidemicTable(cases, deaths), [12, 16, 17, 21, 23], kwargs


@settings(max_examples=400, deadline=None)
@given(case=series_cases(), block=st.sampled_from([1, 3, est._BLOCK]))
@example(case=_fallback_past_the_cut(), block=est._BLOCK)
def test_series_kernel_matches_day_by_day_loop(case, block):
    table, days, kwargs = case
    want, want_warned, want_error = run_series(reference_series, table, days, **kwargs)
    with mock.patch.object(est, "_BLOCK", block):
        got, got_warned, got_error = run_series(estimate_series, table, days, **kwargs)
    if want_error is not None:
        assert type(got_error) is type(want_error)
        assert str(got_error) == str(want_error)
        return
    assert got_error is None, got_error
    want_series, failed = want
    assert_same_series(got, want_series)
    assert got_warned == failed


def _gap_table() -> EpidemicTable:
    """Cases on days 0-2 and 10-19, one death at lag 2 on each of those
    days, two on day 2."""
    cases = np.array([5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5])
    deaths = np.zeros((20, 4), dtype=np.int64)
    deaths[cases > 0, 2] = 1
    deaths[2, 2] = 2
    return EpidemicTable(cases, deaths)


def known_mode_errors():
    """Each error of the loop with a known delay on ``_gap_table``: the
    ``estimate_series`` arguments, the days, and a call of the single-day
    function that makes the check, at the day that fails first."""
    known = DailyRates(np.full(25, 0.1))
    clamped = Empirical([0.0, 0.3, 1.0], n_obs=9)
    return [
        (dict(schedule=DelaySchedule(two_point(0.0, 5))), [9, 12],  # A1, deaths
         lambda table, kw: cfr_proposed(table, kw["schedule"], 12)),
        (dict(schedule=DelaySchedule(clamped), rates=known), [0, 5],  # Garske
         lambda table, kw: cfr_garske_mod(table, kw["schedule"], 0)),
        (dict(schedule=DelaySchedule(two_point(0.0, 2)), rates=known), [10],  # A1, cases
         lambda table, kw: variance_cfr(table, kw["rates"], kw["schedule"], 10)),
        (dict(schedule=DelaySchedule([point_mass(0)] * 15)), [12, 16],  # F coverage
         lambda table, kw: cfr_proposed(table, kw["schedule"], 16)),
        # Day 16 fails the earlier F-coverage check, day 0 the later Garske one.
        (dict(schedule=DelaySchedule([clamped] * 15), rates=known), [0, 16],
         lambda table, kw: cfr_garske_mod(table, kw["schedule"], 0)),
        (dict(schedule=DelaySchedule([point_mass(0)] * 20), rates=known), [21],  # A1-A3 coverage
         lambda table, kw: validate_assumptions(kw["rates"], kw["schedule"], 21)),
        (dict(schedule=DelaySchedule(point_mass(0)), rates=DailyRates(np.full(12, 0.1))), [9, 13],
         lambda table, kw: variance_cfr(table, kw["rates"], kw["schedule"], 13)),
        (dict(schedule=DelaySchedule(point_mass(0)), rates=known,
              true_rates=DailyRates(np.full(12, 0.1))), [9, 13],
         lambda table, kw: cfr_true(table, kw["true_rates"], 13)),
        # F past 1, refused as the schedule tabulates it, before any day.
        (dict(schedule=DelaySchedule(ConstantCdf(2.0)), rates=DailyRates(np.full(25, 0.9))), [9],
         lambda table, kw: cfr_proposed(table, kw["schedule"], 9)),
        (dict(schedule=DelaySchedule([point_mass(0)] * 3)), [4],  # t >= 6 before coverage
         lambda table, kw: p_hat_daily(table, kw["schedule"], 4)),
    ]


def test_series_kernel_oracle_reaches_every_branch():
    """The generated cases exercise successes in both modes, fallback
    windows, clamped fits and each error the loop can raise."""
    # Estimated mode with a clamped fit and an empty window centred on day
    # 6, whose computable neighbours 5 and 7 tie and differ.
    table = _gap_table()
    rates = p_hat_daily(table, DelaySchedule(fit_empirical(table, 19, 3)), 19)
    assert rates.fallback_days == (6,) and rates.p[6] == rates.p[5] != rates.p[7]
    assert fit_empirical(table, 19, 3).cdf(0) == 0.0
    want, _, error = run_series(reference_series, table, range(6, 25), lookback=3)
    got, warned, _ = run_series(estimate_series, table, range(6, 25), lookback=3)
    assert error is None and len(got) == 19
    assert_same_series(got, want[0])
    assert warned == want[1]
    # Each error of the loop, matched by the kernel on its first day.
    for kwargs, days in [
        (dict(lookback=0), [2, 9]),  # t < 6
        (dict(lookback=30), [9]),  # no resolved deaths
        (dict(lookback=6), [2]),  # the fit's error comes before t >= 6
        (dict(lookback=-1), [9]),
        *[(kwargs, days) for kwargs, days, _ in known_mode_errors()],
    ]:
        want = run_series(reference_series, table, days, **kwargs)[2]
        got = run_series(estimate_series, table, days, **kwargs)[2]
        assert want is not None, kwargs
        assert (type(got), str(got)) == (type(want), str(want))


def _nb_then_zero_f0():
    """Per-day NB models, then from day 10 models with F(0) = 0 and no floor."""
    return DelaySchedule([NegBinomial(4.0, 1.5)] * 10 + [two_point(0.0, 2)] * 15)


@pytest.mark.parametrize(
    "make, days, shortcuts",
    [
        (lambda: dict(schedule=DelaySchedule(NegBinomial(4.0, 1.5))), range(25), (True, True)),
        (lambda: dict(schedule=DelaySchedule(NegBinomial(4.0, 1.5)), rates=None), range(6, 25),
         (True, True)),
        # Raw F(0) is 0 under the floor 0.1.
        (lambda: dict(schedule=DelaySchedule(Empirical([0.0, 0.3, 1.0], n_obs=9))), range(1, 25),
         (False, True)),
        # Cohorts from day 10 break A1 for the variance on day 10 ...
        (lambda: dict(schedule=_nb_then_zero_f0()), range(25), (True, False)),
        # ... and not where their rates are 0, which fails A2 only.
        (lambda: dict(schedule=_nb_then_zero_f0(), rates=DailyRates([0.1] * 10 + [0.0] * 15)),
         range(25), (True, False)),
        # Floors of 0 and 0.1 mixed: day 0's padding cell of cohort 5 reads
        # model 4's F(1) = 0 under model 5's floor, 0.
        (lambda: dict(schedule=DelaySchedule(
            [NegBinomial(4.0, 1.5)] * 4 + [Empirical([0.0, 0.0, 1.0], n_obs=9), NegBinomial(4.0, 1.5)]
        )), [0, 5], (False, False)),
        # Estimated: each day's fit has the floor 1 / (n_obs + 1).
        (lambda: dict(schedule=None, rates=None, lookback=3), range(6, 25), (False, True)),
    ],
    ids=["nb", "nb-rates-estimated", "clamped-empirical", "later-f0-zero-a1",
         "later-f0-zero", "mixed-floors", "estimated"],
)
def test_series_kernel_oracle_with_and_without_each_delay_shortcut(make, days, shortcuts):
    """The kernel takes F as raw F where every floor is 0, and skips the
    checks for zero CDF mass where every floored F it gathers is positive,
    padding too; with or without either it equals the loop."""
    kwargs = dict(rates=DailyRates(np.full(25, 0.1))) | make()
    table = _gap_table()
    want, _, want_error = run_series(reference_series, table, days, **kwargs)
    got, got_warned, got_error = run_series(estimate_series, table, days, **kwargs)
    delay = kwargs["schedule"] or est._Lookback(kwargs["lookback"])
    assert (delay._zero_floor, delay._positive) == shortcuts
    if want_error is not None:
        assert (type(got_error), str(got_error)) == (type(want_error), str(want_error))
        return
    assert got_error is None, got_error
    assert_same_series(got, want[0])
    assert got_warned == want[1]


def test_row_sums_match_numpy_reduce():
    """Each row's sum is np.add.reduce over its own slice, bit for bit, at
    every length the pairwise sum groups differently and at extreme scales;
    a numpy that starts a reduceat segment differently fails here."""
    rng = np.random.default_rng(5)
    width = 1100
    x = rng.normal(size=(width, width)) * np.exp(rng.normal(0.0, 3.0, (width, width)))
    x[rng.random(x.shape) < 0.3] = 0.0
    n = np.arange(1, width + 1)  # lengths 1..1100, the last row full
    for scale in (1.0, 1e-300, 1e300):
        scaled = x * scale
        for rows, lengths in [
            (scaled, n),
            (scaled, n[::-1]),
            (scaled[:1], n[-1:]),  # a single full row
            (scaled[:1, :1], n[:1]),
            (np.abs(scaled[:40, :129]), np.full(40, 129)),
        ]:
            want = np.array([np.add.reduce(row[:k]) for row, k in zip(rows, lengths)])
            got = est._row_sums(rows, lengths)
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
        # One row shared by every day, as the cfr_true column sums it.
        want = np.array([np.add.reduce(scaled[-1, :k]) for k in n])
        assert np.array_equal(est._row_sums(scaled[-1], n), want, equal_nan=True)
    zeros = np.zeros((3, 5))
    assert np.array_equal(est._row_sums(zeros, np.array([1, 3, 5])), np.zeros(3))


def gather_window_rates(table, c, w):
    """The block kernel's first window rates, which gathered each window's
    bounds with take_along_axis; the oracle for the sliced ones. Returns the
    estimates, the inside and fallback masks, the days without a computable
    window, and the daily rates."""
    j = np.arange(max(min(int(c.t[-1]) - 5, int(c.n[-1])), 1))
    inside = j < (c.t - 5)[:, None]
    lo = np.minimum(j, c.n[:, None])
    hi = np.minimum(j + 7, c.n[:, None])
    w_prefix = np.zeros((w.shape[0], w.shape[1] + 1))
    np.cumsum(w, axis=1, out=w_prefix[:, 1:])
    num = np.take_along_axis(w_prefix, hi, axis=1) - np.take_along_axis(w_prefix, lo, axis=1)
    c_prefix = np.concatenate([[0], table._cum_cases])
    den = c_prefix[hi] - c_prefix[lo]
    computable = inside & (den > 0)
    p = np.divide(num, den, out=np.zeros(num.shape), where=computable)
    np.clip(p, 0.0, 1.0, out=p)
    fallback = inside & ~computable
    left = np.maximum.accumulate(np.where(computable, j, -1), axis=1)
    right = np.minimum.accumulate(np.where(computable, j, j.size)[:, ::-1], axis=1)[:, ::-1]
    use_left = (left >= 0) & ((right == j.size) | (j - left <= right - j))
    pick = np.minimum(np.where(use_left, left, right), j.size - 1)
    rows, cols = np.nonzero(fallback)
    p[rows, cols] = p[rows, pick[rows, cols]]
    last = np.minimum(np.maximum(c.t - 6, 0), j.size - 1)
    daily = np.take_along_axis(p, np.clip(np.arange(w.shape[1]) - 3, 0, last[:, None]), axis=1)
    return p, inside, fallback, ~computable.any(axis=1), daily


def test_window_rates_match_gather_oracle():
    # Cases on days 10-11 and 25 only: windows 0-3 and 12-18 hold none, on
    # both sides of the computable 4-11, and window 15 ties 11 and 19. Day
    # 23 ends at window 17, whose nearest window with cases, 19, is not its
    # own. Days 29 on lie past the table's end; day 6 has no computable window.
    cases = np.zeros(28, dtype=np.int64)
    cases[[10, 11, 25]] = [6, 4, 9]
    deaths = np.zeros((28, 4), dtype=np.int64)
    deaths[10, 1], deaths[11, [0, 3]], deaths[25, 2] = 2, [1, 1], 5
    table = EpidemicTable(cases, deaths)
    t = np.array([6, 12, 16, 17, 21, 23, 27, 29, 33, 40])
    c = est._cohorts(table, t)
    f = np.maximum(*DelaySchedule(two_point(0.4, 3))._fit(table, c)[:2])
    w = est._weights(c, f, est._divisor(f))
    assert gather_window_rates(table, c, w)[3].tolist() == [True] + [False] * 9
    # The other days, with the oracle on them alone.
    rest = est._cohorts(table, t[1:])
    want_p, want_inside, want_fallback, no_window, want_daily = gather_window_rates(
        table, rest, w[1:]
    )
    assert want_fallback[3:].any(axis=1).all() and not no_window.any()
    # Window arrays built for the block's last day, or for a later one as an
    # estimate_series call with later blocks builds them. Each day reads the
    # windows j < t - 5; the oracle holds 0 in the others.
    for last in (40, 41, 500):
        windows = est._windows(table._cum_cases, last)
        with pytest.raises(EstimationError, match="no cases in any daily-rate window by day 6$"):
            est._window_estimates(windows, c, w)
        p = est._window_estimates(windows, rest, w[1:])
        inside = np.arange(p.shape[1]) < (rest.t - 5)[:, None]
        assert np.array_equal(inside, want_inside)
        assert np.array_equal(np.where(inside, p, 0.0), want_p)
        assert np.array_equal(inside & (windows.den[: p.shape[1]] == 0), want_fallback)
        assert np.array_equal(est._daily_p(p, t[1:], w.shape[1]), want_daily)


def test_window_bounds_read_each_days_own_windows():
    # Day 5 has no window, day 7 the first two, days 8 and 9 the whole row,
    # the last one to the end of p.
    p = np.array([[0.9, 0.1, 0.4], [0.2, 0.5, 0.1], [0.3, 0.7, 0.6], [0.8, 0.4, 0.2]])
    lo, hi = est._window_bounds(p, np.array([5, 7, 8, 9]))
    assert lo.tolist() == [np.inf, 0.2, 0.3, 0.2]
    assert hi.tolist() == [-np.inf, 0.5, 0.7, 0.8]


def long_table(n_days: int, seed: int) -> EpidemicTable:
    """Daily cases with some empty days and deaths at lags 0..40."""
    rng = np.random.default_rng(seed)
    cases = np.where(rng.random(n_days) < 0.1, 0, rng.integers(20, 60, size=n_days))
    deaths = np.zeros((n_days, 41), dtype=np.int64)
    for d in range(n_days):
        np.add.at(deaths[d], rng.integers(0, 41, size=min(int(cases[d]), 3)), 1)
    return EpidemicTable(cases, deaths)


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
@pytest.mark.parametrize("mode", ["known", "per_day", "estimated"])
def test_series_identical_under_any_block_size(monkeypatch, mode):
    table = long_table(300, seed=8)
    rates = DailyRates(np.full(320, 0.05))
    kwargs = dict(include_final=True, true_rates=rates)
    if mode == "known":
        kwargs.update(schedule=DelaySchedule(NegBinomial(10.0, 1.0)), rates=rates)
    elif mode == "per_day":
        models = [NegBinomial(6.0 + d / 50, 1.0) for d in range(320)]
        kwargs.update(schedule=DelaySchedule(models), rates=rates)
    days = range(90, 315)
    series = []
    for block in (1, 7, est._BLOCK):
        monkeypatch.setattr(est, "_BLOCK", block)
        series.append(estimate_series(table, days, **kwargs))
    assert len(series[0]) == len(days)
    for other in series[1:]:
        assert_same_series(other, series[0])


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_kept_late_terms_are_keyed_by_the_block_rows():
    """Known-mode Garske denominators and V(t) are kept per block for the
    next table with these cases. A block of other rows that shares its
    first or its last row with a kept one builds its own."""
    table = long_table(120, seed=5)
    schedule, rates = DelaySchedule(NegBinomial(10.0, 1.0)), DailyRates([0.05] * 120)
    days = [60, 70, 80]

    def block(shared, rows):
        return est._series_block(table, shared, rows, est._Buffers(len(days) * (table.n_days + 2)))

    shared = est._shared_terms(table.cases, days, 0.05, schedule, 45, rates, None)
    block(shared, slice(0, 3))
    for rows in (slice(0, 2), slice(1, 3)):
        fresh = est._shared_terms(table.cases, days, 0.05, schedule, 45, rates, None)
        got, want = block(shared, rows), block(fresh, rows)
        for name in want:
            assert np.array_equal(got[name], want[name]), (rows, name)
    assert sorted(shared.late) == [(0, 2), (0, 3), (1, 3)]


def test_failing_series_evaluates_each_block_once():
    """Day 100, the first day past a 100-day schedule, is in the second of
    two blocks; its error comes from one evaluation of each block, not from
    re-running the second block one day at a time up to it."""
    table = long_table(128, seed=5)
    schedule, rates = DelaySchedule([point_mass(0)] * 100), DailyRates([0.05] * 128)
    blocks, block = [], est._series_block

    def counted(table, shared, rows, work):
        blocks.append((rows.start, rows.stop))
        return block(table, shared, rows, work)

    with mock.patch.object(est, "_series_block", counted):
        with pytest.raises(ValueError, match=r"^schedule covers days 0\.\.99, got 100$"):
            estimate_series(table, range(128), schedule=schedule, rates=rates)
    assert blocks == [(0, 64), (64, 128)]


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
def test_series_memory_is_blockwise():
    # Ten years of days: one dense float (days x days) matrix would be 107 MB.
    # A day far past the table must cost no more than the table's last day.
    n_days = 3653
    table = long_table(n_days, seed=9)
    # Fill the table's own caches before measuring: its cumulative sums and
    # its deaths sorted for the kernel's two event queries (lookback 45).
    table._cum_cases, table._cum_totals
    table._observed(np.arange(2)), table._eligible_lags(np.arange(2), 45)
    tracemalloc.start()
    try:
        series = estimate_series(table, [*range(90, n_days), 100_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == n_days - 90 + 1
    assert peak < 8 * n_days**2 / 2


@pytest.mark.filterwarnings("ignore::cfrkit.AssumptionWarning")
@pytest.mark.parametrize("mode", ["known", "estimated"])
def test_series_leaves_no_cycle_holding_the_table(mode):
    """A study drops each replicate's table after its series; a reference
    cycle would keep the table until the cycle collector runs."""
    kwargs = {}
    if mode == "known":
        kwargs = dict(schedule=DelaySchedule(NegBinomial(10.0, 1.0)), rates=DailyRates([0.05] * 200))
    table = long_table(200, seed=4)
    freed = weakref.ref(table)
    gc.disable()
    try:
        assert len(estimate_series(table, range(60, 200), **kwargs)) > est._BLOCK
        del table
        assert freed() is None
    finally:
        gc.enable()
