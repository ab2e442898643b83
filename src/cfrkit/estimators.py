"""Case fatality rate estimators, daily rates, variance, and intervals.

The central quantity is the delay-adjusted estimator CFR(t): observed deaths
from each confirmation cohort are inflated by the probability that a fatal
case has already died, which removes the downward bias of the naive
deaths-over-cases ratio while the epidemic is still running.

Statistical properties, exercised by the test suite: CFR(t) is exactly
unbiased for the true rate whenever every cohort has positive same-day CDF
mass (A1); it is consistent as cumulative cases grow; and the standardized
error (CFR(t) - cfr(t)) / sqrt(V) is asymptotically standard normal under
A1-A3, passing |sample skewness| < 0.15 and |excess kurtosis| < 0.3 over
2000 replicates of a large scenario at its final day.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AssumptionWarning, EstimationError
from .linelist import EpidemicTable
from .survival import SurvivalModel, fit_empirical

__all__ = [
    "DelaySchedule",
    "DailyRates",
    "AssumptionReport",
    "EstimateSeries",
    "normal_quantile",
    "cfr_true",
    "cfr_naive",
    "cfr_final",
    "cfr_proposed",
    "cfr_garske",
    "cfr_garske_mod",
    "p_hat_daily",
    "variance_cfr",
    "confidence_interval",
    "validate_assumptions",
    "estimate_series",
]


class DelaySchedule:
    """Delay distribution per confirmation day, with its CDF tabulated.

    Built either from a single model shared by every day, or from one model
    per day (index = confirmation day) when the delay shifts over time.
    Estimators read F from one (models x lags) table of raw ``cdf`` values at
    lags 0..K, one row for a constant schedule. The table grows when a lag
    beyond K is requested, with one ``cdf`` call per model, and is never
    rebuilt.
    """

    def __init__(self, models: SurvivalModel | Sequence[SurvivalModel]):
        if isinstance(models, SurvivalModel):
            self._models: tuple[SurvivalModel, ...] = (models,)
            self._constant = True
        else:
            self._models = tuple(models)
            self._constant = False
            if not self._models:
                raise ValueError("per-day schedule needs at least one model")
            for model in self._models:
                if not isinstance(model, SurvivalModel):
                    raise TypeError("schedule entries must be SurvivalModel instances")
        self._floor = np.array([model.floor for model in self._models])
        self._table = np.empty((len(self._models), 0))

    @property
    def is_constant(self) -> bool:
        return self._constant

    def model_for(self, d: int) -> SurvivalModel:
        """Delay model of cases confirmed on day d."""
        if d < 0:
            raise ValueError("day must be non-negative")
        if self._constant:
            return self._models[0]
        if d >= len(self._models):
            raise ValueError(f"schedule covers days 0..{len(self._models) - 1}, got {d}")
        return self._models[d]

    def tabulate(self, k_max: int) -> None:
        """Extend the table to cover lags 0..k_max.

        The extent at least doubles, so lags requested in ascending order
        cost a logarithmic number of ``cdf`` calls.
        """
        have = self._table.shape[1]
        if k_max < have:
            return
        lags = np.arange(have, max(k_max + 1, 2 * have))
        new = np.array([np.asarray(model.cdf(lags), dtype=float) for model in self._models])
        self._table = np.concatenate([self._table, new], axis=1)

    def _rows(self, days: np.ndarray) -> int | np.ndarray:
        if days.size and int(days.min()) < 0:
            raise ValueError("day must be non-negative")
        if self._constant:
            return 0
        if days.size and int(days.max()) >= len(self._models):
            raise ValueError(
                f"schedule covers days 0..{len(self._models) - 1}, got {int(days.max())}"
            )
        return days

    def cdf(self, days, lags) -> np.ndarray:
        """Raw F_d(k) for paired non-negative confirmation days d and lags k."""
        days, lags = np.asarray(days), np.asarray(lags)
        if lags.size:
            if int(lags.min()) < 0:
                raise ValueError("lags must be non-negative")
            self.tabulate(int(lags.max()))
        return self._table[self._rows(days), lags]

    def floor(self, days) -> np.ndarray:
        """Clamp floor of the model of each confirmation day."""
        return self._floor[self._rows(np.asarray(days))]


@dataclass(frozen=True, eq=False)
class DailyRates(object):
    """Fatality probability of cases confirmed on each day; ``p[d]`` in [0, 1].

    ``fallback_days`` flags days whose estimation window held no cases and
    was filled from the nearest computable window.
    """

    p: np.ndarray
    fallback_days: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float, copy=True)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("p must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("p values must lie in [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "fallback_days", tuple(self.fallback_days))

    def __len__(self) -> int:
        return int(self.p.size)


# ---------------------------------------------------------------------------
# Normal quantile


# Rational approximation coefficients (lower region / central region), then
# one Halley refinement against erfc; absolute error < 1e-12 on (0, 1).
_NQ_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_NQ_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_NQ_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_NQ_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_NQ_SPLIT = 0.02425


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF on (0, 1).

    Piecewise rational approximation polished with one Halley step on
    erfc, accurate to better than 1e-12 everywhere.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {q}")
    a, b, c, d = _NQ_A, _NQ_B, _NQ_C, _NQ_D
    if q < _NQ_SPLIT:
        u = math.sqrt(-2.0 * math.log(q))
        x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    elif q <= 1.0 - _NQ_SPLIT:
        u = q - 0.5
        v = u * u
        x = (
            (((((a[0] * v + a[1]) * v + a[2]) * v + a[3]) * v + a[4]) * v + a[5])
            * u
            / (((((b[0] * v + b[1]) * v + b[2]) * v + b[3]) * v + b[4]) * v + 1.0)
        )
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    # Halley refinement: e is the CDF error at x.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# Shared helpers


def _upto(table: EpidemicTable, t: int) -> int:
    if t < 0:
        raise ValueError("t must be non-negative")
    return min(t, table.n_days - 1)


def _cases_through(table: EpidemicTable, t: int) -> int:
    upto = _upto(table, t)
    if upto < 0:
        return 0
    return int(table._cum_cases[upto])


def _require_cases(table: EpidemicTable, t: int) -> int:
    r_t = _cases_through(table, t)
    if r_t == 0:
        raise EstimationError(f"no cases confirmed by day {t}")
    return r_t


def _f_values(schedule: DelaySchedule, t: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
    """F_d(t - d) for d = 0..upto from the schedule's table: raw, and with
    each day's clamp floor applied."""
    days = np.arange(upto + 1)
    raw = schedule.cdf(days, t - days)
    return raw, np.maximum(raw, schedule.floor(days))


def _death_weights(deaths: np.ndarray, f: np.ndarray, t: int) -> np.ndarray:
    """Per-day predicted eventual deaths: deaths_by(d, t) / F_d(t - d).

    Days without observed deaths contribute exactly 0 whatever F is; a day
    with deaths but zero CDF mass is an A1 violation.
    """
    bad = (deaths > 0) & (f <= 0.0)
    if np.any(bad):
        d_bad = int(np.nonzero(bad)[0][0])
        raise EstimationError(
            f"assumption A1 violated: no delay CDF mass by day {t} for deaths "
            f"confirmed on day {d_bad}"
        )
    return np.where(deaths > 0, deaths / np.where(f > 0.0, f, 1.0), 0.0)


def _rates_upto(rates: DailyRates, upto: int) -> np.ndarray:
    if len(rates) < upto + 1:
        raise ValueError(f"rates must cover days 0..{upto}, got {len(rates)} entries")
    return rates.p[: upto + 1]


# ---------------------------------------------------------------------------
# Point estimators


def cfr_true(table: EpidemicTable, rates: DailyRates, t: int) -> float:
    """Case-weighted mean of the true daily fatality probabilities by day t."""
    r_t = _require_cases(table, t)
    upto = _upto(table, t)
    p = _rates_upto(rates, upto)
    return float((table.cases[: upto + 1] * p).sum() / r_t)


def cfr_naive(table: EpidemicTable, t: int) -> float:
    """Deaths observed by day t over cases confirmed by day t.

    Underestimates while deaths still accrue; converges only once every
    cohort has resolved.
    """
    r_t = _require_cases(table, t)
    return float(table.observed_deaths(t).sum() / r_t)


def cfr_final(table: EpidemicTable, t: int) -> float:
    """Eventual deaths of cases confirmed by day t over those cases.

    Uses each case's final outcome, so it is only computable in hindsight
    (or in simulations); real-time data cannot provide it.
    """
    r_t = _require_cases(table, t)
    return float(table.cumulative_final_deaths(_upto(table, t)) / r_t)


def cfr_proposed(table: EpidemicTable, schedule: DelaySchedule, t: int) -> float:
    """Delay-adjusted case fatality rate at day t.

    Observed deaths of each cohort are divided by F_d(t - d), the
    probability that a fatal case confirmed on day d has died by t; the
    summed prediction of eventual deaths is divided by cases confirmed by t.
    Unbiased at every t provided each F_d(0) > 0 (assumption A1). Can exceed
    1 in small samples; values are reported unclipped.
    """
    r_t = _require_cases(table, t)
    _, f = _f_values(schedule, t, _upto(table, t))
    return float(_death_weights(table.observed_deaths(t), f, t).sum() / r_t)


def cfr_garske(table: EpidemicTable, model: SurvivalModel, t: int) -> float:
    """Observed deaths over delay-discounted cases, one shared delay model.

    Discounts the denominator instead of inflating the numerator; unbiased
    only while the daily fatality probability is constant, and overestimates
    after the high-rate cohorts of a falling-rate epidemic have resolved.
    This is ``cfr_garske_mod`` on a constant schedule.
    """
    return cfr_garske_mod(table, DelaySchedule(model), t)


def cfr_garske_mod(table: EpidemicTable, schedule: DelaySchedule, t: int) -> float:
    """Denominator-discounted estimator with per-day delay distributions.

    Same construction as ``cfr_garske`` but each cohort is discounted by its
    own F_d; still biased toward a case-and-delay-weighted mean of the daily
    rates rather than the case-weighted mean when rates vary.
    """
    _require_cases(table, t)
    upto = _upto(table, t)
    raw, _ = _f_values(schedule, t, upto)
    return _garske(table.observed_deaths(t).sum(), table.cases[: upto + 1], raw, t)


def _garske(dead, cases: np.ndarray, f: np.ndarray, t: int) -> float:
    """``dead`` observed deaths over cases discounted by raw F_d(t - d)."""
    denom = float(cases @ f)
    if denom <= 0.0:
        raise EstimationError(f"zero delay-weighted case total at day {t}")
    return float(dead / denom)


# ---------------------------------------------------------------------------
# Daily rates, variance, intervals


def _check_rate_day(t: int) -> None:
    if t < 6:
        raise ValueError("daily rate estimation needs t >= 6")


def p_hat_daily(table: EpidemicTable, schedule: DelaySchedule, t: int) -> DailyRates:
    """Daily fatality probabilities from centered 7-day windows at day t.

    For interior days 3 <= d* <= t - 3 the estimate is the delay-adjusted
    death prediction over the window d* - 3..d* + 3 divided by the cases in
    that window. Edge days copy the nearest interior value (days 0..2 take
    the day-3 value, days t - 2..t the day t - 3 value). A window without
    cases borrows the nearest computable window, earlier side on ties, and
    the day is listed in ``fallback_days``. Estimates are clipped to [0, 1].
    """
    _check_rate_day(t)
    _require_cases(table, t)
    upto = _upto(table, t)
    _, f = _f_values(schedule, t, upto)
    w = _death_weights(table.observed_deaths(t), f, t)
    return _window_rates(table.cases[: upto + 1], w, t)


def _window_rates(cases: np.ndarray, w: np.ndarray, t: int) -> DailyRates:
    """``p_hat_daily`` from cases and death weights of days 0..upto."""
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
    p_interior[computable] = np.clip(
        num[computable] / den[computable], 0.0, 1.0
    )
    fallback: tuple[int, ...] = ()
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


def variance_cfr(
    table: EpidemicTable, rates: DailyRates, schedule: DelaySchedule, t: int
) -> float:
    """Asymptotic variance of the delay-adjusted estimator at day t.

    V = sum_d c_d p_d (1 - p_d F_d(t - d)) / F_d(t - d) / r_t**2. Days with
    c_d p_d = 0 contribute nothing and need no CDF mass.
    """
    r_t = _require_cases(table, t)
    upto = _upto(table, t)
    p = _rates_upto(rates, upto)
    _, f = _f_values(schedule, t, upto)
    return _variance(table.cases[: upto + 1], p, f, t, r_t)


def _variance(cases: np.ndarray, p: np.ndarray, f: np.ndarray, t: int, r_t: int) -> float:
    """``variance_cfr`` from cases, rates and floored F of days 0..upto."""
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


def confidence_interval(cfr: float, variance: float, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval cfr +- z_{1 - alpha/2} sqrt(variance).

    Bounds are clipped to [0, 1] for reporting but never cross the point
    estimate, so an estimate outside [0, 1] yields a degenerate endpoint at
    the estimate itself rather than an inverted interval.
    """
    _check_alpha(alpha)
    return _interval(cfr, variance, normal_quantile(1.0 - alpha / 2.0))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _interval(cfr: float, variance: float, z: float) -> tuple[float, float]:
    """``confidence_interval`` with the normal quantile z already computed."""
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    half = z * math.sqrt(variance)
    low = min(max(0.0, cfr - half), cfr)
    high = max(cfr, min(1.0, cfr + half))
    return low, high


@dataclass(frozen=True)
class AssumptionReport:
    """Checks behind the interval's asymptotic validity at a given day.

    A1: every cohort has positive same-day CDF mass F_d(0). A2: daily rates
    bounded away from 0. A3: daily rates bounded away from 1. ``clamped``
    marks that A1 only holds through the empirical clamp floor.
    """

    min_f0: float
    min_p: float
    max_p: float
    a1_ok: bool
    a2_ok: bool
    a3_ok: bool
    clamped: bool = False

    @property
    def all_ok(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok


def validate_assumptions(
    rates: DailyRates, schedule: DelaySchedule, t: int
) -> AssumptionReport:
    """Evaluate assumptions A1-A3 over days 0..t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    p = _rates_upto(rates, t)
    days = np.arange(t + 1)
    raw = schedule.cdf(days, np.zeros_like(days))
    floor = schedule.floor(days)
    min_f0 = float(np.maximum(raw, floor).min())
    clamped = bool(np.any(raw < floor))
    min_p = float(p.min())
    max_p = float(p.max())
    return AssumptionReport(
        min_f0=min_f0,
        min_p=min_p,
        max_p=max_p,
        a1_ok=min_f0 > 0.0,
        a2_ok=min_p > 0.0,
        a3_ok=max_p < 1.0,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Day-by-day series


@dataclass(frozen=True, eq=False)
class EstimateSeries(object):
    """Estimator values per evaluated day; all arrays share the same length.

    Days with no confirmed cases are skipped, so ``t`` may be a strict
    subset of the requested days. ``ci_low <= cfr <= ci_high`` holds on
    every row.
    """

    t: np.ndarray
    r_t: np.ndarray
    cfr_naive: np.ndarray
    cfr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    cfr_garske: np.ndarray
    cfr_garske_mod: np.ndarray
    cfr_final: np.ndarray | None = None
    cfr_true: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.t.size)


def estimate_series(
    table: EpidemicTable,
    days: Sequence[int],
    *,
    alpha: float = 0.05,
    schedule: DelaySchedule | None = None,
    rates: DailyRates | None = None,
    lookback: int = 45,
    include_final: bool = False,
    true_rates: DailyRates | None = None,
) -> EstimateSeries:
    """Evaluate every estimator day by day.

    With ``schedule``/``rates`` given they are treated as known and reused
    at every day. Otherwise the delay CDF is refit empirically at each day
    (``lookback`` rule) and daily rates come from the 7-day window
    estimator, which is the real-data configuration. F and the death weights
    are computed once per day and shared by every estimator; the
    ``cfr_garske`` and ``cfr_garske_mod`` columns hold the same values, the
    shared delay model's on a constant schedule and the per-day variant's
    otherwise. Emits one AssumptionWarning if A1-A3 fail on any evaluated
    day.
    """
    day_grid = np.unique(np.asarray(days, dtype=np.int64))
    if day_grid.size and day_grid[0] < 0:
        raise ValueError("days must be non-negative")
    _check_alpha(alpha)
    z = normal_quantile(1.0 - alpha / 2.0)
    if schedule is not None and day_grid.size:
        # The largest lag any day reads is t - 0 at the last day.
        schedule.tabulate(int(day_grid[-1]))
    rows: list[tuple] = []
    assumption_failed = False
    for t in day_grid.tolist():
        r_t = _cases_through(table, t)
        if r_t == 0:
            continue
        sched_t = schedule if schedule is not None else DelaySchedule(
            fit_empirical(table, t, lookback)
        )
        if rates is None:
            _check_rate_day(t)
        upto = _upto(table, t)
        cases = table.cases[: upto + 1]
        deaths = table.observed_deaths(t)
        raw, f = _f_values(sched_t, t, upto)
        w = _death_weights(deaths, f, t)
        rates_t = rates if rates is not None else _window_rates(cases, w, t)
        dead = deaths.sum()
        naive = float(dead / r_t)
        adjusted = float(w.sum() / r_t)
        garske = _garske(dead, cases, raw, t)
        if not validate_assumptions(rates_t, sched_t, t).all_ok:
            assumption_failed = True
        v = _variance(cases, _rates_upto(rates_t, upto), f, t, r_t)
        low, high = _interval(adjusted, v, z)
        final = cfr_final(table, t) if include_final else math.nan
        truth = cfr_true(table, true_rates, t) if true_rates is not None else math.nan
        rows.append((t, r_t, naive, adjusted, low, high, garske, garske, final, truth))

    if assumption_failed:
        warnings.warn(
            "assumptions A1-A3 failed on some evaluated days; intervals may undercover",
            AssumptionWarning,
            stacklevel=2,
        )
    cols = list(zip(*rows)) if rows else [[] for _ in range(10)]
    return EstimateSeries(
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
