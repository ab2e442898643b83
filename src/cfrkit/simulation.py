"""Synthetic epidemics and replicate studies of estimator bias and coverage.

A Scenario fixes the case curve, the daily fatality probabilities, and the
delay model; replicates then draw per-day binomial death counts and i.i.d.
delays. Studies aggregate estimator means, interval coverage, and interval
length over replicates on a fixed evaluation grid.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CfrError, ParseError
from .estimators import (
    DailyRates, DelaySchedule, EstimateSeries, _rates_upto, _series, _shared_terms
)
from .linelist import MAX_CASES, MAX_DAY, EpidemicTable, _file_records, _index, _whole
from .survival import SurvivalModel

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "StepRates",
    "Scenario",
    "ReplicateResult",
    "CoverageSummary",
    "StudyResult",
    "build_curve",
    "simulate_replicate",
    "run_study",
    "load_example_arm",
    "read_arm_csv",
    "read_rates_csv",
    "illustrative_daily_rates",
    "ESTIMATORS",
]

# The estimators a study averages, in output column order; StudyResult has a
# mean_<name> and a se_<name> field for each.
ESTIMATORS = ("cfr_naive", "cfr", "cfr_garske", "cfr_garske_mod", "cfr_final")


def _integer(value, name: str) -> int:
    """``value`` as an int; a ValueError names ``name`` if it is no whole
    number. A Python int is kept as it is, also past 2**63, as a seed may be."""
    return value if isinstance(value, int) else int(_whole(value, name))


@dataclass(frozen=True)
class StepRates:
    """Daily fatality probability c1 through day d_star - 1, c2 from d_star
    on; d_star is a whole number >= 0."""

    c1: float
    c2: float
    d_star: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_star", _index(self.d_star, "d_star"))
        for name, value in (("c1", self.c1), ("c2", self.c2)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Monte Carlo configuration: case curve, daily rates, delay model.

    ``rising_arm`` is the first half of the case curve; with ``symmetric``
    it is mirrored to a peak, then padded with zero-case days up to
    ``horizon``. ``p_spec`` is either explicit per-day rates or a step.
    ``delay`` is a single model or a per-day schedule. ``seed`` and
    ``replicates`` pin down the whole study.

    Construction builds three plain attributes, not fields, so that any
    thread may read them: ``curve`` (`build_curve`, read-only), ``daily_rates``
    over days 0..horizon and ``schedule``, ``delay`` as a `DelaySchedule`.
    """

    rising_arm: np.ndarray
    symmetric: bool
    p_spec: DailyRates | StepRates
    delay: SurvivalModel | DelaySchedule
    horizon: int
    seed: int = 0
    replicates: int = 1

    def __post_init__(self) -> None:
        for name in ("horizon", "seed", "replicates"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        arm = _whole(self.rising_arm, "rising_arm counts")
        if arm.ndim != 1 or arm.size == 0:
            raise ValueError("rising_arm must be a non-empty vector")
        if np.any(arm < 0):
            raise ValueError("rising_arm counts must be non-negative")
        arm.setflags(write=False)
        object.__setattr__(self, "rising_arm", arm)
        copies = 2 if self.symmetric else 1
        span = arm.size * copies
        if self.horizon > MAX_DAY:
            raise ValueError(f"horizon {self.horizon} is past the last day {MAX_DAY}")
        if self.horizon + 1 < span:
            raise ValueError(f"horizon {self.horizon} shorter than the constructed curve ({span} days)")
        cases = sum(arm.tolist()) * copies  # exact: an int64 sum may wrap
        if not 0 < cases <= MAX_CASES:
            raise ValueError(f"the curve must hold at least one case and at most {MAX_CASES}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        curve = build_curve(self)
        if isinstance(self.p_spec, StepRates):
            step = self.p_spec
            support = np.nonzero(curve)[0]
            if support.size and step.d_star > int(support[-1]):
                raise ValueError("d_star falls outside the case-curve support")
            d = np.arange(self.horizon + 1)
            rates = DailyRates(np.where(d < step.d_star, step.c1, step.c2))
        elif isinstance(self.p_spec, DailyRates):
            rates = DailyRates(_rates_upto(self.p_spec, self.horizon))
        else:
            raise TypeError("p_spec must be DailyRates or StepRates")
        if isinstance(self.delay, DelaySchedule):
            self.delay.model_for(self.horizon)  # a per-day schedule must cover 0..horizon
            schedule = self.delay
        elif isinstance(self.delay, SurvivalModel):
            schedule = DelaySchedule(self.delay)
        else:
            raise TypeError("delay must be a SurvivalModel or a DelaySchedule")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "daily_rates", rates)
        object.__setattr__(self, "schedule", schedule)


def build_curve(scenario: Scenario) -> np.ndarray:
    """Daily case counts over days 0..horizon, as a read-only array.

    The rising arm, mirrored around the peak when symmetric, then zero-case
    days out to the horizon so late cohorts can resolve.
    """
    arm = scenario.rising_arm
    curve = np.concatenate([arm, arm[::-1]]) if scenario.symmetric else arm
    out = np.zeros(scenario.horizon + 1, dtype=np.int64)
    out[: curve.size] = curve
    out.setflags(write=False)
    return out


def simulate_replicate(scenario: Scenario, replicate_index: int) -> EpidemicTable:
    """Draw one synthetic epidemic.

    Each day's death count is Binomial(c_d, p_d); each death gets an i.i.d.
    delay from the day's model. The stream is seeded with
    SeedSequence(entropy=seed, spawn_key=(replicate_index,)), so replicates
    are independent and reproducible in any order or in parallel. A study
    runs this on its drawing threads. ``replicate_index`` is a whole
    number >= 0.
    """
    index = _index(replicate_index, "replicate_index")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(index,)))
    curve = scenario.curve
    n_die = rng.binomial(curve, scenario.daily_rates.p)
    models = scenario.schedule._models
    if scenario.schedule.is_constant:
        lags = models[0].sample(int(n_die.sum()), rng)
    else:  # the Scenario checked that the models cover days 0..horizon
        lags = np.concatenate([m.sample(n, rng) for m, n in zip(models, n_die.tolist())])
    # The lags are grouped by confirmation day.
    return EpidemicTable._from_events(curve, np.repeat(np.arange(curve.size), n_die), lags)


# Threads that draw study replicates. numpy's Generator releases the GIL in
# its distribution loops, so two draws run side by side. Two are enough: then
# the calling thread's estimation sets the pace, and each further draw in
# flight only holds memory.
_DRAW_THREADS = min(2, os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _draw_pool() -> ThreadPoolExecutor:
    """The process's drawing pool, created by the first study and kept, since
    starting threads per study costs more than the overlap saves. Imported
    here, so that importing cfrkit loads no concurrent.futures."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_DRAW_THREADS, thread_name_prefix="cfrkit-draw")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's threads, but the parent's pool
    # would count them as idle and never start its own: the child's first
    # study would wait forever. It builds a new pool instead, under a new
    # lock, since a parent thread may have held the old one at the fork.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True, eq=False)
class ReplicateResult(object):
    """One replicate's estimate series plus per-day interval hit and length."""

    series: EstimateSeries
    ci_hit: np.ndarray
    ci_length: np.ndarray


@dataclass(frozen=True, eq=False)
class CoverageSummary(object):
    """Per-day fraction of replicates whose interval covered the true rate."""

    days: np.ndarray
    r_t: np.ndarray
    coverage: np.ndarray
    coverage_se: np.ndarray
    mean_ci_length: np.ndarray


@dataclass(frozen=True, eq=False)
class StudyResult(object):
    """Replicate-averaged estimator values on the evaluation grid.

    ``mean_*``/``se_*`` pairs, one per name in ``ESTIMATORS``, give Monte
    Carlo means and standard errors of the mean; ``cfr_true`` is the target
    the intervals should cover.
    """

    days: np.ndarray
    r_t: np.ndarray
    cfr_true: np.ndarray
    mean_cfr: np.ndarray
    se_cfr: np.ndarray
    mean_cfr_naive: np.ndarray
    se_cfr_naive: np.ndarray
    mean_cfr_garske: np.ndarray
    se_cfr_garske: np.ndarray
    mean_cfr_garske_mod: np.ndarray
    se_cfr_garske_mod: np.ndarray
    mean_cfr_final: np.ndarray
    se_cfr_final: np.ndarray
    coverage: CoverageSummary
    replicates: tuple[ReplicateResult, ...] = ()


def _first_eval_day(curve: np.ndarray, known: bool, lookback: int) -> int:
    """First day of the default evaluation grid: the first day with cases in
    known mode, else max(2 * lookback, 6), so that the empirical delay fit has
    matured and the window rate estimator has the six days it needs."""
    return int(np.flatnonzero(curve)[0]) if known else max(2 * _index(lookback, "lookback"), 6)


def run_study(
    scenario: Scenario,
    mode: str,
    *,
    eval_days: Sequence[int] | None = None,
    alpha: float = 0.05,
    lookback: int = 45,
    keep_series: bool = False,
) -> StudyResult:
    """Run all replicates of a scenario and aggregate estimator behaviour.

    ``mode`` selects how much the estimators are told: "known" evaluates
    with the generating delay model and daily rates, isolating estimator
    properties; "estimated" refits the empirical delay CDF and window rates
    at every day, mimicking real-time use. The default evaluation grid is
    every day with confirmed cases (known) or every day from
    max(2 * lookback, 6) (estimated, so the empirical fit has matured and
    the window rates can be estimated). Replicates accumulate in
    ascending index order, making results independent of scheduling. The
    arguments are checked before any replicate is drawn.
    """
    key = mode.lower()
    if key == "known":
        known = True
    elif key == "estimated":
        known = False
    else:
        raise ValueError(f"mode must be known or estimated, got {mode!r}")

    curve = scenario.curve
    if eval_days is None:
        start = _first_eval_day(curve, known, lookback)
        if start > scenario.horizon:
            raise ValueError(
                f"no evaluation days: the default grid starts at day {start}, "
                f"past the horizon {scenario.horizon}"
            )
        days = np.arange(start, scenario.horizon + 1, dtype=np.int64)
    else:
        days = np.unique(_whole(eval_days, "eval_days"))
        if days.size == 0:
            raise ValueError("eval_days must be non-empty")
        if days[0] < 0 or days[-1] > scenario.horizon:
            raise ValueError("eval_days must lie within 0..horizon")

    rates_true = scenario.daily_rates
    # Every replicate has the scenario's cases, so what reads no deaths is built once.
    known_schedule, known_rates = (scenario.schedule, rates_true) if known else (None, None)
    shared = _shared_terms(curve, days, alpha, known_schedule, lookback, known_rates, rates_true)
    if shared.t.size != days.size:
        raise ValueError("every evaluation day needs at least one confirmed case")
    truth = np.cumsum(curve * rates_true.p)[days] / shared.r_t

    n_days = days.size
    sums = np.zeros((len(ESTIMATORS), n_days))
    sumsq = np.zeros_like(sums)
    hit_sum = np.zeros(n_days)
    length_sum = np.zeros(n_days)
    kept: list[ReplicateResult] = []

    n_reps = scenario.replicates
    pool = _draw_pool()
    draws: deque = deque()
    try:
        for index in range(n_reps):
            # Keep the next _DRAW_THREADS replicates in flight while this one
            # is estimated; their tables are taken in index order.
            for ahead in range(index + len(draws), min(index + _DRAW_THREADS + 1, n_reps)):
                draws.append(pool.submit(simulate_replicate, scenario, ahead))
            # simulate_replicate(scenario, index) reproduces a failing replicate
            # alone, and estimate_series on its table gives the same series.
            where = f"replicate {index} of scenario seed {scenario.seed}"
            try:
                table = draws.popleft().result()
                series = _series(table, shared, include_final=True)
            except (CfrError, ValueError) as exc:
                raise type(exc)(f"{where}: {exc}") from exc
            values = np.array([getattr(series, name) for name in ESTIMATORS])
            sums += values
            sumsq += values * values
            hit = (series.ci_low <= truth) & (truth <= series.ci_high)
            length = series.ci_high - series.ci_low
            hit_sum += hit
            length_sum += length
            if keep_series:
                kept.append(ReplicateResult(series, ci_hit=hit, ci_length=length))
    finally:
        for pending in draws:
            pending.cancel()

    mean = sums / n_reps
    if n_reps > 1:
        var = np.maximum(sumsq - n_reps * mean * mean, 0.0) / (n_reps - 1)
        se = np.sqrt(var / n_reps)
    else:
        se = np.full_like(mean, np.nan)
    moments = {
        f"{stat}_{name}": row
        for stat, rows in (("mean", mean), ("se", se))
        for name, row in zip(ESTIMATORS, rows)
    }

    coverage = hit_sum / n_reps
    coverage_se = np.sqrt(coverage * (1.0 - coverage) / n_reps)
    summary = CoverageSummary(
        days=days,
        r_t=shared.r_t,
        coverage=coverage,
        coverage_se=coverage_se,
        mean_ci_length=length_sum / n_reps,
    )
    return StudyResult(
        days=days,
        r_t=shared.r_t,
        cfr_true=truth,
        coverage=summary,
        replicates=tuple(kept),
        **moments,
    )


def _read_column(path: Path, name: str, convert, most: float, what: str) -> list:
    """One value per day, ``convert``ed and in 0..``most``, from the ``name``
    column of a CSV file or package resource, read as a line list is. A
    ParseError names the file, and the line too when a cell is bad, a ``#``
    record holds a quoted line break, a line is not UTF-8 or a record is not
    valid CSV (a bare "\r", an oversized cell); so does one for a missing
    column, no values or more than MAX_DAY + 1, whose rows past those are
    counted, not kept."""
    with path.open("rb") as handle:
        records = _file_records(handle, path)
        header = [cell.strip() for cell in next(records, (0, []))[1]]
        rows = list(islice(records, MAX_DAY + 1))
        more = sum(1 for _ in records)
    if name not in header:
        raise ParseError(f"{path}: needs a {name!r} column")
    if more:
        raise ParseError(f"{path}: {len(rows) + more} rows, past the days 0..{MAX_DAY}")
    col = header.index(name)
    values = []
    for line_no, row in rows:
        try:
            value = convert(row[col])
            if not 0 <= value <= most:  # and not NaN
                raise ValueError(f"{value} outside 0..{most}")
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: bad {what} at line {line_no} ({exc})") from exc
        values.append(value)
    if not values:
        raise ParseError(f"{path}: no {what}s found")
    return values


def read_arm_csv(path: Path) -> np.ndarray:
    """Daily case counts from the ``cases`` column of a CSV file, as
    `_read_column` reads it; a total past MAX_CASES is a ParseError."""
    counts = _read_column(path, "cases", int, MAX_CASES, "case count")
    if (total := sum(counts)) > MAX_CASES:
        raise ParseError(f"{path}: {total} cases, past the {MAX_CASES} a scenario may hold")
    return np.array(counts, dtype=np.int64)


def read_rates_csv(path: Path) -> DailyRates:
    """Daily fatality probabilities from the ``p`` column, as `_read_column` reads it."""
    return DailyRates(_read_column(path, "p", float, 1, "daily rate"))


def load_example_arm() -> np.ndarray:
    """Bundled 301-day rising arm of an illustrative large epidemic curve."""
    return read_arm_csv(resources.files("cfrkit.data").joinpath("example_daily_cases.csv"))


def illustrative_daily_rates(n_days: int) -> DailyRates:
    """Smoothly declining daily fatality probabilities, 5% early to 2.2%,
    over ``n_days``, a whole number >= 1.

    Companion to the bundled example curve for coverage studies where the
    true rate must vary over time.
    """
    n_days = _index(n_days, "n_days", "n_days must be positive")
    if n_days < 1:
        raise ValueError("n_days must be positive")
    d = np.arange(n_days, dtype=float)
    return DailyRates(0.022 + 0.028 * np.exp(-d / 110.0))
