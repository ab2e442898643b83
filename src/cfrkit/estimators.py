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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AssumptionWarning, EstimationError
from .linelist import MAX_DAY, EpidemicTable, _whole
from .survival import _NO_RESOLVED_DEATHS, SurvivalModel, _clamp_floor, _empirical_cdfs

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

_Fit = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]  # a delay source's _fit


class DelaySchedule:
    """Delay distribution per confirmation day, with its CDF tabulated.

    Built either from a single model shared by every day, or from one model
    per day (index = confirmation day) when the delay shifts over time.
    F of day d at lag k is ``schedule.model_for(d).cdf(k)``; estimators read
    it from one (models x lags) table of raw ``cdf`` values at lags 0..K, one
    row for a constant schedule, which grows to a requested lag of at most
    ``MAX_DAY`` with one ``cdf`` call per model and is never rebuilt. A
    per-day schedule covers days 0..len(models) - 1; a constant one covers
    every day. It is one of the block kernel's two delay sources, with
    ``_Lookback``: both answer the private calls below the same way.
    """

    _reads_deaths = False  # F is known, so a study reuses the terms built from it

    def __init__(self, models: SurvivalModel | Sequence[SurvivalModel]):
        if isinstance(models, SurvivalModel):
            self._models: tuple[SurvivalModel, ...] = (models,)
            self._days: float = math.inf
        else:
            self._models = tuple(models)
            self._days = len(self._models)
            if not self._models:
                raise ValueError("per-day schedule needs at least one model")
            for model in self._models:
                if not isinstance(model, SurvivalModel):
                    raise TypeError("schedule entries must be SurvivalModel instances")
        self._floor = np.array([model.floor for model in self._models])
        self._table = np.empty((len(self._models), 0))

    @property
    def is_constant(self) -> bool:
        return self._days == math.inf

    def model_for(self, d: int) -> SurvivalModel:
        """Delay model of cases confirmed on day d."""
        if d < 0:
            raise ValueError("day must be non-negative")
        _check(*self._uncovered(np.array([d])))
        return self._models[min(d, len(self._models) - 1)]

    def _uncovered(self, days: np.ndarray) -> tuple[np.ndarray, Callable[[int], Exception]]:
        """(flags, error) of the check that the schedule covers each day."""
        return days >= self._days, lambda i: ValueError(
            f"schedule covers days 0..{self._days - 1}, got {int(days[i])}"
        )

    def tabulate(self, k_max: int) -> None:
        """Extend the table to cover lags 0..k_max, at most ``MAX_DAY``.

        The extent at least doubles, so lags requested in ascending order
        cost a logarithmic number of ``cdf`` calls.
        """
        if k_max > MAX_DAY:  # the table would take 8 bytes a model per day
            raise ValueError(f"day {k_max} is past the last day {MAX_DAY}")
        have = self._table.shape[1]
        if k_max < have:
            return
        lags = np.arange(have, max(k_max + 1, 2 * have))
        new = np.array([np.asarray(model.cdf(lags), dtype=float) for model in self._models])
        self._table = np.concatenate([self._table, new], axis=1)

    def _fit(self, table: EpidemicTable, c: _Cohorts, work: _Buffers | None = None) -> _Fit:
        """Raw F_d(t - d) from the table, each cohort's floor, each day's
        least floored F_d(0) over its cohorts, and n_obs None: no fit.

        A cohort past a per-day schedule reads its last model; ``_uncovered``
        checks coverage.
        """
        self.tabulate(int(c.t[-1]))
        cdf, floor = self._table, self._floor
        min_f0 = _at_days(self._f0_bounds(), c.t)[0]
        # mode="clip" writes to ``raw`` unbuffered; the lags are in range.
        raw = _array(work, "raw", c.lag.shape)
        if self.is_constant:
            return np.take(cdf[0], c.lag, out=raw, mode="clip"), floor, min_f0, None
        rows = np.minimum(np.arange(c.lag.shape[1]), len(self._models) - 1)
        # Flat indices: a 1-D take is faster than a 2-D gather.
        at = np.add(rows * cdf.shape[1], c.lag, out=_array(work, "scratch", c.lag.shape, np.int64))
        return np.take(cdf, at, out=raw, mode="clip"), floor[rows], min_f0, None

    def _f0_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """For each row t: the least floored F_d(0) over rows d <= t, and
        whether some raw F_d(0) lies below its floor."""
        self.tabulate(0)
        raw0, floor = self._table[:, 0], self._floor
        return (
            np.minimum.accumulate(np.maximum(raw0, floor)),
            np.logical_or.accumulate(raw0 < floor),
        )


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
    sign, p = 1.0, q
    if _NQ_SPLIT <= q <= 1.0 - _NQ_SPLIT:
        u = q - 0.5
        v = u * u
        x = (
            (((((a[0] * v + a[1]) * v + a[2]) * v + a[3]) * v + a[4]) * v + a[5])
            * u
            / (((((b[0] * v + b[1]) * v + b[2]) * v + b[3]) * v + b[4]) * v + 1.0)
        )
    else:
        # Tail expansion at the nearer tail mass. The upper tail is polished
        # as the lower one at 1 - q, which is exact for q > 1/2, and mirrored:
        # its CDF error near 1 would lose digits to cancellation.
        if q > 0.5:
            sign, p = -1.0, 1.0 - q
        u = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    # Halley refinement: e is the CDF error at x.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return sign * (x - u / (1.0 + x * u / 2.0))


# ---------------------------------------------------------------------------
# Shared helpers


def _cases_by(table: EpidemicTable, t: int) -> tuple[int, int]:
    """(upto, r_t) of day t: its last cohort, min(t, n_days - 1), and the
    cases confirmed by t, which must be some."""
    if t < 0:
        raise ValueError("t must be non-negative")
    upto = min(t, table.n_days - 1)
    r_t = int(table._cum_cases[upto]) if upto >= 0 else 0  # upto < 0: a table with no days
    if r_t == 0:
        raise EstimationError(f"no cases confirmed by day {t}")
    return upto, r_t


def _short_rates(rates: DailyRates, upto: int) -> ValueError:
    return ValueError(f"rates must cover days 0..{upto}, got {len(rates)} entries")


def _rates_upto(rates: DailyRates, upto: int) -> np.ndarray:
    if len(rates) < upto + 1:
        raise _short_rates(rates, upto)
    return rates.p[: upto + 1]


def _rate_day_error() -> ValueError:
    return ValueError("daily rate estimation needs t >= 6")


def _negative_variance() -> ValueError:
    return ValueError("variance must be non-negative")


def _zero_denominator(t) -> EstimationError:
    return EstimationError(f"zero delay-weighted case total at day {t}")


def _a1_cases_error(t, d) -> EstimationError:
    return EstimationError(
        f"assumption A1 violated: no delay CDF mass by day {t} for cases confirmed on day {d}"
    )


# ---------------------------------------------------------------------------
# Block kernel
#
# Every estimator reads arrays built for a block of evaluation days at once.
# Row i holds the cohorts d = 0..n_i - 1 of day t_i, n_i = min(t_i, n_days -
# 1) + 1; the columns from n_i on are padding that no result reads.
# Elementwise operations, row-wise cumsums and integer sums give the bits of
# the per-day vectors. Each float sum stays one pairwise sum per day over
# that day's own slice (``_row_sums``): numpy's pairwise sum groups terms by
# length, so a sum over zero-padded rows would round differently.

# Days per block; memory is O(_BLOCK x n_days), never n_days**2. On the
# 466-day benchmark grid (2-core host, 10 s runs at seeds 801-805, medians
# of replicates/s and peak RSS): study-estimated ran at 62.9 and 46.3 MB
# with 64, 56.2 and 45.3 MB with 32, 67.2 and 48.3 MB with 128;
# study-known at 95.8 and 63.0 MB, 86.8 and 63.2 MB, 99.9 and 64.4 MB.
# 128 is faster on both but holds 1.3-2.0 MB more, so 64 stays.
_BLOCK = 64


class _Buffers:
    """A block's (days x cohorts) arrays, kept for the next block of one
    ``_series`` call. Allocated afresh, they would go back to the system
    after each block and be faulted in again at the next, since glibc trims
    its heap once the free memory at its top passes twice the largest chunk
    it has unmapped, here one block array; where it does not trim, arrays
    that grow from one block to the next leave holes below the heap's top.
    They are one allocation instead, of ``size`` float64 per array, which
    raises that bound above them once the first call has freed it. Each
    array is a view that the next block overwrites, and none leaves
    ``_series_block``. ``scratch`` never leaves the function that fills
    it: the F gather's indices, the window prefix sums, ``_row_sums``.
    """

    _NAMES = ("lag", "deaths", "raw", "f", "weights", "windows", "daily", "scratch")

    def __init__(self, size: int) -> None:
        self._rows = np.empty((len(self._NAMES), size))

    def get(self, name: str, shape: tuple[int, int], dtype: type = float) -> np.ndarray:
        """The uninitialised int64 or float64 array ``name`` of ``shape``."""
        row = self._rows[self._NAMES.index(name)]
        return row[: shape[0] * shape[1]].view(dtype).reshape(shape)


def _array(
    work: _Buffers | None, name: str, shape: tuple[int, int], dtype: type = float
) -> np.ndarray:
    """``work``'s array ``name`` of ``shape``, or a new one without ``work``."""
    return np.empty(shape, dtype) if work is None else work.get(name, shape, dtype)


def _check(bad: np.ndarray, error: Callable[[int], Exception]) -> None:
    """Raise ``error(i)`` for the first row i flagged in ``bad``."""
    if bad.any():
        raise error(int(np.argmax(bad)))


@dataclass(frozen=True)
class _Cohorts:
    """The (days x cohorts) layout of a block of days, with a table's
    observed deaths on it."""

    t: np.ndarray  # evaluation days, ascending
    n: np.ndarray  # cohorts of each day
    lag: np.ndarray  # t - d, 0 in the padding
    deaths: np.ndarray  # deaths_by(d, t), 0 in the padding


def _cohorts(table: EpidemicTable, t: np.ndarray, work: _Buffers | None = None) -> _Cohorts:
    """Cohorts of the ascending days t of a table with at least one day."""
    n = np.minimum(t, table.n_days - 1) + 1
    d = np.arange(int(n[-1]))
    lag = np.subtract(t[:, None], d, out=_array(work, "lag", (t.size, d.size), np.int64))
    deaths = table._observed(t, _array(work, "deaths", lag.shape, np.int64))
    return _Cohorts(t, n, np.maximum(lag, 0, out=lag), deaths)


@dataclass(frozen=True)
class _Lookback:
    """The delay source of estimated mode: each day's F is refit from the
    deaths it has seen, by ``fit_empirical``'s ``lookback`` rule. It answers
    the calls a ``DelaySchedule`` answers as the kernel's other source."""

    lookback: int
    _reads_deaths = True

    def __post_init__(self) -> None:
        if self.lookback < 0:
            raise ValueError("lookback must be non-negative")

    def _fit(self, table: EpidemicTable, c: _Cohorts, work: _Buffers | None = None) -> _Fit:
        """F of each day's own ``fit_empirical`` table, all days at once.

        Returns raw F, the clamp floor, the floored F_t(0) and the deaths
        behind each fit, n_obs. A row's CDF is 1.0 from its largest eligible
        lag on, which is the fitted table's last entry and the value it
        reads past its end.
        """
        cdf, n_obs = _empirical_cdfs(table, c.t, self.lookback)
        floor = _clamp_floor(n_obs)
        # Flat indices: a 1-D take is faster than a 2-D gather.
        at = np.minimum(c.lag, cdf.shape[1] - 1, out=_array(work, "scratch", c.lag.shape, np.int64))
        at += np.arange(0, cdf.size, cdf.shape[1])[:, None]
        raw = np.take(cdf, at, out=_array(work, "raw", at.shape), mode="clip")
        return raw, floor[:, None], np.maximum(cdf[:, 0], floor), n_obs

    def _uncovered(self, days: np.ndarray) -> tuple[np.ndarray, None]:
        """A refit covers every day: nothing is flagged, so no error is built."""
        return np.zeros(days.shape, dtype=bool), None


def _divisor(f: np.ndarray) -> np.ndarray:
    """F where it is positive, 1.0 elsewhere: what the weights and the
    variance terms divide by, their zero-mass cells being masked out. When
    every F is positive this is ``f`` itself, not a copy."""
    positive = f > 0.0
    return f if positive.all() else np.where(positive, f, 1.0)


def _weights(
    c: _Cohorts, f: np.ndarray, divisor: np.ndarray, work: _Buffers | None = None, check=_check
) -> np.ndarray:
    """Predicted eventual deaths per cohort: deaths_by(d, t) / F_d(t - d).

    Cohorts without observed deaths contribute exactly 0 whatever F is, as
    the divisor is positive; one with deaths but zero CDF mass is an A1
    violation, which ``check`` is given. ``_divisor`` returns F itself only
    when all of F is positive, and then there is nothing to check.
    """
    if divisor is not f:
        bad = (c.deaths > 0) & (f <= 0.0)
        check(
            bad.any(axis=1),
            lambda i: EstimationError(
                f"assumption A1 violated: no delay CDF mass by day {c.t[i]} for deaths "
                f"confirmed on day {np.argmax(bad[i])}"
            ),
        )
    return np.divide(c.deaths, divisor, out=_array(work, "weights", c.deaths.shape))


def _garske_denominators(cases: np.ndarray, raw: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cases discounted by raw F_d(t - d), one dot product per day.

    The dot product is BLAS ``ddot``, whose summation order is not numpy's
    pairwise one, so ``_row_sums`` cannot stand in for it.
    """
    cases = cases[: raw.shape[1]].astype(float)  # what int64 @ float64 casts to
    return np.array([np.dot(cases[:k], row[:k]) for row, k in zip(raw, n.tolist())])


def _window_count(t: int, n: int) -> int:
    """Window columns of a block whose last day is t with n cohorts: the
    windows centred on d* = 3..t - 3, cut at the table's end, at least one."""
    return max(min(t - 5, n), 1)


@dataclass(frozen=True)
class _Windows:
    """The day-independent half of the window rates, for the windows of
    every day up to some last day. Window j is centred on d* = j + 3 and
    spans cohorts j..j + 6, cut at the table's end."""

    den: np.ndarray  # cases in window j
    left: np.ndarray  # last window <= j with cases, -1 if none
    right: np.ndarray  # first window >= j with cases, len(den) if none


def _windows(cum_cases: np.ndarray, t: int) -> _Windows:
    """``_Windows`` of the days up to t, from at least one day's cumulative cases."""
    n_days = cum_cases.size
    size = _window_count(t, min(t, n_days - 1) + 1)
    # Cases before each cohort, held at the total for 7 columns past the end.
    c_prefix = np.zeros(n_days + 8, dtype=np.int64)
    c_prefix[1 : n_days + 1] = cum_cases
    c_prefix[n_days + 1 :] = c_prefix[n_days]
    den = c_prefix[7 : 7 + size] - c_prefix[:size]
    j = np.arange(size)
    has = den > 0
    left = np.maximum.accumulate(np.where(has, j, -1))
    right = np.minimum.accumulate(np.where(has, j, size)[::-1])[::-1]
    return _Windows(den, left, right)


def _window_rates(
    windows: _Windows, c: _Cohorts, w: np.ndarray, check=_check, work: _Buffers | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p_hat_daily`` window estimates of every day of a block.

    Column j is the window centred on d* = j + 3, inside row i while
    d* <= t_i - 3. Windows from column n_i on hold no cases and copy the
    last computable one, so the columns stop at the block's largest n and
    the last column stands for every later window of its row. Returns the
    estimates, clipped to [0, 1] and with the fallback windows filled, the
    inside mask and the fallback mask. ``windows`` must cover the block's
    last day. ``check`` gets the days with no computable window: of days
    with cases, those with t < 6 alone, which have no window columns.
    """
    size = _window_count(int(c.t[-1]), int(c.n[-1]))
    cut = np.minimum(c.t - 5, size)  # windows of row i: j < cut_i
    check(
        windows.right[0] >= cut,
        lambda i: EstimationError(f"no cases in any daily-rate window by day {c.t[i]}"),
    )
    inside = np.arange(size) < cut[:, None]
    # Padding weights are exactly 0, so each row's prefix holds its total
    # from column n_i on, which is the value a window cut at n_i reads.
    rows, width = w.shape
    w_prefix = _array(work, "scratch", (rows, width + 1))
    w_prefix[:, 0] = 0.0
    np.cumsum(w, axis=1, out=w_prefix[:, 1:])
    p = _array(work, "windows", (rows, size))
    m = min(max(width - 6, 0), size)  # windows that end in the row; the rest read its total
    np.subtract(w_prefix[:, 7 : 7 + m], w_prefix[:, :m], out=p[:, :m])
    np.subtract(w_prefix[:, width:], w_prefix[:, m:size], out=p[:, m:])
    den = windows.den[:size]
    empty = den == 0  # divided by 1 here, then filled or zeroed below
    np.divide(p, np.where(empty, 1, den), out=p)
    np.clip(p, 0.0, 1.0, out=p)
    # Each empty window takes the nearest computable window of the same
    # day, the earlier one on ties, and ``left`` on the days whose windows
    # stop before ``right``. An empty window with no computable one before
    # it has cells only on days that ``check`` flagged, where ``right`` may
    # lie past the block's columns. Cells outside a day's windows are
    # zeroed after.
    j = np.flatnonzero(empty)
    if j.size:
        left, right = windows.left[j], windows.right[j]
        near = np.minimum(np.where((left >= 0) & (j - left <= right - j), left, right), size - 1)
        p[:, j] = np.where((left >= 0) & (right >= cut[:, None]), p[:, left], p[:, near])
    np.multiply(p, inside, out=p)
    return p, inside, inside & empty


def _daily_p(p: np.ndarray, t: np.ndarray, width: int, work: _Buffers | None = None) -> np.ndarray:
    """Rates of days 0..width - 1 from the window estimates: days before
    the first window centre take its value, days after the last take the
    last."""
    rows, size = p.shape
    last = np.minimum(np.maximum(t - 6, 0), size - 1)
    daily = _array(work, "daily", (rows, width))
    daily[:, :3] = p[:, :1]
    body = daily[:, 3 : 3 + size]
    body[...] = p[:, : body.shape[1]]
    tail = np.arange(width) > (last + 3)[:, None]
    np.copyto(daily, p[np.arange(rows), last][:, None], where=tail)
    return daily


def _variance_terms(
    cases: np.ndarray,
    p: np.ndarray,
    f: np.ndarray,
    divisor: np.ndarray,
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Terms c_d p_d (1 - p_d F_d(t - d)) / F_d(t - d) of ``variance_cfr``,
    and the cells that break A1: cohorts d < n with c_d p_d > 0 but no CDF
    mass.

    Cohorts with c_d p_d = 0 contribute nothing and need no CDF mass.
    """
    cp = cases * p
    active = cp > 0
    bad = active & (f <= 0.0)
    if bad.any():  # rare, so the padding d >= n is masked only then
        bad &= np.arange(f.shape[1]) < n[:, None]
    return np.where(active, cp * (1.0 - p * f) / divisor, 0.0), bad


def _row_sums(x: np.ndarray, n: np.ndarray, work: _Buffers | None = None) -> np.ndarray:
    """x[i, :n[i]].sum() for every day i, each day's own pairwise sum; a
    1-D x is one row shared by every day.

    One ``np.add.reduceat`` over the rows laid out as 0.0, x[i], 0.0, with
    the segments [0.0, x[i, :n_i]] at the even indices. ``np.add.reduce``
    starts a sum from its identity 0.0 and adds the pairwise sum of all n_i
    terms; ``reduceat`` starts a segment from a copy of its first element
    and adds the pairwise sum of the rest with the same inner loop. The
    leading 0.0 makes the two agree bit for bit; without it a segment would
    start from x[i, 0] and pair the other terms differently. The trailing
    0.0 keeps the end index of a full row inside the buffer.
    """
    rows, width = n.size, x.shape[-1]
    buf = _array(work, "scratch", (rows, width + 2))
    buf[:, 0] = buf[:, -1] = 0.0
    buf[:, 1:-1] = x
    bounds = np.empty((rows, 2), dtype=np.intp)
    bounds[:, 0] = np.arange(0, rows * (width + 2), width + 2)
    bounds[:, 1] = bounds[:, 0] + n + 1
    return np.add.reduceat(buf.ravel(), bounds.ravel())[::2]


def _window_bounds(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and largest window estimate of each day t over its own windows,
    the prefix j < t - 5 of its row of p; +inf and -inf for a day without
    windows, as a reduction over an empty row gives.

    One ``reduceat`` each over the rows laid out as [prefix, rest]; the
    ``rest`` segments are dropped, and a last full row runs to the end.
    """
    rows, size = p.shape
    ends = np.clip(t - 5, 0, size)
    at = np.empty((rows, 2), dtype=np.intp)
    at[:, 0] = np.arange(0, p.size, size)
    at[:, 1] = at[:, 0] + ends
    at = at.ravel()[: -1 if at[-1, 1] == p.size else None]
    flat = p.ravel()
    lo, hi = np.minimum.reduceat(flat, at)[::2], np.maximum.reduceat(flat, at)[::2]
    lo[ends == 0], hi[ends == 0] = np.inf, -np.inf  # reduceat reads one cell there
    return lo, hi


def _p_bounds(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and largest rate over days 0..t for each day t of p."""
    return np.minimum.accumulate(p), np.maximum.accumulate(p)


def _at_days(running: tuple[np.ndarray, ...], t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each running bound at the days t; days past its end read its last."""
    i = np.minimum(t, running[0].size - 1)
    return tuple(bound[i] for bound in running)


def _known_day(
    table: EpidemicTable, schedule: DelaySchedule, t: int
) -> tuple[_Cohorts, np.ndarray, np.ndarray]:
    """The kernel at the single day t: cohorts, raw F and floored F."""
    c = _cohorts(table, np.array([t]))
    _check(*schedule._uncovered(c.n - 1))
    raw, floor = schedule._fit(table, c)[:2]
    return c, raw, np.maximum(raw, floor)


# ---------------------------------------------------------------------------
# Point estimators


def cfr_true(table: EpidemicTable, rates: DailyRates, t: int) -> float:
    """Case-weighted mean of the true daily fatality probabilities by day t."""
    upto, r_t = _cases_by(table, t)
    p = _rates_upto(rates, upto)
    return float((table.cases[: upto + 1] * p).sum() / r_t)


def cfr_naive(table: EpidemicTable, t: int) -> float:
    """Deaths observed by day t over cases confirmed by day t.

    Underestimates while deaths still accrue; converges only once every
    cohort has resolved.
    """
    _, r_t = _cases_by(table, t)
    return float(table.observed_deaths(t).sum() / r_t)


def cfr_final(table: EpidemicTable, t: int) -> float:
    """Eventual deaths of cases confirmed by day t over those cases.

    Uses each case's final outcome, so it is only computable in hindsight
    (or in simulations); real-time data cannot provide it.
    """
    upto, r_t = _cases_by(table, t)
    return float(table.cumulative_final_deaths(upto) / r_t)


def cfr_proposed(table: EpidemicTable, schedule: DelaySchedule, t: int) -> float:
    """Delay-adjusted case fatality rate at day t.

    Observed deaths of each cohort are divided by F_d(t - d), the
    probability that a fatal case confirmed on day d has died by t; the
    summed prediction of eventual deaths is divided by cases confirmed by t.
    Unbiased at every t provided each F_d(0) > 0 (assumption A1). Can exceed
    1 in small samples; values are reported unclipped.
    """
    _, r_t = _cases_by(table, t)
    c, _, f = _known_day(table, schedule, t)
    w = _weights(c, f, _divisor(f))
    return float(w[0].sum() / r_t)


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
    _cases_by(table, t)
    c, raw, _ = _known_day(table, schedule, t)
    (denom,) = _garske_denominators(table.cases, raw, c.n)
    if denom <= 0.0:
        raise _zero_denominator(t)
    return float(c.deaths[0].sum() / denom)


# ---------------------------------------------------------------------------
# Daily rates, variance, intervals


def p_hat_daily(table: EpidemicTable, schedule: DelaySchedule, t: int) -> DailyRates:
    """Daily fatality probabilities from centered 7-day windows at day t.

    For interior days 3 <= d* <= t - 3 the estimate is the delay-adjusted
    death prediction over the window d* - 3..d* + 3 divided by the cases in
    that window. Edge days copy the nearest interior value (days 0..2 take
    the day-3 value, days t - 2..t the day t - 3 value). A window without
    cases borrows the nearest computable window, earlier side on ties, and
    the day is listed in ``fallback_days``. Estimates are clipped to [0, 1].
    """
    if t < 6:
        raise _rate_day_error()
    _cases_by(table, t)
    c, _, f = _known_day(table, schedule, t)
    w = _weights(c, f, _divisor(f))
    p, _, fallback = _window_rates(_windows(table._cum_cases, t), c, w)
    # Window centres past the last column are fallbacks too.
    centres = np.concatenate([np.nonzero(fallback[0])[0] + 3, np.arange(p.shape[1] + 3, t - 2)])
    return DailyRates(_daily_p(p, c.t, t + 1)[0], fallback_days=tuple(centres.tolist()))


def variance_cfr(
    table: EpidemicTable, rates: DailyRates, schedule: DelaySchedule, t: int
) -> float:
    """Asymptotic variance of the delay-adjusted estimator at day t.

    V = sum_d c_d p_d (1 - p_d F_d(t - d)) / F_d(t - d) / r_t**2. Days with
    c_d p_d = 0 contribute nothing and need no CDF mass.
    """
    upto, r_t = _cases_by(table, t)
    p = _rates_upto(rates, upto)
    c, _, f = _known_day(table, schedule, t)
    terms, bad = _variance_terms(table.cases[: upto + 1], p, f, _divisor(f), c.n)
    if bad.any():
        raise _a1_cases_error(t, np.argmax(bad[0]))
    return float(terms[0].sum() / r_t**2)


def confidence_interval(cfr: float, variance: float, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval cfr +- z_{1 - alpha/2} sqrt(variance).

    Bounds are clipped to [0, 1] for reporting but never cross the point
    estimate, so an estimate outside [0, 1] yields a degenerate endpoint at
    the estimate itself rather than an inverted interval.
    """
    _check_alpha(alpha)
    if variance < 0.0:
        raise _negative_variance()
    low, high = _interval(cfr, variance, normal_quantile(1.0 - alpha / 2.0))
    return float(low), float(high)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if 1.0 - alpha / 2.0 == 1.0:  # alpha <= 2**-53: the quantile would be at 1
        raise ValueError(f"alpha must exceed 2**-53, where 1 - alpha/2 rounds to 1, got {alpha}")


def _interval(cfr, variance, z: float):
    """``confidence_interval`` bounds, elementwise, with the normal quantile
    z already computed and the variance checked."""
    half = z * np.sqrt(variance)
    low = np.minimum(np.maximum(0.0, cfr - half), cfr)
    high = np.maximum(cfr, np.minimum(1.0, cfr + half))
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
    _rates_upto(rates, t)
    day = np.array([t])
    _check(*schedule._uncovered(day))
    (min_f0,), (clamped,) = _at_days(schedule._f0_bounds(), day)
    (min_p,), (max_p,) = _at_days(_p_bounds(rates.p), day)
    return AssumptionReport(
        min_f0=float(min_f0),
        min_p=float(min_p),
        max_p=float(max_p),
        a1_ok=bool(min_f0 > 0.0),
        a2_ok=bool(min_p > 0.0),
        a3_ok=bool(max_p < 1.0),
        clamped=bool(clamped),
    )


# ---------------------------------------------------------------------------
# Series


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
    """Evaluate every estimator at every requested day.

    With ``schedule``/``rates`` given they are treated as known and used
    at every day. Otherwise the delay CDF is refit empirically at each day
    (``lookback`` rule) and daily rates come from the 7-day window
    estimator, which is the real-data configuration.

    Days are evaluated in blocks of ``_BLOCK`` on (days x cohorts) arrays
    that every estimator shares: F, the death weights, the window rates,
    the variance terms, and A1-A3 as prefix minima and maxima. Each float
    sum is still one reduction per day over that day's own cohorts, so
    every value equals the single-day functions' bit for bit whatever the
    block size. Each block checks all its days at once and raises the error
    that its first failing day raises on its own; blocks run in day order.
    What reads no deaths (r_t, ``cfr_true`` and A2-A3 of known rates) is
    built first as vectors over the days; ``run_study`` builds these once
    for all its replicates. With a known schedule and rates the Garske
    denominators and V(t) read no deaths either: each block builds them
    from the grid and F it builds anyway and keeps them, so a study's first
    replicate builds them and its later replicates reuse them. The
    ``cfr_garske`` and ``cfr_garske_mod`` columns hold the same values, the
    shared delay model's on a constant schedule and the per-day variant's
    otherwise.
    Emits one AssumptionWarning if A1-A3 fail on any evaluated day.
    """
    shared = _shared_terms(table.cases, days, alpha, schedule, lookback, rates, true_rates)
    return _series(table, shared, include_final)


@dataclass(frozen=True, eq=False)
class _Shared:
    """Everything ``estimate_series`` computes without reading deaths, as
    vectors over the evaluation days.

    The replicates of a study share their cases, and in known mode their
    schedule and rates too, so ``run_study`` builds this once from its case
    curve, before any draw, and each replicate's blocks do only the work
    that reads its deaths. With known rates and a delay whose F reads no
    deaths, the first replicate's blocks also keep their Garske denominators
    and V(t) in ``late``, keyed by the block's rows, once all its checks have
    passed; later replicates read them there, which leaves them the deaths
    grid, F, the weights and their sums. No (days x cohorts) array is kept.
    """

    t: np.ndarray  # evaluation days, ascending, each with cases
    r_t: np.ndarray
    z: float
    delay: DelaySchedule | _Lookback
    rates: DailyRates | None
    windows: _Windows | None  # rates estimated
    min_p: np.ndarray | None  # rates known
    max_p: np.ndarray | None  # rates known
    true_rates: DailyRates | None  # each block checks that they cover its days
    cfr_true: np.ndarray | None
    # (denom, v) of each block (rows.start, rows.stop), F and rates known;
    # written by _series_block alone, on the calling thread.
    late: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]


def _rates_grid(rates: DailyRates, width: int) -> np.ndarray:
    """Rates of cohorts 0..width - 1; cohorts past the rates read the last."""
    return rates.p[np.minimum(np.arange(width), len(rates) - 1)]


def _joined(parts: list[np.ndarray], dtype: type = float) -> np.ndarray:
    """The blocks' vectors as one; a single block's is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def _shared_terms(
    cases: np.ndarray,
    days: Sequence[int],
    alpha: float,
    schedule: DelaySchedule | None,
    lookback: int,
    rates: DailyRates | None,
    true_rates: DailyRates | None,
) -> _Shared:
    """``_Shared`` of an ``estimate_series`` call on a table with these daily
    ``cases``: F is the schedule's, or refit by the ``lookback`` rule without
    one. Raises for bad arguments; the kernel checks each day."""
    delay = schedule if schedule is not None else _Lookback(lookback)
    day_grid = np.unique(_whole(days, "days"))
    if day_grid.size and day_grid[0] < 0:
        raise ValueError("days must be non-negative")
    _check_alpha(alpha)
    z = normal_quantile(1.0 - alpha / 2.0)
    cum_cases = np.cumsum(cases)
    n = np.minimum(day_grid, cases.size - 1) + 1  # cohorts of each day, 0 with no days
    r_t = np.append(0, cum_cases)[n]  # cases confirmed by each day
    t, n, r_t = day_grid[r_t > 0], n[r_t > 0], r_t[r_t > 0]
    if schedule is not None and day_grid.size:
        # Tabulated once: no evaluation day reads a lag past the last day.
        schedule.tabulate(int(day_grid[-1]))
    windows = _windows(cum_cases, int(t[-1])) if rates is None and t.size else None
    # Running A2-A3 bounds of known rates at each day.
    min_p, max_p = _at_days(_p_bounds(rates.p), t) if rates is not None else (None, None)

    cfr_true = []
    if true_rates is not None:
        for i in range(0, t.size, _BLOCK):
            block = slice(i, i + _BLOCK)
            width = int(n[block][-1])
            weighted = cases[:width] * _rates_grid(true_rates, width)
            cfr_true.append(_row_sums(weighted, n[block]) / r_t[block])
    return _Shared(
        t=t,
        r_t=r_t,
        z=z,
        delay=delay,
        rates=rates,
        windows=windows,
        min_p=min_p,
        max_p=max_p,
        true_rates=true_rates,
        cfr_true=_joined(cfr_true) if true_rates is not None else None,
        late={},
    )


def _series(table: EpidemicTable, shared: _Shared, include_final: bool) -> EstimateSeries:
    """``estimate_series`` of a table whose cases ``shared`` was built from."""
    t = shared.t
    # Room for the widest block: its days by its cohorts, plus the two
    # columns of _row_sums' padding.
    width = min(int(t[-1]), table.n_days - 1) + 3 if t.size else 0
    work = _Buffers(min(_BLOCK, t.size) * width)
    blocks = [
        _series_block(table, shared, slice(i, min(i + _BLOCK, t.size)), work)
        for i in range(0, t.size, _BLOCK)
    ]

    def column(name: str, dtype: type = float) -> np.ndarray:
        return _joined([b[name] for b in blocks], dtype)

    if not column("ok", bool).all():
        warnings.warn(
            "assumptions A1-A3 failed on some evaluated days; intervals may undercover",
            AssumptionWarning,
            stacklevel=3,
        )
    garske = column("cfr_garske")
    return EstimateSeries(
        t=shared.t.copy(),
        r_t=shared.r_t.copy(),
        cfr_naive=column("cfr_naive"),
        cfr=column("cfr"),
        ci_low=column("ci_low"),
        ci_high=column("ci_high"),
        cfr_garske=garske,
        cfr_garske_mod=garske.copy(),
        cfr_final=column("cfr_final") if include_final else None,
        cfr_true=shared.cfr_true.copy() if shared.cfr_true is not None else None,
    )


def _series_block(
    table: EpidemicTable, shared: _Shared, rows: slice, work: _Buffers
) -> dict[str, np.ndarray]:
    """``estimate_series`` columns that read deaths at the days ``rows`` of
    ``shared.t``, plus ``ok``: whether A1-A3 hold on each day. The block's
    largest arrays are those of ``work``.

    Each check flags the block's days at once, in the order the per-day
    computation meets them; ``check`` keeps the error of the first day
    flagged, by the first check that flags it, and the block raises it
    after its last check, as nothing computed on a flagged day can raise
    or warn. The checks on kept late terms do not run again: they passed.
    """
    t = shared.t[rows]
    delay, rates, true_rates = shared.delay, shared.rates, shared.true_rates
    first, error = t.size, None

    def check(bad: np.ndarray, make: Callable[[int], Exception]) -> None:
        nonlocal first, error
        if bad[:first].any():
            first = int(np.argmax(bad))
            error = make(first)

    c = _cohorts(table, t, work)
    width = c.deaths.shape[1]
    raw, floor, min_f0, n_obs = delay._fit(table, c, work)
    if n_obs is not None:
        check(n_obs == 0, lambda i: EstimationError(_NO_RESOLVED_DEATHS))
    if rates is None:
        check(t < 6, lambda i: _rate_day_error())
    check(*delay._uncovered(c.n - 1))
    f = np.maximum(raw, floor, out=_array(work, "f", raw.shape))
    divisor = _divisor(f)
    w = _weights(c, f, divisor, work, check)
    if rates is None:
        p_window = _window_rates(shared.windows, c, w, check, work)[0]
        min_p, max_p = _window_bounds(p_window, t)
    else:
        min_p, max_p = shared.min_p[rows], shared.max_p[rows]
    r_t = shared.r_t[rows]
    late = shared.late.get((rows.start, rows.stop))
    if late is None:
        p = _daily_p(p_window, t, width, work) if rates is None else _rates_grid(rates, width)
        denom = _garske_denominators(table.cases, raw, c.n)
        terms, bad = _variance_terms(table.cases[:width], p, f, divisor, c.n)
        v = _row_sums(terms, c.n, work) / (r_t * r_t)
        check(denom <= 0.0, lambda i: _zero_denominator(t[i]))
        if rates is not None:
            check(t >= len(rates), lambda i: _short_rates(rates, int(t[i])))
        check(*delay._uncovered(t))
        check(bad.any(axis=1), lambda i: _a1_cases_error(t[i], np.argmax(bad[i])))
        check(v < 0.0, lambda i: _negative_variance())
    else:
        denom, v = late
    if true_rates is not None:
        check(c.n > len(true_rates), lambda i: _short_rates(true_rates, int(c.n[i]) - 1))
    if error is not None:
        raise error
    if late is None and rates is not None and not delay._reads_deaths:
        # Every table with these cases has the same terms.
        shared.late[rows.start, rows.stop] = denom, v

    dead = c.deaths.sum(axis=1)
    cfr = _row_sums(w, c.n, work) / r_t
    low, high = _interval(cfr, v, shared.z)
    return {
        "cfr_naive": dead / r_t,
        "cfr": cfr,
        "ci_low": low,
        "ci_high": high,
        "cfr_garske": dead / denom,
        "cfr_final": table._cum_totals[c.n - 1] / r_t,
        "ok": (min_f0 > 0.0) & (min_p > 0.0) & (max_p < 1.0),
    }
