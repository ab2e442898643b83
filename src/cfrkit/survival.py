"""Confirmation-to-death delay distributions and their estimation.

Three interchangeable models of F(k) = P(death within k days | death):
an empirical table built from resolved cohorts, a negative binomial in
mean-dispersion form, and its zero-inflated variant for same-day spikes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that use it, so that `import cfrkit`
# and the empirical-only paths never pay its load time: scipy.special for the
# negative binomial CDF and log-pmf, scipy.optimize for the MLE search only.

from .errors import DegenerateSampleError, EstimationError
from .linelist import EpidemicTable, LineList, _whole

__all__ = [
    "SurvivalModel",
    "Empirical",
    "NegBinomial",
    "Zinb",
    "DelaySample",
    "point_mass",
    "fit_empirical",
    "fit_nb_mle",
    "fit_zinb_mle",
    "nb_loglik",
    "zinb_loglik",
]

# Parameter box for the simplex searches. Wide enough for any plausible
# delay scale; fits that press against it signal an unidentified parameter.
_MU_BOUNDS = (1e-3, 1e3)
_R_BOUNDS = (1e-3, 1e3)
_PI_BOUNDS = (0.0, 1.0 - 1e-6)
_NO_RESOLVED_DEATHS = "insufficient resolved deaths for empirical fit"
# ``fatol`` lies below the float spacing of the objective at realistic sample
# sizes: the negative log-likelihood of ~50k lags is ~1.7e5, where one ulp is
# 2.9e-11. The simplex can then shrink to 1-ulp spacing in x while its values
# still differ by a few ulps, and the search cycles until ``maxfev`` (seen from
# n = 1,000 lags up; 26 of the 82 NB and ZINB fits on the benchmark's seed
# 0..40 line lists hit the 20,000 cap). So the search also stops once its best
# point has been bitwise unchanged for ``_NM_STALL`` iterations. Run uncapped
# on those 82 fits, no search's best point moved again more than 48 iterations
# after its previous move, and the capped ones made their last move within
# 241 iterations of the start, so the stop returns the capped searches' bits.
_NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20_000, "maxfev": 20_000}
_NM_STALL = 200


def _clamp_floor(n_obs):
    """F substituted for a zero CDF value of a fit from n_obs deaths: 1/(n_obs + 1)."""
    return 1.0 / (n_obs + 1)


def _lag_array(k) -> np.ndarray:
    arr = np.asarray(k)
    if np.any(arr < 0):
        raise ValueError("lags must be non-negative")
    return arr


class SurvivalModel:
    """CDF of the confirmation-to-death delay, conditional on eventual death."""

    #: Lower bound substituted when estimators divide by a zero CDF value;
    #: stays 0 except for fitted empirical tables (see Empirical.floor).
    floor: float = 0.0

    def cdf(self, k):
        """P(delay <= k); scalar in, float out; array in, array out."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n i.i.d. delays as an int array."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Empirical(SurvivalModel):
    """Tabulated delay CDF: ``cdf_table[k]`` is P(delay <= k), ending at 1."""

    cdf_table: np.ndarray
    #: Resolved deaths behind a fitted table; drives the clamp floor.
    n_obs: int | None = None

    def __post_init__(self) -> None:
        table = np.array(self.cdf_table, dtype=float, copy=True)
        if table.ndim != 1 or table.size == 0:
            raise ValueError("cdf_table must be a non-empty vector")
        if not np.all(np.isfinite(table)):
            raise ValueError("cdf_table must be finite")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValueError("cdf_table values must lie in [0, 1]")
        if np.any(np.diff(table) < 0.0):
            raise ValueError("cdf_table must be non-decreasing")
        if table[-1] != 1.0:
            raise ValueError("cdf_table must end at exactly 1")
        if self.n_obs is not None and self.n_obs < 0:
            raise ValueError("n_obs must be non-negative")
        table.setflags(write=False)
        object.__setattr__(self, "cdf_table", table)

    @property
    def floor(self) -> float:  # type: ignore[override]
        """Clamp value 1/(n_obs + 1) for zero CDF entries of fitted tables."""
        return 0.0 if self.n_obs is None else _clamp_floor(self.n_obs)

    def cdf(self, k):
        arr = _lag_array(k)
        idx = np.minimum(arr, self.cdf_table.size - 1).astype(np.intp)
        out = self.cdf_table[idx]
        return float(out) if arr.ndim == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        return np.searchsorted(self.cdf_table, u, side="left").astype(np.int64)


@dataclass(frozen=True)
class NegBinomial(SurvivalModel):
    """Negative binomial delay in mean-dispersion form.

    pmf(j) = Gamma(j + r) / (Gamma(r) j!) * (r / (r + mu))**r * (mu / (r + mu))**j,
    so the mean is mu and the variance mu + mu**2 / r.
    """

    mu: float
    r: float

    def __post_init__(self) -> None:
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not 0 < self.r < np.inf:
            raise ValueError(f"r must be finite and positive, got {self.r}")

    @property
    def _success_prob(self) -> float:
        return self.r / (self.r + self.mu)

    def cdf(self, k):
        # P(X <= k) = I_p(r, floor(k) + 1): the regularized incomplete beta
        # function, the same Boost ibeta that scipy's nbinom distribution
        # evaluates, so the values match it bit for bit.
        from scipy.special import betainc

        arr = _lag_array(k)
        out = betainc(self.r, np.floor(arr) + 1.0, self._success_prob)
        return float(out) if arr.ndim == 0 else out

    def pmf(self, k):
        """P(delay == k) at integer lags k."""
        arr = _lag_array(k)
        out = np.exp(_nb_logpmf(arr, self.mu, self.r))
        return float(out) if arr.ndim == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.negative_binomial(self.r, self._success_prob, size=n).astype(np.int64)


@dataclass(frozen=True)
class Zinb(SurvivalModel):
    """Zero-inflated negative binomial: extra point mass pi at lag 0. Its
    NegBinomial(mu, r) is ``_nb``, a plain attribute that no field lists."""

    pi: float
    mu: float
    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pi < 1.0:
            raise ValueError(f"pi must lie in [0, 1), got {self.pi}")
        object.__setattr__(self, "_nb", NegBinomial(self.mu, self.r))  # which checks mu and r

    def cdf(self, k):
        return self.pi + (1.0 - self.pi) * self._nb.cdf(k)

    def pmf(self, k):
        arr = _lag_array(k)
        out = np.where(arr == 0, self.pi, 0.0) + (1.0 - self.pi) * self._nb.pmf(arr)
        return float(out) if arr.ndim == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Fixed draw order (delays, then inflation mask) keeps streams stable.
        lags = self._nb.sample(n, rng)
        inflated = rng.random(n) < self.pi
        lags[inflated] = 0
        return lags


def point_mass(lag: int) -> Empirical:
    """Delay that always equals ``lag`` days."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    table = np.zeros(lag + 1)
    table[-1] = 1.0
    return Empirical(table)


@dataclass(frozen=True, eq=False)
class DelaySample(object):
    """Observed confirmation-to-death lags of resolved deaths."""

    lags: np.ndarray

    def __post_init__(self) -> None:
        lags = _whole(self.lags, "lags")
        if lags.ndim != 1:
            raise ValueError("lags must be one-dimensional")
        if np.any(lags < 0):
            raise ValueError("lags must be non-negative")
        lags.setflags(write=False)
        object.__setattr__(self, "lags", lags)

    def __len__(self) -> int:
        return int(self.lags.size)

    @classmethod
    def from_linelist(cls, linelist: LineList) -> "DelaySample":
        """Collect the lag of every row with a recorded death, in row order."""
        return cls(linelist.lags)


def _as_lags(sample) -> np.ndarray:
    if isinstance(sample, DelaySample):
        return sample.lags
    return DelaySample(np.asarray(sample)).lags


def _nb_logpmf(vals: np.ndarray, mu: float, r: float) -> np.ndarray:
    from scipy.special import gammaln

    vals = vals.astype(float)
    return (
        gammaln(vals + r)
        - gammaln(r)
        - gammaln(vals + 1.0)
        + r * np.log(r / (r + mu))
        + vals * np.log(mu / (r + mu))
    )


def nb_loglik(sample, mu: float, r: float) -> float:
    """Log-likelihood of the lags under NegBinomial(mu, r)."""
    vals, counts = np.unique(_as_lags(sample), return_counts=True)
    return float(counts @ _nb_logpmf(vals, mu, r))


def _zinb_logpmf(vals: np.ndarray, pi: float, mu: float, r: float) -> np.ndarray:
    """ZINB log-pmf at each lag. Zero lags mix the inflation mass with the
    negative binomial zero class: log(pi + (1 - pi) pmf(0)), evaluated as a
    stable logaddexp."""
    terms = np.log1p(-pi) + _nb_logpmf(vals, mu, r)
    log_pi = np.log(pi) if pi > 0.0 else -np.inf
    return np.where(vals == 0, np.logaddexp(log_pi, terms), terms)


def zinb_loglik(sample, pi: float, mu: float, r: float) -> float:
    """Log-likelihood of the lags under Zinb(pi, mu, r)."""
    vals, counts = np.unique(_as_lags(sample), return_counts=True)
    return float(counts @ _zinb_logpmf(vals, pi, mu, r))


def _fit_mle(model: str, logpmf, lags: np.ndarray, x0: np.ndarray, bounds) -> list[float]:
    """Parameters maximizing sum(logpmf(lags, *x)): a bounded Nelder-Mead
    search from x0, stopped once its best point stalls (see ``_NM_STALL``).
    A search that runs out of iterations or evaluations while its best point
    still moves issues a RuntimeWarning naming ``model``."""
    from scipy import optimize

    vals, counts = np.unique(lags, return_counts=True)
    best, stalled = None, 0

    def stop_when_stalled(intermediate_result) -> None:
        nonlocal best, stalled
        # scipy reuses the simplex array, so keep a copy of x's bytes.
        point = (intermediate_result.x.tobytes(), intermediate_result.fun)
        stalled = stalled + 1 if point == best else 0
        best = point
        if stalled >= _NM_STALL:
            raise StopIteration

    res = optimize.minimize(
        lambda x: -float(counts @ logpmf(vals, *x)),
        x0,
        method="Nelder-Mead",
        bounds=bounds,
        options=_NM_OPTIONS,
        callback=stop_when_stalled,
    )
    if res.status in (1, 2):  # maxfev, maxiter
        warnings.warn(
            f"{model} MLE search stopped after {res.nfev} evaluations "
            "while its best point was still moving",
            RuntimeWarning,
            stacklevel=3,
        )
    return [float(v) for v in res.x]


def fit_nb_mle(sample) -> NegBinomial:
    """Maximum-likelihood negative binomial fit.

    Runs a bounded Nelder-Mead search from method-of-moments starting values.
    The likelihood's stationarity in mu forces the fitted mean onto the
    sample mean; r degenerates to the box edge for underdispersed samples.
    A search that reaches its evaluation cap while its best point still
    moves issues a RuntimeWarning.

    Raises:
        DegenerateSampleError: empty sample, or all lags equal (message
            "dispersion unidentifiable").
    """
    lags = _as_lags(sample)
    if lags.size == 0:
        raise DegenerateSampleError("empty delay sample")
    m = float(lags.mean())
    v = float(lags.var())
    if v == 0.0:
        raise DegenerateSampleError("dispersion unidentifiable: all lags equal")
    r0 = m * m / (v - m) if v > m else 100.0
    x0 = np.array([np.clip(m, *_MU_BOUNDS), np.clip(r0, *_R_BOUNDS)])
    bounds = [_MU_BOUNDS, _R_BOUNDS]
    return NegBinomial(*_fit_mle("negative binomial", _nb_logpmf, lags, x0, bounds))


def fit_zinb_mle(sample) -> Zinb:
    """Maximum-likelihood zero-inflated negative binomial fit.

    Same bounded simplex search over (pi, mu, r) from method-of-moments
    starts. A sample without zero lags cannot see the inflation mass: pi is
    pinned to 0 (plain negative binomial fit) and a RuntimeWarning is issued.

    Raises:
        DegenerateSampleError: empty sample, or no lag reaches 2 so the three
            parameters are unidentifiable.
    """
    lags = _as_lags(sample)
    if lags.size == 0:
        raise DegenerateSampleError("empty delay sample")
    if int(lags.max()) < 2:
        raise DegenerateSampleError(
            "zero-inflated fit needs lags of 2 or more to identify all parameters"
        )
    zero_frac = float(np.mean(lags == 0))
    if zero_frac == 0.0:
        warnings.warn(
            "no zero lags in sample; inflation mass pinned to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        nb = fit_nb_mle(lags)
        return Zinb(0.0, nb.mu, nb.r)

    m = float(lags.mean())
    v = float(lags.var())
    pmf0 = float(np.exp(_nb_logpmf(np.array([0]), max(m, 1e-3), 1.0)[0]))
    pi0 = float(np.clip((zero_frac - pmf0) / max(1.0 - pmf0, 1e-12), 0.01, 0.9))
    mu0 = m / (1.0 - pi0)
    denom = v / ((1.0 - pi0) * mu0) - 1.0 - pi0 * mu0
    r0 = mu0 / denom if denom > 0 else 100.0
    x0 = np.array(
        [
            pi0,
            np.clip(mu0, *_MU_BOUNDS),
            np.clip(r0, *_R_BOUNDS),
        ]
    )
    bounds = [_PI_BOUNDS, _MU_BOUNDS, _R_BOUNDS]
    return Zinb(*_fit_mle("zero-inflated negative binomial", _zinb_logpmf, lags, x0, bounds))


def _empirical_cdfs(
    table: EpidemicTable, t: np.ndarray, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical delay CDF at each of the ascending days t (rows) over lags
    0..min(max_lag, t[-1]) (columns), and the resolved deaths n_obs behind
    each row.

    Deaths count when their cohort is eligible at day t: confirmed by
    min(t - lookback, n_days - 1) and, to be dead by t at lag k, by t - k.
    Each row is its integer cumulative counts over its integer total, so it
    reaches exactly 1.0 at its largest eligible lag; a row with n_obs == 0
    is all 0, as is every row of a table with no days.
    """
    width = min(table.max_lag, int(t[-1])) + 1  # past t[-1], no lag is eligible
    cum = np.cumsum(table._eligible_lags(t, lookback, width), axis=1)
    n_obs = cum[:, -1]
    return cum / np.maximum(n_obs, 1)[:, None], n_obs


def fit_empirical(table: EpidemicTable, t: int, lookback: int = 45) -> Empirical:
    """Empirical delay CDF at day t from cohorts old enough to have resolved.

    Only deaths among cases confirmed on or before day t - lookback and dead
    by day t enter the table, so recent unresolved cohorts cannot drag the
    CDF down. The table spans lag 0..the largest eligible lag and is
    normalized to end at 1; ``n_obs`` records the eligible death count
    behind the clamp floor.

    Raises:
        EstimationError: no eligible deaths ("insufficient resolved deaths
            for empirical fit").
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if lookback < 0:
        raise ValueError("lookback must be non-negative")
    (cdf,), (total,) = _empirical_cdfs(table, np.array([t]), lookback)
    if total == 0:
        raise EstimationError(_NO_RESOLVED_DEATHS)
    return Empirical(cdf[: np.searchsorted(cdf, 1.0) + 1], n_obs=int(total))
