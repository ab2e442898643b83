"""Delay models and fits, checked against independent summation oracles."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from cfrkit import (
    DegenerateSampleError,
    DelaySample,
    Empirical,
    EpidemicTable,
    EstimationError,
    NegBinomial,
    Zinb,
    fit_empirical,
    fit_nb_mle,
    fit_zinb_mle,
    nb_loglik,
    parse_csv,
    point_mass,
    zinb_loglik,
)


def nb_pmf_reference(j: int, mu: float, r: float) -> float:
    """Gamma-formula pmf evaluated term by term, independent of the models."""
    log_p = (
        gammaln(j + r)
        - gammaln(r)
        - gammaln(j + 1)
        + r * math.log(r / (r + mu))
        + j * math.log(mu / (r + mu))
    )
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# NegBinomial


@pytest.mark.parametrize(
    "mu,r", [(10.79, 0.88), (12.59, 1.2191), (0.5, 3.0), (40.0, 0.2)]
)
def test_nb_cdf_matches_pmf_summation(mu, r):
    model = NegBinomial(mu, r)
    for k in (0, 1, 2, 5, 17, 60):
        total = sum(nb_pmf_reference(j, mu, r) for j in range(k + 1))
        assert model.cdf(k) == pytest.approx(total, rel=1e-10)
        assert model.pmf(k) == pytest.approx(nb_pmf_reference(k, mu, r), rel=1e-10)


@pytest.mark.parametrize(
    "mu,r",
    [(10.79, 0.88), (1e-3, 1e-3), (1e-3, 1e3), (1e3, 1e-3), (1e3, 1e3)],
)
def test_nb_cdf_equals_scipy_stats(mu, r):
    # scipy.stats is the oracle here only; the models evaluate the same
    # incomplete beta function without loading it, so values agree exactly.
    p = r / (r + mu)
    nb, zinb = NegBinomial(mu, r), Zinb(0.103, mu, r)
    lags = np.arange(2001)
    np.testing.assert_array_equal(nb.cdf(lags), stats.nbinom.cdf(lags, r, p))
    np.testing.assert_array_equal(
        zinb.cdf(lags), 0.103 + (1 - 0.103) * stats.nbinom.cdf(lags, r, p)
    )
    for lag in (0, 7, 2.5, np.inf):
        assert nb.cdf(lag) == float(stats.nbinom.cdf(lag, r, p))
        assert isinstance(nb.cdf(lag), float)
        assert zinb.cdf(lag) == 0.103 + (1 - 0.103) * float(stats.nbinom.cdf(lag, r, p))


def test_nb_mean_variance_parameterization():
    # Mean mu and variance mu + mu^2/r, from pmf summation out to the tail.
    mu, r = 6.0, 1.5
    j = np.arange(0, 2000)
    pmf = np.array([nb_pmf_reference(int(x), mu, r) for x in j])
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    mean = float((j * pmf).sum())
    var = float(((j - mean) ** 2 * pmf).sum())
    assert mean == pytest.approx(mu, abs=1e-9)
    assert var == pytest.approx(mu + mu * mu / r, abs=1e-6)


@given(
    st.floats(0.05, 200.0),
    st.floats(0.05, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_nb_cdf_monotone_to_one(mu, r):
    model = NegBinomial(mu, r)
    k = np.arange(0, 400)
    values = model.cdf(k)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= -1e-15)
    # 60 standard deviations past the mean: cdf > 0.999 by Chebyshev alone.
    far = int(mu + 60.0 * math.sqrt(mu + mu * mu / r)) + 1
    assert model.cdf(far) > 0.999


def test_nb_validation_and_scalars():
    with pytest.raises(ValueError):
        NegBinomial(0.0, 1.0)
    with pytest.raises(ValueError):
        NegBinomial(1.0, -2.0)
    # An infinite mean or dispersion would reach numpy's sampler as p = 0.
    for mu, r in ((math.inf, 0.9), (10.0, math.inf), (math.nan, 0.9)):
        with pytest.raises(ValueError, match="finite and positive"):
            NegBinomial(mu, r)
    model = NegBinomial(3.0, 1.0)
    assert isinstance(model.cdf(4), float)
    assert model.cdf(np.array([0, 1])).shape == (2,)
    with pytest.raises(ValueError):
        model.cdf(-1)


def test_nb_sampler_tracks_cdf():
    # DKW-style bound: sup |ecdf - cdf| over a big seeded draw.
    model = NegBinomial(10.79, 0.88)
    rng = np.random.default_rng(41)
    draws = model.sample(200_000, rng)
    grid = np.arange(0, 200)
    ecdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    gap = np.abs(ecdf - model.cdf(grid)).max()
    assert gap < 0.005
    assert draws.mean() == pytest.approx(10.79, abs=0.15)


# ---------------------------------------------------------------------------
# Zinb


def test_zinb_cdf_is_mixture():
    pi, mu, r = 0.103, 12.59, 1.2191
    model = Zinb(pi, mu, r)
    nb = NegBinomial(mu, r)
    for k in (0, 1, 3, 10, 40):
        expected = pi + (1 - pi) * sum(nb_pmf_reference(j, mu, r) for j in range(k + 1))
        assert model.cdf(k) == pytest.approx(expected, rel=1e-10)
        assert model.cdf(k) == pytest.approx(pi + (1 - pi) * nb.cdf(k), rel=1e-12)
    assert model.pmf(0) == pytest.approx(pi + (1 - pi) * nb_pmf_reference(0, mu, r))
    assert model.pmf(2) == pytest.approx((1 - pi) * nb_pmf_reference(2, mu, r))


def test_zinb_without_inflation_is_nb_exactly():
    rng = np.random.default_rng(8)
    k = np.arange(200)
    for mu, r in zip(rng.uniform(0.1, 60.0, 200), rng.uniform(0.05, 20.0, 200)):
        zinb, nb = Zinb(0.0, mu, r), NegBinomial(mu, r)
        assert np.array_equal(zinb.cdf(k), nb.cdf(k))
        for lag in (0, 1, 7, 150):
            assert zinb.cdf(lag) == nb.cdf(lag)


def test_zinb_validation():
    with pytest.raises(ValueError):
        Zinb(1.0, 5.0, 1.0)
    with pytest.raises(ValueError):
        Zinb(-0.1, 5.0, 1.0)
    with pytest.raises(ValueError):
        Zinb(0.1, 5.0, 0.0)
    for mu, r in ((math.inf, 1.0), (5.0, math.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            Zinb(0.1, mu, r)
    assert Zinb(0.0, 5.0, 1.0).cdf(0) == pytest.approx(NegBinomial(5.0, 1.0).cdf(0))


def test_zinb_builds_its_negative_binomial_once_outside_its_fields():
    z = Zinb(0.1, 5.0, 1.0)
    assert "_nb" in vars(z)
    assert z._nb == NegBinomial(5.0, 1.0)
    assert z == Zinb(0.1, 5.0, 1.0)
    assert hash(z) == hash(Zinb(0.1, 5.0, 1.0))
    assert repr(z) == "Zinb(pi=0.1, mu=5.0, r=1.0)"
    assert dataclasses.astuple(z) == (0.1, 5.0, 1.0)


def test_zinb_sampler_zero_mass():
    model = Zinb(0.4, 8.0, 2.0)
    rng = np.random.default_rng(11)
    draws = model.sample(100_000, rng)
    # P(0) = pi + (1 - pi) * pmf_nb(0)
    expected = 0.4 + 0.6 * nb_pmf_reference(0, 8.0, 2.0)
    assert np.mean(draws == 0) == pytest.approx(expected, abs=0.006)
    grid = np.arange(0, 120)
    ecdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    assert np.abs(ecdf - model.cdf(grid)).max() < 0.01


# ---------------------------------------------------------------------------
# Empirical / point_mass


def test_empirical_validation():
    with pytest.raises(ValueError, match="non-decreasing"):
        Empirical([0.5, 0.4, 1.0])
    with pytest.raises(ValueError, match="end at exactly 1"):
        Empirical([0.2, 0.9])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Empirical([-0.1, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        Empirical([])


def test_empirical_cdf_lookup_and_tail():
    model = Empirical([0.25, 0.5, 1.0])
    assert model.cdf(0) == 0.25
    assert model.cdf(1) == 0.5
    assert model.cdf(2) == 1.0
    assert model.cdf(500) == 1.0
    assert model.cdf(np.array([0, 3])).tolist() == [0.25, 1.0]


def test_empirical_floor():
    assert Empirical([1.0]).floor == 0.0
    assert Empirical([0.0, 1.0], n_obs=9).floor == pytest.approx(0.1)


def test_empirical_sampler_matches_table():
    model = Empirical([0.2, 0.2, 0.7, 1.0])
    rng = np.random.default_rng(5)
    draws = model.sample(200_000, rng)
    pmf = np.diff(np.concatenate([[0.0], model.cdf_table]))
    for k, mass in enumerate(pmf):
        assert np.mean(draws == k) == pytest.approx(mass, abs=0.005)


def test_point_mass():
    model = point_mass(3)
    assert model.cdf(2) == 0.0
    assert model.cdf(3) == 1.0
    rng = np.random.default_rng(0)
    assert set(model.sample(50, rng).tolist()) == {3}
    assert point_mass(0).cdf(0) == 1.0
    with pytest.raises(ValueError):
        point_mass(-1)


# ---------------------------------------------------------------------------
# DelaySample


def test_delay_sample_from_linelist():
    ll = parse_csv("confirm_date,death_date\n0,3\n1,\n2,2\n")
    sample = DelaySample.from_linelist(ll)
    assert sample.lags.tolist() == [3, 0]  # in row order
    assert len(sample) == 2


def test_delay_sample_validation():
    with pytest.raises(ValueError):
        DelaySample(np.array([-1, 2]))


@pytest.mark.parametrize(
    "lags, bad", [([1.7, 2.2, 5.9], "1.7"), ([1e30], "1e+30"), ([2, np.nan], "nan")]
)
def test_delay_sample_refuses_lags_that_are_no_whole_numbers(lags, bad):
    """Lags follow the line list's whole-number rule: a fractional one is
    refused, not truncated, and so is one past int64; whole floats pass."""
    message = f"^lags must be finite whole numbers, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        DelaySample(lags)
    with pytest.raises(ValueError, match=message):
        fit_nb_mle(lags)
    assert DelaySample([3.0, 0.0]).lags.tolist() == [3, 0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Empirical([0.5, np.nan, 1.0]), "cdf_table must be finite"),
        (lambda: Empirical([0.5, 1.0], n_obs=-1), "n_obs must be non-negative"),
        (lambda: DelaySample(np.zeros((2, 2))), "lags must be one-dimensional"),
        (lambda: fit_empirical(EpidemicTable([1], [[1]]), -1), "t must be non-negative"),
        (lambda: fit_empirical(EpidemicTable([1], [[1]]), 0, lookback=-1),
         "lookback must be non-negative"),
    ],
    ids=["empirical-not-finite", "empirical-n-obs", "sample-2d", "fit-negative-t",
         "fit-negative-lookback"],
)
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# Log-likelihoods (oracle: scipy logpmf summed observation by observation)


@pytest.mark.parametrize("mu,r", [(10.79, 0.88), (3.3, 2.0)])
def test_nb_loglik_oracle(mu, r):
    rng = np.random.default_rng(3)
    lags = rng.negative_binomial(r, r / (r + mu), size=500)
    expected = float(stats.nbinom.logpmf(lags, r, r / (r + mu)).sum())
    assert nb_loglik(lags, mu, r) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("pi", [0.0, 0.103, 0.5])
def test_zinb_loglik_oracle(pi):
    mu, r = 12.59, 1.2191
    rng = np.random.default_rng(4)
    lags = rng.negative_binomial(r, r / (r + mu), size=400)
    lags[rng.random(400) < 0.2] = 0
    pmf = pi * (lags == 0) + (1 - pi) * stats.nbinom.pmf(lags, r, r / (r + mu))
    expected = float(np.log(pmf).sum())
    assert zinb_loglik(lags, pi, mu, r) == pytest.approx(expected, rel=1e-12)


def test_zinb_loglik_without_inflation_is_nb_exactly():
    rng = np.random.default_rng(9)
    for mu, r in zip(rng.uniform(0.1, 60.0, 200), rng.uniform(0.05, 20.0, 200)):
        lags = rng.negative_binomial(r, r / (r + mu), size=300)
        assert zinb_loglik(lags, 0.0, mu, r) == nb_loglik(lags, mu, r)


# ---------------------------------------------------------------------------
# Maximum likelihood fits


def test_nb_mle_mean_identity():
    # The fitted mean must sit on the sample mean (stationarity in mu).
    rng = np.random.default_rng(12)
    for _ in range(3):
        lags = rng.negative_binomial(0.9, 0.9 / (0.9 + 11.0), size=800)
        fit = fit_nb_mle(lags)
        assert abs(fit.mu - lags.mean()) < 1e-6


def test_nb_mle_recovery():
    model = NegBinomial(10.79, 0.88)
    rng = np.random.default_rng(123)
    fit = fit_nb_mle(model.sample(20_000, rng))
    assert fit.mu == pytest.approx(10.79, abs=0.3)
    assert fit.r == pytest.approx(0.88, abs=0.05)


def test_nb_mle_beats_moment_start():
    rng = np.random.default_rng(9)
    lags = rng.negative_binomial(1.3, 1.3 / (1.3 + 7.0), size=600)
    fit = fit_nb_mle(lags)
    m, v = float(lags.mean()), float(lags.var())
    r_mom = m * m / (v - m)
    assert nb_loglik(lags, fit.mu, fit.r) >= nb_loglik(lags, m, r_mom) - 1e-9


def test_nb_mle_underdispersed_hits_box_edge():
    fit = fit_nb_mle(np.array([5, 5, 5, 6]))
    assert fit.mu == pytest.approx(5.25, abs=1e-6)
    assert fit.r == pytest.approx(1e3, rel=1e-3)


def test_nb_mle_degenerate_samples():
    with pytest.raises(DegenerateSampleError, match="empty"):
        fit_nb_mle(np.array([], dtype=int))
    with pytest.raises(DegenerateSampleError, match="dispersion unidentifiable"):
        fit_nb_mle(np.array([4, 4, 4, 4]))


def test_zinb_mle_recovery():
    model = Zinb(0.103, 12.59, 1.2191)
    rng = np.random.default_rng(77)
    fit = fit_zinb_mle(model.sample(8_000, rng))
    assert fit.pi == pytest.approx(0.103, abs=0.02)
    assert fit.mu == pytest.approx(12.59, abs=0.5)
    assert fit.r == pytest.approx(1.2191, abs=0.12)


def test_zinb_mle_no_zeros_pins_pi():
    lags = np.array([3, 4, 5, 6, 7, 8, 9, 10, 12, 15])
    with pytest.warns(RuntimeWarning, match="inflation mass pinned"):
        fit = fit_zinb_mle(lags)
    assert fit.pi == 0.0
    assert fit.mu == pytest.approx(lags.mean(), abs=1e-6)


def test_zinb_mle_degenerate_samples():
    with pytest.raises(DegenerateSampleError, match="empty"):
        fit_zinb_mle(np.array([], dtype=int))
    with pytest.raises(DegenerateSampleError, match="lags of 2 or more"):
        fit_zinb_mle(np.array([0, 1, 0, 1]))


def test_zinb_mle_loglik_not_below_truth():
    model = Zinb(0.2, 9.0, 1.1)
    rng = np.random.default_rng(21)
    lags = model.sample(3_000, rng)
    fit = fit_zinb_mle(lags)
    assert zinb_loglik(lags, fit.pi, fit.mu, fit.r) >= zinb_loglik(
        lags, 0.2, 9.0, 1.1
    ) - 1e-6


# Benchmark-like lags (the generator's mean 10.79 and dispersion 0.88): both
# searches on the seed-4 draw cycle to the 20,000-evaluation cap without the
# stall stop, those on the seed-0 draw converge.
MLE_SAMPLES = {
    "nb-stalls": lambda: np.random.default_rng(4).negative_binomial(0.88, 0.88 / 11.67, 20_000),
    "nb-converges": lambda: np.random.default_rng(0).negative_binomial(0.88, 0.88 / 11.67, 20_000),
    "box-edge": lambda: np.array([5, 5, 5, 6]),
    "zinb-zeros": lambda: Zinb(0.2, 9.0, 1.1).sample(3_000, np.random.default_rng(21)),
}


@pytest.mark.parametrize("name", list(MLE_SAMPLES))
def test_mle_stall_stop_matches_uncapped_search(monkeypatch, name):
    from scipy import optimize

    lags = MLE_SAMPLES[name]()
    minimize = optimize.minimize
    evaluations = []

    def counting(fun, x0, **kwargs):
        evaluations.append(0)

        def counted(x):
            evaluations[-1] += 1
            return fun(x)

        return minimize(counted, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", counting)
    with warnings.catch_warnings():
        # A search that ends at its cap while still moving fails the test.
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "no zero lags", RuntimeWarning)
        fits = fit_nb_mle(lags), fit_zinb_mle(lags)
    assert len(evaluations) == 2 and max(evaluations) <= 2000

    # The oracle: the same searches without the stall stop, run to their caps.
    monkeypatch.setattr(
        optimize, "minimize", lambda *args, callback=None, **kwargs: minimize(*args, **kwargs)
    )
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "no zero lags|.*still moving", RuntimeWarning)
        uncapped = fit_nb_mle(lags), fit_zinb_mle(lags)
    assert fits == uncapped


def test_mle_stall_stop_needs_unchanged_iterations_in_a_row(monkeypatch):
    from scipy import optimize
    from cfrkit import survival

    stall = survival._NM_STALL
    stopped_at = []

    def scripted(fun, x0, callback=None, **kwargs):
        """Moves the best point after every stall - 1 unchanged iterations,
        three times, then holds it."""
        x = np.array(x0, dtype=float)
        for step in range(10 * stall):
            if step < 3 * stall and step % stall == 0:
                # In place, as scipy does, and with an equal value: only a
                # snapshot of x's bytes sees the move.
                x[0] += 1.0
            try:
                callback(intermediate_result=optimize.OptimizeResult(x=x, fun=0.0))
            except StopIteration:
                stopped_at.append(step)
                break
        return optimize.OptimizeResult(x=x, status=99, nfev=step + 1)

    monkeypatch.setattr(optimize, "minimize", scripted)
    fit_nb_mle(np.array([1, 2, 3, 5, 8]))
    assert stopped_at == [3 * stall]


def test_mle_search_out_of_evaluations_warns(monkeypatch):
    from cfrkit import survival

    monkeypatch.setitem(survival._NM_OPTIONS, "maxfev", 10)
    lags = MLE_SAMPLES["nb-converges"]()
    with pytest.warns(RuntimeWarning, match=r"^negative binomial MLE search stopped after 10 "):
        fit_nb_mle(lags)
    with pytest.warns(RuntimeWarning, match=r"^zero-inflated negative binomial MLE search stopped"):
        fit_zinb_mle(lags)


# ---------------------------------------------------------------------------
# fit_empirical


def brute_empirical(table: EpidemicTable, t: int, lookback: int):
    """Direct scan over (day, lag) cells implementing the eligibility rule."""
    counts: dict[int, int] = {}
    for d in range(table.n_days):
        if d > t - lookback:
            continue
        for k in range(table.max_lag + 1):
            if d + k <= t and table.deaths[d, k] > 0:
                counts[k] = counts.get(k, 0) + int(table.deaths[d, k])
    total = sum(counts.values())
    if total == 0:
        return None
    k_max = max(counts)
    pmf = np.array([counts.get(k, 0) for k in range(k_max + 1)], dtype=float)
    return np.cumsum(pmf) / total, total


def test_fit_empirical_hand_example():
    # Eligible at t=50, lookback=45: cohorts confirmed on days 0..5 only.
    table = EpidemicTable.from_sparse(
        [10, 10, 10, 10, 10, 10, 10, 50],
        {0: {0: 1, 2: 3}, 5: {1: 2}, 7: {0: 4}},
    )
    fit = fit_empirical(table, 50, lookback=45)
    # Deaths: lag 0 x1, lag 1 x2, lag 2 x3 among eligible; day 7 excluded.
    assert fit.cdf_table == pytest.approx([1 / 6, 3 / 6, 1.0])
    assert fit.n_obs == 6
    assert fit.floor == pytest.approx(1 / 7)


def test_fit_empirical_brute_force_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        n_days = int(rng.integers(1, 60))
        cases = rng.integers(0, 30, size=n_days)
        deaths = np.zeros((n_days, 10), dtype=np.int64)
        for d in range(n_days):
            if cases[d] == 0:
                continue
            n_die = int(rng.integers(0, min(cases[d], 6) + 1))
            lags = rng.integers(0, 10, size=n_die)
            np.add.at(deaths[d], lags, 1)
        table = EpidemicTable(cases, deaths)
        t = int(rng.integers(0, 80))
        lookback = int(rng.choice([0, 3, 45]))
        expected = brute_empirical(table, t, lookback)
        if expected is None:
            with pytest.raises(EstimationError, match="insufficient resolved deaths"):
                fit_empirical(table, t, lookback)
            continue
        fit = fit_empirical(table, t, lookback)
        cdf, total = expected
        assert fit.n_obs == total
        assert fit.cdf_table == pytest.approx(cdf, abs=1e-12)
        assert fit.cdf_table[-1] == 1.0
        checked += 1
    assert checked > 50


def test_fit_empirical_excludes_recent_cohorts():
    # A death in a young cohort must not enter the table.
    table = EpidemicTable.from_sparse([5, 5], {0: {2: 1}, 1: {0: 2}})
    fit = fit_empirical(table, 3, lookback=3)
    assert fit.n_obs == 1
    assert fit.cdf_table.tolist() == [0.0, 0.0, 1.0]


def test_fit_empirical_no_eligible_deaths():
    table = EpidemicTable.from_sparse([5, 5], {1: {0: 2}})
    with pytest.raises(EstimationError, match="insufficient resolved deaths"):
        fit_empirical(table, 45, lookback=45)
    with pytest.raises(EstimationError, match="insufficient resolved deaths"):
        fit_empirical(table, 10, lookback=45)


def test_fit_empirical_recovers_generating_cdf():
    # Big single-cohort draw: fitted table within a DKW-style band of truth.
    model = NegBinomial(10.79, 0.88)
    rng = np.random.default_rng(6)
    lags = model.sample(8_000, rng)
    width = int(lags.max()) + 1
    deaths = np.zeros((1, width), dtype=np.int64)
    np.add.at(deaths[0], lags, 1)
    table = EpidemicTable([8_000], deaths)
    fit = fit_empirical(table, width + 50, lookback=45)
    grid = np.arange(fit.cdf_table.size)
    assert np.abs(fit.cdf(grid) - model.cdf(grid)).max() < 0.03
