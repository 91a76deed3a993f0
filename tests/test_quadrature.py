import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.special import exp1, logsumexp

from transelect import evidence, priors
from transelect.errors import IntegrationFailure
from transelect.quadrature import (LOG_LIMIT, LOG_WINDOW, REAL_LIMIT, REAL_WINDOW,
                                   _log_trapz, _log_weights, sampling_integral)
from transelect.simulate import AnalysisConfig, ScenarioSpec, run_scenario


def _log_normal_pdf(mu, sd):
    def f(x):
        return (-0.5 * math.log(2.0 * math.pi) - math.log(sd)
                - (x - mu) ** 2 / (2.0 * sd ** 2))
    return f


class TestLogIntegral:
    def test_normal_density_integrates_to_one(self):
        total = sampling_integral(_log_normal_pdf(0.0, 1.0), False, window=(-9.0, 9.0)).value
        assert abs(total) < 1e-8

    def test_window_expansion_recovers_offcenter_mass(self):
        # Nearly all mass lies outside the initial window; expansion finds it.
        total = sampling_integral(_log_normal_pdf(15.0, 0.7), False).value
        assert abs(total) < 1e-6

    def test_non_decaying_tails_raise(self):
        with pytest.raises(IntegrationFailure):
            sampling_integral(lambda x: 0.0 * x, False)

    def test_window_that_keeps_growing_raises(self):
        # a flat integrand on a window of width 1e-60: 200 expansions by half
        # its width reach only about 1.6, far inside the limits
        with pytest.raises(IntegrationFailure, match="window expansion did not converge"):
            sampling_integral(lambda x: np.zeros_like(x), False, (0.0, 1e-60))

    def test_sum_that_never_settles_raises(self):
        # a Gaussian envelope times 1 + 0.9 sin(1e6 x^2): the chirp aliases
        # differently on every grid, so no halving brings the sum within ABS_TOL
        def log_f(x):
            return -0.5 * x ** 2 + np.log1p(0.9 * np.sin(1e6 * x ** 2))

        with pytest.raises(IntegrationFailure,
                           match=r"window \(-11\.0, 13\.0\) did not settle in 10 "
                                 r"halvings: the last one moved it by"):
            sampling_integral(log_f, False)

    def test_lower_boundary_mass_allowed_when_marked(self):
        # exp(-lambda) integrated on x = log(lambda) without the Jacobian: the
        # integrand tends to 1 as lambda -> 0, so mass sits at the lower limit.
        # That is the lambda -> 0 boundary on the log scale, and a truncation
        # on the real scale.
        total = sampling_integral(lambda x: -np.exp(x), True).value
        assert abs(total - math.log(exp1(math.exp(LOG_LIMIT[0])))) < 1e-6
        with pytest.raises(IntegrationFailure):
            sampling_integral(lambda x: -np.exp(x), False)

    def test_additive_constant_linearity(self):
        f = _log_normal_pdf(1.0, 2.0)
        base = sampling_integral(f, False, window=(-15.0, 17.0)).value
        shifted = sampling_integral(lambda x: f(x) + 5.25, False, window=(-15.0, 17.0)).value
        assert abs(shifted - (base + 5.25)) < 1e-12

    def test_defaults(self):
        assert REAL_WINDOW == (-5.0, 7.0) and REAL_LIMIT == (-200.0, 200.0)
        assert LOG_WINDOW == (math.log(1e-8), math.log(20.0))
        assert LOG_LIMIT == (math.log(1e-12), math.log(200.0))

    def test_full_output_grid_and_one_call_per_grid(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return _log_normal_pdf(15.0, 0.7)(x)

        res = sampling_integral(f, False)
        assert abs(res.value) < 1e-6
        # one call per window probe, one taking the last probe to 257 points,
        # one per halving
        assert len(calls) == res.expansions + 1 + 1 + res.halvings
        assert res.expansions >= 1 and res.halvings >= 1
        assert res.xs.size == (257 - 1) * 2 ** res.halvings + 1
        assert res.xs[0] < 14.0 and res.xs[-1] > 16.0
        w = res.weights()
        mean = float(w @ res.xs)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(mean - 15.0) < 1e-8
        assert abs(math.sqrt(float(w @ (res.xs - mean) ** 2)) - 0.7) < 1e-8

    def test_sampling_integral_clips_window_to_scale_limits(self):
        real = sampling_integral(_log_normal_pdf(0.0, 1.0), False, window=(-500.0, 500.0))
        assert abs(real.value) < 1e-8
        assert (real.xs[0], real.xs[-1]) == REAL_LIMIT
        # exponential density of lambda, integrated on x = log(lambda) with
        # the Jacobian x; finite mass at the lambda -> 0 boundary is allowed
        log_scale = sampling_integral(lambda x: -np.exp(x) + x, True, window=(-50.0, 1.0))
        assert abs(log_scale.value) < 1e-6
        assert log_scale.xs[0] == LOG_LIMIT[0]

    @pytest.mark.parametrize("log_f, on_log", [(_log_normal_pdf(15.0, 0.7), False),
                                               (lambda x: -np.exp(x) + x, True)],
                             ids=["real", "log"])
    def test_each_grid_point_scored_once(self, log_f, on_log):
        calls = []

        def f(x):
            calls.append(x.copy())
            return log_f(x)

        res = sampling_integral(f, on_log)
        e, h = res.expansions, res.halvings
        assert e >= 1 and h >= 1
        assert sum(c.size for c in calls) == 129 * (e + 1) + 128 * (2 ** (h + 1) - 1)
        # the last probe grid and the midpoints of each halving are the final grid
        np.testing.assert_array_equal(np.sort(np.concatenate(calls[e:])), res.xs)

    @pytest.mark.parametrize("log_f", [
        lambda x: np.full_like(x, -np.inf),
        # finite only within 1e-6 of 0.01, between two 129-point probe points
        lambda x: np.where(np.abs(x - 0.01) < 1e-6, 0.0, -np.inf),
    ], ids=["all_minus_inf", "missed_spike"])
    def test_probe_without_a_finite_integral_raises(self, log_f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationFailure,
                               match=r"on the probe window \(-5\.0, 7\.0\) is not finite"):
                sampling_integral(log_f, False)


def _assert_logsumexp_float(log_vals, step):
    """_log_trapz gives scipy's logsumexp float exactly, NaN for NaN."""
    got = _log_trapz(log_vals, step)
    want = float(logsumexp(log_vals + _log_weights(log_vals.size, step)))
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


@functools.lru_cache(maxsize=None)
def _acceptance_grids(dist, prior_kind):
    """Every LogIntegral of a quadrature-only analysis of the acceptance
    dataset at n = 100, seed 1000: the power-prior normalisers under prior A
    and the evidence grids, for the four parametric families."""
    grids = []

    def record(*args, **kwargs):
        grids.append(sampling_integral(*args, **kwargs))
        return grids[-1]

    params = {"gamma": {"shape": 2.0, "rate": 3.0}, "student": {"df": 2.0, "ncp": -1.0}}
    with mock.patch.object(evidence, "sampling_integral", record), \
            mock.patch.object(priors, "sampling_integral", record):
        run_scenario(ScenarioSpec(dist, 100, seed=1000, **params[dist]), prior_kind,
                     AnalysisConfig(seed=1000, methods=("quadrature",)))
    return grids


class TestLogTrapzIsLogsumexp:
    """The numpy log-trapezoid returns the installed scipy's logsumexp float."""

    @pytest.mark.parametrize("dist", ["gamma", "student"])
    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_final_grids_of_the_acceptance_datasets(self, dist, prior_kind):
        grids = _acceptance_grids(dist, prior_kind)
        assert len(grids) == (8 if prior_kind == "A" else 4)
        for g in grids:
            _assert_logsumexp_float(g.log_vals, g.xs[1] - g.xs[0])

    def test_random_arrays_with_minus_inf_entries(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            v = rng.normal(size=n) * rng.uniform(0.0, 300.0)
            v[rng.random(n) < rng.uniform(0.0, 0.9)] = -np.inf
            _assert_logsumexp_float(v, float(rng.uniform(1e-4, 1.0)))

    @pytest.mark.parametrize("ties", [2, 3])
    def test_tied_maxima(self, ties):
        rng = np.random.default_rng(ties)
        for _ in range(100):
            n = int(rng.integers(ties + 2, 2000))
            v = np.round(rng.normal(size=n) * 20.0)
            v[1 + rng.choice(n - 2, size=ties, replace=False)] = v.max() + 1.0
            _assert_logsumexp_float(v, float(rng.uniform(1e-4, 1.0)))

    @pytest.mark.parametrize("v", [[-np.inf] * 129, [0.0, np.inf, 1.0], [0.0, np.nan, 1.0]],
                             ids=["all_minus_inf", "plus_inf", "nan"])
    def test_no_finite_maximum(self, v):
        _assert_logsumexp_float(np.array(v), 0.5)
