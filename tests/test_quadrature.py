import math

import numpy as np
import pytest

from transelect.errors import IntegrationFailure
from transelect.quadrature import (LOG_LIMIT, LOG_WINDOW, REAL_LIMIT, REAL_WINDOW,
                                   log_integral, sampling_integral)


def _log_normal_pdf(mu, sd):
    def f(x):
        return (-0.5 * math.log(2.0 * math.pi) - math.log(sd)
                - (x - mu) ** 2 / (2.0 * sd ** 2))
    return f


class TestLogIntegral:
    def test_normal_density_integrates_to_one(self):
        total = log_integral(_log_normal_pdf(0.0, 1.0), -9.0, 9.0).value
        assert abs(total) < 1e-8

    def test_window_expansion_recovers_offcenter_mass(self):
        # Nearly all mass lies outside the initial window; expansion finds it.
        total = log_integral(_log_normal_pdf(15.0, 0.7), -5.0, 7.0,
                             limits=(-60.0, 60.0)).value
        assert abs(total) < 1e-6

    def test_non_decaying_tails_raise(self):
        with pytest.raises(IntegrationFailure):
            log_integral(lambda x: 0.0, -5.0, 7.0, limits=(-60.0, 60.0))

    def test_lower_boundary_mass_allowed_when_marked(self):
        # Exponential density: finite at the lower support boundary.
        total = log_integral(lambda x: -x, 1e-8, 20.0, limits=(1e-12, 200.0),
                             boundary_lo=True).value
        assert abs(total) < 1e-6

    def test_additive_constant_linearity(self):
        f = _log_normal_pdf(1.0, 2.0)
        base = log_integral(f, -15.0, 17.0).value
        shifted = log_integral(lambda x: f(x) + 5.25, -15.0, 17.0).value
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

        res = log_integral(f, -5.0, 7.0, limits=(-60.0, 60.0))
        assert abs(res.value) < 1e-6
        # one call per window probe, one for the initial grid, one per halving
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
