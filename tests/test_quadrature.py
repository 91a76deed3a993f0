import math

import pytest

from transelect.errors import IntegrationFailure
from transelect.quadrature import (POSITIVE_WINDOW, REAL_WINDOW, default_limits,
                                   default_window, log_integral)


def _log_normal_pdf(mu, sd):
    def f(x):
        return (-0.5 * math.log(2.0 * math.pi) - math.log(sd)
                - (x - mu) ** 2 / (2.0 * sd ** 2))
    return f


class TestLogIntegral:
    def test_normal_density_integrates_to_one(self):
        total = log_integral(_log_normal_pdf(0.0, 1.0), -9.0, 9.0)
        assert abs(total) < 1e-8

    def test_window_expansion_recovers_offcenter_mass(self):
        # Nearly all mass lies outside the initial window; expansion finds it.
        total = log_integral(_log_normal_pdf(15.0, 0.7), -5.0, 7.0,
                             limits=(-60.0, 60.0))
        assert abs(total) < 1e-6

    def test_non_decaying_tails_raise(self):
        with pytest.raises(IntegrationFailure):
            log_integral(lambda x: 0.0, -5.0, 7.0, limits=(-60.0, 60.0))

    def test_lower_boundary_mass_allowed_when_marked(self):
        # Exponential density: finite at the lower support boundary.
        total = log_integral(lambda x: -x, 1e-8, 20.0, limits=(1e-12, 200.0),
                             boundary_lo=True)
        assert abs(total) < 1e-6

    def test_additive_constant_linearity(self):
        f = _log_normal_pdf(1.0, 2.0)
        base = log_integral(f, -15.0, 17.0)
        shifted = log_integral(lambda x: f(x) + 5.25, -15.0, 17.0)
        assert abs(shifted - (base + 5.25)) < 1e-12

    def test_defaults(self):
        assert default_window(False) == REAL_WINDOW
        assert default_window(True) == POSITIVE_WINDOW
        assert default_limits(False) == (-200.0, 200.0)
        assert default_limits(True)[0] > 0.0

    def test_full_output_grid_and_one_call_per_grid(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return _log_normal_pdf(15.0, 0.7)(x)

        res = log_integral(f, -5.0, 7.0, limits=(-60.0, 60.0), full_output=True)
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
