import math

import numpy as np
import pytest

from transelect.errors import DegenerateData, NonPositiveInput
from transelect.families import (ALL_FAMILIES, PARAMETRIC_FAMILIES, Family,
                                 compute_shift, prepare, standardize)
from transelect.likelihood import LikelihoodContext

from _oracles import (fd_log_jacobian, forward, log_jacobian, make_data,
                      transform_in_data_order)


def transformed(family, data, lam=0.0):
    """The library's transformed data, in the data's order."""
    return transform_in_data_order(family, data, lam)[0]


class TestStandardize:
    def test_symmetric_three_points(self):
        np.testing.assert_allclose(standardize([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateData):
            standardize([5.0, 5.0, 5.0])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateData):
            standardize([1.0, 2.0])

    def test_output_moments(self):
        z = standardize([0.0, 0.0, 3.0, 1.0])
        assert abs(z.mean()) < 1e-12
        assert abs(z.std(ddof=1) - 1.0) < 1e-12

    def test_prepared_moments_random(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            data = prepare(rng.gamma(2.0, 1.0, size=37))
            assert abs(data.standardized.mean()) < 1e-12
            assert abs(data.standardized.std(ddof=1) - 1.0) < 1e-12


class TestComputeShift:
    def test_all_positive_no_shift(self):
        assert compute_shift([1.0, 2.0, 3.0]) == (0.0, 0.0)

    def test_half_smallest_positive_value(self):
        xi, eps = compute_shift([-1.0, 0.0, 1.0])
        assert eps == 0.5
        assert xi == 1.5

    def test_isolated_minimum_keeps_epsilon_small(self):
        # eps comes from the smallest positive observation, not from the
        # (possibly huge) gap between the minimum and the rest of the data.
        xi, eps = compute_shift([-5.0, -1.0, 0.4, 2.0])
        assert eps == 0.2
        assert xi == 5.2

    def test_no_positive_values_falls_back_to_gap(self):
        xi, eps = compute_shift([-3.0, -1.0, 0.0])
        assert eps == 1.0
        assert xi == 4.0

    def test_all_equal_rejected(self):
        with pytest.raises(DegenerateData):
            compute_shift([-2.0, -2.0, -2.0])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateData, match="empty vector"):
            compute_shift([])

    def test_shifted_strictly_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = prepare(rng.normal(size=25))
            shifted = data.shifted()
            assert np.all(shifted > 0.0)
            assert data.epsilon > 0.0
            assert shifted.min() >= data.epsilon * (1.0 - 1e-12)


class TestForward:
    def test_boxcox_lambda_one(self):
        data = make_data([2.0])
        np.testing.assert_allclose(transformed(Family.BOXCOX, data, 1.0), [1.0])

    def test_modulus_zero_branch(self):
        data = make_data([-3.0])
        np.testing.assert_allclose(transformed(Family.MODULUS, data, 0.0),
                                   [-math.log(4.0)])

    def test_yeojohnson_two_branch_negative(self):
        data = make_data([-1.0])
        np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, 2.0),
                                   [-math.log(2.0)])

    def test_dual_small_lambda_limit(self):
        data = make_data([2.0])
        got = transformed(Family.DUAL, data, 1e-8)[0]
        assert abs(got - math.log(2.0)) < 1e-8

    def test_id_returns_input(self):
        data = make_data([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(transformed(Family.ID, data), data.standardized)

    def test_log_uses_shifted_input(self):
        data = make_data([-0.5, 0.5, 1.0], xi=1.0, eps=0.5)
        np.testing.assert_allclose(transformed(Family.LOG, data),
                                   np.log([0.5, 1.5, 2.0]))

    def test_dual_rejects_nonpositive_lambda(self):
        ctx = LikelihoodContext(Family.DUAL, make_data([1.0, 2.0]))
        assert ctx.loglik(-1.0) == -math.inf
        assert ctx.loglik(0.0) == -math.inf

    def test_shift_family_rejects_nonpositive_input(self):
        data = make_data([-1.0, 1.0])
        for family in (Family.LOG, Family.BOXCOX, Family.DUAL):
            with pytest.raises(NonPositiveInput):
                LikelihoodContext(family, data)

    def test_nonfinite_lambda_rejected(self):
        ctx = LikelihoodContext(Family.BOXCOX, make_data([1.0, 2.0]))
        assert ctx.loglik(math.nan) == -math.inf

    def test_matches_reference_transform(self):
        # The library's cached-log formulas against the elementwise reference,
        # at the branch points, inside their tolerance and over a wide range.
        # The tolerance is relative: a small shift epsilon puts values near 1e15.
        rng = np.random.default_rng(5)
        lams = (0.0, 1e-11, -1e-11, 2.0, 2.0 + 1e-11, 2.0 - 1e-11) \
            + tuple(np.linspace(-3.0, 4.0, 15))
        for family in ALL_FAMILIES:
            for _ in range(3):
                y = rng.normal(size=30)
                xi = compute_shift(y)[0] if family.requires_shift else 0.0
                data = make_data(y, xi=xi)
                for lam in lams:
                    if family is Family.DUAL and lam <= 0.0:
                        continue
                    z, lj = transform_in_data_order(family, data, lam)
                    np.testing.assert_allclose(z, forward(family, data, lam),
                                               rtol=1e-9, atol=1e-9,
                                               err_msg=f"{family.value} {lam}")
                    assert abs(lj - log_jacobian(family, data, lam)) < 1e-9, (family, lam)


class TestContinuity:
    def test_zero_branch_continuity(self):
        pos = make_data([0.3, 1.0, 2.5])
        mixed = make_data([-1.4, -0.2, 0.9, 2.0])
        cases = [(Family.BOXCOX, pos), (Family.MODULUS, mixed)]
        for family, data in cases:
            at_zero = transformed(family, data, 0.0)
            for lam in (1e-9, -1e-9):
                np.testing.assert_allclose(transformed(family, data, lam), at_zero,
                                           atol=1e-7)
        # Dual's parameter domain is the open positive axis, so the limit branch
        # is reached from above only.
        np.testing.assert_allclose(transformed(Family.DUAL, pos, 1e-9),
                                   np.log(pos.standardized), atol=1e-7)

    def test_yeojohnson_continuity_at_zero_and_two(self):
        data = make_data([-1.4, -0.2, 0.9, 2.0])
        np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, 1e-9),
                                   transformed(Family.YEOJOHNSON, data, 0.0), atol=1e-7)
        np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, 2.0 - 1e-9),
                                   transformed(Family.YEOJOHNSON, data, 2.0), atol=1e-7)
        np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, 2.0 + 1e-9),
                                   transformed(Family.YEOJOHNSON, data, 2.0), atol=1e-7)


class TestFamilyRelationships:
    def test_modulus_matches_boxcox_shifted_by_one(self):
        y = np.array([0.2, 0.9, 1.7, 3.1])
        mod = make_data(y)
        bc = make_data(y + 1.0)
        for lam in (-1.0, -0.3, 0.0, 0.5, 1.0, 2.2):
            np.testing.assert_allclose(transformed(Family.MODULUS, mod, lam),
                                       transformed(Family.BOXCOX, bc, lam))

    def test_yeojohnson_matches_modulus_on_positive(self):
        data = make_data([0.2, 0.9, 1.7, 3.1])
        for lam in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, lam),
                                       transformed(Family.MODULUS, data, lam))

    def test_modulus_and_yeojohnson_identity_at_lambda_one(self):
        data = make_data([-2.0, -0.3, 0.0, 0.4, 1.8])
        np.testing.assert_allclose(transformed(Family.MODULUS, data, 1.0),
                                   data.standardized, rtol=0.0, atol=5e-16)
        np.testing.assert_allclose(transformed(Family.YEOJOHNSON, data, 1.0),
                                   data.standardized, rtol=0.0, atol=5e-16)


class TestMonotonicity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_forward_increasing_in_y(self, family):
        rng = np.random.default_rng(7)
        lams = {Family.DUAL: (0.3, 1.0, 2.5)}.get(family, (-1.5, 0.0, 0.7, 2.0, 3.0))
        for lam in lams:
            y = np.sort(rng.normal(size=40))
            xi = 0.0
            if family.requires_shift:
                xi, _ = compute_shift(y)
                xi = xi if xi else 0.0
            data = make_data(y, xi=xi)
            out = transformed(family, data, lam)
            assert np.all(np.diff(out) > 0.0), (family, lam)


class TestLogJacobian:
    def test_id_is_zero(self):
        assert transform_in_data_order(Family.ID, make_data([-3.0, 0.0, 9.1]))[1] == 0.0

    def test_boxcox_closed_form(self):
        data = make_data([2.0, 4.0])
        got = transform_in_data_order(Family.BOXCOX, data, 2.0)[1]
        assert abs(got - (math.log(2.0) + math.log(4.0))) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        lam_grid = {
            Family.ID: (0.0,),
            Family.LOG: (0.0,),
            Family.BOXCOX: (-1.5, -0.5, 0.0, 0.5, 1.0, 1.7, 3.0),
            Family.MODULUS: (-1.5, -0.5, 0.0, 0.5, 1.0, 1.7, 3.0),
            Family.YEOJOHNSON: (-1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0),
            Family.DUAL: (0.3, 0.7, 1.0, 1.6, 2.5),
        }
        for family in ALL_FAMILIES:
            for _ in range(3):
                y = rng.normal(size=6)
                xi = compute_shift(y)[0] if family.requires_shift else 0.0
                data = make_data(y, xi=xi)
                for lam in lam_grid[family]:
                    exact = transform_in_data_order(family, data, lam)[1]
                    approx = fd_log_jacobian(family, data, lam)
                    assert abs(exact - approx) < 1e-6, (family, lam)


class TestFamilyMetadata:
    def test_has_lambda_flags(self):
        assert not Family.ID.has_lambda and not Family.LOG.has_lambda
        for family in PARAMETRIC_FAMILIES:
            assert family.has_lambda

    def test_requires_shift_flags(self):
        shifted = {f for f in ALL_FAMILIES if f.requires_shift}
        assert shifted == {Family.LOG, Family.BOXCOX, Family.DUAL}

    def test_lambda_domains(self):
        assert Family.DUAL.in_domain(0.5) and not Family.DUAL.in_domain(0.0)
        assert Family.BOXCOX.in_domain(-3.0) and not Family.BOXCOX.in_domain(math.inf)
        lams = np.array([-1.0, 0.0, 0.5, math.inf, -math.inf, math.nan])
        np.testing.assert_array_equal(Family.DUAL.in_domain(lams),
                                      [False, False, True, False, False, False])
        for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
            np.testing.assert_array_equal(family.in_domain(lams),
                                          [True, True, True, False, False, False])
