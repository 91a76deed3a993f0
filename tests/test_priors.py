import math

import numpy as np
import pytest

from transelect.errors import NonPositiveCurvature
from transelect.families import PARAMETRIC_FAMILIES, Family, prepare
from transelect.likelihood import LikelihoodContext, log_sampling_kernel
from transelect.priors import (DualAnchor, ImaginaryData, PowerPrior, UnitInfoPrior,
                               build_power_prior, build_unit_info_prior,
                               estimate_dual_anchor, fisher_scale, make_imaginary)
from transelect.quadrature import sampling_integral

from _oracles import fd_fisher_scale


class TestMakeImaginary:
    def test_seeded_determinism(self):
        a = make_imaginary(n_star=100, seed=7)
        b = make_imaginary(n_star=100, seed=7)
        np.testing.assert_array_equal(a.prepared.standardized,
                                      b.prepared.standardized)

    def test_empirical_copy_semantics(self):
        rng = np.random.default_rng(3)
        observed = rng.gamma(2.0, 1.0, size=250)
        img = make_imaginary(source="empirical", observed=observed)
        assert img.n_star == 250
        centered = (observed - observed.mean()) / observed.std(ddof=1)
        np.testing.assert_allclose(img.prepared.standardized, centered)

    def test_standardization_post(self):
        for seed in (0, 1, 2):
            img = make_imaginary(n_star=60, seed=seed)
            assert abs(img.prepared.standardized.mean()) < 1e-12
            assert abs(img.prepared.standardized.std(ddof=1) - 1.0) < 1e-12

    def test_small_n_star_rejected(self):
        with pytest.raises(ValueError):
            make_imaginary(n_star=5)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown imaginary-data source 'bogus'"):
            make_imaginary(source="bogus")

    def test_empirical_source_requires_the_observed_data(self):
        with pytest.raises(ValueError, match="requires the observed data"):
            make_imaginary(source="empirical")

    def test_discount_is_inverse_size(self):
        img = make_imaginary(n_star=200, seed=0)
        assert img.alpha0 == 1.0 / 200


def _kernel(family: Family, img: ImaginaryData):
    """The unnormalized power prior on the sampling scale."""
    return PowerPrior(family, img, log_norm_const=0.0).log_density


class TestPowerPriorKernel:
    def test_kernel_difference_identity(self):
        img = make_imaginary(n_star=80, seed=2)
        ctx = img.context(Family.BOXCOX)
        kern = _kernel(Family.BOXCOX, img)
        for l1, l2 in ((0.3, 1.5), (-1.0, 2.0)):
            lhs = kern(l1) - kern(l2)
            rhs = (ctx.loglik(l1) - ctx.loglik(l2)) / img.n_star
            assert abs(lhs - rhs) < 1e-12

    def test_boxcox_argmax_near_one(self):
        img = make_imaginary(n_star=200, seed=11)
        grid = np.linspace(-2.0, 4.0, 1201)
        kern = _kernel(Family.BOXCOX, img)
        vals = [kern(l) for l in grid]
        assert abs(grid[int(np.argmax(vals))] - 1.0) < 0.3


class TestPowerPriorNormConst:
    def test_matches_dense_trapezoid(self):
        # a fixed 20,001-point trapezoid over the final window, in plain numpy
        img = make_imaginary(n_star=60, seed=5)
        for family in PARAMETRIC_FAMILIES:
            kern = _kernel(family, img)
            grid = sampling_integral(kern, family.on_log_scale)
            assert build_power_prior(family, img).log_norm_const == grid.value
            xs = np.linspace(grid.xs[0], grid.xs[-1], 20_001)
            vals = kern(xs)
            top = vals.max()
            f = np.exp(vals - top)
            dense = top + math.log((xs[1] - xs[0]) * (f.sum() - 0.5 * (f[0] + f[-1])))
            assert abs(grid.value - dense) < 1e-6, family

    def test_constant_multiple_shifts_exactly(self):
        img = make_imaginary(n_star=60, seed=5)
        kern = _kernel(Family.YEOJOHNSON, img)
        c = 3.7
        base = sampling_integral(kern, False).value
        shifted = sampling_integral(lambda lam: kern(lam) + c, False).value
        assert abs(shifted - (base + c)) < 1e-12

    def test_deterministic_across_runs(self):
        a = build_power_prior(Family.BOXCOX, make_imaginary(n_star=100, seed=9))
        b = build_power_prior(Family.BOXCOX, make_imaginary(n_star=100, seed=9))
        assert math.isfinite(a.log_norm_const) and a.log_norm_const == b.log_norm_const

    def test_prior_density_integrates_to_one(self):
        img = make_imaginary(n_star=100, seed=1)
        for family in PARAMETRIC_FAMILIES:
            prior = build_power_prior(family, img)
            total = sampling_integral(prior.log_density, family.on_log_scale).value
            assert abs(total) < 1e-4, family


def _positive_imaginary(minimum: float, n: int = 500, seed: int = 3) -> ImaginaryData:
    """Imaginary data with a controlled positive minimum, no shift applied."""
    from transelect.families import PreparedData
    vals = np.random.default_rng(seed).normal(size=n)
    v = vals - vals.min() + minimum
    return ImaginaryData(prepared=PreparedData(raw=v, standardized=v,
                                               shift_xi=0.0, epsilon=0.0))


class TestDualAnchor:
    def test_band_on_seeded_standard_normal(self):
        # The shift rule puts the shifted minimum at a tiny epsilon, so the
        # imaginary likelihood is maximized at the lambda -> 0 boundary and
        # the documented default anchor applies; it sits inside the band.
        img = make_imaginary(n_star=1000, seed=1)
        anchor = estimate_dual_anchor(img)
        assert anchor.from_fallback
        assert anchor.value == 1.2
        assert 1.0 <= anchor.value <= 1.4

    def test_interior_maximum_found(self):
        # Data bounded well away from zero give an interior normality value
        # near 1.2, the anchor regime described for moderate shifted minima.
        img = _positive_imaginary(1.0)
        anchor = estimate_dual_anchor(img)
        assert not anchor.from_fallback
        assert 1.0 <= anchor.value <= 1.4

    def test_grid_dominance(self):
        img = _positive_imaginary(1.0)
        anchor = estimate_dual_anchor(img)
        assert not anchor.from_fallback
        ctx = img.context(Family.DUAL)
        best = ctx.loglik(anchor.value)
        grid = np.linspace(0.02, 20.0, 1000)
        assert best >= max(ctx.loglik(l) for l in grid) - 1e-9

    def test_deterministic(self):
        img = make_imaginary(n_star=300, seed=4)
        assert estimate_dual_anchor(img) == estimate_dual_anchor(img)


class TestFisherScale:
    def test_matches_finite_differences(self):
        for seed in range(3):
            img = make_imaginary(n_star=100, seed=seed)
            anchor = estimate_dual_anchor(img)
            for family in PARAMETRIC_FAMILIES:
                closed = fisher_scale(family, img, anchor=anchor)
                approx = fd_fisher_scale(family, img, anchor_value=anchor.value)
                assert abs(closed - approx) / approx < 1e-4, (family, seed)

    def test_deterministic_function_of_inputs(self):
        a, b = (fisher_scale(Family.MODULUS, img, anchor=estimate_dual_anchor(img))
                for img in (make_imaginary(n_star=100, seed=3),
                            make_imaginary(n_star=100, seed=3)))
        assert a == b

    def test_order_one_across_n_star(self):
        for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
            imgs = [make_imaginary(n_star=ns, seed=8) for ns in (50, 100, 1000)]
            scales = [fisher_scale(family, img, anchor=estimate_dual_anchor(img))
                      for img in imgs]
            assert max(scales) / min(scales) < 3.0, family

    def test_dual_without_anchor_raises(self):
        # The anchor is part of the analysis's setup: no builder searches for it.
        img = make_imaginary(n_star=100, seed=5)
        with pytest.raises(TypeError):
            fisher_scale(Family.DUAL, img)

    def test_nonpositive_curvature_raises(self):
        # A Dual anchor far below the likelihood mode sits in a convex region
        # of the discounted log likelihood, so no usable curvature exists.
        img = _positive_imaginary(1.0)
        with pytest.raises(NonPositiveCurvature):
            fisher_scale(Family.DUAL, img, anchor=DualAnchor(0.01))


class TestPriorDensities:
    def test_unit_info_normal_at_mean(self):
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        expected = math.log(1.0 / (0.5 * math.sqrt(2.0 * math.pi)))
        assert abs(prior.log_density(1.0) - expected) < 1e-12
        assert abs(expected - -0.2258) < 5e-4

    def test_lognormal_integrates_to_one(self):
        prior = UnitInfoPrior(Family.DUAL, location=math.log(1.2), scale=0.45)
        total = sampling_integral(prior.log_density, True).value
        assert abs(total) < 1e-6

    def test_dual_kernel_minus_inf_where_lambda_underflows(self):
        # e^x is 0 at x = -800, outside Dual's lambda > 0, though the prior
        # densities on x are finite there
        data = prepare(np.random.default_rng(4).normal(size=60))
        ctx = LikelihoodContext(Family.DUAL, data)
        img = make_imaginary(n_star=60, seed=4)
        for prior in (UnitInfoPrior(Family.DUAL, location=0.0, scale=0.4),
                      build_power_prior(Family.DUAL, img)):
            assert log_sampling_kernel(ctx, prior, -800.0) == -math.inf
            got = log_sampling_kernel(ctx, prior, np.array([-800.0, 0.0]))
            assert got[0] == -math.inf and math.isfinite(got[1])

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.0)
        with pytest.raises(ValueError):
            UnitInfoPrior(Family.BOXCOX, location=1.0, scale=math.inf)

    def test_kind_is_fixed_by_the_class(self):
        img = make_imaginary(n_star=60, seed=5)
        prior = build_power_prior(Family.BOXCOX, img)
        assert (prior.kind, UnitInfoPrior(Family.BOXCOX, 1.0, 0.5).kind) == ("A", "B")
        with pytest.raises(TypeError):
            UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5, kind="A")


class TestBuildUnitInfoPrior:
    def test_locations(self):
        img = make_imaginary(n_star=1000, seed=1)
        anchor = estimate_dual_anchor(img)
        for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
            prior = build_unit_info_prior(family, img, anchor=anchor)
            assert prior.location == 1.0 and not prior.family.on_log_scale
        dual = build_unit_info_prior(Family.DUAL, img, anchor=anchor)
        assert dual.family.on_log_scale
        assert abs(dual.location - math.log(anchor.value)) < 1e-12

    def test_dual_without_anchor_raises(self):
        img = make_imaginary(n_star=100, seed=5)
        with pytest.raises(TypeError):
            build_unit_info_prior(Family.DUAL, img)

    def test_shared_imaginary_across_families(self):
        img = make_imaginary(n_star=100, seed=6)
        priors = {f: build_power_prior(f, img) for f in PARAMETRIC_FAMILIES}
        for prior in priors.values():
            assert prior.imaginary is img
