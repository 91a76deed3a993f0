import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from transelect.errors import DegenerateTransform, MixingFailure
from transelect.families import PARAMETRIC_FAMILIES, Family, prepare
from transelect.evidence import evidence_quadrature
from transelect.likelihood import (PROPOSAL_SCALE, LikelihoodContext, MhConfig,
                                   log_sampling_kernel, run_mh)
from transelect.priors import UnitInfoPrior, build_power_prior, make_imaginary
from transelect.quadrature import REAL_LIMIT
from transelect.simulate import AnalysisConfig, ScenarioSpec, analyze_dataset, generate

from _oracles import brute_force_log_evidence, make_data, mp_log_likelihood
from conftest import grid_seeded_mh


def _normal_data(n=60, seed=3):
    return prepare(np.random.default_rng(seed).normal(size=n))


class _FlatLikelihood:
    """Stub context with no data information: the posterior equals the prior."""

    def __init__(self, family=Family.BOXCOX):
        self.family = family

    def loglik(self, lam=0.0):
        return 0.0


class TestMarginalizedLikelihood:
    def test_id_constant_in_lambda(self):
        ctx = LikelihoodContext(Family.ID, _normal_data())
        vals = {ctx.loglik(lam) for lam in (-2.0, 0.0, 1.0, 5.0)}
        assert len(vals) == 1

    def test_boxcox_equals_modulus_on_preincremented_data(self):
        y = np.array([0.4, 1.3, 0.8, 2.6, 0.1, 1.9])
        mod = make_data(y)
        bc = make_data(y + 1.0)
        ctx_mod = LikelihoodContext(Family.MODULUS, mod)
        ctx_bc = LikelihoodContext(Family.BOXCOX, bc)
        for lam in (-1.0, -0.2, 0.0, 0.7, 1.0, 2.4):
            assert abs(ctx_mod.loglik(lam) - ctx_bc.loglik(lam)) < 1e-10

    def test_degenerate_transform_raises(self):
        # Constant input has zero variance under the identity map; the fixed
        # value for a parameter-free family is computed eagerly.
        with pytest.raises(DegenerateTransform):
            ctx = LikelihoodContext(Family.ID, make_data([0.0, 0.0, 0.0]))
            ctx.loglik()

    def test_matches_two_d_brute_force(self):
        data = prepare(np.random.default_rng(12).normal(size=8))
        for family, lam in ((Family.ID, 0.0), (Family.LOG, 0.0),
                            (Family.BOXCOX, 0.6), (Family.MODULUS, 1.4),
                            (Family.YEOJOHNSON, -0.5), (Family.DUAL, 0.8)):
            ctx = LikelihoodContext(family, data)
            oracle = brute_force_log_evidence(family, data, lam)
            assert abs(ctx.loglik(lam) - oracle) < 1e-3, family

    @pytest.mark.parametrize("family", [Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON],
                             ids=lambda f: f.value)
    def test_linear_next_to_the_branch_point(self, family):
        # Just outside the 1e-10 branch tolerance, loglik must follow its
        # tangent at 0; exp(t) - 1 in place of expm1(t) misses it by ~1e-5.
        for seed in range(10):
            data = prepare(generate(ScenarioSpec("gamma", 100, seed=seed)))
            ctx = LikelihoodContext(family, data)
            base = ctx.loglik(0.0)
            slope = (ctx.loglik(1e-5) - ctx.loglik(-1e-5)) / 2e-5
            for lam in (2e-10, -2e-10, 5e-10, -5e-10, 1e-9, -1e-9, 1e-8):
                assert abs(ctx.loglik(lam) - base - lam * slope) <= 1e-9, (seed, lam)


class TestBatchedLikelihood:
    # The branch points lambda = 0 and lambda = 2 (Yeo-Johnson), values on
    # both sides of the 1e-10 branch tolerance around them, and a wide range.
    GRID = np.concatenate([
        [0.0, 2.0, 5e-11, -5e-11, 2e-10, -2e-10, 2.0 + 5e-11, 2.0 - 5e-11,
         2.0 + 2e-10, 2.0 - 2e-10],
        np.linspace(-4.0, 6.0, 101)])

    def test_equals_scalar_loglik_every_family(self):
        data = prepare(generate(ScenarioSpec("student", 100, seed=4, df=2.0, ncp=-1.0)))
        for family in (Family.ID, Family.LOG, Family.BOXCOX, Family.MODULUS,
                       Family.YEOJOHNSON, Family.DUAL):
            ctx = LikelihoodContext(family, data)
            lams = self.GRID[self.GRID > 0.0] if family is Family.DUAL else self.GRID
            batch = ctx.loglik_batch(lams)
            scalar = np.array([ctx.loglik(float(lam)) for lam in lams])
            assert np.all(np.isfinite(batch)), family
            np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-12,
                                       err_msg=family.value)

    def test_minus_inf_outside_dual_domain(self):
        ctx = LikelihoodContext(Family.DUAL, _normal_data())
        got = ctx.loglik_batch(np.array([-1.0, 0.0, math.nan, math.inf, 0.5]))
        assert np.all(got[:4] == -math.inf)
        assert got[4] == ctx.loglik(0.5)

    def test_degenerate_transform_raises(self):
        ctx = LikelihoodContext(Family.BOXCOX, make_data([1.5, 1.5, 1.5]))
        with pytest.raises(DegenerateTransform):
            ctx.loglik(0.5)
        with pytest.raises(DegenerateTransform):
            ctx.loglik_batch(np.array([0.5, 1.0]))


def _outlier_values():
    """99 standard normal draws and one value 1e6. Standardized and shifted,
    the 99 agree to about 1e-5, so at large |lambda| the transformed values
    overflow or collapse onto one value unless their scale is factored out."""
    return np.append(np.random.default_rng(5).normal(size=99), 1e6)


class TestOutlierData:
    @pytest.mark.parametrize("family", PARAMETRIC_FAMILIES, ids=lambda f: f.value)
    def test_matches_mpmath_oracle_up_to_the_real_limit(self, family):
        data = prepare(_outlier_values())
        ctx = LikelihoodContext(family, data)
        lo, hi = REAL_LIMIT
        lams = np.array([0.5, 31.0, 150.0, hi] if family is Family.DUAL else
                        [lo, -150.0, -31.0, -1.0, 0.5, 31.0, 150.0, hi])
        oracle = np.array([mp_log_likelihood(family, data, lam) for lam in lams])
        scalar = np.array([ctx.loglik(float(lam)) for lam in lams])
        np.testing.assert_allclose(scalar, oracle, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(ctx.loglik_batch(lams), oracle, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_analysis_completes(self, prior_kind):
        report = analyze_dataset(_outlier_values(), prior_kind,
                                 AnalysisConfig(methods=("quadrature",)))
        probs = np.array(list(report.probabilities().values()))
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) < 1e-12


class TestPosteriorKernel:
    def test_kernel_difference_identity(self):
        data = _normal_data()
        ctx = LikelihoodContext(Family.MODULUS, data)
        prior = UnitInfoPrior(Family.MODULUS, location=1.0, scale=0.5)
        for l1, l2 in ((0.2, 1.4), (-0.5, 2.0)):
            lhs = log_sampling_kernel(ctx, prior, l1) - log_sampling_kernel(ctx, prior, l2)
            rhs = (ctx.loglik(l1) + prior.log_density(l1)
                   - ctx.loglik(l2) - prior.log_density(l2))
            assert abs(lhs - rhs) < 1e-12

    def test_outside_prior_support_is_minus_inf(self):
        class HalfLinePrior:
            def log_density(self, lam):
                return 0.0 if lam > 0.0 else -math.inf

        ctx = LikelihoodContext(Family.BOXCOX, _normal_data())
        assert math.isfinite(ctx.loglik(-0.5))
        assert log_sampling_kernel(ctx, HalfLinePrior(), -0.5) == -math.inf

    def test_degenerate_prior_pins_argmax_to_prior_mean(self):
        data = _normal_data(n=100, seed=9)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        prior = UnitInfoPrior(Family.BOXCOX, location=0.8, scale=1e-6)
        res = minimize_scalar(lambda lam: -log_sampling_kernel(ctx, prior, lam),
                              bounds=(0.7, 0.9), method="bounded",
                              options={"xatol": 1e-9})
        assert abs(float(res.x) - 0.8) < 1e-3


class TestMhConfig:
    def test_defaults_valid(self):
        cfg = MhConfig()
        assert cfg.burn_in == 4000 and cfg.draws == 16000

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            MhConfig(draws=500)

    def test_negative_burn_in_rejected(self):
        # run_mh would leave the first |burn_in| draw slots uninitialized
        with pytest.raises(ValueError, match="burn_in"):
            MhConfig(burn_in=-5)
        assert MhConfig(burn_in=0).burn_in == 0


class TestRunMh:
    def test_flat_likelihood_recovers_prior(self):
        prior = UnitInfoPrior(Family.BOXCOX, location=0.7, scale=0.3)
        chain = run_mh(_FlatLikelihood(), prior,
                       MhConfig(burn_in=2000, draws=20000, seed=3), 0.7, PROPOSAL_SCALE * 0.3)
        assert abs(float(chain.draws.mean()) - 0.7) < 0.03
        assert abs(float(chain.draws.std(ddof=1)) - 0.3) < 0.03

    def test_same_seed_bit_identical(self):
        data = _normal_data()
        ctx = LikelihoodContext(Family.BOXCOX, data)
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        cfg = MhConfig(burn_in=500, draws=2000, seed=17)
        c1 = run_mh(ctx, prior, cfg, 1.0, 0.5)
        c2 = run_mh(ctx, prior, cfg, 1.0, 0.5)
        np.testing.assert_array_equal(c1.draws, c2.draws)
        assert c1.mode == c2.mode and c1.step_sd == c2.step_sd

    def test_acceptance_rate_in_target_band(self):
        data = _normal_data(n=100, seed=2)
        ctx = LikelihoodContext(Family.YEOJOHNSON, data)
        prior = UnitInfoPrior(Family.YEOJOHNSON, location=1.0, scale=0.5)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=2000, draws=8000, seed=1))
        assert 0.2 < chain.accept_rate < 0.6

    def test_dual_draws_strictly_positive(self):
        data = _normal_data(n=80, seed=6)
        ctx = LikelihoodContext(Family.DUAL, data)
        prior = UnitInfoPrior(Family.DUAL, location=math.log(1.2), scale=0.4)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=1000, draws=4000, seed=4))
        assert chain.family.on_log_scale
        assert np.all(chain.lambda_draws > 0.0)

    def test_mode_maximizes_kernel_over_draws(self):
        prior = UnitInfoPrior(Family.MODULUS, location=0.5, scale=0.4)
        ctx = LikelihoodContext(Family.MODULUS, _normal_data(seed=8))
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=1000, draws=4000, seed=9))
        kern = lambda x: log_sampling_kernel(ctx, prior, x)
        assert kern(chain.mode) >= float(chain.log_kernel.max()) - 1e-12

    def test_mixing_failure_on_pathological_step(self):
        # A gigantic fixed step forces rejections.
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=1e-4)
        ctx = LikelihoodContext(Family.BOXCOX, _normal_data(seed=5))
        with pytest.raises(MixingFailure):
            run_mh(ctx, prior, MhConfig(burn_in=0, draws=2000, seed=0),
                   start=1.0, step_sd=5e3)

    def test_minus_inf_start_rejected(self):
        class TruncatedPrior:
            def log_density(self, x):
                return -math.inf if x <= 1.05 else -0.5 * ((x - 1.5) / 0.3) ** 2

        with pytest.raises(ValueError, match="-inf"):
            run_mh(_FlatLikelihood(), TruncatedPrior(), MhConfig(), 1.0, 0.3)

    def test_fixed_step_acceptance_is_the_1d_optimum(self):
        # A Gaussian target sampled with a Gaussian proposal of s target sds
        # accepts (2 / pi) arctan(2 / s) of proposals: 0.4449 at s = 2.38.
        prior = UnitInfoPrior(Family.BOXCOX, location=0.7, scale=0.3)
        chain = run_mh(_FlatLikelihood(), prior, MhConfig(draws=50000, seed=5),
                       0.7, PROPOSAL_SCALE * 0.3)
        assert abs(2.0 / math.pi * math.atan(2.0 / PROPOSAL_SCALE) - 0.4449) < 1e-4
        assert abs(chain.accept_rate - 0.445) < 0.015, chain.accept_rate

    def test_detailed_balance_total_variation(self):
        # Flat likelihood: the normalized kernel is the prior itself, so the
        # chain histogram must match normal bin masses on a 200-point grid.
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=1.0)
        chain = run_mh(_FlatLikelihood(), prior,
                       MhConfig(burn_in=4000, draws=50000, seed=12), 0.0, PROPOSAL_SCALE)
        edges = np.linspace(-4.0, 4.0, 201)
        hist, _ = np.histogram(chain.draws, bins=edges)
        emp = hist / chain.draws.size
        exact = np.diff(norm.cdf(edges))
        exact = exact / exact.sum()
        tv = 0.5 * float(np.abs(emp - exact).sum())
        assert tv < 0.05, tv


class TestPosteriorBands:
    """Bands on the quadrature grid's posterior summary in reference scenarios."""

    def test_gamma_boxcox_posterior_band(self):
        y = generate(ScenarioSpec("gamma", 100, seed=1000, shape=2.0, rate=3.0))
        data = prepare(y)
        imaginary = make_imaginary(n_star=100, seed=42)
        prior = build_power_prior(Family.BOXCOX, imaginary)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        diag = evidence_quadrature(ctx, prior).diagnostics
        mode, sd = diag["lambda_mode"], diag["lambda_sd"]
        assert abs(mode - 0.44) < 0.15
        assert abs(sd - 0.09) < 0.05

    def test_large_normal_boxcox_mode_band(self):
        y = generate(ScenarioSpec("normal", 1000, seed=1000))
        data = prepare(y)
        imaginary = make_imaginary(n_star=1000, seed=42)
        prior = build_power_prior(Family.BOXCOX, imaginary)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        mode = evidence_quadrature(ctx, prior).diagnostics["lambda_mode"]
        assert abs(mode - 0.93) < 0.15

    def test_kernel_finite_on_prior_support_grid(self):
        for dist, kw in (("normal", {}), ("gamma", {"shape": 2.0, "rate": 3.0}),
                         ("student", {"df": 2.0, "ncp": -1.0})):
            y = generate(ScenarioSpec(dist, 100, seed=31, **kw))
            data = prepare(y)
            imaginary = make_imaginary(n_star=100, seed=31)
            for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
                ctx = LikelihoodContext(family, data)
                prior = build_power_prior(family, imaginary)
                for lam in np.linspace(-4.0, 6.0, 41):
                    assert math.isfinite(log_sampling_kernel(ctx, prior, lam))
