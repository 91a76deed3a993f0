import math

import numpy as np
import pytest

from transelect.errors import InconsistentEvidence
from transelect.evidence import (CHIB, CLOSED_FORM, LAPLACE_METROPOLIS,
                                 QUADRATURE, EvidenceEstimate, FamilyResult,
                                 evidence_chib, evidence_closed_form,
                                 evidence_laplace_metropolis,
                                 evidence_quadrature, posterior_model_probs,
                                 refine_mode)
from transelect.families import ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, prepare
from transelect.likelihood import (LikelihoodContext, MhConfig, PosteriorChain,
                                   log_sampling_kernel)
from transelect.priors import (UnitInfoPrior, build_power_prior,
                               build_unit_info_prior, estimate_dual_anchor,
                               make_imaginary)
from transelect.simulate import ScenarioSpec, generate

from conftest import grid_seeded_mh


def _normal_dataset(n=100, seed=14):
    return prepare(generate(ScenarioSpec("normal", n, seed=seed)))


class _QuadraticLikelihood:
    """Stub with an exactly Gaussian likelihood shape in lambda."""

    def __init__(self, center, var):
        self.family = Family.BOXCOX
        self.center = center
        self.var = var

    def loglik(self, lam=0.0):
        return -(lam - self.center) ** 2 / (2.0 * self.var)


class TestClosedForm:
    def test_deterministic_and_prior_free(self):
        data = _normal_dataset()
        a = evidence_closed_form(LikelihoodContext(Family.LOG, data))
        b = evidence_closed_form(LikelihoodContext(Family.LOG, data))
        assert a.log_marginal == b.log_marginal
        assert a.method == CLOSED_FORM and a.mc_se is None

    def test_id_beats_log_on_normal_data(self):
        data = _normal_dataset()
        id_ev = evidence_closed_form(LikelihoodContext(Family.ID, data))
        log_ev = evidence_closed_form(LikelihoodContext(Family.LOG, data))
        assert id_ev.log_marginal > log_ev.log_marginal

    def test_parametric_family_rejected(self):
        data = _normal_dataset()
        with pytest.raises(ValueError):
            evidence_closed_form(LikelihoodContext(Family.BOXCOX, data))


class TestLaplaceMetropolis:
    def test_exact_for_gaussian_posterior(self):
        lik_center, lik_var = 0.9, 0.04
        prior_mean, prior_var = 1.1, 0.25
        ctx = _QuadraticLikelihood(lik_center, lik_var)
        prior = UnitInfoPrior(Family.BOXCOX, location=prior_mean,
                              scale=math.sqrt(prior_var))

        post_prec = 1.0 / lik_var + 1.0 / prior_var
        post_mean = (lik_center / lik_var + prior_mean / prior_var) / post_prec
        post_var = 1.0 / post_prec
        # Two-point chain whose unbiased variance equals the exact posterior
        # variance, so the estimator's inputs are exact.
        m = 1000
        spread = math.sqrt(post_var * (m - 1) / m)
        draws = np.empty(m)
        draws[0::2] = post_mean + spread
        draws[1::2] = post_mean - spread
        chain = PosteriorChain(family=Family.BOXCOX,
                               draws=draws, log_kernel=np.zeros(m),
                               accept_rate=0.4, step_sd=0.2, mode=post_mean)

        est = evidence_laplace_metropolis(ctx, prior, chain)
        total_var = lik_var + prior_var
        analytic = (0.5 * math.log(lik_var / total_var)
                    - (lik_center - prior_mean) ** 2 / (2.0 * total_var))
        assert abs(est.log_marginal - analytic) < 1e-6

    def test_within_chib_band_on_symmetric_posteriors(self):
        data = _normal_dataset(seed=21)
        imaginary = make_imaginary(n_star=100, seed=21)
        gaps = {}
        for family in PARAMETRIC_FAMILIES:
            prior = build_power_prior(family, imaginary)
            ctx = LikelihoodContext(family, data)
            chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=2000, draws=12000), seed=5)
            chib = evidence_chib(ctx, prior, chain, seed=6)
            lm = evidence_laplace_metropolis(ctx, prior, chain)
            gaps[family] = abs(lm.log_marginal - chib.log_marginal)
        for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
            assert gaps[family] < 0.3, family
        # The Dual posterior is the asymmetric one; a larger gap there is the
        # documented behavior, reported as a diagnostic rather than asserted.
        if gaps[Family.DUAL] < gaps[Family.BOXCOX]:
            print(f"note: Dual LM-Chib gap {gaps[Family.DUAL]:.4f} not above "
                  f"BoxCox gap {gaps[Family.BOXCOX]:.4f} on this seed")


class TestChib:
    def test_agrees_with_quadrature_every_family(self):
        data = _normal_dataset(seed=14)
        imaginary = make_imaginary(n_star=100, seed=14)
        for family in PARAMETRIC_FAMILIES:
            prior = build_power_prior(family, imaginary)
            ctx = LikelihoodContext(family, data)
            chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=2000, draws=12000), seed=3)
            chib = evidence_chib(ctx, prior, chain, seed=4)
            quad = evidence_quadrature(ctx, prior)
            assert abs(chib.log_marginal - quad.log_marginal) < 0.1, family
            assert chib.mc_se is not None and chib.mc_se > 0.0
            assert chib.diagnostics["J"] == 2000

    def test_seed_to_seed_spread_within_mc_se(self):
        data = _normal_dataset(seed=30)
        imaginary = make_imaginary(n_star=100, seed=30)
        prior = build_power_prior(Family.BOXCOX, imaginary)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=1000, draws=8000), seed=8)
        a = evidence_chib(ctx, prior, chain, seed=100)
        b = evidence_chib(ctx, prior, chain, seed=200)
        combined = math.sqrt(a.mc_se ** 2 + b.mc_se ** 2)
        assert abs(a.log_marginal - b.log_marginal) < 3.0 * combined

    def test_small_j_rejected(self):
        data = _normal_dataset()
        imaginary = make_imaginary(n_star=100, seed=1)
        prior = build_power_prior(Family.BOXCOX, imaginary)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=500, draws=2000), seed=1)
        with pytest.raises(ValueError):
            evidence_chib(ctx, prior, chain, J=100)


class TestRefineMode:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_minus_inf_in_bracket_reaches_the_mode(self):
        # A prior truncated at 1.05: the kernel is -inf over the bracket's
        # lower part, which must not warn, and the mode is the prior's own.
        def kernel(x):
            return -math.inf if x <= 1.05 else -0.5 * ((x - 1.5) / 0.3) ** 2

        for best in (1.2, 1.4, 1.9):
            mode = refine_mode(kernel, best, kernel(best), (0.5, 2.5))
            assert abs(mode - 1.5) < 1e-6, best


class TestQuadrature:
    def test_degenerate_prior_limit(self):
        data = _normal_dataset(seed=5)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        prior = UnitInfoPrior(Family.BOXCOX, location=0.8, scale=1e-6)
        est = evidence_quadrature(ctx, prior)
        assert abs(est.log_marginal - ctx.loglik(0.8)) < 1e-3

    def test_prior_a_vs_b_small_gap_on_gamma_data(self):
        data = prepare(generate(ScenarioSpec("gamma", 100, seed=2,
                                             shape=2.0, rate=3.0)))
        imaginary = make_imaginary(n_star=100, seed=2)
        ctx = LikelihoodContext(Family.BOXCOX, data)
        ev_a = evidence_quadrature(ctx, build_power_prior(Family.BOXCOX, imaginary))
        ev_b = evidence_quadrature(ctx, build_unit_info_prior(Family.BOXCOX, imaginary))
        assert abs(ev_a.log_marginal - ev_b.log_marginal) < 0.5

    def test_prior_b_kernel_consistency(self):
        # The candidate-estimator kernel under the substituted prior must equal
        # the sampled posterior kernel up to one lambda-free constant.
        data = _normal_dataset(seed=9)
        imaginary = make_imaginary(n_star=100, seed=9)
        anchor = estimate_dual_anchor(imaginary)
        for family in PARAMETRIC_FAMILIES:
            prior = build_unit_info_prior(family, imaginary, anchor=anchor)
            ctx = LikelihoodContext(family, data)
            lams = (0.4, 0.8, 1.0, 1.3, 1.9)
            diffs = []
            for l in lams:
                x = math.log(l) if family.on_log_scale else l
                diffs.append(ctx.loglik(l) + prior.log_density(x)
                             - log_sampling_kernel(ctx, prior, x))
            assert max(diffs) - min(diffs) < 1e-12, family


def _results_from_logs(logs, prior_kind="A", method=QUADRATURE):
    results = []
    for family, lm in zip(ALL_FAMILIES, logs):
        est = EvidenceEstimate(log_marginal=float(lm), method=method)
        results.append(FamilyResult(family=family, prior_kind=prior_kind,
                                    evidence={method: est},
                                    lambda_mode=None, lambda_sd=None))
    return results


class TestPosteriorModelProbs:
    def test_equal_evidence_gives_uniform(self):
        report = posterior_model_probs(_results_from_logs([-100.0] * 6), "A",
                                       prob_method=QUADRATURE)
        for r in report.results:
            assert abs(r.posterior_model_prob - 1.0 / 6.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logs = rng.uniform(-300.0, -100.0, size=6)
        p1 = posterior_model_probs(_results_from_logs(logs), "A",
                                   prob_method=QUADRATURE).probabilities()
        p2 = posterior_model_probs(_results_from_logs(logs + 37.5), "A",
                                   prob_method=QUADRATURE).probabilities()
        for family in ALL_FAMILIES:
            assert abs(p1[family] - p2[family]) < 1e-14

    def test_missing_method_rejected(self):
        results = _results_from_logs([-10.0] * 6)
        with pytest.raises(InconsistentEvidence):
            posterior_model_probs(results, "A", prob_method=CHIB)

    def test_ties_break_by_enumeration_order(self):
        report = posterior_model_probs(_results_from_logs([-5.0] * 6), "A",
                                       prob_method=QUADRATURE)
        assert report.ranking == list(ALL_FAMILIES)

    def test_serialization_shapes(self):
        rng = np.random.default_rng(4)
        report = posterior_model_probs(
            _results_from_logs(rng.uniform(-220.0, -180.0, size=6),
                               prior_kind="B"), "B",
            prob_method=QUADRATURE)
        d = report.to_dict()
        assert d["prior_kind"] == "B"
        assert len(d["families"]) == 6
        assert set(d["ranking"]) == {f.value for f in ALL_FAMILIES}
        rows = report.csv_rows()
        assert len(rows) == 6
        assert all(row["prior"] == "B" for row in rows)
        assert abs(sum(r.posterior_model_prob for r in report.results) - 1.0) < 1e-12

    def test_result_for_unknown_family(self):
        report = posterior_model_probs(_results_from_logs([-10.0] * 6), "A",
                                       prob_method=QUADRATURE)
        assert report.result_for(Family.DUAL).family is Family.DUAL
        with pytest.raises(KeyError):
            report.result_for("nope")


class TestEstimateMetadata:
    def test_methods_recorded(self):
        data = _normal_dataset(seed=2)
        imaginary = make_imaginary(n_star=100, seed=2)
        prior = build_unit_info_prior(Family.MODULUS, imaginary)
        ctx = LikelihoodContext(Family.MODULUS, data)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=500, draws=4000), seed=2)
        assert evidence_chib(ctx, prior, chain, J=500).method == CHIB
        assert evidence_laplace_metropolis(ctx, prior, chain).method == LAPLACE_METROPOLIS
        assert evidence_quadrature(ctx, prior).method == QUADRATURE
