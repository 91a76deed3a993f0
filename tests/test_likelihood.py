import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from transelect import likelihood
from transelect.errors import DegenerateTransform, MixingFailure
from transelect.families import ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, prepare
from transelect.evidence import evidence_quadrature
from transelect.likelihood import (PROPOSAL_SCALE, TABLE_CELLS_PER_STEP, TABLE_TOL,
                                   KernelTable, LikelihoodContext, MhConfig, _fit,
                                   log_sampling_kernel, run_mh)
from transelect.priors import (UnitInfoPrior, build_power_prior, build_unit_info_prior,
                               estimate_dual_anchor, make_imaginary)
from transelect.quadrature import REAL_LIMIT
from transelect.simulate import AnalysisConfig, ScenarioSpec, analyze_dataset, generate

from _oracles import brute_force_log_evidence, exact_mh, make_data, mp_log_likelihood
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

    @pytest.mark.parametrize("family", [Family.ID, Family.LOG], ids=lambda f: f.value)
    def test_no_transform_derivatives_without_a_parameter(self, family):
        ctx = LikelihoodContext(family, _normal_data())
        with pytest.raises(ValueError, match="has no transformation parameter"):
            ctx.transform_derivatives(1.0)

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
            batch = ctx.loglik(lams)
            scalar = np.array([ctx.loglik(float(lam)) for lam in lams])
            assert np.all(np.isfinite(batch)), family
            np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-12,
                                       err_msg=family.value)

    def test_minus_inf_outside_dual_domain(self):
        ctx = LikelihoodContext(Family.DUAL, _normal_data())
        got = ctx.loglik(np.array([-1.0, 0.0, math.nan, math.inf, 0.5]))
        assert np.all(got[:4] == -math.inf)
        assert got[4] == ctx.loglik(0.5)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
    def test_array_outside_domain_matches_float_calls(self, family):
        # One call for a float or an array, with -inf outside the domain in both.
        bad = [-1.0, 0.0] if family is Family.DUAL else []
        lams = np.array([0.5, *bad, math.nan, 1.5, math.inf, -math.inf, 2.0])
        ctx = LikelihoodContext(family, _normal_data())
        got = ctx.loglik(lams)
        assert isinstance(got, np.ndarray) and got.shape == lams.shape
        want = np.array([ctx.loglik(float(lam)) for lam in lams])
        inside = family.in_domain(lams) | (not family.has_lambda)
        np.testing.assert_array_equal(got == -math.inf, ~inside)
        np.testing.assert_array_equal(want == -math.inf, ~inside)
        np.testing.assert_allclose(got[inside], want[inside], rtol=0.0, atol=1e-12)

    def test_degenerate_transform_raises(self):
        ctx = LikelihoodContext(Family.BOXCOX, make_data([1.5, 1.5, 1.5]))
        with pytest.raises(DegenerateTransform):
            ctx.loglik(0.5)
        with pytest.raises(DegenerateTransform):
            ctx.loglik(np.array([0.5, 1.0]))


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
        np.testing.assert_allclose(ctx.loglik(lams), oracle, rtol=0.0, atol=1e-9)

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
    def test_seed_is_an_argument(self):
        # test_same_seed_bit_identical covers reproduction; the config holds no seed
        ctx = LikelihoodContext(Family.BOXCOX, _normal_data())
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        cfg = MhConfig(burn_in=500, draws=2000)
        c1, c2 = (run_mh(ctx, prior, cfg, 1.0, 0.5, seed=s) for s in (4, 5))
        assert not np.array_equal(c1.draws, c2.draws)
        with pytest.raises(TypeError):
            MhConfig(seed=4)

    def test_flat_likelihood_recovers_prior(self):
        prior = UnitInfoPrior(Family.BOXCOX, location=0.7, scale=0.3)
        chain = run_mh(_FlatLikelihood(), prior,
                       MhConfig(burn_in=2000, draws=20000), 0.7, PROPOSAL_SCALE * 0.3, seed=3)
        assert abs(float(chain.draws.mean()) - 0.7) < 0.03
        assert abs(float(chain.draws.std(ddof=1)) - 0.3) < 0.03

    def test_same_seed_bit_identical(self):
        data = _normal_data()
        ctx = LikelihoodContext(Family.BOXCOX, data)
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        cfg = MhConfig(burn_in=500, draws=2000)
        c1 = run_mh(ctx, prior, cfg, 1.0, 0.5, seed=17)
        c2 = run_mh(ctx, prior, cfg, 1.0, 0.5, seed=17)
        np.testing.assert_array_equal(c1.draws, c2.draws)
        assert c1.mode == c2.mode and c1.step_sd == c2.step_sd

    def test_acceptance_rate_in_target_band(self):
        data = _normal_data(n=100, seed=2)
        ctx = LikelihoodContext(Family.YEOJOHNSON, data)
        prior = UnitInfoPrior(Family.YEOJOHNSON, location=1.0, scale=0.5)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=2000, draws=8000), seed=1)
        assert 0.2 < chain.accept_rate < 0.6

    def test_dual_draws_strictly_positive(self):
        data = _normal_data(n=80, seed=6)
        ctx = LikelihoodContext(Family.DUAL, data)
        prior = UnitInfoPrior(Family.DUAL, location=math.log(1.2), scale=0.4)
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=1000, draws=4000), seed=4)
        assert chain.family.on_log_scale
        assert np.all(chain.lambda_draws > 0.0)

    def test_mode_maximizes_kernel_over_draws(self):
        prior = UnitInfoPrior(Family.MODULUS, location=0.5, scale=0.4)
        ctx = LikelihoodContext(Family.MODULUS, _normal_data(seed=8))
        chain = grid_seeded_mh(ctx, prior, MhConfig(burn_in=1000, draws=4000), seed=9)
        kern = lambda x: log_sampling_kernel(ctx, prior, x)
        assert kern(chain.mode) >= float(chain.log_kernel.max()) - 1e-12

    def test_mixing_failure_on_pathological_step(self):
        # A gigantic fixed step forces rejections.
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=1e-4)
        ctx = LikelihoodContext(Family.BOXCOX, _normal_data(seed=5))
        with pytest.raises(MixingFailure):
            run_mh(ctx, prior, MhConfig(burn_in=0, draws=2000),
                   start=1.0, step_sd=5e3, seed=0)

    def test_minus_inf_start_rejected(self):
        class TruncatedPrior:
            def log_density(self, x):
                return -math.inf if x <= 1.05 else -0.5 * ((x - 1.5) / 0.3) ** 2

        with pytest.raises(ValueError, match="-inf"):
            run_mh(_FlatLikelihood(), TruncatedPrior(), MhConfig(), 1.0, 0.3, seed=0)

    def test_nan_start_rejected(self):
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=10.0)
        with pytest.raises(ValueError, match="kernel is nan"):
            run_mh(_NanAboveOne(), prior, MhConfig(), 2.0, 1.0, seed=0)

    def test_fixed_step_acceptance_is_the_1d_optimum(self):
        # A Gaussian target sampled with a Gaussian proposal of s target sds
        # accepts (2 / pi) arctan(2 / s) of proposals: 0.4449 at s = 2.38.
        prior = UnitInfoPrior(Family.BOXCOX, location=0.7, scale=0.3)
        chain = run_mh(_FlatLikelihood(), prior, MhConfig(draws=50000),
                       0.7, PROPOSAL_SCALE * 0.3, seed=5)
        assert abs(2.0 / math.pi * math.atan(2.0 / PROPOSAL_SCALE) - 0.4449) < 1e-4
        assert abs(chain.accept_rate - 0.445) < 0.015, chain.accept_rate

    def test_u_zero_accepts_a_proposal_any_distance_below(self, monkeypatch):
        # The kernel at x = 40 is 800 nats below the start's: exp(-800)
        # underflows to 0, yet with u = 0 the MH probability exceeds u.
        rng = _ScriptedRng([40.0], [0.0])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=1.0)
        assert prior.log_density(40.0) - prior.log_density(0.0) < -745.0
        chain = run_mh(_FlatLikelihood(), prior, MhConfig(burn_in=0, draws=1000),
                       0.0, 1.0, seed=0)
        assert chain.draws[0] == 40.0
        assert chain.log_kernel[0] == prior.log_density(40.0)

    def test_nan_kernel_is_never_accepted(self):
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=10.0)
        chain = run_mh(_NanAboveOne(), prior, MhConfig(burn_in=0, draws=2000),
                       0.0, 1.0, seed=3)
        assert float(chain.draws.max()) <= 1.0
        assert not np.isnan(chain.log_kernel).any()
        assert 0.3 < chain.accept_rate < 0.9, chain.accept_rate

    def test_detailed_balance_total_variation(self):
        # Flat likelihood: the normalized kernel is the prior itself, so the
        # chain histogram must match normal bin masses on a 200-point grid.
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=1.0)
        chain = run_mh(_FlatLikelihood(), prior,
                       MhConfig(burn_in=4000, draws=50000), 0.0, PROPOSAL_SCALE, seed=12)
        edges = np.linspace(-4.0, 4.0, 201)
        hist, _ = np.histogram(chain.draws, bins=edges)
        emp = hist / chain.draws.size
        exact = np.diff(norm.cdf(edges))
        exact = exact / exact.sum()
        tv = 0.5 * float(np.abs(emp - exact).sum())
        assert tv < 0.05, tv


class _NanAboveOne:
    """Stub context whose log likelihood is a normal in lambda, and nan above 1."""

    family = Family.BOXCOX

    def loglik(self, lam=0.0):
        return np.where(lam > 1.0, np.nan, -0.5 * np.square(lam))[()]


class _ScriptedRng:
    """A generator whose first normal deviates and uniforms are given; the
    rest come from default_rng(0)."""

    def __init__(self, normals, uniforms):
        self._normals, self._uniforms = list(normals), list(uniforms)
        self._rng = np.random.default_rng(0)

    def normal(self, loc, scale):
        return loc + self._normals.pop(0) if self._normals else self._rng.normal(loc, scale)

    def random(self):
        return self._uniforms.pop(0) if self._uniforms else self._rng.random()


class _NoCalls:
    """Stub context whose likelihood must never be evaluated."""

    family = Family.BOXCOX

    def loglik(self, lam=0.0):
        raise AssertionError("the kernel was evaluated")


class TestRunMhInputs:
    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, start):
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        with pytest.raises(ValueError, match="start must be finite"):
            run_mh(_NoCalls(), prior, MhConfig(), start, 0.5, seed=0)

    @pytest.mark.parametrize("step_sd", [0.0, -0.5, math.nan, math.inf])
    def test_bad_step_sd_rejected(self, step_sd):
        prior = UnitInfoPrior(Family.BOXCOX, location=1.0, scale=0.5)
        with pytest.raises(ValueError, match="step_sd must be positive and finite"):
            run_mh(_NoCalls(), prior, MhConfig(), 1.0, step_sd, seed=0)


@functools.lru_cache(maxsize=None)
def _table_cases(dist: str, prior_kind: str, n: int = 100):
    """(family, ctx, prior, start, step_sd) for each parametric family at n,
    started as analyze_dataset starts its chains."""
    kw = {"gamma": {"shape": 2.0, "rate": 3.0}, "student": {"df": 2.0, "ncp": -1.0}}[dist]
    data = prepare(generate(ScenarioSpec(dist, n, seed=1000, **kw)))
    imaginary = make_imaginary(n_star=n, seed=7)
    anchor = estimate_dual_anchor(imaginary)
    cases = []
    for family in PARAMETRIC_FAMILIES:
        prior = (build_power_prior(family, imaginary) if prior_kind == "A"
                 else build_unit_info_prior(family, imaginary, anchor=anchor))
        ctx = LikelihoodContext(family, data)
        diag = evidence_quadrature(ctx, prior).diagnostics
        cases.append((family, ctx, prior, diag["x_mode"], PROPOSAL_SCALE * diag["x_sd"]))
    return cases


_ALL_TABLE_CASES = pytest.mark.parametrize(
    "dist, prior_kind", [(d, p) for d in ("gamma", "student") for p in "AB"],
    ids=lambda v: v)


class _Counted:
    """A kernel that records the size of each call: 0 for a float."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, []

    def __call__(self, x):
        self.calls.append(np.size(x) if isinstance(x, np.ndarray) else 0)
        return self.kernel(x)


def _cubic(c, t):
    return c[0] + t * (c[1] + t * (c[2] + t * c[3]))


def _split_all(table):
    """Split every cell of `table` that may split, through calls at the
    cells' midpoints that cannot reject; (left end, width, sub-cells) per
    split cell."""
    out = []
    for i, b in sorted(table.bounded.items()):
        if b[2] is None:
            continue
        left = table.lo + table.h * i
        table(left + 0.5 * table.h)
        out.append((left, table.h / len(b[2]), b[2]))
    return out


def _assert_split_cells_meet_the_tolerance_or_are_exact(table, kernel):
    """Each sub-cell of every split is a cubic within TABLE_TOL of the kernel
    at its midpoint, or misses TABLE_TOL and is scored by one exact call."""
    for left, h, cells in _split_all(table):
        for j, c in enumerate(cells):
            x = left + h * (j + 0.5)
            if c is not None:
                assert abs(_cubic(c, 0.5) - kernel(x)) <= TABLE_TOL
            else:
                steps = table.exact_steps
                assert table(x, -math.inf) == kernel(x)
                assert table.exact_steps == steps + 1
                assert _fit(kernel, left, h, len(cells))[1][j] > TABLE_TOL


class TestKernelTable:
    @pytest.mark.parametrize("dist, prior_kind, n", [
        pytest.param("gamma", "A", 100, id="gamma-A"),
        pytest.param("gamma", "B", 100, id="gamma-B"),
        pytest.param("student", "A", 100, id="student-A"),
        pytest.param("student", "B", 100, id="student-B"),
        # a split's array call costs more per point at n = 1000
        pytest.param("gamma", "A", 1000, id="gamma-A-n1000"),
    ])
    def test_chains_equal_the_exact_kernel_chains(self, dist, prior_kind, n):
        cfg = MhConfig(burn_in=500, draws=2000)
        for family, ctx, prior, start, step_sd in _table_cases(dist, prior_kind, n):
            chain = run_mh(ctx, prior, cfg, start, step_sd, seed=11)
            draws, log_kernel, accept_rate = exact_mh(ctx, prior, cfg, start, step_sd, 11)
            np.testing.assert_array_equal(chain.draws, draws, err_msg=family.value)
            assert chain.accept_rate == accept_rate, family
            # TABLE_TOL holds at the check points, where the leading error
            # term of a cell is largest.
            assert np.abs(chain.log_kernel - log_kernel).max() < 10 * TABLE_TOL, family

    @_ALL_TABLE_CASES
    def test_used_cells_meet_the_bound_at_their_check_points(self, dist, prior_kind):
        for family, ctx, prior, start, step_sd in _table_cases(dist, prior_kind):
            kernel = functools.partial(log_sampling_kernel, ctx, prior)
            table = KernelTable(kernel, start, step_sd)
            used = np.flatnonzero([c is not None for c in table.cells])
            assert used.size > 0, family
            mids = table.lo + table.h * (used + 0.5)
            err = np.abs([table(x) for x in mids] - kernel(mids))
            # the table evaluates its cubics in another order than the check
            assert err.max() <= TABLE_TOL + 1e-12, family
            assert err.max() <= table.max_error + 1e-12, family
            assert table.exact_share == 1.0 - used.size / table.size
            # and so do the sub-cells that splits keep, which leave the
            # grid's own figures as they were
            share, max_error = table.exact_share, table.max_error
            for left, h, cells in _split_all(table):
                kept = np.flatnonzero([c is not None for c in cells])
                mids = left + h * (kept + 0.5)
                err = np.abs([table(x) for x in mids] - kernel(mids))
                assert err.max(initial=0.0) <= TABLE_TOL + 1e-12, family
            assert (table.exact_share, table.max_error) == (share, max_error)

    @_ALL_TABLE_CASES
    def test_bounded_cells_hold_half_their_bound_inside(self, dist, prior_kind):
        # B is four times the midpoint error plus REJECT_SLACK; the exact
        # kernel stays within half of that at 15 interior points of each cell.
        t = np.arange(1, 16) / 16.0
        for family, ctx, prior, start, step_sd in _table_cases(dist, prior_kind):
            kernel = functools.partial(log_sampling_kernel, ctx, prior)
            table = KernelTable(kernel, start, step_sd)
            for i, (c, bound, _) in table.bounded.items():
                err = np.abs(_cubic(c, t) - kernel(table.lo + table.h * (i + t)))
                assert err.max() <= bound / 2.0, (family, i)

    def test_rejection_below_the_bar_calls_no_exact_kernel(self):
        family, ctx, prior, start, step_sd = _table_cases("gamma", "A")[-1]
        kernel = _Counted(functools.partial(log_sampling_kernel, ctx, prior))
        table = KernelTable(kernel, start, step_sd)
        assert kernel.calls == [2 * table.size + 3]
        splittable = [i for i, b in table.bounded.items() if b[2] is not None]
        exact = [i for i, b in table.bounded.items() if b[2] is None]
        assert splittable and exact
        for i in splittable[::5] + exact[::20]:
            c, bound, r = table.bounded[i]
            x, v = table.lo + table.h * (i + 0.3), _cubic(c, 0.3)
            assert table(x, v + bound + 1e-3) == pytest.approx(v, rel=1e-12, abs=1e-9)
            assert table.bounded[i][2] == r, "a rejection splits nothing"
        assert len(kernel.calls) == 1 and table.exact_steps == 0
        # a bar at or below cubic + B takes no shortcut: the cell is split or
        # scored exactly, and with a bar of -inf nothing can reject
        for k, i in enumerate(splittable[:4] + exact[:4]):
            c, bound, _ = table.bounded[i]
            x, v = table.lo + table.h * (i + 0.3), _cubic(c, 0.3)
            del kernel.calls[:]
            got = table(x, -math.inf if k % 2 else v + bound / 2.0)
            assert kernel.calls, i
            if k % 2 or i in exact:
                assert abs(got - kernel.kernel(x)) <= TABLE_TOL, i

    @_ALL_TABLE_CASES
    def test_split_cells_meet_the_tolerance_or_are_exact(self, dist, prior_kind):
        for family, ctx, prior, start, step_sd in _table_cases(dist, prior_kind):
            kernel = _Counted(functools.partial(log_sampling_kernel, ctx, prior))
            table = KernelTable(kernel, start, step_sd)
            i = next((i for i, b in table.bounded.items() if b[2] is not None), None)
            if i is not None:  # one array call per split
                del kernel.calls[:]
                table(table.lo + table.h * (i + 0.5))
                r = len(table.bounded[i][2])
                assert kernel.calls[0] == 2 * r + 3 and max(kernel.calls[1:], default=0) == 0
            _assert_split_cells_meet_the_tolerance_or_are_exact(table, kernel.kernel)

    def test_a_sub_cell_that_misses_the_tolerance_is_scored_exactly(self):
        # A standard normal kernel whose third derivative jumps by 18 at x0,
        # a fifth of the way into a grid cell of a table of step 1: that cell
        # splits into four, and the cubic of the sub-cell that holds x0 still
        # misses TABLE_TOL, since the kernel is not smooth at that scale.
        x0 = 7.2 / TABLE_CELLS_PER_STEP
        kernel = _Counted(lambda x: -0.5 * np.square(x) + 3.0 * np.maximum(0.0, x - x0) ** 3)
        table = KernelTable(kernel, 0.0, 1.0)
        i = int((x0 - table.lo) / table.h)
        assert table.bounded[i][2] == 4
        assert table(x0, -math.inf) == kernel.kernel(x0)
        cells = table.bounded[i][2]
        j = int((x0 - table.lo - table.h * i) / (table.h / 4))
        assert cells[j] is None and sum(c is None for c in cells) == 1
        assert table.exact_steps == 1 and kernel.calls[-1] == 0
        _assert_split_cells_meet_the_tolerance_or_are_exact(table, kernel.kernel)
        assert table.exact_steps == 2

    def test_dual_power_prior_scores_some_cells_exactly(self):
        family, ctx, prior, start, step_sd = _table_cases("gamma", "A")[-1]
        assert family is Family.DUAL
        kernel = functools.partial(log_sampling_kernel, ctx, prior)
        table = KernelTable(kernel, start, step_sd)
        missed = [i for i, c in enumerate(table.cells) if c is None]
        assert 0.0 < table.exact_share < 1.0 and table.exact_share == len(missed) / table.size
        # cells whose error would need more than MAX_SPLIT sub-cells stay exact
        exact = [i for i in missed if table.bounded.get(i, (0, 0, None))[2] is None]
        assert exact
        for i in exact[:: max(1, len(exact) // 20)]:
            x = table.lo + table.h * (i + 0.5)
            assert table(x) == kernel(x)
        # and so does every x outside the table
        for x in (table.lo - table.h, table.lo + table.h * (table.size + 1)):
            assert table(x) == kernel(x)
        assert table.exact_steps == len(exact[:: max(1, len(exact) // 20)]) + 2

    def test_chain_records_its_table(self):
        family, ctx, prior, start, step_sd = _table_cases("gamma", "A")[-1]
        chain = run_mh(ctx, prior, MhConfig(burn_in=0, draws=1000), start, step_sd, seed=2)
        table = KernelTable(functools.partial(log_sampling_kernel, ctx, prior),
                            start, step_sd)
        assert (chain.table_exact_share, chain.table_max_error) == (
            table.exact_share, table.max_error)
        assert 0.0 < chain.table_max_error <= TABLE_TOL

    def test_exact_steps_counts_the_proposals_scored_exactly(self, monkeypatch):
        # A flat likelihood under a normal prior: every cell keeps its cubic,
        # and a table of +-5 steps of 0.5 prior sd leaves the proposals
        # beyond 2.5 prior sds to the exact kernel.
        scalar = []

        def counted(ctx, prior, x):
            scalar.append(not isinstance(x, np.ndarray))
            return log_sampling_kernel(ctx, prior, x)

        monkeypatch.setattr(likelihood, "log_sampling_kernel", counted)
        prior = UnitInfoPrior(Family.BOXCOX, location=0.0, scale=1.0)
        chain = run_mh(_FlatLikelihood(), prior, MhConfig(burn_in=0, draws=5000),
                       0.0, 0.5, seed=4)
        assert chain.table_exact_share == 0.0
        assert chain.exact_steps > 0
        assert chain.exact_steps == sum(scalar) - 1  # the start


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
