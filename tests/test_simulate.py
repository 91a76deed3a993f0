import math

import numpy as np
import pytest
from scipy.stats import skew

from transelect import simulate
from transelect.errors import DegenerateData, MixingFailure
from transelect.families import ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, prepare
from transelect.likelihood import PROPOSAL_SCALE, TABLE_TOL, LikelihoodContext, MhConfig
from transelect.priors import (build_power_prior, build_unit_info_prior,
                               estimate_dual_anchor, make_imaginary)
from transelect.quadrature import REAL_WINDOW, TAIL_TOL
from transelect.simulate import (AnalysisConfig, ScenarioSpec, SweepSpec,
                                 analyze_dataset, gamma_params_for_skewness,
                                 generate, run_scenario, run_sweep)

from _oracles import dense_posterior_sd

FAST_CFG = dict(mh=MhConfig(burn_in=500, draws=2000), chib_draws=500)


class TestScenarioSpec:
    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("cauchy", 100)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("normal", 100, sigma=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec("gamma", 100, shape=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec("normal", 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("param", simulate.SCENARIO_PARAMS)
    def test_non_finite_parameters_rejected(self, param, value):
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec("normal", 50, **{param: value})


_SPECS = {
    "scenario": lambda seed: ScenarioSpec("normal", 50, seed=seed),
    "analysis": lambda seed: AnalysisConfig(seed=seed),
    "sweep": lambda seed: SweepSpec(axis="student_df", points=(2.0,), seed=seed),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, "7", None])
@pytest.mark.parametrize("spec", sorted(_SPECS))
def test_seed_must_be_a_non_negative_integer(spec, seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        _SPECS[spec](seed)
    assert _SPECS[spec](np.int64(5)).seed == 5


class TestGenerate:
    def test_normal_moments(self):
        y = generate(ScenarioSpec("normal", 100000, seed=1))
        assert abs(y.mean()) < 0.01
        assert abs(y.std(ddof=1) - 1.0) < 0.01

    def test_gamma_moments(self):
        y = generate(ScenarioSpec("gamma", 100000, seed=2, shape=2.0, rate=3.0))
        assert abs(y.mean() - 2.0 / 3.0) < 0.01
        assert abs(skew(y) - 2.0 / math.sqrt(2.0)) < 0.05

    def test_student_construction(self):
        # Noncentral variate (Z + ncp) / sqrt(V / df), reproduced directly.
        spec = ScenarioSpec("student", 50, seed=9, df=2.0, ncp=-1.0)
        y = generate(spec)
        rng = np.random.default_rng(9)
        z = rng.normal(size=50)
        v = rng.chisquare(2.0, size=50)
        np.testing.assert_array_equal(y, (z - 1.0) / np.sqrt(v / 2.0))

    def test_seeded_determinism(self):
        spec = ScenarioSpec("gamma", 500, seed=3)
        np.testing.assert_array_equal(generate(spec), generate(spec))

    def test_sizes(self):
        assert generate(ScenarioSpec("normal", 17, seed=0)).size == 17


class TestGammaSkewnessParams:
    def test_mean_one_and_requested_skewness(self):
        for target in (2.0, 1.4, 0.7, 0.3):
            a, b = gamma_params_for_skewness(target)
            assert abs(a / b - 1.0) < 1e-12            # mean a/b
            assert abs(2.0 / math.sqrt(a) - target) < 1e-12

    def test_sample_skewness_matches(self):
        for target in (2.0, 0.7):
            a, b = gamma_params_for_skewness(target)
            y = generate(ScenarioSpec("gamma", 100000, seed=4, shape=a, rate=b))
            assert abs(skew(y) - target) < 0.1


class TestAnalysisConfig:
    def test_requires_families_and_methods(self):
        with pytest.raises(ValueError):
            AnalysisConfig(families=())
        with pytest.raises(ValueError):
            AnalysisConfig(methods=())

    def test_prob_method_falls_back_to_available(self):
        cfg = AnalysisConfig(methods=("quadrature",))
        assert cfg.prob_method == "quadrature"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            AnalysisConfig(methods=("quadrature", "harmonic_mean"))

    def test_too_few_chib_draws_rejected(self):
        with pytest.raises(ValueError, match="chib_draws must be at least 500"):
            AnalysisConfig(chib_draws=100)
        assert AnalysisConfig(chib_draws=500).chib_draws == 500

    def test_n_star_with_empirical_imaginary_data_rejected(self):
        with pytest.raises(ValueError, match="n_star does not apply"):
            AnalysisConfig(n_star=20, imaginary_source="empirical")
        assert AnalysisConfig(imaginary_source="empirical").n_star is None

    @pytest.mark.parametrize("source", ["emp", "Simulated", ""])
    def test_unknown_imaginary_source_rejected(self, source):
        with pytest.raises(ValueError, match="unknown imaginary-data source"):
            AnalysisConfig(imaginary_source=source)

    def test_small_explicit_n_star_rejected_at_construction(self):
        with pytest.raises(ValueError, match="n_star must be at least 10"):
            AnalysisConfig(n_star=9)
        assert AnalysisConfig(n_star=10).n_star == 10

    def test_family_names_are_the_members(self):
        y = generate(ScenarioSpec("gamma", 100, seed=3))
        named, members = (analyze_dataset(y, "A", AnalysisConfig(
            families=families, methods=("quadrature",))).to_dict()
            for families in ((Family.ID, "boxcox", "dual"),
                             (Family.ID, Family.BOXCOX, Family.DUAL)))
        assert named == members
        assert [f["family"] for f in named["families"]] == ["id", "boxcox", "dual"]

    @pytest.mark.parametrize("entry", ["bogus", "BoxCox", "bc", 3, None])
    def test_unknown_family_rejected_at_construction(self, entry):
        with pytest.raises(ValueError) as err:
            AnalysisConfig(families=(Family.ID, entry))
        assert str(err.value) == f"unknown family: {entry}"

    @pytest.mark.parametrize("methods, families, needs", [
        (("chib",), ("id", "log"), False),
        (("laplace_metropolis", "quadrature"), ("log",), False),
        (("quadrature",), ("boxcox",), False),
        (("chib",), ("id", "dual"), True),
        (("laplace_metropolis",), ("modulus",), True),
    ])
    def test_a_chain_runs_only_for_a_family_with_a_lambda(self, methods, families, needs):
        assert AnalysisConfig(methods=methods, families=families).needs_chain is needs

    def test_n_star_for_n_observations(self):
        assert AnalysisConfig().n_star_for(10) == 10
        assert AnalysisConfig(n_star=40).n_star_for(5) == 40
        assert AnalysisConfig(imaginary_source="empirical").n_star_for(5) == 5
        with pytest.raises(DegenerateData, match=r"n=9 .*--nstar"):
            AnalysisConfig().n_star_for(9)


def _no_mh(*args, **kwargs):
    raise AssertionError("run_mh called by a quadrature-only analysis")


class TestQuadratureOnlyAnalysis:
    Y = generate(ScenarioSpec("gamma", 100, seed=1000, shape=2.0, rate=3.0))

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_skips_mh_and_matches_full_run(self, prior_kind, monkeypatch):
        full = analyze_dataset(self.Y, prior_kind, AnalysisConfig(seed=3, **FAST_CFG))
        monkeypatch.setattr(simulate, "run_mh", _no_mh)
        quad = analyze_dataset(self.Y, prior_kind,
                               AnalysisConfig(seed=3, methods=("quadrature",), **FAST_CFG))
        for family in PARAMETRIC_FAMILIES:
            f, q = full.result_for(family), quad.result_for(family)
            assert (q.evidence["quadrature"].log_marginal
                    == f.evidence["quadrature"].log_marginal), family
            assert abs(q.lambda_mode - f.lambda_mode) < 1e-5, family
            diag = q.evidence["quadrature"].diagnostics
            assert (diag["lambda_mode"], diag["lambda_sd"]) == (q.lambda_mode, q.lambda_sd)

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_lambda_sd_matches_dense_grid(self, prior_kind, monkeypatch):
        monkeypatch.setattr(simulate, "run_mh", _no_mh)
        report = analyze_dataset(self.Y, prior_kind,
                                 AnalysisConfig(seed=3, methods=("quadrature",)))
        data = prepare(self.Y)
        imaginary = make_imaginary(n_star=data.n, seed=simulate._child_seed(3, 99))
        anchor = estimate_dual_anchor(imaginary)
        for family in PARAMETRIC_FAMILIES:
            if prior_kind == "A":
                prior = build_power_prior(family, imaginary)
            else:
                prior = build_unit_info_prior(family, imaginary, anchor=anchor)
            lo, hi = (1e-6, 20.0) if family is Family.DUAL else REAL_WINDOW
            oracle = dense_posterior_sd(LikelihoodContext(family, data), prior, lo, hi)
            got = report.result_for(family).lambda_sd
            assert abs(got - oracle) < 1e-4 * oracle, (family, got, oracle)


class TestGridSeededChains:
    Y = generate(ScenarioSpec("gamma", 100, seed=1000, shape=2.0, rate=3.0))

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_chain_starts_at_the_grid_mode_with_a_fixed_step(self, prior_kind):
        report = analyze_dataset(self.Y, prior_kind, AnalysisConfig(seed=3, **FAST_CFG))
        chains = {r.family: r.chain for r in report.results if r.chain is not None}
        assert set(chains) == set(PARAMETRIC_FAMILIES)
        blocks = {r["family"]: r["mh"] for r in report.to_dict()["families"]}
        for family, chain in chains.items():
            assert blocks[family.value] == {
                "accept_rate": chain.accept_rate, "step_sd": chain.step_sd,
                "table_exact_share": chain.table_exact_share,
                "table_max_error": chain.table_max_error,
                "exact_steps": chain.exact_steps}, family
            assert 0.0 <= chain.table_exact_share < 1.0, family
            assert 0.0 < chain.table_max_error <= TABLE_TOL, family
            result = report.result_for(family)
            diag = result.evidence["quadrature"].diagnostics
            assert chain.mode == diag["x_mode"], family
            assert chain.step_sd == PROPOSAL_SCALE * diag["x_sd"], family
            assert result.evidence["chib"].diagnostics["lambda_star"] == diag["lambda_mode"]
            assert (result.lambda_mode, result.lambda_sd) == (diag["lambda_mode"],
                                                              diag["lambda_sd"])


class TestQuadratureTailMass:
    Y = generate(ScenarioSpec("gamma", 100, seed=1000, shape=2.0, rate=3.0))

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_every_family_reports_its_tail_mass(self, prior_kind):
        report = analyze_dataset(self.Y, prior_kind, AnalysisConfig(seed=3, **FAST_CFG))
        families = {r["family"]: r for r in report.to_dict()["families"]}
        for family in PARAMETRIC_FAMILIES:
            tail = families[family.value]["evidence"]["quadrature"]["diagnostics"]["tail_mass"]
            assert 0.0 <= tail <= 1.0, family
            # the window stops growing once its endpoints hold < TAIL_TOL of the
            # mass; only Dual's lambda -> 0 boundary may keep more
            if family is not Family.DUAL:
                assert tail < TAIL_TOL, (family, tail)


class TestRunSetup:
    QUAD = dict(methods=("quadrature",))

    def test_setup_record_matches_the_builders(self):
        y = generate(ScenarioSpec("gamma", 60, seed=11))
        report = analyze_dataset(y, "B", AnalysisConfig(seed=4, **self.QUAD))
        data = prepare(y)
        imaginary = make_imaginary(n_star=60, seed=simulate._child_seed(4, 99))
        anchor = estimate_dual_anchor(imaginary)
        assert report.setup == {
            "n": 60, "n_star": 60, "xi": data.shift_xi, "epsilon": data.epsilon,
            "dual_anchor": anchor.value,
            "dual_anchor_from_fallback": anchor.from_fallback}
        assert "setup" not in report.to_dict()

    def test_small_n_without_n_star_is_degenerate_data(self):
        y = generate(ScenarioSpec("normal", 8, seed=3))
        with pytest.raises(DegenerateData, match=r"n=8 .*--nstar"):
            analyze_dataset(y, "A", AnalysisConfig(**self.QUAD))

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_small_n_with_n_star_runs(self, prior_kind):
        y = generate(ScenarioSpec("normal", 8, seed=3))
        report = analyze_dataset(y, prior_kind, AnalysisConfig(n_star=20, **self.QUAD))
        assert (report.setup["n"], report.setup["n_star"]) == (8, 20)
        assert abs(sum(report.probabilities().values()) - 1.0) < 1e-12

    @pytest.mark.parametrize("prior_kind", ["A", "B"])
    def test_binary_data_is_degenerate_data(self, prior_kind):
        with pytest.raises(DegenerateData, match="3 distinct values, got 2"):
            analyze_dataset(np.tile([0.0, 1.0], 20), prior_kind, AnalysisConfig(**self.QUAD))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_data_is_degenerate_data(self, bad):
        with pytest.raises(DegenerateData, match="non-finite"):
            analyze_dataset(np.array([1.0, 2.0, 3.0, bad] * 5), "A",
                            AnalysisConfig(**self.QUAD))

    def test_explicit_small_n_star_is_value_error(self):
        y = generate(ScenarioSpec("normal", 50, seed=3))
        with pytest.raises(ValueError, match="n_star must be at least 10"):
            analyze_dataset(y, "A", AnalysisConfig(n_star=5, **self.QUAD))


class TestRunScenario:
    def test_normal_scenario_id_first(self):
        report = run_scenario(ScenarioSpec("normal", 100, seed=1001), "A",
                              AnalysisConfig(seed=1001, **FAST_CFG))
        assert report.ranking[0] is Family.ID
        assert report.result_for(Family.ID).posterior_model_prob >= 0.5

    def test_gamma_scenario_boxcox_first(self):
        report = run_scenario(ScenarioSpec("gamma", 100, seed=1000,
                                           shape=2.0, rate=3.0), "A",
                              AnalysisConfig(seed=1000, **FAST_CFG))
        assert report.ranking[0] is Family.BOXCOX
        assert report.result_for(Family.BOXCOX).posterior_model_prob >= 0.9

    def test_student_scenario_modulus_first(self):
        report = run_scenario(ScenarioSpec("student", 100, seed=1001,
                                           df=2.0, ncp=-1.0), "A",
                              AnalysisConfig(seed=1001, **FAST_CFG))
        assert report.ranking[0] is Family.MODULUS

    def test_family_subset_and_lambda_summaries(self):
        report = run_scenario(ScenarioSpec("normal", 60, seed=7), "B",
                              AnalysisConfig(seed=7, families=(Family.ID, Family.LOG)))
        assert len(report.results) == 2
        for r in report.results:
            assert r.lambda_mode is None and r.lambda_sd is None

    def test_invalid_prior_kind(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioSpec("normal", 50, seed=1), "C",
                         AnalysisConfig(seed=1, families=(Family.ID, Family.LOG)))


class TestRunSweep:
    def test_degenerate_sweep_matches_run_scenario(self):
        sweep = SweepSpec(axis="student_df", points=(3.0,), n=80,
                          prior_kind="A", replications=1, seed=5)
        cfg = AnalysisConfig(**FAST_CFG)
        rows = run_sweep(sweep, cfg)
        assert len(rows) == len(ALL_FAMILIES)

        from transelect.simulate import _child_seed
        cell_seed = _child_seed(5, 0, 0)
        from dataclasses import replace
        report = run_scenario(ScenarioSpec("student", 80, seed=cell_seed, df=3.0),
                              "A", replace(cfg, seed=cell_seed))
        by_family = {row["family"]: row for row in rows}
        for r in report.results:
            row = by_family[r.family.value]
            assert row["mean_pmp"] == pytest.approx(r.posterior_model_prob, abs=1e-15)
            assert row["replications"] == 1
            if r.lambda_mode is not None:
                assert row["mean_lambda_mode"] == pytest.approx(r.lambda_mode,
                                                                abs=1e-15)

    def test_on_point_flush_order(self):
        sweep = SweepSpec(axis="gamma_skewness", points=(2.0, 1.4), n=60,
                          prior_kind="A", replications=1, seed=2)
        cfg = AnalysisConfig(families=(Family.ID, Family.LOG),
                             methods=("quadrature",))
        seen = []
        run_sweep(sweep, cfg, on_point=lambda rows: seen.append(
            {row["axis_value"] for row in rows}))
        assert seen == [{2.0}, {1.4}]

    def test_cell_reproducibility(self):
        sweep = SweepSpec(axis="student_df", points=(2.0,), n=60,
                          prior_kind="A", replications=2, seed=9)
        cfg = AnalysisConfig(families=(Family.ID, Family.LOG),
                             methods=("quadrature",))
        r1 = run_sweep(sweep, cfg)
        r2 = run_sweep(sweep, cfg)
        assert r1 == r2

    def test_failed_replication_is_recorded_and_sweep_goes_on(self, monkeypatch, caplog):
        sweep = SweepSpec(axis="gamma_skewness", points=(2.0, 1.0), n=60,
                          prior_kind="B", replications=3, seed=4)
        cfg = AnalysisConfig(families=(Family.ID, Family.LOG),
                             methods=("quadrature",))
        bad_seed = simulate._child_seed(4, 0, 1)
        tied_seed = simulate._child_seed(4, 1, 2)
        real = simulate.run_scenario

        def flaky(spec, prior_kind, run_cfg):
            if spec.seed == bad_seed:
                raise MixingFailure("injected")
            if spec.seed == tied_seed:  # binary data, through the real pipeline
                return simulate.analyze_dataset(np.tile([0.0, 1.0], spec.n // 2),
                                                prior_kind, run_cfg)
            return real(spec, prior_kind, run_cfg)

        monkeypatch.setattr(simulate, "run_scenario", flaky)
        failures = []
        with caplog.at_level("WARNING"):
            rows = run_sweep(sweep, cfg, on_failure=failures.append)
        assert failures == [{"prior": "B", "axis_value": 2.0, "replication": 1,
                             "seed": bad_seed, "error": "MixingFailure",
                             "message": "injected"},
                            {"prior": "B", "axis_value": 1.0, "replication": 2,
                             "seed": tied_seed, "error": "DegenerateData",
                             "message": "need at least 3 distinct values, got 2"}]
        assert "replication 1 failed: MixingFailure" in caplog.text
        assert "replication 2 failed: DegenerateData" in caplog.text
        reps = {(row["axis_value"], row["family"]): row["replications"] for row in rows}
        assert reps == {(2.0, "id"): 2, (2.0, "log"): 2, (1.0, "id"): 2, (1.0, "log"): 2}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="nope", points=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(axis="student_df", points=())
        with pytest.raises(ValueError):
            SweepSpec(axis="student_df", points=(2.0,), replications=0)
        with pytest.raises(ValueError, match="n must be at least 3"):
            SweepSpec(axis="student_df", points=(2.0,), n=2)
        with pytest.raises(ValueError, match="prior_kind"):
            SweepSpec(axis="student_df", points=(2.0,), prior_kind="C")

    def test_too_small_n_for_the_imaginary_data_refused_before_running(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran for a sweep that cannot succeed")

        monkeypatch.setattr(simulate, "run_scenario", no_run)
        sweep = SweepSpec(axis="student_df", points=(3.0,), n=5, replications=2)
        with pytest.raises(DegenerateData, match=r"n=5 .*--nstar"):
            run_sweep(sweep, AnalysisConfig(methods=("quadrature",)))

    @pytest.mark.parametrize("axis, points", [
        ("gamma_skewness", (0.0,)),
        ("gamma_skewness", (-2.0,)),
        ("student_df", (3.0, -1.0)),
        ("student_df", (math.nan,)),
        ("gamma_skewness", (math.inf,)),
    ])
    def test_non_positive_or_non_finite_points_rejected_before_running(
            self, axis, points, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran for an invalid sweep")

        monkeypatch.setattr(simulate, "run_scenario", no_run)
        with pytest.raises(ValueError, match="finite and positive"):
            run_sweep(SweepSpec(axis=axis, points=points, n=50, replications=1))
