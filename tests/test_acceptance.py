"""End-to-end acceptance suite.

Each test checks one numbered criterion and records a single pass/fail line
in the terminal summary. Replicated scenario runs are cached so several
criteria can share them.
"""
from functools import lru_cache
from statistics import median

import numpy as np

import conftest
from transelect.families import ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, prepare
from transelect.likelihood import LikelihoodContext
from transelect.priors import estimate_dual_anchor, fisher_scale, make_imaginary
from transelect.simulate import (AnalysisConfig, ScenarioSpec, SweepSpec,
                                 generate, run_scenario, run_sweep)

from _oracles import (brute_force_log_evidence, fd_fisher_scale,
                      fd_log_jacobian, make_data)

REPS = 10
BASE_SEED = 1000
DIST_PARAMS = {
    "normal": {},
    "gamma": {"shape": 2.0, "rate": 3.0},
    "student": {"df": 2.0, "ncp": -1.0},
}
# Every (distribution, n, prior) replication set computed for criteria 1-6.
SCENARIO_GRID = (
    ("normal", 100, "A"), ("normal", 100, "B"),
    ("gamma", 100, "A"), ("gamma", 100, "B"),
    ("student", 100, "A"), ("student", 100, "B"),
    ("normal", 1000, "A"), ("normal", 1000, "B"),
    ("gamma", 1000, "A"), ("student", 1000, "A"),
)


def record(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def scenario_reports(dist, n, prior):
    reports = []
    for rep in range(REPS):
        seed = BASE_SEED + rep
        spec = ScenarioSpec(dist, n, seed=seed, **DIST_PARAMS[dist])
        reports.append(run_scenario(spec, prior, AnalysisConfig(seed=seed)))
    return tuple(reports)


def _median_prob(reports, family):
    return median(r.result_for(family).posterior_model_prob for r in reports)


def _first_count(reports, family):
    return sum(1 for r in reports if r.ranking[0] is family)


def test_criterion_1_normal_rank_reproduction():
    details = []
    ok = True
    for prior in ("A", "B"):
        reports = scenario_reports("normal", 100, prior)
        med = {f: _median_prob(reports, f) for f in ALL_FAMILIES}
        top = max(med, key=med.get)
        p_id = med[Family.ID]
        ok = ok and top is Family.ID and 0.55 <= p_id <= 0.95
        details.append(f"prior {prior}: median winner {top.value}, "
                       f"median P(id)={p_id:.3f}")
    record(1, ok, "; ".join(details) + " (need id, [0.55, 0.95])")


def test_criterion_2_gamma_rank_reproduction():
    reports = scenario_reports("gamma", 100, "A")
    firsts = _first_count(reports, Family.BOXCOX)
    p_bc = _median_prob(reports, Family.BOXCOX)
    mode = median(r.result_for(Family.BOXCOX).lambda_mode for r in reports)
    ok = firsts >= 9 and p_bc >= 0.9 and 0.29 <= mode <= 0.59
    record(2, ok, f"boxcox first {firsts}/10 (need >=9), median P={p_bc:.3f} "
                  f"(need >=0.9), median mode={mode:.3f} (need [0.29, 0.59])")


def test_criterion_3_student_rank_reproduction():
    reports = scenario_reports("student", 100, "A")
    firsts = _first_count(reports, Family.MODULUS)
    p_mod = _median_prob(reports, Family.MODULUS)
    ok = firsts >= 8 and p_mod >= 0.6
    record(3, ok, f"modulus first {firsts}/10 (need >=8), "
                  f"median P={p_mod:.3f} (need >=0.6)")


def test_criterion_4_large_n_sharpening():
    pairs = (
        ("normal", "A", Family.ID), ("normal", "B", Family.ID),
        ("gamma", "A", Family.BOXCOX), ("student", "A", Family.MODULUS),
    )
    details = []
    ok = True
    for dist, prior, family in pairs:
        small = _median_prob(scenario_reports(dist, 100, prior), family)
        large = _median_prob(scenario_reports(dist, 1000, prior), family)
        ok = ok and large > small
        details.append(f"{dist}/{prior} {family.value}: "
                       f"{small:.3f} -> {large:.3f}")
    record(4, ok, "; ".join(details) + " (need strict increase)")


def test_criterion_5_estimator_concordance():
    worst_chib, worst_lm = 0.0, 0.0
    for dist, n, prior in SCENARIO_GRID:
        for report in scenario_reports(dist, n, prior):
            for family in PARAMETRIC_FAMILIES:
                ev = report.result_for(family).evidence
                quad = ev["quadrature"].log_marginal
                worst_chib = max(worst_chib,
                                 abs(ev["chib"].log_marginal - quad))
                if family is not Family.DUAL:
                    worst_lm = max(
                        worst_lm,
                        abs(ev["laplace_metropolis"].log_marginal - quad))
    ok = worst_chib <= 0.1 and worst_lm <= 0.5
    record(5, ok, f"max |chib-quad|={worst_chib:.4f} (need <=0.1), "
                  f"max |lm-quad|={worst_lm:.4f} non-Dual (need <=0.5)")


def test_criterion_6_prior_compatibility():
    worst = 0.0
    for dist, n in (("normal", 100), ("gamma", 100), ("student", 100),
                    ("normal", 1000)):
        rep_a = scenario_reports(dist, n, "A")
        rep_b = scenario_reports(dist, n, "B")
        for ra, rb in zip(rep_a, rep_b):
            for family in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON):
                gap = abs(ra.result_for(family).evidence["quadrature"].log_marginal
                          - rb.result_for(family).evidence["quadrature"].log_marginal)
                worst = max(worst, gap)
    record(6, worst <= 0.5, f"max |log f(y|T) under A - under B|={worst:.4f} "
                            f"(need <=0.5)")


def test_criterion_7_fisher_scale_correctness():
    worst = 0.0
    for seed in range(20):
        imaginary = make_imaginary(n_star=100, seed=seed)
        anchor = estimate_dual_anchor(imaginary)
        for family in PARAMETRIC_FAMILIES:
            closed = fisher_scale(family, imaginary, anchor=anchor)
            approx = fd_fisher_scale(family, imaginary,
                                     anchor_value=anchor.value)
            worst = max(worst, abs(closed - approx) / approx)
    record(7, worst < 1e-4,
           f"max relative error={worst:.2e} over 20 seeds x 4 families "
           f"(need <1e-4)")


def test_criterion_8_jacobian_correctness():
    rng = np.random.default_rng(77)
    real_lams = tuple(np.linspace(-2.0, 3.0, 16))
    lam_grid = {
        Family.ID: (0.0,),
        Family.LOG: (0.0,),
        Family.BOXCOX: real_lams,
        Family.MODULUS: real_lams,
        Family.YEOJOHNSON: real_lams + (2.0,),
        Family.DUAL: tuple(np.linspace(0.25, 3.0, 8)),
    }
    datasets = []
    for _ in range(10):
        y = rng.normal(size=6)
        datasets.append(y)
    cells = 0
    worst = 0.0
    from transelect.families import compute_shift
    for family in ALL_FAMILIES:
        for y in datasets:
            xi = compute_shift(y)[0] if family.requires_shift else 0.0
            data = make_data(y, xi=xi)
            for lam in lam_grid[family]:
                exact = LikelihoodContext(family, data).transform(lam)[1]
                approx = fd_log_jacobian(family, data, lam)
                worst = max(worst, abs(exact - approx))
                cells += 1
    ok = cells >= 500 and worst < 1e-6
    record(8, ok, f"max |closed form - finite difference|={worst:.2e} over "
                  f"{cells} cells (need <1e-6, >=500 cells)")


def test_criterion_9_small_n_brute_force():
    data = prepare(generate(ScenarioSpec("normal", 8, seed=12)))
    lam_grid = {
        Family.ID: (0.0,) * 5,
        Family.LOG: (0.0,) * 5,
        Family.BOXCOX: (-1.0, 0.0, 0.5, 1.0, 2.0),
        Family.MODULUS: (-1.0, 0.0, 0.5, 1.0, 2.0),
        Family.YEOJOHNSON: (-1.0, 0.0, 0.5, 1.0, 2.0),
        Family.DUAL: (0.25, 0.5, 1.0, 1.5, 2.0),
    }
    worst = 0.0
    for family in ALL_FAMILIES:
        ctx = LikelihoodContext(family, data)
        for lam in lam_grid[family]:
            oracle = brute_force_log_evidence(family, data, lam)
            worst = max(worst, abs(ctx.loglik(lam) - oracle))
    record(9, worst < 1e-3, f"max |loglik - 2-D quadrature|={worst:.2e} "
                            f"(need <1e-3, n=8, all families, 5 lambdas)")


SWEEP_CFG = AnalysisConfig(methods=("chib",))
SWEEP_REPS = 3


def test_criterion_10_sensitivity_trends():
    gamma_rows = run_sweep(SweepSpec(axis="gamma_skewness",
                                     points=(2.0, 1.4, 0.7, 0.3), n=1000,
                                     prior_kind="A", replications=SWEEP_REPS,
                                     seed=0), SWEEP_CFG)
    bc_modes = [row["mean_lambda_mode"] for row in gamma_rows
                if row["family"] == "boxcox"]
    gamma_ok = all(b > a for a, b in zip(bc_modes, bc_modes[1:]))

    student_rows = run_sweep(SweepSpec(axis="student_df",
                                       points=(2.0, 3.0, 5.0, 10.0, 30.0),
                                       n=1000, prior_kind="A",
                                       replications=SWEEP_REPS, seed=0),
                             SWEEP_CFG)
    p_mod = [row["mean_pmp"] for row in student_rows
             if row["family"] == "modulus"]
    p_id = [row["mean_pmp"] for row in student_rows if row["family"] == "id"]
    mod_modes = [row["mean_lambda_mode"] for row in student_rows
                 if row["family"] == "modulus"]
    mod_ok = all(b <= a for a, b in zip(p_mod, p_mod[1:]))
    id_ok = all(b >= a for a, b in zip(p_id, p_id[1:]))
    approach_ok = abs(mod_modes[-1] - 1.0) < abs(mod_modes[0] - 1.0)

    ok = gamma_ok and mod_ok and id_ok and approach_ok
    record(10, ok,
           f"boxcox modes {['%.3f' % m for m in bc_modes]} increasing={gamma_ok}; "
           f"P(mod) {['%.3f' % p for p in p_mod]} nonincreasing={mod_ok}; "
           f"P(id) {['%.3f' % p for p in p_id]} nondecreasing={id_ok}; "
           f"mod mode {mod_modes[0]:.3f}->{mod_modes[-1]:.3f} toward 1={approach_ok}")


def test_criterion_11_probability_axioms():
    from transelect.evidence import (QUADRATURE, EvidenceEstimate, FamilyResult,
                                     posterior_model_probs)

    def probs(logs):
        results = [FamilyResult(family=f, prior_kind="A",
                                evidence={QUADRATURE: EvidenceEstimate(
                                    float(lm), QUADRATURE)},
                                lambda_mode=None, lambda_sd=None)
                   for f, lm in zip(ALL_FAMILIES, logs)]
        report = posterior_model_probs(results, "A", prob_method=QUADRATURE)
        return np.array([r.posterior_model_prob for r in report.results])

    rng = np.random.default_rng(123)
    worst_sum, worst_shift = 0.0, 0.0
    in_range = True
    for _ in range(1000):
        logs = rng.uniform(-400.0, -50.0, size=6)
        shift = rng.uniform(-60.0, 60.0)
        p = probs(logs)
        q = probs(logs + shift)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        worst_shift = max(worst_shift, float(np.abs(p - q).max()))
        in_range = in_range and bool(np.all((p >= 0.0) & (p <= 1.0)))
    ok = worst_sum < 1e-12 and worst_shift < 1e-14 and in_range
    record(11, ok, f"1000 vectors: max |sum-1|={worst_sum:.2e} (need <1e-12), "
                   f"max shift deviation={worst_shift:.2e} (need <1e-14), "
                   f"all in [0,1]={in_range}")
