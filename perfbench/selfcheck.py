"""Tests of the benchmark's own output checks, on small inputs."""
import math
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import checks  # noqa: E402
from transelect import (PARAMETRIC_FAMILIES, Family, LikelihoodContext,  # noqa: E402
                        ScenarioSpec, build_power_prior, build_unit_info_prior,
                        estimate_dual_anchor, evidence_quadrature, generate,
                        make_imaginary, prepare)

N = 40


@pytest.fixture(scope="module")
def dataset():
    y = generate(ScenarioSpec("gamma", N, seed=5, shape=2.0, rate=3.0))
    imaginary = make_imaginary(n_star=N, seed=6)
    return y, imaginary, estimate_dual_anchor(imaginary)


@pytest.fixture(scope="module")
def own_a(dataset):
    y, imaginary, _ = dataset
    return {f: checks.own_evidence(f, y, "A", imaginary_raw=imaginary.prepared.raw)
            for f in checks.FAMILIES}


def _report(own, chib_shift=0.0):
    """A SelectionReport.to_dict() whose estimates agree with `own`."""
    logs = [own[f] for f in checks.FAMILIES]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    probs = [w / sum(weights) for w in weights]
    families = []
    for fam, p in zip(checks.FAMILIES, probs):
        if fam in ("id", "log"):
            ev = {"closed_form": own[fam]}
        else:
            ev = {"chib": own[fam] + chib_shift, "laplace_metropolis": own[fam] + 0.05,
                  "quadrature": own[fam]}
        families.append({"family": fam, "posterior_model_prob": p,
                         "evidence": {m: {"log_marginal": v} for m, v in ev.items()}})
    ranking = [f for _, f in sorted(zip(probs, checks.FAMILIES), reverse=True)]
    return {"ranking": ranking, "families": families}


@pytest.mark.parametrize("prior_kind", ["A", "B"])
def test_dense_grid_matches_program_quadrature(dataset, prior_kind):
    y, imaginary, anchor = dataset
    data = prepare(y)
    for family in PARAMETRIC_FAMILIES:
        ctx = LikelihoodContext(family, data)
        if prior_kind == "A":
            prior = build_power_prior(family, imaginary)
            own = checks.own_evidence(family.value, y, "A", imaginary_raw=imaginary.prepared.raw)
        else:
            prior = build_unit_info_prior(family, imaginary, anchor=anchor)
            own = checks.own_evidence(family.value, y, "B", location=prior.location,
                                      scale=prior.scale)
        program = evidence_quadrature(ctx, prior).log_marginal
        assert abs(program - own) < checks.QUAD_TOL, family


def test_closed_forms_match_program(dataset, own_a):
    y, _, _ = dataset
    data = prepare(y)
    for family in (Family.ID, Family.LOG):
        assert abs(LikelihoodContext(family, data).loglik() - own_a[family.value]) < 1e-9


def test_consistent_report_passes(own_a):
    report = _report(own_a, chib_shift=0.03)
    checks.check_report(report, own_a)
    checks.check_winner(report, own_a)


def test_probabilities_not_summing_to_one_rejected(own_a):
    report = _report(own_a)
    report["families"][0]["posterior_model_prob"] += 1e-9
    with pytest.raises(checks.CheckFailure, match="sum to 1"):
        checks.check_report(report, own_a)


def test_chib_far_from_own_quadrature_rejected(own_a):
    with pytest.raises(checks.CheckFailure, match="chib"):
        checks.check_report(_report(own_a, chib_shift=0.2), own_a)


def test_quadrature_off_dense_grid_rejected(own_a):
    report = _report(own_a)
    report["families"][2]["evidence"]["quadrature"]["log_marginal"] += 1e-3
    with pytest.raises(checks.CheckFailure, match="quadrature"):
        checks.check_report(report, own_a)


def test_wrong_winner_rejected(own_a):
    report = _report(own_a)
    worst = min(own_a, key=own_a.get)
    report["ranking"] = [worst] + [f for f in report["ranking"] if f != worst]
    with pytest.raises(checks.CheckFailure, match="ranks first"):
        checks.check_winner(report, own_a)
    with pytest.raises(checks.CheckFailure, match="expected"):
        checks.check_report(report, own_a, expect_first=max(own_a, key=own_a.get))


def _sweep_rows(replications=2, modes=(0.3, 0.8)):
    rows = []
    for point, mode in zip((2.0, 0.5), modes):
        for fam, p in zip(checks.FAMILIES, (0.5, 0.1, 0.2, 0.1, 0.05, 0.05)):
            rows.append({"axis_value": str(point), "family": fam, "prior": "A",
                         "mean_pmp": repr(p), "replications": str(replications),
                         "mean_lambda_mode": repr(mode) if fam == "boxcox" else "nan"})
    return rows


def test_sweep_rows_pass():
    checks.check_sweep(_sweep_rows(), [2.0, 0.5], replications=2)


def test_sweep_row_with_fewer_replications_rejected():
    rows = _sweep_rows()
    rows[3]["replications"] = "1"
    with pytest.raises(checks.CheckFailure, match="replications"):
        checks.check_sweep(rows, [2.0, 0.5], replications=2)


def test_sweep_modes_falling_with_skewness_rejected():
    with pytest.raises(checks.CheckFailure, match="rise"):
        checks.check_sweep(_sweep_rows(modes=(0.8, 0.3)), [2.0, 0.5], replications=2)
