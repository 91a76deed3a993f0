"""Property tests: the selection is invariant to affine rescaling and to the
order of the data, every transform is strictly increasing in y, and the
posterior model probabilities obey the probability axioms.

Data are drawn from the paper's scenarios with drawn seeds; examples are
derandomized so that every run checks the same cases. Analyses are
quadrature-only, which needs no MH chain.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transelect.evidence import (QUADRATURE, EvidenceEstimate, FamilyResult,
                                 posterior_model_probs)
from transelect.families import ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, prepare
from transelect.simulate import AnalysisConfig, ScenarioSpec, analyze_dataset, generate

from _oracles import transform_in_data_order

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=20)
QUADRATURE_ONLY = AnalysisConfig(methods=("quadrature",))
EVIDENCE_TOL = 1e-6      # nats
PROBABILITY_TOL = 1e-8
SCENARIOS = {
    "normal": {},
    "gamma": {"shape": 2.0, "rate": 3.0},
    "student": {"df": 2.0, "ncp": -1.0},
}


@st.composite
def datasets(draw, n=st.integers(30, 100)):
    dist = draw(st.sampled_from(sorted(SCENARIOS)))
    spec = ScenarioSpec(dist, draw(n), seed=draw(st.integers(0, 2**32 - 1)),
                        **SCENARIOS[dist])
    return generate(spec)


def _summary(report):
    """{family: (log evidence, posterior model probability)}."""
    return {r.family: (next(iter(r.evidence.values())).log_marginal,
                       r.posterior_model_prob) for r in report.results}


def _assert_same_selection(y, y_other):
    for prior_kind in ("A", "B"):
        base = _summary(analyze_dataset(y, prior_kind, QUADRATURE_ONLY))
        other = _summary(analyze_dataset(y_other, prior_kind, QUADRATURE_ONLY))
        for family, (log_ev, prob) in base.items():
            log_ev_other, prob_other = other[family]
            assert abs(log_ev - log_ev_other) < EVIDENCE_TOL, (prior_kind, family)
            assert abs(prob - prob_other) < PROBABILITY_TOL, (prior_kind, family)


@PROPERTY
@given(y=datasets(), a=st.floats(0.01, 100.0), b=st.floats(-100.0, 100.0))
def test_affine_invariance(y, a, b):
    _assert_same_selection(y, a * y + b)


@pytest.mark.parametrize("a", [1e-300, 1e-160, 1e160, 1e300])
def test_invariance_to_scales_whose_squares_overflow_or_underflow(a):
    # 1e160 squared overflows and 1e-160 squared is subnormal
    y = generate(ScenarioSpec("gamma", 50, seed=5, **SCENARIOS["gamma"]))
    _assert_same_selection(y, a * y)


@PROPERTY
@given(y=datasets(), data=st.data())
def test_permutation_invariance(y, data):
    order = data.draw(st.permutations(range(y.size)))
    _assert_same_selection(y, y[np.asarray(order)])


# The closed-form branches at the removable singularities, and points just off them.
BRANCH_POINTS = ([(f, lam) for f in (Family.BOXCOX, Family.MODULUS, Family.YEOJOHNSON)
                  for lam in (0.0, 1e-11, -1e-11)]
                 + [(Family.YEOJOHNSON, lam) for lam in (2.0, 2.0 + 1e-11, 2.0 - 1e-11)]
                 + [(Family.DUAL, 1e-11)])


def _assert_increasing(y, family, lam):
    z = transform_in_data_order(family, prepare(np.sort(y)), lam)[0]
    assert np.all(np.diff(z) > 0.0), (family, lam)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(y=datasets(n=st.integers(10, 200)), family=st.sampled_from(PARAMETRIC_FAMILIES),
       data=st.data())
def test_forward_strictly_increasing(y, family, data):
    lo = 1e-6 if family is Family.DUAL else -5.0
    _assert_increasing(y, family, data.draw(st.floats(lo, 5.0)))


@pytest.mark.parametrize("family, lam", BRANCH_POINTS)
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(y=datasets(n=st.integers(10, 200)))
def test_forward_strictly_increasing_at_branch_points(family, lam, y):
    _assert_increasing(y, family, lam)


def _probabilities(logs):
    """Posterior model probabilities of the first len(logs) families."""
    results = [FamilyResult(family=f, prior_kind="A",
                            evidence={QUADRATURE: EvidenceEstimate(lm, QUADRATURE)},
                            lambda_mode=None, lambda_sd=None)
               for f, lm in zip(ALL_FAMILIES, logs)]
    report = posterior_model_probs(results, "A", prob_method=QUADRATURE)
    return np.array([report.result_for(f).posterior_model_prob
                     for f in ALL_FAMILIES[:len(logs)]])


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(logs=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=len(ALL_FAMILIES)),
       shift=st.floats(-1000.0, 1000.0))
def test_probability_axioms(logs, shift):
    p = _probabilities(logs)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(np.abs(_probabilities([lm + shift for lm in logs]) - p) < 1e-12)
    higher = np.asarray(logs)[:, None] > np.asarray(logs)[None, :]
    assert np.all(p[:, None] >= p[None, :], where=higher)
