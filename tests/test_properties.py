"""Property tests: the selection is invariant to affine rescaling and to the
order of the data, and every forward map is strictly increasing in y.

Data are drawn from the paper's scenarios with drawn seeds; examples are
derandomized so that every run checks the same cases. Analyses are
quadrature-only, which needs no MH chain.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transelect.families import PARAMETRIC_FAMILIES, Family, forward, prepare
from transelect.simulate import AnalysisConfig, ScenarioSpec, analyze_dataset, generate

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
    z = forward(family, prepare(np.sort(y)), lam)
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
