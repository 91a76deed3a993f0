"""Bayesian selection among normalizing variable-transformation families."""

from .errors import (DegenerateData, DegenerateTransform, DomainError,
                     EmptyColumn, InconsistentEvidence, IntegrationFailure,
                     MixingFailure, NonPositiveCurvature, NonPositiveInput,
                     OrdinateUnderflow, ParseError, TranselectError)
from .evidence import (EvidenceEstimate, FamilyResult, SelectionReport,
                       evidence_chib, evidence_closed_form,
                       evidence_laplace_metropolis, evidence_quadrature,
                       posterior_model_probs)
from .families import (ALL_FAMILIES, PARAMETRIC_FAMILIES, Family, PreparedData,
                       compute_shift, prepare, standardize)
from .likelihood import LikelihoodContext, MhConfig, PosteriorChain, run_mh
from .priors import (DualAnchor, ImaginaryData, PowerPrior, UnitInfoPrior,
                     build_power_prior, build_unit_info_prior,
                     estimate_dual_anchor, fisher_scale, log_power_prior_kernel,
                     make_imaginary, power_prior_log_norm_const)
from .simulate import (AnalysisConfig, ScenarioSpec, SweepSpec,
                       analyze_dataset, gamma_params_for_skewness, generate,
                       run_scenario, run_sweep)

__version__ = "0.1.0"
