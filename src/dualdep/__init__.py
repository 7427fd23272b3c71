"""Dual-list population size estimation under negative behavioral dependence.

Estimates the size of a closed population from two overlapping capture
lists whose inclusion is negatively dependent: a constrained maximum-
likelihood estimator on a two-stratum latent dependence model, with
information-matrix and imputed-bootstrap uncertainty, multiplicative
confidence intervals, and Monte-Carlo study harnesses. See the ``dualdep``
command-line tool for batch use.
"""

from .exceptions import (
    BootstrapError,
    DualdepError,
    EvaluationError,
    FitError,
    InfeasibleConstraintsError,
    InformationMatrixError,
    NonConvergenceError,
    ValidationError,
)
from .inference import (
    BootstrapResult,
    HessianSE,
    UncertaintyReport,
    bootstrap,
    confidence_interval,
    se_from_hessian,
    uncertainty_report,
)
from .mle import DEFAULT_SEED, FitOptions, FitResult, StartDiagnostics, fit, starting_points
from .model import (
    CellProbabilities,
    ModelParams,
    PARAM_NAMES,
    cell_probabilities,
    gradient,
    hessian,
    log_likelihood,
    marginals_and_covariance,
    p2a_ratio,
    size_ratio,
)
from .simulate import (
    CoverageResult,
    GeneratorConfig,
    SimulationSummary,
    Study1Result,
    Study2Result,
    cell_probabilities_for,
    draw_counts,
    run_coverage,
    run_study1,
    run_study2,
    scenario_grid,
    study1_config,
)
from .tables import (
    CellCounts,
    Diagnostics,
    SurveyData,
    c_hat,
    diagnostics,
    lp_bias_approx,
    load_survey,
    naive_estimate,
    naive_pooled,
    validate,
)

__version__ = "0.1.0"
