"""Distributionally robust split conformal prediction under local/global shifts.

Worst-case quantiles and coverage over a transport-based ambiguity ball
around the calibration score distribution, the exact threshold-cost distance
between empirical samples, data-driven ambiguity parameter estimation,
baseline comparison methods, and an evaluation harness with a CLI.
"""

from .core import (
    InfeasibleLevelError,
    ScoreSample,
    ThresholdResult,
    cdf,
    conformal_quantile,
    quantile,
)
from .lp_metric import (
    LPParams,
    TransportResult,
    lp_distance,
    lp_profile,
    tv_distance,
    winf_distance,
    winf_within,
)
from .robust import (
    PredictionSet,
    adjusted_beta,
    coverage_lower_bound,
    lp_threshold,
    prediction_set,
    robust_threshold,
    tv_threshold,
    winf_threshold,
    worst_case_coverage,
    worst_case_quantile,
)
from .baselines import (
    WeightedScores,
    chi2_g,
    chi2_g_inv,
    chi2_threshold,
    fg_threshold,
    rscp_threshold,
    sc_threshold,
    weighted_threshold,
)
from .estimation import (
    EstimationResult,
    GridPoint,
    NoFeasibleGridError,
    default_epsilon_grid,
    estimate_lp_params,
)
from .shiftlab import (
    PerturbationSpec,
    PointMass,
    Uniform,
    perturb_draws,
    perturb_sample,
    propagate_params,
)
from .harness import (
    EvalReport,
    MethodSpec,
    ScoreMatrix,
    compare,
    evaluate,
    read_matrix,
    read_scores,
    read_weighted_scores,
)

__version__ = "0.1.0"

__all__ = [
    "EstimationResult",
    "EvalReport",
    "GridPoint",
    "InfeasibleLevelError",
    "LPParams",
    "MethodSpec",
    "NoFeasibleGridError",
    "PerturbationSpec",
    "PointMass",
    "PredictionSet",
    "ScoreMatrix",
    "ScoreSample",
    "ThresholdResult",
    "TransportResult",
    "Uniform",
    "WeightedScores",
    "adjusted_beta",
    "cdf",
    "chi2_g",
    "chi2_g_inv",
    "chi2_threshold",
    "compare",
    "conformal_quantile",
    "coverage_lower_bound",
    "default_epsilon_grid",
    "estimate_lp_params",
    "evaluate",
    "fg_threshold",
    "lp_distance",
    "lp_profile",
    "lp_threshold",
    "perturb_draws",
    "perturb_sample",
    "prediction_set",
    "propagate_params",
    "quantile",
    "read_matrix",
    "read_scores",
    "read_weighted_scores",
    "robust_threshold",
    "rscp_threshold",
    "sc_threshold",
    "tv_distance",
    "tv_threshold",
    "weighted_threshold",
    "winf_distance",
    "winf_threshold",
    "winf_within",
    "worst_case_coverage",
    "worst_case_quantile",
]
