"""Compounded linear failure rate distribution toolkit.

Evaluation, sampling, reliability measures, maximum-likelihood fitting
with uncertainty, goodness-of-fit model comparison, and a Monte Carlo
parameter-recovery study for the compounded linear failure rate lifetime
model and its classical baselines.
"""

__version__ = "0.1.0"

from .distributions import (
    Clfrd,
    Exponential,
    GeneralizedExponential,
    LifetimeModel,
    LinearFailureRate,
    MODEL_REGISTRY,
    Rayleigh,
)
from .estimation import (
    FitResult,
    NonConvergenceError,
    clfrd_loglik,
    clfrd_observed_information,
    clfrd_score,
    fit_baselines,
    fit_clfrd,
    fit_model,
    wald_ci,
)
from .gof import GofReport, ad_stat, aic, cm_stat, compare_models, ks_test
from .properties import (
    HazardShape,
    PdfShape,
    SeriesResult,
    SeriesTruncation,
    hazard_shape,
    lr_monotone_check,
    median,
    mit,
    mit_series,
    mrl,
    mrl_series,
    order_stat_pdf,
    pdf_shape,
    raw_moment,
    raw_moment_series,
)
from .sampling import SeededStream, sample_compound, sample_inverse
from .simulation import (
    DEFAULT_PARAMETER_SETS,
    SimulationSummary,
    StudyConfig,
    run_cell,
    run_study,
)
from .datasets import Dataset, builtin, load_csv, load_json

__all__ = [
    "__version__",
    "Clfrd",
    "LinearFailureRate",
    "Rayleigh",
    "Exponential",
    "GeneralizedExponential",
    "LifetimeModel",
    "MODEL_REGISTRY",
    "FitResult",
    "NonConvergenceError",
    "clfrd_loglik",
    "clfrd_score",
    "clfrd_observed_information",
    "fit_clfrd",
    "fit_model",
    "fit_baselines",
    "wald_ci",
    "GofReport",
    "ks_test",
    "ad_stat",
    "cm_stat",
    "aic",
    "compare_models",
    "PdfShape",
    "HazardShape",
    "pdf_shape",
    "hazard_shape",
    "mrl",
    "mit",
    "raw_moment",
    "median",
    "order_stat_pdf",
    "lr_monotone_check",
    "SeriesTruncation",
    "SeriesResult",
    "mrl_series",
    "mit_series",
    "raw_moment_series",
    "SeededStream",
    "sample_inverse",
    "sample_compound",
    "DEFAULT_PARAMETER_SETS",
    "StudyConfig",
    "SimulationSummary",
    "run_cell",
    "run_study",
    "Dataset",
    "builtin",
    "load_csv",
    "load_json",
]
