"""Compounded linear failure rate distribution toolkit.

Evaluation, sampling, reliability measures, maximum-likelihood fitting
with uncertainty, goodness-of-fit model comparison, and a Monte Carlo
parameter-recovery study for the compounded linear failure rate lifetime
model and its classical baselines.

Each public name is imported from its module on first use (PEP 562), so
``from clfrd import Clfrd`` loads numpy but not scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "distributions": ("Clfrd", "LinearFailureRate", "Rayleigh", "Exponential",
                      "GeneralizedExponential", "LifetimeModel", "MODEL_REGISTRY",
                      "DEFAULT_PARAMETER_SETS"),
    "estimation": ("FitResult", "NonConvergenceError", "clfrd_loglik", "clfrd_score",
                   "clfrd_observed_information", "fit_clfrd", "fit_model"),
    "gof": ("GofReport", "ks_test", "ad_stat", "cm_stat", "aic", "compare_models"),
    "properties": ("PdfShape", "HazardShape", "pdf_shape", "hazard_shape", "mrl", "mit",
                   "raw_moment", "median", "order_stat_pdf", "lr_monotone_check",
                   "SeriesResult", "mrl_series", "mit_series"),
    "sampling": ("SeededStream", "sample_inverse", "sample_compound"),
    "simulation": ("StudyConfig", "SimulationSummary", "run_cell", "run_study"),
    "datasets": ("Dataset", "builtin", "load_csv", "load_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # an AttributeError here lets ``from clfrd import estimation`` import the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
