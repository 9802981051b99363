"""Variance estimation for lattice random fields via spatial subsampling.

Overlapping and nonoverlapping subsample variance estimators on geometric
sampling regions, the shape constants and bias weights governing their
accuracy, optimal subsample scaling (theoretical and data-driven), exact
Gaussian field simulation, and a reproducible Monte Carlo study harness.

Names are imported from their submodule on first use, so ``import latblock``
loads neither a submodule nor scipy, which only the field simulator needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": (
        "BiasWeights",
        "ShapeConstants",
        "are",
        "b0",
        "bias_weights",
        "k0",
        "k0_numeric",
        "k1",
        "v_weight",
        "v_weight_numeric",
    ),
    "covariance": (
        "Covariogram",
        "exact_tau_n_sq",
        "parse_covariogram",
        "sigma",
        "tau_sq",
    ),
    "csvfile": ("emit_csv",),
    "errors": ("LatblockError",),
    "estimators": (
        "EstimatorResult",
        "FieldSample",
        "SmoothStatistic",
        "evaluate_statistic",
        "mean_statistic",
        "moment_variance",
        "nol_estimate",
        "ol_estimate",
        "parse_statistic",
        "ratio_of_means",
    ),
    "fieldsim": (
        "FieldGenerator",
        "RngStream",
        "build_generator",
        "sample_field",
        "substream",
    ),
    "geometry": (
        "LatticeWindow",
        "NOL",
        "OL",
        "Region",
        "SubsampleIndexSet",
        "SubsampleSpec",
        "Template",
        "contains",
        "enumerate_nol",
        "enumerate_ol",
        "lattice_sites",
        "overlap_count",
        "parse_template",
        "set_covariance",
        "set_covariance_exact",
    ),
    "harness": (
        "StudyConfig",
        "config_from_dict",
        "load_config",
        "mse_study",
        "optimal_scaling_study",
        "phi_study",
        "run_study",
    ),
    "scaling": (
        "ScalingPlan",
        "hj_scaling",
        "npi_bias_estimate",
        "npi_scaling",
        "theoretical_scaling",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
