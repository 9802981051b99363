"""Smooth-function statistics and the subsample variance estimators.

The statistic is a smooth function H of the vector sample mean.  Every
subsample evaluates H at its own mean; the variance estimator is the
subsample-size-weighted sample variance of those evaluations, with the
population divisor (the number of subsamples).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSubsampling,
    DimensionMismatch,
    MissingSites,
    StatisticDomainError,
)
from .geometry import (
    NOL,
    OL,
    LatticeWindow,
    Region,
    SubsampleIndexSet,
    SubsampleSpec,
    enumerate_nol,
    enumerate_ol,
    lattice_sites,
    nol_subregion_windows,
    warn_non_integer_scale,
)


@dataclass(frozen=True)
class SmoothStatistic:
    """A statistic H(mean vector) with its gradient and arity.

    ``fn`` and ``grad`` accept arrays of shape (..., p) and operate on the
    trailing axis, so subsample evaluations vectorize.
    """

    name: str
    p: int
    fn: callable
    grad: callable
    is_linear: bool = False

    def __call__(self, means: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(means, float))


def mean_statistic() -> SmoothStatistic:
    return SmoothStatistic(
        name="mean",
        p=1,
        fn=lambda x: x[..., 0],
        grad=lambda x: np.ones_like(x),
        is_linear=True,
    )


def _ratio_fn(x):
    denom = x[..., 1]
    if np.any(denom == 0.0):
        raise StatisticDomainError("ratio-of-means undefined: zero denominator")
    return x[..., 0] / denom


def _ratio_grad(x):
    denom = x[..., 1]
    if np.any(denom == 0.0):
        raise StatisticDomainError("ratio-of-means gradient undefined at zero denominator")
    return np.stack([1.0 / denom, -x[..., 0] / denom**2], axis=-1)


def ratio_of_means() -> SmoothStatistic:
    return SmoothStatistic(name="ratio", p=2, fn=_ratio_fn, grad=_ratio_grad)


def moment_variance() -> SmoothStatistic:
    """Second moment minus squared first moment of the per-site pair (x, x^2)."""
    return SmoothStatistic(
        name="momvar",
        p=2,
        fn=lambda x: x[..., 1] - x[..., 0] ** 2,
        grad=lambda x: np.stack([-2.0 * x[..., 0], np.ones_like(x[..., 1])], axis=-1),
    )


_STATISTICS = {
    "mean": mean_statistic,
    "ratio": ratio_of_means,
    "momvar": moment_variance,
}


def parse_statistic(name: str) -> SmoothStatistic:
    try:
        return _STATISTICS[name.lower()]()
    except KeyError:
        raise ConfigError(f"unknown statistic {name!r}") from None


@dataclass(frozen=True)
class FieldSample:
    """Observed field values, one p-vector per window site."""

    window: LatticeWindow
    values: np.ndarray  # (N, p)

    def __post_init__(self):
        vals = np.asarray(self.values, float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != self.window.n_sites:
            raise DimensionMismatch("one value vector per site is required")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EstimatorResult:
    """Output of a subsample variance estimation."""

    tau_hat_sq: float
    scheme: str
    n_subsamples: int
    subsample_sites: np.ndarray  # per-subsample site counts
    theta_tilde: float
    theta_hats: np.ndarray | None = None


def evaluate_statistic(stat: SmoothStatistic, sample: FieldSample, site_rows) -> float:
    """H at the mean vector of the selected sample rows."""
    rows = np.asarray(site_rows, np.int64)
    if rows.size == 0:
        raise DegenerateSubsampling("cannot evaluate a statistic on an empty subset")
    if sample.p != stat.p:
        raise DimensionMismatch(
            f"statistic arity {stat.p} does not match sample arity {sample.p}"
        )
    mean = sample.values[rows].mean(axis=0)
    val = float(stat(mean))
    if not np.isfinite(val):
        raise StatisticDomainError(f"{stat.name} is not finite at the observed mean")
    return val


@dataclass(frozen=True)
class SubsamplePlan:
    """Precomputed row-index matrix for repeated estimation on one design.

    ``row_matrix`` is (M, sN) for shared-count schemes; ragged designs carry a
    tuple of row arrays instead.  Plans are shared through the design cache,
    so every array in one is read-only.
    """

    scheme: str
    index_set: SubsampleIndexSet
    row_matrix: np.ndarray | None
    row_lists: tuple | None
    counts: np.ndarray


# Designs kept by the process-wide cache; a phi study reuses a few dozen.
DESIGN_CACHE_SIZE = 128

# Per thread: whether the last cache lookup built its design (a miss).
_lookup = threading.local()


class _WindowKey:
    """Hashable stand-in for a window: equal when the site arrays are equal.

    Row indices depend on the window only through its ordered sites, so
    windows read from files match the ones ``lattice_sites`` builds.
    """

    __slots__ = ("window", "_key", "_hash")

    def __init__(self, window: LatticeWindow):
        sites = window.sites
        self.window = window
        self._key = (sites.dtype.str, sites.shape, sites.tobytes())
        self._hash = hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _WindowKey) and self._key == other._key


def design_plan(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The subsample design of ``spec`` on ``region``, as rows of ``window``.

    A design does not depend on field values, so it is built once and kept
    in a bounded LRU cache keyed by the window's sites, the region and the
    spec; callers share the returned plan, whose arrays are read-only.  Like
    a fresh build, a cache hit warns about a non-integer NOL scale.
    """
    _lookup.built = False
    plan = _cached_design(_WindowKey(window), region, spec)
    if not _lookup.built and spec.scheme == NOL and not spec.is_integer_scale():
        warn_non_integer_scale()
    return plan


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _cached_design(key: _WindowKey, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    _lookup.built = True
    plan = _build_design(key.window, region, spec)
    rows = [plan.row_matrix] if plan.row_matrix is not None else list(plan.row_lists)
    for arr in [plan.index_set.offsets, plan.counts, *rows]:
        arr.setflags(write=False)
    return plan


def _build_design(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """Resolve every subsample's sites to rows of the window, or fail loudly."""
    indexer = window.indexer()
    if spec.scheme == OL:
        index_set = enumerate_ol(region, spec)
        base = lattice_sites(
            Region(spec.template, (spec.s_lambda,) * region.d, region.shift)
        ).sites
        all_sites = index_set.offsets[:, None, :] + base[None, :, :]
        rows = indexer.lookup(all_sites)
        if np.any(rows < 0):
            raise MissingSites("sample does not cover every overlapping subsample site")
        return SubsamplePlan(OL, index_set, rows, None, index_set.counts)
    index_set = enumerate_nol(region, spec)
    windows = nol_subregion_windows(region, spec, index_set.offsets)
    if spec.is_integer_scale():
        stacked = np.stack([w.sites for w in windows])
        rows = indexer.lookup(stacked)
        if np.any(rows < 0):
            raise MissingSites("sample does not cover every disjoint subsample site")
        return SubsamplePlan(NOL, index_set, rows, None, index_set.counts)
    row_lists = []
    for w in windows:
        rows = indexer.lookup(w.sites)
        if np.any(rows < 0):
            raise MissingSites("sample does not cover every disjoint subsample site")
        row_lists.append(rows)
    return SubsamplePlan(NOL, index_set, None, tuple(row_lists), index_set.counts)


def build_plan(sample: FieldSample, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """Resolve every subsample's sites to rows of the sample, or fail loudly.

    The plan comes from the design cache (see ``design_plan``).
    """
    return design_plan(sample.window, region, spec)


def estimate_values(plan: SubsamplePlan, values: np.ndarray, stat: SmoothStatistic):
    """The estimator core: field values of shape (..., N, p) on one design.

    Leading axes are independent fields (replicates, or hj's pilot blocks).
    Returns the per-subsample statistics theta (..., M), their mean
    theta_tilde (...) and the estimates tau_hat_sq (...).
    """
    if values.shape[-1] != stat.p:
        raise DimensionMismatch(
            f"statistic arity {stat.p} does not match sample arity {values.shape[-1]}"
        )
    if plan.index_set.n_subsamples < 2:
        raise DegenerateSubsampling(
            f"{plan.index_set.n_subsamples} subsample(s); need at least 2"
        )
    if plan.row_matrix is not None:
        theta = stat(values[..., plan.row_matrix, :].mean(axis=-2))
    else:
        theta = np.stack(
            [stat(values[..., rows, :].mean(axis=-2)) for rows in plan.row_lists], axis=-1
        )
    if not np.all(np.isfinite(theta)):
        raise StatisticDomainError(f"{stat.name} not finite on some subsample")
    theta_tilde = theta.mean(axis=-1, keepdims=True)
    tau_hat = (plan.counts * (theta - theta_tilde) ** 2).mean(axis=-1)
    return theta, theta_tilde[..., 0], tau_hat


def estimate_from_plan(
    plan: SubsamplePlan,
    sample: FieldSample,
    stat: SmoothStatistic,
    keep_theta: bool = False,
) -> EstimatorResult:
    theta, theta_tilde, tau_hat = estimate_values(plan, sample.values, stat)
    return EstimatorResult(
        tau_hat_sq=float(tau_hat),
        scheme=plan.scheme,
        n_subsamples=plan.index_set.n_subsamples,
        subsample_sites=plan.counts.copy(),
        theta_tilde=float(theta_tilde),
        theta_hats=theta.copy() if keep_theta else None,
    )


def ol_estimate(
    sample: FieldSample,
    region: Region,
    spec: SubsampleSpec,
    stat: SmoothStatistic,
    keep_theta: bool = False,
) -> EstimatorResult:
    """Overlapping subsample variance estimator of the scaled statistic variance."""
    if spec.scheme != OL:
        raise ConfigError("ol_estimate needs an OL spec")
    return estimate(sample, region, spec, stat, keep_theta)


def nol_estimate(
    sample: FieldSample,
    region: Region,
    spec: SubsampleSpec,
    stat: SmoothStatistic,
    keep_theta: bool = False,
) -> EstimatorResult:
    """Nonoverlapping subsample variance estimator (per-subregion site weights)."""
    if spec.scheme != NOL:
        raise ConfigError("nol_estimate needs a NOL spec")
    return estimate(sample, region, spec, stat, keep_theta)


def estimate(sample, region, spec, stat, keep_theta=False) -> EstimatorResult:
    """Subsample variance estimate of ``spec``'s scheme on ``sample``."""
    return estimate_from_plan(build_plan(sample, region, spec), sample, stat, keep_theta)
