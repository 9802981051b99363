"""Smooth-function statistics and the subsample variance estimators.

The statistic is a smooth function H of the vector sample mean.  Every
subsample evaluates H at its own mean; the variance estimator is the
subsample-size-weighted sample variance of those evaluations, with the
population divisor (the number of subsamples).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSubsampling,
    DimensionMismatch,
    EmptyWindow,
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
    anchor_slices,
    enumerate_nol,
    enumerate_ol,
    erode,
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
class AnchorGrid:
    """A shared-count design as anchors plus one base pattern.

    Subsample m holds the sites ``anchor_m + base_t``.  The anchors lie on
    the grid ``lo + step * j`` (``0 <= j < shape``, ``lo`` relative to the
    window's low corner); ``index`` holds their flat grid positions, in
    design order, or is None when they fill the grid.
    """

    base: np.ndarray  # (sN, d) int64
    lo: tuple
    step: int
    shape: tuple
    index: np.ndarray | None

    @cached_property
    def slices(self) -> tuple:
        """Per base site t, the slices of the window's bounding box that
        hold ``anchor + base_t`` for every grid anchor, in grid order."""
        return anchor_slices(np.add(self.lo, self.base), self.step, self.shape)


@dataclass(frozen=True)
class SubsamplePlan:
    """One subsample design on one window, for repeated estimation.

    A shared-count design (OL at any scale, NOL at an integer scale) is its
    ``grid``: anchors plus one base pattern.  A ragged design carries a tuple
    of per-subsample row arrays of the window instead.  Plans are shared
    through the design cache, so every array in one is read-only.
    """

    scheme: str
    index_set: SubsampleIndexSet
    row_lists: tuple | None
    counts: np.ndarray
    grid: AnchorGrid | None = None


# Designs kept by the process-wide cache; a phi study reuses a few dozen.
DESIGN_CACHE_SIZE = 128

# Per thread: whether the last cache lookup built its design (a miss).
_lookup = threading.local()


def design_plan(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The subsample design of ``spec`` on ``region``, as rows of ``window``.

    A design does not depend on field values, so it is built once and kept
    in a bounded LRU cache keyed by the window (equal when its sites are
    equal), the region and the spec; callers share the returned plan, whose
    arrays are read-only.  Like a fresh build, a cache hit warns about a
    non-integer NOL scale.
    """
    _lookup.built = False
    plan = _cached_design(window, region, spec)
    if not _lookup.built and spec.scheme == NOL and not spec.is_integer_scale():
        warn_non_integer_scale()
    return plan


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _cached_design(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    _lookup.built = True
    plan = _build_design(window, region, spec)
    grid = [plan.grid.base, plan.grid.index] if plan.grid is not None else []
    for arr in [plan.index_set.offsets, plan.counts, *(plan.row_lists or ()), *grid]:
        if arr is not None:
            arr.setflags(write=False)
    return plan


def _anchor_grid(window: LatticeWindow, anchors: np.ndarray, base: np.ndarray, step: int):
    """``anchors`` plus ``base`` as a grid on ``window``; None if it misses a site."""
    lo = anchors.min(axis=0)
    shape = tuple(((anchors.max(axis=0) - lo) // step + 1).tolist())
    index = np.ravel_multi_index(tuple(((anchors - lo) // step).T), shape)
    cells, table = lo - window.lo + base, window.indexer().table
    # bound the sites' box first: a negative slice start would wrap round
    reach = cells.max(axis=0) + step * (np.array(shape) - 1)
    if cells.min() < 0 or np.any(reach >= table.shape):
        return None
    if not erode(table >= 0, cells, step, shape).ravel()[index].all():
        return None
    full = np.array_equal(index, np.arange(np.prod(shape)))
    return AnchorGrid(base, tuple((lo - window.lo).tolist()), step, shape, None if full else index)


def _build_design(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The design of ``spec`` on ``window``, or a loud failure."""
    if spec.scheme == OL or spec.is_integer_scale():
        # shared count: the scale-s template's sites moved to step-1 or step-s anchors
        ol = spec.scheme == OL
        index_set = enumerate_ol(region, spec) if ol else enumerate_nol(region, spec)
        step = 1 if ol else int(round(spec.s_lambda))
        base = lattice_sites(
            Region(spec.template, (spec.s_lambda,) * region.d, region.shift)
        ).sites
        grid = _anchor_grid(window, step * index_set.offsets, base, step)
        if grid is None:
            what = "overlapping" if ol else "disjoint"
            raise MissingSites(f"sample does not cover every {what} subsample site")
        return SubsamplePlan(spec.scheme, index_set, None, index_set.counts, grid)
    indexer = window.indexer()
    index_set = enumerate_nol(region, spec)
    windows = nol_subregion_windows(region, spec, index_set.offsets)
    row_lists = []
    for offset, w in zip(index_set.offsets, windows):
        if w.n_sites == 0:
            raise EmptyWindow(f"NOL template copy at offset {tuple(offset.tolist())} has no site")
        rows = indexer.lookup(w.sites)
        if np.any(rows < 0):
            raise MissingSites("sample does not cover every disjoint subsample site")
        row_lists.append(rows)
    return SubsamplePlan(NOL, index_set, tuple(row_lists), index_set.counts)


def estimate_values(plan: SubsamplePlan, values: np.ndarray, stat: SmoothStatistic):
    """theta (..., M), theta_tilde (...) and tau_hat_sq (...) of a ragged
    design on field values (..., N, p), gathered copy by copy."""
    _check_core(plan, values.shape[-1], stat)
    theta = np.stack(
        [stat(values[..., rows, :].mean(axis=-2)) for rows in plan.row_lists], axis=-1
    )
    return (theta, *_reduce_theta(plan, theta, stat))


def _reduce_theta(plan: SubsamplePlan, theta: np.ndarray, stat: SmoothStatistic):
    """theta_tilde (...) and tau_hat_sq (...) of the statistics theta (..., M).

    numpy sums a row in an order set by its memory layout, so the bits
    depend on theta's strides as well as its values.
    """
    if not np.all(np.isfinite(theta)):
        raise StatisticDomainError(f"{stat.name} not finite on some subsample")
    n_sub = theta.shape[-1]
    theta_tilde = theta.sum(-1) / n_sub
    dev = theta - theta_tilde[..., None]
    return theta_tilde, (plan.counts * (dev * dev)).sum(-1) / n_sub


def _check_core(plan: SubsamplePlan, p: int, stat: SmoothStatistic) -> None:
    """Refuse values of ``p`` columns for ``stat``, and designs of one subsample."""
    if p != stat.p:
        raise DimensionMismatch(f"statistic arity {stat.p} does not match sample arity {p}")
    if plan.index_set.n_subsamples < 2:
        raise DegenerateSubsampling(
            f"{plan.index_set.n_subsamples} subsample(s); need at least 2"
        )


def field_image(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fields ``values`` laid out on a window's bounding box.

    ``values`` is (R, N, p), p columns per site; ``table`` is the window
    indexer's site -> row table (-1 off the window).  Returns a C-contiguous
    image that holds 0.0 at sites off the window: (R, p, *table.shape),
    without the column axis when p is 1.
    """
    values = np.moveaxis(values, 2, 1)  # (R, p, N)
    if values.shape[1] == 1:
        values = values[:, 0]
    padded = np.concatenate([values, np.zeros((*values.shape[:-1], 1))], axis=-1)
    return np.take(padded, table, axis=-1)  # a new array, in C order


def _image_columns(image: np.ndarray, grid: AnchorGrid) -> int:
    """p of a ``field_image`` on ``grid``'s window: 1 when it has no column axis."""
    return image.shape[1] if image.ndim > len(grid.shape) + 1 else 1


# numpy's pairwise summation: 8 lane accumulators up to this many terms,
# and a split into two halves above it
_PAIRWISE_BLOCK = 128


def _running_sum(terms: list) -> np.ndarray:
    """``0.0 + terms[0] + terms[1] + ...``, left to right: numpy's sum of a
    row shorter than 8, and of any axis that is not innermost in memory."""
    out = terms[0] + 0.0
    for term in terms[1:]:
        out += term
    return out


def _pairwise_sum(terms: list) -> np.ndarray:
    """Elementwise sum of ``terms`` in numpy's pairwise order for one row.

    Element i of the result equals ``np.array([t[i] for t in terms]).sum()``
    bit for bit, because it sees the same additions in the same order.
    """
    n = len(terms)
    if n < 8:
        return _running_sum(terms)
    if n <= _PAIRWISE_BLOCK:
        # lane j sums the terms t = j (mod 8) of the first n - n % 8
        body = n - n % 8
        lanes = terms[:8]
        if body > 8:
            lanes = [lane + term for lane, term in zip(lanes, terms[8:16])]
            for i in range(16, body, 8):
                for lane, term in zip(lanes, terms[i:i + 8]):
                    lane += term
        r0, r1, r2, r3, r4, r5, r6, r7 = lanes
        out = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for term in terms[body:]:
            out += term
        return out
    half = n // 2
    half -= half % 8
    out = _pairwise_sum(terms[:half])
    out += _pairwise_sum(terms[half:])
    return out


def grid_sums(grid: AnchorGrid, image: np.ndarray, pairwise: bool = True) -> np.ndarray:
    """Subsample sums (R, [p,] cells) of R fields at every anchor of ``grid``'s box.

    ``image`` is the output of ``field_image`` for the grid's window, with
    or without a column axis; the anchors come in the box's C order, and
    those not in the design see 0.0 at sites off the window.  Each base
    site's values at every anchor form one strided slice of the image, so
    the sums are whole-array adds of slices: in numpy's order for a
    contiguous row of the subsample's values, or left to right
    (``pairwise=False``).
    """
    terms = [image[(..., *cut)] for cut in grid.slices]
    sums = _pairwise_sum(terms) if pairwise else _running_sum(terms)
    return sums.reshape(*image.shape[: image.ndim - len(grid.shape)], -1)


def estimate_image(plan: SubsamplePlan, image: np.ndarray, stat: SmoothStatistic) -> tuple:
    """theta (R, M), theta_tilde (R,) and tau_hat_sq (R,) of R fields on a
    shared-count design, from their ``field_image`` of ``stat.p`` columns.

    The bits are those of the mean over the sites of each field's gathered
    (M, sN, p) subsample values: numpy sums them pairwise when the sites are
    innermost (p = 1) and left to right otherwise, and ``grid_sums`` replays
    either.  The (R, M) statistics are reduced as C-contiguous rows, as a
    gathered field's (M,) row is.
    """
    grid = plan.grid
    if grid is None:
        raise ConfigError("estimate_image needs a shared-count design")
    _check_core(plan, _image_columns(image, grid), stat)
    sums = grid_sums(grid, image, pairwise=stat.p == 1)
    if grid.index is not None:
        sums = np.take(sums, grid.index, axis=-1)
    means = (sums / grid.base.shape[0]).reshape(image.shape[0], stat.p, -1)
    theta = np.ascontiguousarray(stat(np.moveaxis(means, 1, -1)))
    return (theta, *_reduce_theta(plan, theta, stat))


def estimate_blocks(
    image: np.ndarray,
    full: SubsamplePlan,
    blocks: SubsamplePlan,
    local: SubsamplePlan,
    stat: SmoothStatistic,
) -> np.ndarray:
    """tau_hat_sq (R, B), C-contiguous, of the design ``local`` on each of
    ``blocks``' B blocks.

    ``blocks`` is the window's OL design of a pilot region, ``local`` a
    shared-count design on the pilot region's window, ``full`` the window's
    OL design at ``local``'s scale and ``image`` the ``field_image`` of R
    fields.  Block b's subsample m holds the sites of ``full``'s subsample
    at anchor ``block_b + local_m``, so its sum is taken from ``full``'s
    ``grid_sums``.  Row r equals, bit for bit, the estimates of gathering
    replicate r's (B, nB, p) block values at ``local``'s subsample rows
    (``gather_estimate`` in ``tests/brute_force.py``).  That gather lays out
    its (B, M, sN, p) values with the block axis innermost in memory, after
    the sites, so it sums each subsample left to right and reduces theta
    over M with blocks innermost; here theta is laid out (M, B, R) and
    reduced by the same code.  One block of one column has no axis after
    the sites, and is summed pairwise; one block's theta is a contiguous
    row, and is reduced pairwise.  The statistic sees the (B * R, M, p)
    means of the R fields' blocks: at R = 1, the array the gather hands it.
    """
    _check_core(local, _image_columns(image, full.grid), stat)
    n_fields, n_blocks = image.shape[0], blocks.index_set.n_subsamples
    sums = grid_sums(full.grid, image, pairwise=stat.p == 1 and n_blocks == 1)
    local_anchors = local.grid.step * local.index_set.offsets
    block_anchors = blocks.index_set.offsets  # OL: step 1
    rel = local_anchors[:, None] + block_anchors - full.index_set.offsets.min(axis=0)
    index = np.ravel_multi_index(tuple(np.moveaxis(rel, -1, 0)), full.grid.shape)  # (M, B)
    # sums (p, cells, R) taken at (M, B): means laid out (p, M, B, R)
    sums = np.moveaxis(sums.reshape(n_fields, stat.p, -1), 0, -1)
    means = np.take(sums, index, axis=1) / local.grid.base.shape[0]
    theta = stat(means.reshape(stat.p, len(index), -1).T)  # (B * R, M), laid out (M, B, R)
    theta = np.moveaxis(theta.reshape(n_blocks, n_fields, -1), 1, 0)  # (R, B, M)
    if n_blocks == 1:  # a field's one block: its M statistics are a row, reduced pairwise
        theta = np.ascontiguousarray(theta)
    return np.ascontiguousarray(_reduce_theta(local, theta, stat)[1])


def estimate_from_plan(
    plan: SubsamplePlan,
    sample: FieldSample,
    stat: SmoothStatistic,
    keep_theta: bool = False,
) -> EstimatorResult:
    """``plan`` on ``sample``, a field on the plan's window, through its
    ``field_image`` when the design is shared-count."""
    if plan.grid is None:
        theta, theta_tilde, tau_hat = estimate_values(plan, sample.values, stat)
    else:
        image = field_image(sample.window.indexer().table, sample.values[None])
        theta, theta_tilde, tau_hat = (a[0] for a in estimate_image(plan, image, stat))
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
    return estimate_from_plan(design_plan(sample.window, region, spec), sample, stat, keep_theta)
