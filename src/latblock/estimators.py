"""Smooth-function statistics and the subsample variance estimators.

The statistic is a smooth function H of the vector sample mean.  Every
subsample evaluates H at its own mean; the variance estimator is the
subsample-size-weighted sample variance of those evaluations, with the
population divisor (the number of subsamples).
"""

from __future__ import annotations

import math
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
    """Subsamples of one site pattern as anchors plus that base pattern.

    Subsample m holds the sites ``anchor_m + base_t``.  The anchors lie on
    the grid ``lo + step * j`` (``0 <= j < shape``, ``lo`` relative to the
    low corner of ``box``, the window's bounding box); ``index`` holds their
    flat grid positions, in design order, or is None when they fill the grid.
    """

    base: np.ndarray  # (sN, d) int64
    lo: tuple
    step: int
    shape: tuple
    index: np.ndarray | None
    box: tuple

    @cached_property
    def slices(self) -> tuple:
        """Per base site t, the slices of the box that hold ``anchor + base_t``
        for every grid anchor, in grid order."""
        return anchor_slices(np.add(self.lo, self.base), self.step, self.shape)

    @cached_property
    def runs(self) -> tuple:
        """(starts, span) of a step-1 grid: per base site t, the flat box
        position of ``lo + base_t``, and the number of box sites from there
        to ``last anchor + base_t``, inclusive.  Run t holds site t of every
        anchor, in grid order, and between two rows of anchors site t of the
        box positions that are no anchor."""
        starts = np.ravel_multi_index(tuple(np.add(self.lo, self.base).T), self.box)
        return starts.tolist(), int(self.positions[-1]) + 1

    @cached_property
    def positions(self) -> np.ndarray:
        """Per grid anchor, in C order, where ``grid_sums`` finds its sum
        among the summed terms: its flat box offset from the first anchor on
        a step-1 grid, its flat grid position on a step-s grid."""
        cells = np.indices(self.shape).reshape(len(self.shape), -1)
        where = np.ravel_multi_index(cells, self.box if self.step == 1 else self.shape)
        where.setflags(write=False)
        return where


@dataclass(frozen=True)
class SubsamplePlan:
    """One subsample design on one window, for repeated estimation.

    One anchor grid per site pattern of the index set: a shared-count
    design (OL, or NOL at an integer scale) is one grid; a ragged one (NOL
    at another scale) is several, and ``order`` puts the grids' subsamples
    back in design order.  Plans are shared through the design cache, so
    every array in one is read-only.
    """

    index_set: SubsampleIndexSet
    grids: tuple
    order: np.ndarray | None = None


# Designs kept by the process-wide cache; a phi study reuses a few dozen.
DESIGN_CACHE_SIZE = 128

# Per thread: whether the last cache lookup built its design (a miss).
_lookup = threading.local()


def design_plan(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The design of ``spec`` on ``region``, as anchor grids on ``window``.

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
    design = plan.index_set  # its patterns are the grids' bases
    grids = [arr for grid in plan.grids for arr in (grid.base, grid.index)]
    for arr in [design.offsets, design.counts, design.anchors, design.pattern, *grids, plan.order]:
        if arr is not None:
            arr.setflags(write=False)
    return plan


def _anchor_grid(indexer, anchors: np.ndarray, base: np.ndarray):
    """``anchors`` plus ``base`` as a grid on a window, stepped by the gcd of
    the anchors' distances (1 for one anchor); None if it misses a site."""
    if len(base) == 0:
        return None
    lo = anchors.min(axis=0)
    step = int(np.gcd.reduce((anchors - lo).ravel())) or 1
    shape = tuple(((anchors.max(axis=0) - lo) // step + 1).tolist())
    index = np.ravel_multi_index(tuple(((anchors - lo) // step).T), shape)
    cells, table = lo - indexer.lo + base, indexer.table
    # bound the sites' box first: a negative slice start would wrap round
    reach = cells.max(axis=0) + step * (np.array(shape) - 1)
    if cells.min() < 0 or np.any(reach >= table.shape):
        return None
    if not erode(table >= 0, cells, step, shape).ravel()[index].all():
        return None
    full = np.array_equal(index, np.arange(np.prod(shape)))
    lo = tuple((lo - indexer.lo).tolist())
    return AnchorGrid(base, lo, step, shape, None if full else index, table.shape)


def _build_design(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The design of ``spec`` on ``window``, a grid per site pattern, or a loud failure."""
    indexer = window.indexer()
    design = enumerate_ol(region, spec) if spec.scheme == OL else enumerate_nol(region, spec)
    groups = [np.flatnonzero(design.pattern == k) for k in range(len(design.patterns))]
    grids = [_anchor_grid(indexer, design.anchors[g], b) for g, b in zip(groups, design.patterns)]
    if None not in grids:
        order = np.argsort(np.concatenate(groups)) if len(grids) > 1 else None
        return SubsamplePlan(design, tuple(grids), order)
    # a copy without sites or with a site off the window: the first one decides
    bad = design.counts == 0
    for group, base in zip(groups, design.patterns) if bad.any() else ():
        bad[group] |= np.any(indexer.lookup(design.anchors[group][:, None] + base) < 0, axis=1)
    m = int(np.argmax(bad))
    if design.counts[m] == 0:
        offset = tuple(design.offsets[m].tolist())
        raise EmptyWindow(f"NOL template copy at offset {offset} has no site")
    what = "overlapping" if spec.scheme == OL else "disjoint"
    raise MissingSites(f"sample does not cover every {what} subsample site")


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
    dev *= dev
    dev *= plan.index_set.counts
    return theta_tilde, dev.sum(-1) / n_sub


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
    indexer's site -> row table (-1 off the window).  Returns the
    C-contiguous (p, *table.shape, R) image, replicates innermost, that
    holds 0.0 at sites off the window.
    """
    n_fields, n_sites, p = values.shape
    padded = np.zeros((p, n_sites + 1, n_fields))
    padded[:, :n_sites] = values.transpose(2, 1, 0)
    return np.take(padded, table, axis=1)  # a new array, in C order


# numpy's pairwise summation: 8 lane accumulators up to this many terms,
# and a split into two halves above it
_PAIRWISE_BLOCK = 128

# Floats of lanes a thread keeps for its next sums; a larger request gets
# lanes of its own, so that one estimate on a large window does not hold
# its memory for the thread's life.
_WORKSPACE_FLOATS = 1 << 21

_workspace = threading.local()


def _lanes(count: int, shape: tuple) -> np.ndarray:
    """``count`` scratch arrays of ``shape``, from this thread's workspace.

    The thread's next sums overwrite them: a caller copies out what it
    returns, so that no view of them leaves this module.
    """
    size = count * math.prod(shape)
    if size > _WORKSPACE_FLOATS:
        return np.empty((count, *shape))
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size)
    return buf[:size].reshape(count, *shape)


def _running_sum(terms: list, out: np.ndarray | None = None) -> np.ndarray:
    """``0.0 + terms[0] + terms[1] + ...``, left to right, into ``out`` (by
    default a workspace lane): numpy's sum of a row shorter than 8, and of
    any axis that is not innermost in memory."""
    if out is None:
        out = _lanes(1, terms[0].shape)[0]
    np.add(terms[0], 0.0, out=out)
    for term in terms[1:]:
        out += term
    return out


def _half(n: int) -> int:
    """Terms in the first half of numpy's split of ``n`` pairwise terms."""
    return n // 2 - n // 2 % 8


def _pairwise_sum(terms: list) -> np.ndarray:
    """Elementwise sum of ``terms`` in numpy's pairwise order for one row,
    in a workspace lane.

    Element i of the result equals ``np.array([t[i] for t in terms]).sum()``
    bit for bit, because it sees the same additions in the same order.  Lane
    0 takes the sum and lanes 1-7 a block's other accumulators; a split at
    depth k sums its second half into lane 8 + k.
    """
    n, levels = len(terms), 0
    while n > _PAIRWISE_BLOCK:
        n -= _half(n)  # the second half is the larger one
        levels += 1
    lanes = _lanes(8 + levels, terms[0].shape)
    return _pairwise_into(terms, lanes[0], lanes, 8)


def _pairwise_into(terms: list, out: np.ndarray, lanes: np.ndarray, level: int) -> np.ndarray:
    """``_pairwise_sum`` into ``out``, with lanes 1-7 and lanes from
    ``level`` on as scratch."""
    n = len(terms)
    if n < 8:
        return _running_sum(terms, out)
    if n > _PAIRWISE_BLOCK:
        half = _half(n)
        _pairwise_into(terms[:half], out, lanes, level + 1)
        out += _pairwise_into(terms[half:], lanes[level], lanes, level + 1)
        return out
    # lane j sums the terms t = j (mod 8) of the first n - n % 8
    body = n - n % 8
    acc = terms[:8]
    if body > 8:
        acc = [out, *lanes[1:8]]
        for lane, first, second in zip(acc, terms[:8], terms[8:16]):
            np.add(first, second, out=lane)
        for i in range(16, body, 8):
            for lane, term in zip(acc, terms[i:i + 8]):
                lane += term
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), each lane read before it is reused
    r0, r1, r2, r3, r4, r5, r6, r7 = acc
    s1, s2 = lanes[1], lanes[2]
    np.add(r0, r1, out=out)
    np.add(r2, r3, out=s1)
    out += s1
    np.add(r4, r5, out=s1)
    np.add(r6, r7, out=s2)
    s1 += s2
    out += s1
    for term in terms[body:]:
        out += term
    return out


def grid_sums(
    grid: AnchorGrid, image: np.ndarray, pairwise: bool = True, cells: np.ndarray | None = None
) -> np.ndarray:
    """Subsample sums (p, cells, R) of R fields at anchors of ``grid``.

    ``image`` is the (p, *box, R) ``field_image`` of the grid's window.
    ``cells`` holds the flat grid positions (C order) of the anchors to
    return, every anchor when None; an anchor not in the design sees 0.0 at
    sites off the window.  Each base site's values at every anchor make one
    term: on a step-1 grid a contiguous run of the flattened image (``runs``,
    whose positions past a row's last anchor are summed and dropped), on a
    step-s grid a strided slice.  The terms are summed with whole-array adds
    into workspace lanes, in numpy's order for a contiguous row of the
    subsample's values or left to right (``pairwise=False``), and the
    anchors' sums are taken out of them into a new array.
    """
    p, n_fields = image.shape[0], image.shape[-1]
    if image.shape[1:-1] != grid.box:
        raise DimensionMismatch(f"image box {image.shape[1:-1]} is not the design's {grid.box}")
    if grid.step == 1:
        starts, span = grid.runs
        flat = image.reshape(p, -1)
        terms = [flat[:, n_fields * a : n_fields * (a + span)] for a in starts]
    else:
        terms = [image[(slice(None), *cut)] for cut in grid.slices]
    total = _pairwise_sum(terms) if pairwise else _running_sum(terms)
    where = grid.positions if cells is None else grid.positions[cells]
    return np.take(total.reshape(p, -1, n_fields), where, axis=1)


def estimate_image(plan: SubsamplePlan, image: np.ndarray, stat: SmoothStatistic) -> tuple:
    """theta (R, M), theta_tilde (R,) and tau_hat_sq (R,) of R fields on a
    design, from their ``field_image`` of ``stat.p`` columns.

    The bits are those of the mean over the sites of each field's gathered
    (sN, p) subsample values: numpy sums them pairwise when the sites are
    innermost (p = 1) and left to right otherwise, and ``grid_sums`` replays
    either.  The grids' sums are put back in design order and divided by
    their site counts.  The (R, M) statistics are reduced as C-contiguous
    rows, as a gathered field's (M,) row is.
    """
    _check_core(plan, image.shape[0], stat)
    sums = [grid_sums(grid, image, stat.p == 1, grid.index) for grid in plan.grids]
    means = sums[0] if plan.order is None else np.take(np.concatenate(sums, 1), plan.order, 1)
    means /= plan.index_set.counts[:, None]  # (p, M, R)
    theta = np.ascontiguousarray(stat(means.T))  # statistics of (R, M, p) means
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
    _check_core(local, image.shape[0], stat)
    n_fields, n_blocks = image.shape[-1], blocks.index_set.n_subsamples
    (local_grid,), (full_grid,) = local.grids, full.grids
    first = full.index_set.anchors.min(axis=0)  # of the full design's step-1 grid
    rel = local.index_set.anchors[:, None] + blocks.index_set.anchors - first
    index = np.ravel_multi_index(tuple(np.moveaxis(rel, -1, 0)), full_grid.shape)  # (M, B)
    pairwise = stat.p == 1 and n_blocks == 1
    means = grid_sums(full_grid, image, pairwise, cells=index.ravel())  # (p, M * B, R)
    means /= local_grid.base.shape[0]
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
    ``field_image``."""
    image = field_image(sample.window.indexer().table, sample.values[None])
    theta, theta_tilde, tau_hat = (a[0] for a in estimate_image(plan, image, stat))
    return EstimatorResult(
        tau_hat_sq=float(tau_hat),
        scheme=plan.index_set.scheme,
        n_subsamples=plan.index_set.n_subsamples,
        subsample_sites=plan.index_set.counts.copy(),
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
