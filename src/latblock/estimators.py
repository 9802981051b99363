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
    DESIGN_CACHE_SIZE,
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
    warn_non_integer_scale,
)


@dataclass(frozen=True)
class SmoothStatistic:
    """A statistic H(mean vector) with its gradient and arity.

    ``fn`` and ``grad`` accept arrays of shape (..., p) and operate on the
    trailing axis, so subsample evaluations vectorize.  ``lift`` maps scalar
    fields (..., N) to their (..., N, p) per-site columns; it is None when
    the columns are not a per-site transform of one scalar field, and a
    study cannot simulate the statistic.
    """

    name: str
    p: int
    fn: callable
    grad: callable
    is_linear: bool = False
    lift: callable | None = None

    def __call__(self, means: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(means, float))


def mean_statistic() -> SmoothStatistic:
    return SmoothStatistic(
        name="mean",
        p=1,
        fn=lambda x: x[..., 0],
        grad=lambda x: np.ones_like(x),
        is_linear=True,
        lift=lambda x: x[..., None],
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
        lift=lambda x: np.stack([x, x * x], axis=-1),
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
    theta_hats: np.ndarray  # (M,) per-subsample statistics


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
    Like ``runs`` and ``positions``, the add programs that ``grid_sums``
    runs are built on first use and kept: on a step-1 grid they compute a
    partial sum that recurs at a shifted flat offset once.
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

    @cached_property
    def pairwise_program(self) -> AddProgram:
        """The ``AddProgram`` of ``grid_sums`` in numpy's pairwise order.  On
        a step-1 grid a partial sum that recurs at a shifted offset is
        computed once; a step-s grid's terms are slices that share none."""
        return self._program(pairwise=True)

    @cached_property
    def running_program(self) -> AddProgram:
        """The ``AddProgram`` of ``grid_sums`` left to right."""
        return self._program(pairwise=False)

    def _program(self, pairwise: bool) -> AddProgram:
        if self.step == 1:
            return _compile(*self.runs, pairwise, shared=True)
        return _compile(list(range(len(self.base))), 1, pairwise, shared=False)


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


def _anchor_step(anchors: np.ndarray, lo: np.ndarray) -> int:
    """The gcd of the anchors' distances from their low corner ``lo``, 1 for
    one anchor.  Two anchors a unit vector apart make it 1: the first two
    are checked before the full gcd, which an OL design seldom needs."""
    if len(anchors) > 1 and np.abs(anchors[1] - anchors[0]).sum() == 1:
        return 1
    return int(np.gcd.reduce((anchors - lo).ravel())) or 1


def _anchor_grid(window: LatticeWindow, anchors: np.ndarray, base: np.ndarray, covered: bool):
    """``anchors`` plus ``base`` as a grid on a window, stepped by the gcd of
    the anchors' distances (1 for one anchor); None if it misses a site.
    With ``covered`` the caller knows every such site is in the window, and
    only the bounds are checked."""
    if len(base) == 0:
        return None
    lo = anchors.min(axis=0)
    step = _anchor_step(anchors, lo)
    shape = tuple(((anchors.max(axis=0) - lo) // step + 1).tolist())
    index = np.ravel_multi_index(tuple(((anchors - lo) // step).T), shape)
    cells, table = lo - window.lo + base, window.table
    # bound the sites' box first: a negative slice start would wrap round
    reach = cells.max(axis=0) + step * (np.array(shape) - 1)
    if cells.min() < 0 or np.any(reach >= table.shape):
        return None
    if not covered and not erode(table >= 0, cells, step, shape).ravel()[index].all():
        return None
    full = np.array_equal(index, np.arange(np.prod(shape)))
    lo = tuple((lo - window.lo).tolist())
    return AnchorGrid(base, lo, step, shape, None if full else index, table.shape)


def _build_design(window: LatticeWindow, region: Region, spec: SubsampleSpec) -> SubsamplePlan:
    """The design of ``spec`` on ``window``, a grid per site pattern, or a loud failure.

    ``enumerate_ol`` admits its anchors by the erosion of the region's own
    window, so on that window an OL grid needs no second erosion.
    """
    design = enumerate_ol(region, spec) if spec.scheme == OL else enumerate_nol(region, spec)
    covered = spec.scheme == OL and window == lattice_sites(region)
    groups = [np.flatnonzero(design.pattern == k) for k in range(len(design.patterns))]
    grids = [
        _anchor_grid(window, design.anchors[g], b, covered)
        for g, b in zip(groups, design.patterns)
    ]
    if None not in grids:
        order = np.argsort(np.concatenate(groups)) if len(grids) > 1 else None
        return SubsamplePlan(design, tuple(grids), order)
    # a copy without sites or with a site off the window: the first one decides
    bad = design.counts == 0
    for group, base in zip(groups, design.patterns) if bad.any() else ():
        bad[group] |= np.any(window.lookup(design.anchors[group][:, None] + base) < 0, axis=1)
    m = int(np.argmax(bad))
    if design.counts[m] == 0:
        offset = tuple(design.offsets[m].tolist())
        raise EmptyWindow(f"NOL template copy at offset {offset} has no site")
    what = "overlapping" if spec.scheme == OL else "disjoint"
    raise MissingSites(f"sample does not cover every {what} subsample site")


def _reduce_theta(
    plan: SubsamplePlan, theta: np.ndarray, stat: SmoothStatistic, overwrite: bool = False
):
    """theta_tilde (...) and tau_hat_sq (...) of the statistics theta (..., M).

    numpy sums a row in an order set by its memory layout, so the bits
    depend on theta's strides as well as its values.  With ``overwrite``
    the deviations are computed in theta's memory, which must be laid out
    as a new array of theta's shape would be.
    """
    if not np.all(np.isfinite(theta)):
        raise StatisticDomainError(f"{stat.name} not finite on some subsample")
    n_sub = theta.shape[-1]
    theta_tilde = theta.sum(-1) / n_sub
    dev = np.subtract(theta, theta_tilde[..., None], out=theta if overwrite else None)
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

    ``values`` is (R, N, p), p columns per site; ``table`` is the window's
    site -> row table (-1 off the window).  Returns the
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


def _half(n: int) -> int:
    """Terms in the first half of numpy's split of ``n`` pairwise terms."""
    return n // 2 - n // 2 % 8


@dataclass(frozen=True)
class AddProgram:
    """A sum of terms as whole-array adds into ``slots`` lanes.

    Op (out, a, key_a, b, key_b) sets ``lanes[out]`` (operand a itself when
    out is None) to operand a, ``(terms, lanes)[a][key_a]``, plus operand b,
    or plus 0.0 when b is None.  On a step-1 grid ``terms`` is the (p, box
    sites, R) image and the lanes are (p, ``width``, R); a key slices the
    sites of one or of a lane.  On a step-s grid ``terms`` is the list of
    the grid's slices, and a key picks one of them or a whole lane.  The
    last op leaves the total in its lane.
    """

    ops: tuple
    slots: int
    width: int


def _compile(offsets: list, span: int, pairwise: bool, shared: bool) -> AddProgram:
    """The adds that sum terms at flat ``offsets`` over ``span`` positions,
    in numpy's order for one row: pairwise, or left to right.

    Each subtree of that order is keyed by its shape and its leaves'
    offsets, relative to its lowest leaf when ``shared``.  A subtree shifted
    by delta equals the one it shares a key with read delta positions on, so
    a key is computed once, over the hull of the positions its uses read.
    A subtree read by one add only is updated in place by that add, and a
    lane is reused once its subtree's last reader has run.
    """
    ids, parts, uses = {}, [], []  # subtree key -> id; per id its operands, and its readers

    def add(x, y=None):  # x, y: (id, low leaf offset), id -1 for a term; 0.0 + x when y is None
        (i, a), (j, b) = x, y or (None, x[1])
        low = a if a < b else b
        key = (i, a - low, j, b - low) if shared else (i, a, j, b)
        k = ids.get(key)
        if k is None:
            k = ids[key] = len(parts)
            parts.append(((i, a - low), (j, b - low)) if y else ((i, 0),))  # (id, offset from low)
            uses.append(0)
            for c, _ in parts[k]:
                if c >= 0:
                    uses[c] += 1
        return k, low

    def chain(total, rest):
        for term in rest:
            total = add(total, term)
        return total

    def tree(leaves):
        n = len(leaves)
        if n < 8 or not pairwise:
            return chain(add(leaves[0]), leaves[1:])  # 0.0 + t0 + t1 + ...
        if n > _PAIRWISE_BLOCK:
            half = _half(n)
            return add(tree(leaves[:half]), tree(leaves[half:]))
        # lane j sums the terms t = j (mod 8) of the first n - n % 8
        body = n - n % 8
        r = leaves[:8]
        if body > 8:
            r = [chain(add(r[j], leaves[j + 8]), leaves[j + 16 : body : 8]) for j in range(8)]
        total = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
        return chain(total, leaves[body:])

    root, low = tree([(-1, at) for at in offsets])
    # positions of each subtree to compute, parents (made after their operands) first
    lo, hi = [math.inf] * len(parts), [-math.inf] * len(parts)
    lo[root], hi[root] = low, low + span
    for k in range(root, -1, -1):
        for c, d in parts[k]:
            if c >= 0:
                lo[c], hi[c] = min(lo[c], lo[k] + d), max(hi[c], hi[k] + d)

    def key(src, at, n):  # operand (src, at): its index in terms (src = -1) or in lanes
        if not shared:
            return at if src < 0 else src
        cut = slice(at, at + n)
        return (slice(None), cut) if src < 0 else (src, slice(None), cut)

    lane, free, ops, slots = [0] * len(parts), [], [], 0
    left = uses.copy()
    for k, operands in enumerate(parts):
        kids = [c for c, _ in operands if c >= 0]
        once = [c for c in kids if uses[c] == 1]
        if once:  # its one reader updates its lane in place
            lane[k] = lane[once[0]]
            if operands[0][0] != once[0]:  # and reads it first: IEEE addition commutes
                operands = operands[::-1]
        elif free:
            lane[k] = free.pop()
        else:
            lane[k], slots = slots, slots + 1
        for c in kids:
            left[c] -= 1
            if left[c] == 0 and lane[c] != lane[k]:
                free.append(lane[c])
        n = hi[k] - lo[k]
        op = [None if once else key(lane[k], 0, n)]
        for c, d in operands:
            src, at = (-1, lo[k] + d) if c < 0 else (lane[c], lo[k] + d - lo[c])
            op += [int(c >= 0), key(src, at, n)]
        ops.append((*op, None, None) if len(operands) == 1 else tuple(op))
    width = max(hi[k] - lo[k] for k in range(len(parts)))
    return AddProgram(tuple(ops), slots, width)


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
    step-s grid a strided slice.  The grid's ``AddProgram`` sums the terms
    with whole-array adds into workspace lanes, in numpy's order for a
    contiguous row of the subsample's values or left to right
    (``pairwise=False``).  On a step-1 grid it computes each partial sum
    that recurs at a shifted offset once and reads the shifted view.  The
    anchors' sums are taken out of the total into a new array.
    """
    p, n_fields = image.shape[0], image.shape[-1]
    if image.shape[1:-1] != grid.box:
        raise DimensionMismatch(f"image box {image.shape[1:-1]} is not the design's {grid.box}")
    program = grid.pairwise_program if pairwise else grid.running_program
    if grid.step == 1:
        terms = image.reshape(p, -1, n_fields)
        lanes = _lanes(program.slots, (p, program.width, n_fields))
    else:
        terms = [image[(slice(None), *cut)] for cut in grid.slices]
        lanes = list(_lanes(program.slots, terms[0].shape))
    arrays = (terms, lanes)
    for out, a, key_a, b, key_b in program.ops:
        x = arrays[a][key_a]
        np.add(x, 0.0 if b is None else arrays[b][key_b], x if out is None else lanes[out])
    total = x if out is None else lanes[out]
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
    # theta is a compact array (or view of one) that no one else reads: the
    # deviations overwrite it, so that a call frees one array of this size,
    # not two, and malloc does not hand the pages back after every call
    return np.ascontiguousarray(_reduce_theta(local, theta, stat, overwrite=True)[1])


def ol_estimate(
    sample: FieldSample,
    region: Region,
    spec: SubsampleSpec,
    stat: SmoothStatistic,
) -> EstimatorResult:
    """Overlapping subsample variance estimator of the scaled statistic variance."""
    if spec.scheme != OL:
        raise ConfigError("ol_estimate needs an OL spec")
    return estimate(sample, region, spec, stat)


def nol_estimate(
    sample: FieldSample,
    region: Region,
    spec: SubsampleSpec,
    stat: SmoothStatistic,
) -> EstimatorResult:
    """Nonoverlapping subsample variance estimator (per-subregion site weights)."""
    if spec.scheme != NOL:
        raise ConfigError("nol_estimate needs a NOL spec")
    return estimate(sample, region, spec, stat)


def estimate(sample, region, spec, stat) -> EstimatorResult:
    """Subsample variance estimate of ``spec``'s scheme on ``sample``'s ``field_image``."""
    plan = design_plan(sample.window, region, spec)
    image = field_image(sample.window.table, sample.values[None])
    theta, theta_tilde, tau_hat = (a[0] for a in estimate_image(plan, image, stat))
    return EstimatorResult(
        tau_hat_sq=float(tau_hat),
        scheme=plan.index_set.scheme,
        n_subsamples=plan.index_set.n_subsamples,
        subsample_sites=plan.index_set.counts.copy(),
        theta_tilde=float(theta_tilde),
        theta_hats=theta,
    )
