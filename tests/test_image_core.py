"""The replicate-batched estimator core (``estimate_image``) and the MSE study
loop that feeds it: every estimate equals the per-replicate core bit for bit."""

import importlib.util
import math
import sys
import threading
import time
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from brute_force import (
    design_rows,
    gather_estimate,
    gather_ragged,
    pairwise_sum,
    per_replicate_phi_rows,
    replayed_grid_sums,
)

import latblock.estimators
import latblock.geometry
import latblock.harness
from latblock.covariance import exact_tau_n_sq_window, parse_covariogram
from latblock.errors import (
    DegenerateSubsampling,
    DimensionMismatch,
    LatblockError,
    NonIntegerScaleWarning,
    StatisticDomainError,
)
from latblock.estimators import (
    AnchorGrid,
    _anchor_step,
    design_plan,
    estimate_blocks,
    estimate_image,
    field_image,
    grid_sums,
    mean_statistic,
    moment_variance,
)
from latblock.fieldsim import (
    build_generator,
    sample_field,
    sample_fields,
    substream,
)
from latblock.geometry import Region, SubsampleSpec, Template, lattice_sites, parse_template
from latblock.harness import config_from_dict, mse_study, phi_study, plan_study, run_study
from latblock.scaling import hj_designs


def per_replicate_taus(plan, window, values, stat):
    return np.array([gather_estimate(plan, window, v[:, None], stat)[2] for v in values])


def assert_core_matches(region, spec, values):
    window = lattice_sites(region)
    plan = design_plan(window, region, spec)
    stat = mean_statistic()
    image = field_image(window.table, values[..., None])
    assert image.flags.c_contiguous
    assert image.shape == (1, *window.table.shape, len(values))
    got = estimate_image(plan, image, stat)[2]
    assert got.shape == (len(values),)
    assert np.array_equal(got, per_replicate_taus(plan, window, values, stat))
    return plan


def fields(window, n_reps, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_reps, window.n_sites)) * scale + offset


BOX = Region(Template.hypercube(2), (40, 44))
DISK = Region(parse_template("circle:r=0.5"), (30, 30))


@pytest.mark.parametrize(
    "s_lam, size",
    [
        (1, 1),  # n < 8
        (2, 4),
        (3, 9),  # 8 <= n <= 128, n % 8 != 0
        (4, 16),  # 8 <= n <= 128, n % 8 == 0
        (5, 25),
        (12, 144),  # one split into halves
        (13, 169),  # halves of 80 and 89 terms, not 84 and 85
        (17, 289),  # halves split again
    ],
)
@pytest.mark.parametrize("scheme", ["ol", "nol"])
def test_every_pairwise_branch_matches_the_core(s_lam, size, scheme):
    spec = SubsampleSpec(Template.hypercube(2), float(s_lam), scheme)
    region = BOX if scheme == "ol" else Region(Template.hypercube(2), (60, 62))
    window = lattice_sites(region)
    plan = assert_core_matches(region, spec, fields(window, 5, s_lam))
    assert design_rows(plan, window).shape[1] == size
    assert plan.grids[0].index is None  # box designs fill their anchor grid
    assert plan.grids[0].step == (s_lam if scheme == "nol" else 1)


@pytest.mark.parametrize(
    "region, sub, s_lam, scheme",
    [
        (DISK, None, 4.0, "ol"),
        (DISK, None, 3.0, "nol"),
        (DISK, "hypercube:d=2", 5.0, "ol"),
        (DISK, "hypercube:d=2", 4.0, "nol"),
        (Region(Template.hypercube(2), (21, 17), (0.25, 0.0)), "circle:r=0.5", 5.0, "ol"),
        (Region(Template.hypercube(2), (21, 17), (0.25, 0.0)), "circle:r=0.5", 4.0, "nol"),
        (Region(Template.hypercube(2), (21, 17)), None, 3.7, "ol"),
    ],
)
def test_partial_anchor_grids_match_the_core(region, sub, s_lam, scheme):
    spec = SubsampleSpec(parse_template(sub) if sub else region.template, s_lam, scheme)
    plan = assert_core_matches(region, spec, fields(lattice_sites(region), 6, int(s_lam)))
    # a disk holds no rectangle of anchors; a box holds one of any template
    is_disk = region.template.spec_string().startswith("circle")
    assert (plan.grids[0].index is not None) == is_disk
    if is_disk:
        assert plan.grids[0].index.size == plan.index_set.n_subsamples


@pytest.mark.parametrize(
    "sub, s_lam, scheme",
    [
        ("hypercube:d=3", 2.0, "ol"),  # n = 8: the lanes and no tail
        ("hypercube:d=3", 2.0, "nol"),
        ("hypercube:d=3", 3.0, "nol"),
        ("sphere:r=0.5", 3.0, "ol"),
    ],
)
def test_three_dimensional_windows_match_the_core(sub, s_lam, scheme):
    region = Region(parse_template("sphere:r=0.5"), (10, 10, 10))
    spec = SubsampleSpec(parse_template(sub), s_lam, scheme)
    plan = assert_core_matches(region, spec, fields(lattice_sites(region), 4, 3))
    assert plan.grids[0].index is not None and len(plan.grids[0].shape) == 3


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("offset", [0.0, 1e7])
def test_scaled_and_offset_fields_match_the_core(scale, offset):
    for region, spec in [
        (BOX, SubsampleSpec(Template.hypercube(2), 3.0, "ol")),
        (BOX, SubsampleSpec(Template.hypercube(2), 12.0, "nol")),
        (DISK, SubsampleSpec(Template.circle(0.5), 5.0, "ol")),
    ]:
        assert_core_matches(region, spec, fields(lattice_sites(region), 4, 11, scale, offset))


def test_pairwise_sum_replays_the_numpy_row_sum():
    rng = np.random.default_rng(5)
    for n in [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 300, 1030]:
        rows = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-3, 6, (6, n))
        assert np.array_equal(pairwise_sum(list(rows.T)), rows.sum(-1))


def _base_pattern(kind, d, count, rng):
    """About ``count`` sites of a box, a disk or a random subset of a box, as
    (sN, d) offsets from their low corner; the subset in random order."""
    if kind == "box":
        side = max(1, round(count ** (1 / d)))
        return np.indices((side,) * d).reshape(d, -1).T
    if kind == "disk":
        radius = (count * math.gamma(d / 2 + 1) / math.pi ** (d / 2)) ** (1 / d)
        cells = np.indices((2 * math.ceil(radius) + 1,) * d).reshape(d, -1).T
        inside = cells[((cells - math.ceil(radius)) ** 2).sum(1) <= radius**2]
        return inside - inside.min(0)
    side = math.ceil((2 * count) ** (1 / d)) + 1
    cells = np.indices((side,) * d).reshape(d, -1).T
    picked = cells[rng.choice(len(cells), size=min(count, len(cells)), replace=False)]
    return picked - picked.min(0)


@given(
    d=st.integers(1, 3),
    kind=st.sampled_from(["box", "disk", "subset"]),
    count=st.sampled_from([8, 128, 256]).flatmap(lambda n: st.integers(max(1, n - 9), n + 9)),
    step=st.sampled_from([1, 1, 2]),
    p=st.sampled_from([1, 2]),
    n_fields=st.sampled_from([1, 3, 26]),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    negative=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_add_programs_equal_the_one_by_one_sums(
    d, kind, count, step, p, n_fields, zeros, negative, seed
):
    """Every anchor's sum, with partial sums shared across shifted subtrees,
    has the bits of adding the grid's terms one by one in numpy's order:
    for each order, base shape, term count, column count and R, on fields of
    1e-3 to 1e6 with signed zeros."""
    rng = np.random.default_rng(seed)
    base = _base_pattern(kind, d, count, rng)
    shape = tuple(rng.integers(1, 5 if d < 3 else 3, d).tolist())
    lo = rng.integers(0, 3, d)
    reach = lo + base.max(0) + step * (np.array(shape) - 1)
    box = tuple((reach + 1 + rng.integers(0, 3, d)).tolist())
    grid = AnchorGrid(base, tuple(lo.tolist()), step, shape, None, box)
    size = (p, *box, n_fields)
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3, 6, size)
    zero = rng.random(values.shape) < zeros
    values[zero] = np.where(rng.random(int(zero.sum())) < negative, -0.0, 0.0)
    for pairwise in (True, False):
        got = grid_sums(grid, values, pairwise)
        want = replayed_grid_sums(grid, values, pairwise)
        assert got.shape == (p, math.prod(shape), n_fields)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_shared_partial_sums_cut_the_adds_of_ol_box_designs():
    # one add per node of numpy's tree: 15, 63 and 376 without sharing
    region = Region(Template.hypercube(2), (30, 42))
    window = lattice_sites(region)
    adds = {
        s: len(design_plan(window, region, SubsampleSpec(region.template, float(s), "ol"))
               .grids[0].pairwise_program.ops)
        for s in range(2, 11)
    }
    assert adds[4] <= 4 and adds[8] <= 10
    assert sum(adds.values()) <= 200


@given(
    d=st.integers(1, 3),
    step=st.integers(1, 5),
    cells=st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=30),
    unit=st.none() | st.integers(0, 5),
    corner=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
)
def test_anchor_step_is_the_gcd_of_the_anchor_distances(d, step, cells, unit, corner):
    anchors = np.array(cells, np.int64)[:, :d] * step + np.array(corner[:d])
    if unit is not None:  # the first two anchors a unit vector apart
        move = np.zeros(d, np.int64)
        move[unit % d] = 1 if unit < 3 else -1
        anchors = np.vstack([anchors[:1], anchors[:1] + move, anchors[1:]])
    lo = anchors.min(axis=0)
    assert _anchor_step(anchors, lo) == (int(np.gcd.reduce((anchors - lo).ravel())) or 1)


def test_image_core_keeps_the_core_checks():
    region = Region(Template.hypercube(2), (6, 6))
    window = lattice_sites(region)
    image = field_image(window.table, np.ones((2, window.n_sites, 1)))
    plan = design_plan(window, region, SubsampleSpec(region.template, 2.0, "ol"))
    with pytest.raises(DimensionMismatch):
        estimate_image(plan, image, moment_variance())
    bad = np.ones((2, window.n_sites, 1))
    bad[1, 3, 0] = np.inf
    with pytest.raises(StatisticDomainError):
        estimate_image(plan, field_image(window.table, bad), mean_statistic())
    single = design_plan(window, region, SubsampleSpec(region.template, 6.0, "ol"))
    with pytest.raises(DegenerateSubsampling):
        estimate_image(single, image, mean_statistic())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        ragged = design_plan(window, region, SubsampleSpec(region.template, 2.5, "nol"))
    # a ragged design takes the same core
    values = fields(window, 2, 3)[..., None]
    got = estimate_image(ragged, field_image(window.table, values), mean_statistic())
    want = [gather_ragged(ragged, window, field, mean_statistic()) for field in values]
    for part, reference in zip(got, zip(*want)):
        assert np.array_equal(part, np.array(reference))


# (region, sub-template, scale, scheme, whether the anchors plus some base
# site reach the box's last column, so that runs wrap past each row, and
# whether the design holds only some anchors of its grid)
LAYOUT_CASES = [
    (Region(Template.hypercube(2), (9, 11)), "hypercube:d=2", 1.0, "ol", True, False),
    (Region(Template.hypercube(2), (9, 11)), "hypercube:d=2", 3.0, "ol", True, False),
    (Region(Template.hypercube(2), (9, 11)), "hypercube:d=2", 3.0, "nol", False, False),
    (DISK, "circle:r=0.5", 5.0, "ol", False, True),
    (DISK, "hypercube:d=2", 4.0, "ol", False, True),
    (DISK, "hypercube:d=2", 4.0, "nol", False, True),
    (Region(Template.hypercube(3), (6, 7, 8)), "hypercube:d=3", 2.0, "ol", True, False),
    (Region(parse_template("sphere:r=0.5"), (10, 10, 10)), "sphere:r=0.5", 3.0, "ol", False, True),
]


def lifted_fields(window, n_fields):
    """The mean's (R, N, 1) values and momvar's (R, N, 2) pairs (x, x^2)."""
    x = fields(window, n_fields, 13, 1e3, 5.0)
    return [(mean_statistic(), x[..., None]), (moment_variance(), np.stack([x, x * x], -1))]


@pytest.mark.parametrize("n_fields", [1, 26])
@pytest.mark.parametrize("region, sub, s_lam, scheme, edge, partial", LAYOUT_CASES)
def test_image_core_equals_the_gather_in_every_layout(
    region, sub, s_lam, scheme, edge, partial, n_fields
):
    window = lattice_sites(region)
    box = window.table.shape
    plan = design_plan(window, region, SubsampleSpec(parse_template(sub), s_lam, scheme))
    (grid,) = plan.grids
    reach = np.add(grid.lo, grid.base).max(axis=0) + grid.step * (np.array(grid.shape) - 1)
    assert (reach[-1] == box[-1] - 1) == edge
    assert (grid.index is not None) == partial
    for stat, values in lifted_fields(window, n_fields):
        image = field_image(window.table, values)
        assert image.flags.c_contiguous and image.shape == (stat.p, *box, n_fields)
        got = estimate_image(plan, image, stat)
        want = [gather_estimate(plan, window, field, stat) for field in values]
        for part, reference in zip(got, zip(*want)):
            assert np.array_equal(part, np.array(reference))


@pytest.mark.parametrize("n_fields", [1, 26])
@pytest.mark.parametrize(
    "region, lambda_m",
    [
        (Region(Template.hypercube(2), (9, 8.5)), 8),  # 4 blocks
        (Region(parse_template("circle:r=0.5"), (9, 9)), 8),  # 1 block
    ],
)
def test_block_core_equals_the_gather_in_every_layout(region, lambda_m, n_fields):
    window = lattice_sites(region)
    design = hj_designs(window, region, lambda_m, list(range(1, 8)), "ol", 1)
    pilot = lattice_sites(Region(region.template, (float(lambda_m),) * region.d, region.shift))
    rows = design_rows(design.blocks, window)
    for stat, values in lifted_fields(window, n_fields):
        image = field_image(window.table, values)
        for c, local in design.local:
            full = design_plan(window, region, SubsampleSpec(region.template, float(c), "ol"))
            got = estimate_blocks(image, full, design.blocks, local, stat)
            want = [gather_estimate(local, pilot, field[rows], stat)[2] for field in values]
            assert got.flags.c_contiguous and np.array_equal(got, np.array(want))


# ragged NOL designs (non-integer scales): region, sub-template, scale
RAGGED_CASES = [
    (Region(Template.hypercube(2), (14, 18)), "hypercube:d=2", 2.5),
    (Region(Template.hypercube(2), (14, 18)), "hypercube:d=2", 1.3),
    (DISK, "circle:r=0.5", 3.7),
    (DISK, "hypercube:d=2", 4.5),
    (Region(parse_template("isotri"), (24, 24), (0.3, 0.1)), "isotri", 2.2),
    (Region(parse_template("sphere:r=0.5"), (12, 12, 12)), "sphere:r=0.5", 2.5),
]


@pytest.mark.parametrize("n_fields", [1, 26])
@pytest.mark.parametrize("region, sub, s_lam", RAGGED_CASES)
def test_image_core_equals_the_copy_gather_on_ragged_designs(region, sub, s_lam, n_fields):
    window = lattice_sites(region)
    table = window.table
    spec = SubsampleSpec(parse_template(sub), s_lam, "nol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = design_plan(window, region, spec)
    assert len(plan.grids) > 1 and len(set(plan.index_set.counts.tolist())) > 1
    for stat, values in lifted_fields(window, n_fields):
        got = estimate_image(plan, field_image(table, values), stat)
        want = [gather_ragged(plan, window, field, stat) for field in values]
        for part, reference in zip(got, zip(*want)):
            assert np.array_equal(part, np.array(reference))
        for r, field in enumerate(values):  # each row is its field's one-shot estimate
            one = estimate_image(plan, field_image(table, field[None]), stat)
            assert all(np.array_equal(part[r], alone[0]) for part, alone in zip(got, one))


def test_returned_arrays_are_not_overwritten_by_the_next_call():
    window = lattice_sites(BOX)
    image = field_image(window.table, fields(window, 3, 2)[..., None])
    stat = mean_statistic()
    first, second = (
        design_plan(window, BOX, SubsampleSpec(BOX.template, s_lam, "ol")) for s_lam in (3.0, 5.0)
    )
    sums = grid_sums(first.grids[0], image)
    estimates = estimate_image(first, image, stat)
    kept = [a.copy() for a in (sums, *estimates)]
    grid_sums(second.grids[0], image)
    estimate_image(second, image, stat)
    for got, copy in zip((sums, *estimates), kept):
        assert np.array_equal(got, copy)


def test_threads_estimating_at_once_get_their_single_thread_bytes():
    window = lattice_sites(BOX)
    image = field_image(window.table, fields(window, 26, 4)[..., None])
    stat = mean_statistic()
    # 9 terms in one block of lanes, and 169 split into halves
    plans = [design_plan(window, BOX, SubsampleSpec(BOX.template, s, "ol")) for s in (3.0, 13.0)]

    def run(plan):
        return tuple(a.tobytes() for a in estimate_image(plan, image, stat))

    alone = [run(plan) for plan in plans]
    seen = {i: set() for i in range(4)}

    def worker(i):
        for _ in range(30):
            seen[i].add(run(plans[i % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {i: {alone[i % 2]} for i in range(4)}


def test_an_image_of_another_window_is_refused():
    window = lattice_sites(BOX)
    plan = design_plan(window, BOX, SubsampleSpec(BOX.template, 3.0, "ol"))
    other = lattice_sites(Region(Template.hypercube(2), (40, 45)))
    image = field_image(other.table, fields(other, 2, 1)[..., None])
    with pytest.raises(DimensionMismatch):
        estimate_image(plan, image, mean_statistic())


@pytest.mark.parametrize("stat", [mean_statistic(), moment_variance()], ids=["mean", "momvar"])
def test_lanes_past_the_workspace_cap_give_the_same_estimates(monkeypatch, stat):
    window = lattice_sites(BOX)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        # a ragged design: four anchor grids, whose lanes differ in size
        plan = design_plan(window, BOX, SubsampleSpec(BOX.template, 2.5, "nol"))
    x = fields(window, 5, 8)
    image = field_image(window.table, np.stack([x, x * x], -1)[..., : stat.p])
    sizes, lanes = [], latblock.estimators._lanes

    def spy(count, shape):
        sizes.append(count * math.prod(shape))
        return lanes(count, shape)

    monkeypatch.setattr(latblock.estimators, "_lanes", spy)
    want = estimate_image(plan, image, stat)
    cap = sorted(sizes)[1]  # some grids' lanes fit under it, and some do not
    assert min(sizes) <= cap < max(sizes)
    monkeypatch.setattr(latblock.estimators, "_WORKSPACE_FLOATS", cap)
    got = {}

    def run():  # on a fresh thread, whose workspace starts empty
        got["estimate"] = estimate_image(plan, image, stat)
        got["workspace"] = latblock.estimators._workspace.buf.size

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert all(np.array_equal(a, b) for a, b in zip(got["estimate"], want, strict=True))
    assert got["workspace"] <= cap


# ---------------------------------------------------------------------------
# the MSE study loop
# ---------------------------------------------------------------------------


def study_raw(**overrides):
    raw = {
        "regions": [{"name": "rect", "template": "hypercube:d=2", "scale": [11, 13]}],
        "covariograms": [
            {"name": "white", "spec": "white"},
            {"name": "E", "spec": "expsep:b1=1,b2=1"},
        ],
        "statistic": "mean",
        "schemes": ["ol", "nol"],
        "s_lambda_grid": [1, 2, 3, 5],
        "replicates": 103,
        "seed": 29,
    }
    raw.update(overrides)
    return raw


def direct_study(cfg):
    """Per cell, the deviations of a plain per-replicate ``gather_estimate`` loop."""
    out = {}
    for r_idx, reg in enumerate(cfg.regions):
        region = reg.region()
        window = lattice_sites(region)
        for c_idx, (cov_name, cov) in enumerate(cfg.covariograms):
            key = f"{reg.name}|{cov_name}"
            tau_n = cfg.tau_n_sq_override.get(key)
            if tau_n is None:
                tau_n = exact_tau_n_sq_window(window, cov)
            gen = build_generator(cov, window)
            first = (r_idx * len(cfg.covariograms) + c_idx) * cfg.replicates
            streams = [substream(cfg.seed, first + rep) for rep in range(cfg.replicates)]
            samples = [
                cfg.statistic.lift(sample_field(gen, stream).values[:, 0]) for stream in streams
            ]
            for scheme in cfg.schemes:
                for lam in cfg.s_lambda_grid[reg.name]:
                    spec = SubsampleSpec(region.template, float(lam), scheme)
                    plan = design_plan(window, region, spec)
                    if plan.index_set.n_subsamples < 2:  # a dead cell
                        out[(reg.name, cov_name, scheme, lam)] = None
                        continue
                    taus = [
                        gather_estimate(plan, window, x, cfg.statistic)[2] for x in samples
                    ]
                    out[(reg.name, cov_name, scheme, lam)] = [
                        (float(t) / tau_n - 1.0) ** 2 for t in taus
                    ]
    return out


def image_calls(monkeypatch) -> list:
    calls = []

    def spy(plan, image, stat):
        calls.append(image.shape[-1])
        return estimate_image(plan, image, stat)

    monkeypatch.setattr(latblock.harness, "estimate_image", spy)
    return calls


def assert_study_matches(cfg):
    direct = direct_study(cfg)
    cells = mse_study(cfg)
    assert len(cells) == len(direct)
    for cell in cells:
        devs = direct[(cell.region, cell.model, cell.scheme, cell.s_lambda)]
        if devs is None:
            assert cell.deviations is None and cell.mse is None
        else:
            assert np.array_equal(cell.deviations, devs)
            assert cell.mse == np.mean(devs)
    assert any(devs is None for devs in direct.values())


@pytest.mark.parametrize("block_reps", [1, 10, 200])
def test_study_chunks_match_the_per_replicate_core(monkeypatch, block_reps):
    # 103 replicates: chunks of 10 leave a partial chunk of 3
    table_size = lattice_sites(Region(Template.hypercube(2), (11, 13))).table.size
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", block_reps * table_size)
    calls = image_calls(monkeypatch)
    assert_study_matches(config_from_dict(study_raw()))
    chunk_sizes = set(calls)
    if block_reps == 10:
        assert chunk_sizes == {10, 3}
    else:
        assert chunk_sizes == {min(block_reps, 103)}


def test_momvar_study_takes_the_image_core(monkeypatch):
    raw = study_raw(statistic="momvar", tau_n_sq={"rect|white": 2.0, "rect|E": 3.5})
    calls = image_calls(monkeypatch)
    assert_study_matches(config_from_dict(raw))
    assert calls


def perfbench_studies() -> dict:
    """The configs of perfbench's three study workloads, at slot 3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return {name: module.WORKLOADS[name].make_config(3) for name in STUDY_WORKLOADS}


STUDY_WORKLOADS = ("mse_rect", "mse_disk", "phi_select")


def run_in(tmp_path, name, raw) -> dict:
    """Run a study with its outputs in ``tmp_path``; the bytes of each output."""
    paths = {key: tmp_path / f"{name}-{key}.csv" for key in raw["outputs"]}
    run_study(config_from_dict({**raw, "outputs": {k: str(p) for k, p in paths.items()}}))
    return {key: path.read_bytes() for key, path in paths.items()}


def test_ol_designs_on_their_regions_window_skip_only_the_second_erosion(monkeypatch, tmp_path):
    erosions, builds = [], []
    real_erode, real_build = latblock.estimators.erode, latblock.estimators._build_design

    def counted_erode(*args):
        erosions.append(None)
        return real_erode(*args)

    def recorded_build(window, region, spec):
        before = len(erosions)
        plan = real_build(window, region, spec)
        builds.append((window, region, spec, plan, len(erosions) - before))
        return plan

    monkeypatch.setattr(latblock.estimators, "erode", counted_erode)
    monkeypatch.setattr(latblock.estimators, "_build_design", recorded_build)
    latblock.estimators._cached_design.cache_clear()
    for name, raw in perfbench_studies().items():
        run_in(tmp_path, name, raw)
    ol = [build for build in builds if build[2].scheme == "ol"]
    assert len(ol) == 35  # 9 of mse_rect, 12 of mse_disk and 14 of phi_select
    assert all(build[4] == 0 for build in ol)
    assert all(build[4] > 0 for build in builds if build[2].scheme == "nol")
    # with no window its region's own, every build erodes: the same designs
    monkeypatch.setattr(latblock.estimators, "lattice_sites", lambda region: None)
    for window, region, spec, plan, _ in ol:
        forced = real_build(window, region, spec)
        assert np.array_equal(forced.index_set.anchors, plan.index_set.anchors)
        for got, want in zip(forced.grids, plan.grids, strict=True):
            assert np.array_equal(got.base, want.base)
            assert (got.lo, got.step, got.shape, got.box) == (want.lo, want.step, want.shape, want.box)
            assert (got.index is None) == (want.index is None)
            assert got.index is None or np.array_equal(got.index, want.index)


def test_a_study_run_twice_in_one_process_writes_the_same_bytes(tmp_path):
    latblock.estimators._cached_design.cache_clear()
    latblock.geometry._cached_window.cache_clear()
    for name, raw in perfbench_studies().items():
        first = run_in(tmp_path, name, raw)
        assert run_in(tmp_path, name, raw) == first


def test_cached_anchor_grids_are_read_only():
    region = Region(parse_template("circle:r=0.5"), (20, 20))
    plan = design_plan(lattice_sites(region), region, SubsampleSpec(region.template, 4.0, "ol"))
    with pytest.raises(ValueError):
        plan.grids[0].base[0, 0] = 0
    with pytest.raises(ValueError):
        plan.grids[0].index[0] = 0


# ---------------------------------------------------------------------------
# the drawing thread
# ---------------------------------------------------------------------------

DISK_REGION = {"name": "disk", "template": "circle:r=0.5", "scale": [12, 12]}
DISK_GRID = [1, 3, 5, 9]  # odd NOL scales, whose disk copies are disjoint; 9 is dead

# a circulant box and a Cholesky disk for the selector study
PHI_REGIONS = {
    "box": {"name": "r", "template": "hypercube:d=2", "scale": [14, 18]},
    "disk": {"name": "r", "template": "circle:r=0.5", "scale": [16, 16]},
}


class DrawFailed(LatblockError):
    pass


class EstimateFailed(LatblockError):
    pass


def chunked_config(monkeypatch, region=None, **overrides):
    """A study config whose replicates go in chunks of 10, so that draws and
    estimates overlap over 11 chunks."""
    raw = study_raw(**overrides)
    if region is not None:
        raw["regions"] = [region]
    cfg = config_from_dict(raw)
    table = lattice_sites(cfg.regions[0].region()).table
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", 10 * table.size)
    return cfg


def phi_raw(region_name):
    return {
        "regions": [PHI_REGIONS[region_name]],
        "covariograms": [{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        "selectors": {"npi": {"c1": [0.5, 1.0], "c2": [0.5]}, "s_lambda_opt": {"r|E": 3}},
    }


def draw_spy(monkeypatch) -> list:
    """Per replicate that a study draws (``sample_fields``, a piece of
    replicates a call): its route, thread and the number of live threads."""
    calls = []

    def spy(gen, streams):
        calls.extend([(gen.method, threading.get_ident(), threading.active_count())] * len(streams))
        return sample_fields(gen, streams)

    monkeypatch.setattr(latblock.harness, "sample_fields", spy)
    return calls


@pytest.mark.parametrize(
    "region, grid, route", [(None, [1, 2, 3, 5], "circulant"), (DISK_REGION, DISK_GRID, "cholesky")]
)
def test_only_the_circulant_route_draws_on_a_second_thread(monkeypatch, region, grid, route):
    cfg = chunked_config(monkeypatch, region, s_lambda_grid=grid)
    caller, before = threading.get_ident(), threading.active_count()
    calls = draw_spy(monkeypatch)
    assert_study_matches(cfg)  # rows == a per-replicate loop on the caller's thread
    assert len(calls) == 2 * cfg.replicates
    assert {method for method, _, _ in calls} == {route}
    threads = {thread for _, thread, _ in calls}
    if route == "circulant":
        # the caller and one helper share the draws, and the helper is live
        # for the whole pass
        assert len(threads - {caller}) == 1
        assert {live for *_, live in calls} == {before + 1}
    else:
        assert threads == {caller}
        assert {live for *_, live in calls} == {before}
    assert threading.active_count() == before


@pytest.mark.parametrize("region_name, route", [("box", "circulant"), ("disk", "cholesky")])
def test_phi_rows_equal_the_per_replicate_reference_on_both_routes(
    monkeypatch, region_name, route
):
    cfg = chunked_config(monkeypatch, **phi_raw(region_name))
    calls = draw_spy(monkeypatch)
    rows = phi_study(cfg)
    assert {method for method, _, _ in calls} == {route}
    monkeypatch.undo()
    assert rows == per_replicate_phi_rows(cfg)


@pytest.mark.parametrize("region_name, route", [("box", "circulant"), ("disk", "cholesky")])
def test_a_study_of_both_kinds_draws_each_replicate_once(
    monkeypatch, tmp_path, region_name, route
):
    raw = phi_raw(region_name)
    del raw["selectors"]["s_lambda_opt"]  # the oracle scale is the MSE grid's argmin
    raw["outputs"] = {"mse_csv": str(tmp_path / "mse.csv"), "phi_csv": str(tmp_path / "phi.csv")}
    cfg = chunked_config(monkeypatch, **raw)
    draws, built = draw_spy(monkeypatch), []

    def counting_build_generator(cov, window):
        built.append(window.n_sites)
        return build_generator(cov, window)

    monkeypatch.setattr(latblock.harness, "build_generator", counting_build_generator)
    result = run_study(cfg)
    assert len(draws) == cfg.replicates and {method for method, _, _ in draws} == {route}
    assert len(built) == 1
    monkeypatch.undo()
    assert result.phi_rows == per_replicate_phi_rows(cfg)


@pytest.mark.parametrize("region, grid", [(None, [1, 2, 3, 5]), (DISK_REGION, DISK_GRID)])
def test_a_chunked_momvar_study_equals_the_per_replicate_loop(monkeypatch, region, grid):
    name = (region or study_raw()["regions"][0])["name"]
    tau_n_sq = {f"{name}|white": 2.0, f"{name}|E": 3.5}
    # 5 replicates a chunk: pieces of 3 and 2
    cfg = chunked_config(monkeypatch, region, statistic="momvar", s_lambda_grid=grid, tau_n_sq=tau_n_sq)
    calls = image_calls(monkeypatch)
    assert_study_matches(cfg)
    assert set(calls) == {5, 3}  # 103 replicates: a last chunk of 3


def test_closing_the_pass_early_stops_the_helper_after_its_piece(monkeypatch):
    cfg = chunked_config(monkeypatch)  # a circulant box, in chunks of 10
    samples = plan_study(cfg, mse=True, phi=False).pairs[0].samples
    caller, before = threading.get_ident(), threading.active_count()
    pieces = []  # the streams of each sample_fields call

    def slow_helper(gen, streams):
        pieces.append([stream.index for stream in streams])
        if threading.get_ident() != caller:  # so that the close finds chunk 1 undrawn
            time.sleep(0.1)
        return sample_fields(gen, streams)

    monkeypatch.setattr(latblock.harness, "sample_fields", slow_helper)
    chunks = samples.chunks()
    assert next(chunks).shape[-1] == 10
    assert threading.active_count() == before + 1
    closer = threading.Thread(target=chunks.close)
    closer.start()
    closer.join(timeout=60)
    assert not closer.is_alive()
    assert threading.active_count() == before
    # chunk 0's pieces, then the pieces of chunk 1 that the helper had
    # claimed (it claims in order), each drawn once and whole
    piece, first = latblock.harness._PIECE, samples.streams[0]
    chunk0, chunk1 = (
        [list(range(c + i, min(c + i + piece, c + 10))) for i in range(0, 10, piece)]
        for c in (first, first + 10)
    )
    drawn = sorted(pieces)
    assert drawn[: len(chunk0)] == chunk0
    assert drawn[len(chunk0) :] == chunk1[: len(drawn) - len(chunk0)]
    assert len(drawn) < len(chunk0) + len(chunk1)


def test_the_caller_and_the_helper_claim_each_piece_once(monkeypatch):
    # a circulant box in 40 chunks of 10 pieces, which the caller and the
    # helper pop from one deque a chunk
    window = lattice_sites(Region(Template.hypercube(2), (6, 7)))
    cov, table = parse_covariogram("expsep:b1=1,b2=1"), window.table
    samples = latblock.harness.Replicates(cov, window, 5, range(40, 1240), mean_statistic())
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", 30 * table.size)
    claims = []  # the streams of each sample_fields call, and its thread

    def spy(gen, streams):
        claims.append(([stream.index for stream in streams], threading.get_ident()))
        return sample_fields(gen, streams)

    monkeypatch.setattr(latblock.harness, "sample_fields", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with closing(samples.chunks()) as chunks:
            images = list(chunks)
    finally:
        sys.setswitchinterval(interval)
    assert len({thread for _, thread in claims}) == 2
    assert sorted(streams for streams, _ in claims) == [[i, i + 1, i + 2] for i in range(40, 1240, 3)]
    gen, starts = build_generator(cov, window), range(40, 1240, 30)
    assert len(images) == len(starts)
    for start, image in zip(starts, images):
        rows = [sample_fields(gen, [substream(5, rep)])[0] for rep in range(start, start + 30)]
        assert np.array_equal(image, field_image(table, np.stack(rows)[..., None]))


def fail_draw_of(monkeypatch, stream_index):
    def failing(gen, streams):
        if stream_index in [stream.index for stream in streams]:
            raise DrawFailed(f"draw {stream_index}")
        return sample_fields(gen, streams)

    monkeypatch.setattr(latblock.harness, "sample_fields", failing)


def fail_estimate_call(monkeypatch, call):
    calls = []

    def failing(plan, image, stat):
        calls.append(image.shape[-1])
        if len(calls) == call:
            raise EstimateFailed(f"estimate {call}")
        return estimate_image(plan, image, stat)

    monkeypatch.setattr(latblock.harness, "estimate_image", failing)


# phi_study turns an estimate's error at a selected scale into that setting's
# failure, so its estimate errors are not the caller's
@pytest.mark.parametrize(
    "study, fail, error",
    [
        (mse_study, fail_draw_of, DrawFailed),
        (phi_study, fail_draw_of, DrawFailed),
        (mse_study, fail_estimate_call, EstimateFailed),
    ],
)
@pytest.mark.parametrize("region_name", ["box", "disk"])
def test_errors_reach_the_caller_and_leave_no_thread(monkeypatch, study, fail, error, region_name):
    cfg = chunked_config(monkeypatch, **phi_raw(region_name))
    before = threading.active_count()
    fail(monkeypatch, 37)  # the draw of stream 37 (in chunk 4) or the 37th estimate
    with pytest.raises(LatblockError) as info:
        study(cfg)
    assert info.type is error
    assert threading.active_count() == before
