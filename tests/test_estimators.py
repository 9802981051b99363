"""Statistics and the OL/NOL variance estimators, including the naive oracle."""

import linecache
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (
    copy_sites,
    design_rows,
    gather_estimate,
    gather_ragged,
    naive_nol,
    naive_ol,
    nol_subregion_windows,
)
import latblock.estimators
from latblock import (
    FieldSample,
    Region,
    SubsampleSpec,
    Template,
    evaluate_statistic,
    mean_statistic,
    moment_variance,
    nol_estimate,
    ol_estimate,
    parse_statistic,
    parse_template,
    ratio_of_means,
)
from latblock.cli import read_field_csv, write_field_csv
from latblock.errors import (
    DegenerateSubsampling,
    DimensionMismatch,
    EmptyWindow,
    LatblockError,
    MissingSites,
    NonIntegerScaleWarning,
    StatisticDomainError,
)
from latblock.estimators import (
    _build_design,
    _cached_design,
    design_plan,
    estimate,
    estimate_image,
    field_image,
)
from latblock.geometry import (
    LatticeWindow,
    enumerate_nol,
    enumerate_ol,
    lattice_sites,
)


def make_sample(shape, seed=0, p=1, shift=None):
    region = Region(Template.hypercube(2), shape, shift)
    window = lattice_sites(region)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((window.n_sites, p))
    return region, FieldSample(window, values)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_evaluate_statistic_examples():
    region, _ = make_sample((3, 1))
    window = lattice_sites(region)
    sample = FieldSample(window, np.array([[1.0], [2.0], [3.0]]))
    assert evaluate_statistic(mean_statistic(), sample, [0, 1, 2]) == 2.0

    sample2 = FieldSample(window, np.array([[2.0, 1.0], [4.0, 2.0], [0.0, 0.0]]))
    assert evaluate_statistic(ratio_of_means(), sample2, [0, 1]) == 2.0

    encoded = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    sample3 = FieldSample(window, encoded)
    assert evaluate_statistic(moment_variance(), sample3, [0, 1]) == 0.25


def test_ratio_zero_denominator():
    region, _ = make_sample((3, 1))
    window = lattice_sites(region)
    sample = FieldSample(window, np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]]))
    with pytest.raises(StatisticDomainError):
        evaluate_statistic(ratio_of_means(), sample, [0, 1])


@pytest.mark.parametrize("stat", [mean_statistic(), ratio_of_means(), moment_variance()])
def test_gradient_matches_central_differences(stat):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(0.5, 2.0, size=stat.p)
        grad = np.asarray(stat.grad(x), float)
        h = 1e-6
        for j in range(stat.p):
            e = np.zeros(stat.p)
            e[j] = h
            fd = (stat(x + e) - stat(x - e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_parse_statistic_names():
    assert parse_statistic("mean").is_linear
    assert parse_statistic("momvar").p == 2
    with pytest.raises(Exception):
        parse_statistic("median")


def test_each_statistic_lifts_a_scalar_field():
    x = np.arange(18, dtype=float).reshape(2, 9) - 4.5  # two fields of nine sites
    mean = parse_statistic("mean").lift(x)
    assert mean.shape == (2, 9, 1) and np.array_equal(mean[..., 0], x)
    momvar = parse_statistic("momvar").lift(x)
    assert momvar.shape == (2, 9, 2)
    assert np.array_equal(momvar[..., 0], x) and np.array_equal(momvar[..., 1], x * x)
    assert np.array_equal(parse_statistic("momvar").lift(x[0]), momvar[0])
    assert parse_statistic("ratio").lift is None


@pytest.mark.parametrize("stat_name", ["mean", "momvar"])
def test_brute_force_equivalence_all_small_windows(stat_name):
    stat = parse_statistic(stat_name)
    rng = np.random.default_rng(17)
    for mlam in range(1, 7):
        for nlam in range(1, 7):
            region = Region(Template.hypercube(2), (mlam, nlam))
            window = lattice_sites(region)
            values = rng.standard_normal((window.n_sites, stat.p))
            if stat_name == "momvar":
                values[:, 1] = values[:, 0] ** 2
            sample = FieldSample(window, values)
            for s_lam in range(1, min(mlam, nlam) + 1):
                naive_tau, naive_j = naive_ol(sample, mlam, nlam, s_lam, stat)
                if naive_j >= 2:
                    got = ol_estimate(
                        sample, region, SubsampleSpec(Template.hypercube(2), float(s_lam), "ol"), stat
                    )
                    assert got.n_subsamples == naive_j
                    assert got.tau_hat_sq == naive_tau  # bit-for-bit
                naive_tau, naive_j = naive_nol(sample, mlam, nlam, s_lam, stat)
                if naive_j >= 2:
                    got = nol_estimate(
                        sample, region, SubsampleSpec(Template.hypercube(2), float(s_lam), "nol"), stat
                    )
                    assert got.n_subsamples == naive_j
                    assert got.tau_hat_sq == naive_tau


@pytest.mark.parametrize("stat_name", ["mean", "momvar"])
def test_ragged_nol_equals_the_brute_force_cubes(stat_name):
    stat = parse_statistic(stat_name)
    rng = np.random.default_rng(19)
    checked = 0
    for mlam in range(2, 9):
        for nlam in range(2, 9):
            region = Region(Template.hypercube(2), (mlam, nlam))
            window = lattice_sites(region)
            x = rng.standard_normal((window.n_sites, 1))
            sample = FieldSample(window, x if stat.p == 1 else np.hstack([x, x * x]))
            for s_lam in (1.25, 1.5, 2.5, 2.75, 3.5):
                naive_tau, naive_j = naive_nol(sample, mlam, nlam, s_lam, stat)
                if naive_j < 2:
                    continue
                spec = SubsampleSpec(Template.hypercube(2), s_lam, "nol")
                with pytest.warns(NonIntegerScaleWarning):
                    got = nol_estimate(sample, region, spec, stat)
                assert got.n_subsamples == naive_j
                assert got.tau_hat_sq == naive_tau  # bit for bit
                checked += 1
    assert checked == 132


# ---------------------------------------------------------------------------
# estimator behavior
# ---------------------------------------------------------------------------


def test_constant_field_gives_zero():
    region, sample = make_sample((6, 6))
    # dyadic constant: every mean is exact, so the estimate is exactly zero
    const = FieldSample(sample.window, np.full((sample.window.n_sites, 1), 3.5))
    spec = SubsampleSpec(Template.hypercube(2), 2.0, "ol")
    assert ol_estimate(const, region, spec, mean_statistic()).tau_hat_sq == 0.0
    spec_n = SubsampleSpec(Template.hypercube(2), 2.0, "nol")
    assert nol_estimate(const, region, spec_n, mean_statistic()).tau_hat_sq == 0.0
    # non-dyadic constants leave only rounding residue
    messy = FieldSample(sample.window, np.full((sample.window.n_sites, 1), 3.7))
    assert ol_estimate(messy, region, spec, mean_statistic()).tau_hat_sq < 1e-28


def test_single_subsample_degenerate():
    region, sample = make_sample((6, 6))
    spec = SubsampleSpec(Template.hypercube(2), 6.0, "ol")
    with pytest.raises(DegenerateSubsampling):
        ol_estimate(sample, region, spec, mean_statistic())
    # 10x10 region with 4-cubes holds a single disjoint cube
    region10, sample10 = make_sample((10, 10), seed=3)
    with pytest.raises(DegenerateSubsampling):
        nol_estimate(
            sample10, region10, SubsampleSpec(Template.hypercube(2), 4.0, "nol"), mean_statistic()
        )


def test_missing_sites_error():
    region, sample = make_sample((8, 8))
    small = Region(Template.hypercube(2), (6, 6))
    small_window = lattice_sites(small)
    small_sample = FieldSample(sample.window, sample.values)
    # estimating the 8x8 region from a sample that only covers 6x6 must fail
    truncated = FieldSample(small_window, sample.values[: small_window.n_sites])
    with pytest.raises(MissingSites):
        ol_estimate(
            truncated, region, SubsampleSpec(Template.hypercube(2), 2.0, "ol"), mean_statistic()
        )


def test_an_ol_design_on_a_field_csv_with_a_hole_raises_missing_sites(tmp_path):
    # the window read from the file is not the region's own, so the design
    # build checks every subsample site against it
    region, sample = make_sample((14, 18))
    hole = np.flatnonzero(np.all(sample.window.sites == [0, 0], axis=1))  # an interior site
    sites, values = (np.delete(a, hole, axis=0) for a in (sample.window.sites, sample.values))
    cut = FieldSample(LatticeWindow(sites), values)
    path = str(tmp_path / "field.csv")
    write_field_csv(cut, path)
    read = read_field_csv(path)
    assert read.window.n_sites == sample.window.n_sites - 1
    spec = SubsampleSpec(region.template, 4.0, "ol")
    assert ol_estimate(sample, region, spec, mean_statistic()).n_subsamples == 11 * 15
    with pytest.raises(MissingSites, match="overlapping"):
        ol_estimate(read, region, spec, mean_statistic())


def test_location_invariance_mean_exact():
    # 5x5 region with 2-blocks: 16 subsamples of 4 sites, so every division is
    # dyadic and integer-valued data shifted by an integer stays exact
    region = Region(Template.hypercube(2), (5, 5))
    window = lattice_sites(region)
    rng = np.random.default_rng(11)
    values = rng.integers(-9, 10, size=(window.n_sites, 1)).astype(float)
    sample = FieldSample(window, values)
    spec = SubsampleSpec(Template.hypercube(2), 2.0, "ol")
    base = ol_estimate(sample, region, spec, mean_statistic()).tau_hat_sq
    shifted = FieldSample(window, values + 117.0)
    got = ol_estimate(shifted, region, spec, mean_statistic()).tau_hat_sq
    assert got == base  # exact
    # generic float data and shifts agree to rounding accuracy
    region2, sample2 = make_sample((7, 9), seed=11)
    spec2 = SubsampleSpec(Template.hypercube(2), 3.0, "ol")
    b2 = ol_estimate(sample2, region2, spec2, mean_statistic()).tau_hat_sq
    g2 = ol_estimate(
        FieldSample(sample2.window, sample2.values + 117.25),
        region2,
        spec2,
        mean_statistic(),
    ).tau_hat_sq
    assert g2 == pytest.approx(b2, rel=1e-10)


def test_scale_equivariance_mean():
    region, sample = make_sample((7, 9), seed=11)
    spec = SubsampleSpec(Template.hypercube(2), 3.0, "ol")
    base = ol_estimate(sample, region, spec, mean_statistic()).tau_hat_sq
    scaled = FieldSample(sample.window, 4.0 * sample.values)
    got = ol_estimate(scaled, region, spec, mean_statistic()).tau_hat_sq
    assert got == pytest.approx(16.0 * base, rel=1e-12)


def test_permutation_invariance():
    region, sample = make_sample((7, 9), seed=13)
    spec = SubsampleSpec(Template.hypercube(2), 3.0, "ol")
    base = ol_estimate(sample, region, spec, mean_statistic()).tau_hat_sq
    rng = np.random.default_rng(0)
    perm = rng.permutation(sample.window.n_sites)
    shuffled_sites = sample.window.sites[perm]
    order = np.lexsort(tuple(shuffled_sites[:, j] for j in (1, 0)))
    # feeding the rows in any order, the window is rebuilt sorted
    rebuilt = FieldSample(
        type(sample.window)(shuffled_sites[order]),
        sample.values[perm][order],
    )
    got = ol_estimate(rebuilt, region, spec, mean_statistic()).tau_hat_sq
    assert got == base


def test_nol_equals_ol_on_cube_offsets():
    region, sample = make_sample((12, 12), seed=21)
    s_lam = 3
    ol_spec = SubsampleSpec(Template.hypercube(2), float(s_lam), "ol")
    nol_spec = SubsampleSpec(Template.hypercube(2), float(s_lam), "nol")
    ol_res = ol_estimate(sample, region, ol_spec, mean_statistic())
    nol_res = nol_estimate(sample, region, nol_spec, mean_statistic())
    from latblock.geometry import enumerate_nol, enumerate_ol

    ol_idx = enumerate_ol(region, ol_spec)
    nol_idx = enumerate_nol(region, nol_spec)
    pos = {tuple(o): j for j, o in enumerate(ol_idx.offsets.tolist())}
    sel = [pos[(s_lam * i[0], s_lam * i[1])] for i in nol_idx.offsets.tolist()]
    thetas = ol_res.theta_hats[sel]
    tilde = np.mean(thetas)
    recomputed = np.mean(nol_idx.counts * (thetas - tilde) ** 2)
    assert recomputed == nol_res.tau_hat_sq


def test_non_integer_nol_scale_warns_and_runs():
    region, sample = make_sample((12, 12), seed=2)
    spec = SubsampleSpec(Template.hypercube(2), 2.5, "nol")
    with pytest.warns(NonIntegerScaleWarning):
        res = nol_estimate(sample, region, spec, mean_statistic())
    assert res.tau_hat_sq >= 0.0
    assert res.n_subsamples >= 2


def test_shift_translate_equivariance():
    # the design on a shifted lattice is a pure relabeling of sites, so the
    # estimate from identically-translated values matches exactly
    base_region = Region(Template.hypercube(2), (4, 4))
    shifted_region = Region(Template.hypercube(2), (4, 4), (0.25, 0.25))
    w0 = lattice_sites(base_region)
    w1 = lattice_sites(shifted_region)
    assert w0.n_sites == w1.n_sites == 16
    assert np.array_equal(w1.sites, w0.sites - 1)  # window slides one site down
    rng = np.random.default_rng(8)
    values = rng.standard_normal((16, 1))
    spec = SubsampleSpec(Template.hypercube(2), 2.0, "ol")
    a = ol_estimate(FieldSample(w0, values), base_region, spec, mean_statistic())
    b = ol_estimate(FieldSample(w1, values), shifted_region, spec, mean_statistic())
    assert a.tau_hat_sq == b.tau_hat_sq
    assert a.n_subsamples == b.n_subsamples


def test_cross_shape_subsampling():
    region, sample = make_sample((16, 16), seed=9)
    circ = SubsampleSpec(Template.circle(0.5), 4.0, "ol")
    res = ol_estimate(sample, region, circ, mean_statistic())
    assert res.tau_hat_sq > 0.0
    assert int(res.subsample_sites[0]) == 13  # disk of radius 2 on the lattice


# ---------------------------------------------------------------------------
# design cache
# ---------------------------------------------------------------------------


def assert_same_design(a, b):
    assert a.index_set.scheme == b.index_set.scheme
    assert np.array_equal(a.index_set.offsets, b.index_set.offsets)
    assert np.array_equal(a.index_set.counts, b.index_set.counts)
    assert np.array_equal(a.order, b.order)  # None, or equal permutations
    assert len(a.grids) == len(b.grids)
    for x, y in zip(a.grids, b.grids):
        assert np.array_equal(x.base, y.base)
        assert (x.lo, x.step, x.shape) == (y.lo, y.step, y.shape)
        assert np.array_equal(x.index, y.index)  # None, or equal positions


@pytest.mark.parametrize(
    "sub_template, s_lam, scheme",
    [
        (None, 3.0, "ol"),
        (None, 2.5, "ol"),
        (None, 3.0, "nol"),
        (None, 2.5, "nol"),
        (Template.circle(0.5), 4.0, "ol"),
        (Template.circle(0.5), 3.0, "nol"),
    ],
)
def test_cached_design_matches_fresh_build(sub_template, s_lam, scheme):
    region, sample = make_sample((13, 15), shift=(0.25, 0.0))
    spec = SubsampleSpec(sub_template or region.template, s_lam, scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        first = design_plan(sample.window, region, spec)
        hit = design_plan(sample.window, region, spec)
        fresh = _build_design(sample.window, region, spec)
    assert hit is first
    assert_same_design(hit, fresh)


def test_cached_design_arrays_are_read_only():
    region, sample = make_sample((10, 10))
    plan = design_plan(sample.window, region, SubsampleSpec(Template.hypercube(2), 3.0, "ol"))
    with pytest.raises(ValueError):
        plan.grids[0].base[0, 0] = 0
    with pytest.raises(ValueError):
        plan.index_set.counts[0] = 0
    with pytest.raises(ValueError):
        plan.index_set.offsets[0, 0] = 0
    with pytest.warns(NonIntegerScaleWarning):
        ragged = design_plan(
            sample.window, region, SubsampleSpec(Template.hypercube(2), 2.5, "nol")
        )
    index_set = ragged.index_set
    for arr in (index_set.patterns[0], index_set.anchors, index_set.pattern, ragged.order):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_cache_hit_repeats_non_integer_scale_warning():
    region, sample = make_sample((12, 12), seed=2)
    spec = SubsampleSpec(Template.hypercube(2), 2.5, "nol")
    _cached_design.cache_clear()
    for _ in range(2):  # a miss, then a hit: each warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nol_estimate(sample, region, spec, mean_statistic())
        assert [w.category for w in caught] == [NonIntegerScaleWarning]


def test_non_integer_scale_warning_names_the_caller():
    # the first frame outside the package, on a fresh build, a cache hit and
    # a direct enumeration alike
    region, sample = make_sample((12, 12), seed=2)
    spec = SubsampleSpec(Template.hypercube(2), 2.5, "nol")
    _cached_design.cache_clear()
    calls = [lambda: nol_estimate(sample, region, spec, mean_statistic())] * 2
    calls.append(lambda: enumerate_nol(region, spec))
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [(NonIntegerScaleWarning, __file__)]


def test_design_cache_keys_on_window_sites():
    region, sample = make_sample((8, 8), seed=4)
    _, big = make_sample((12, 12), seed=5)  # observed beyond the 8x8 region
    spec = SubsampleSpec(Template.hypercube(2), 3.0, "ol")
    stat = mean_statistic()
    ol_estimate(sample, region, spec, stat)  # caches the design on the region's window
    on_big = ol_estimate(big, region, spec, stat)
    image = field_image(big.window.table, big.values[None])
    _, _, fresh = estimate_image(_build_design(big.window, region, spec), image, stat)
    assert on_big.tau_hat_sq == fresh[0]
    assert not np.array_equal(
        design_rows(design_plan(big.window, region, spec), big.window),
        design_rows(design_plan(sample.window, region, spec), sample.window),
    )
    # a window equal in content, such as one read from a file, shares the design
    sites = sample.window.sites.copy()
    copy = LatticeWindow(sites)
    assert design_plan(copy, region, spec) is design_plan(sample.window, region, spec)


def test_an_equal_window_that_builds_the_design_first_shares_it():
    # windows equal in sites share one box, so whichever builds the cached
    # design first, the other one's fields fit it
    region, sample = make_sample((6, 6), seed=6)
    copy = FieldSample(LatticeWindow(sample.window.sites.copy()), sample.values)
    assert copy.window == sample.window
    spec = SubsampleSpec(region.template, 2.0, "ol")
    _cached_design.cache_clear()
    first = ol_estimate(copy, region, spec, mean_statistic())
    again = ol_estimate(sample, region, spec, mean_statistic())
    assert (again.n_subsamples, again.tau_hat_sq) == (25, first.tau_hat_sq)


# ---------------------------------------------------------------------------
# the estimator core on a replicate axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme, s_lam, stat",
    [
        ("ol", 3.0, mean_statistic()),
        ("nol", 3.0, mean_statistic()),
        ("nol", 2.5, mean_statistic()),  # ragged design
        ("ol", 4.0, moment_variance()),
    ],
)
def test_core_replicate_axis_matches_per_sample_estimates(scheme, s_lam, stat):
    region = Region(Template.hypercube(2), (10, 12))
    window = lattice_sites(region)
    spec = SubsampleSpec(Template.hypercube(2), s_lam, scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = design_plan(window, region, spec)
    x = np.random.default_rng(5).standard_normal((6, window.n_sites))
    values = x[..., None] if stat.p == 1 else np.stack([x, x * x], axis=-1)  # (R, N, p)
    gather = gather_estimate if len(plan.index_set.patterns) == 1 else gather_ragged
    theta, theta_tilde, tau = gather(plan, window, values, stat)
    assert theta.shape == (6, plan.index_set.n_subsamples)
    assert tau.shape == theta_tilde.shape == (6,)
    for r in range(6):
        image = field_image(window.table, values[r][None])
        one_theta, one_tilde, one_tau = (a[0] for a in estimate_image(plan, image, stat))
        assert tau[r] == pytest.approx(one_tau, rel=1e-12)
        assert theta_tilde[r] == pytest.approx(one_tilde, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(theta[r], one_theta, rtol=1e-12, atol=1e-15)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
    a=st.floats(-1e3, 1e3),
    scheme=st.sampled_from(["ol", "nol"]),
)
def test_mean_estimate_is_affine_equivariant(seed, c, a, scheme):
    region, sample = make_sample((8, 9), seed=seed)
    spec = SubsampleSpec(Template.hypercube(2), 3.0, scheme)
    moved = FieldSample(sample.window, c * sample.values + a)
    estimator = ol_estimate if scheme == "ol" else nol_estimate
    tau = estimator(sample, region, spec, mean_statistic()).tau_hat_sq
    assert estimator(moved, region, spec, mean_statistic()).tau_hat_sq == pytest.approx(
        c * c * tau, rel=1e-9
    )


def live_bytes_from_tobytes(snapshot) -> int:
    """Bytes still held by allocations made on a source line calling ``tobytes``."""
    total = 0
    for trace in snapshot.traces:
        frame = trace.traceback[0]
        if ".tobytes()" in linecache.getline(frame.filename, frame.lineno):
            total += trace.size
    return total


def test_designs_on_one_window_share_one_copy_of_its_sites():
    region = Region(Template.hypercube(2), (23, 29))  # a window no other test caches
    window = lattice_sites(region)
    specs = [SubsampleSpec(region.template, float(s), "ol") for s in range(2, 8)]
    tracemalloc.start()
    try:
        plans = [design_plan(window, region, spec) for spec in specs]
        held = live_bytes_from_tobytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert len({id(plan) for plan in plans}) == len(specs)
    assert window.sites.nbytes <= held < 2 * window.sites.nbytes


@settings(max_examples=60)
@given(
    spec=st.sampled_from(["hypercube:d=2", "circle:r=0.5", "hex:l=0.5", "righttri"]),
    sub=st.sampled_from([None, "hypercube:d=2", "circle:r=0.5"]),
    scheme=st.sampled_from(["ol", "nol"]),
    data=st.data(),
)
def test_cached_design_equals_fresh_build(spec, sub, scheme, data):
    template = parse_template(spec)
    scale = tuple(data.draw(st.lists(st.floats(4.0, 14.0), min_size=2, max_size=2)))
    shift = tuple(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2)))
    half = min(scale) / 2
    s_lam = data.draw(st.integers(1, int(half)).map(float) | st.floats(0.5, half))
    region = Region(template, scale, shift)
    window = lattice_sites(region)
    sub_spec = SubsampleSpec(parse_template(sub) if sub else template, s_lam, scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        try:
            fresh = _build_design(window, region, sub_spec)
        except LatblockError as exc:
            with pytest.raises(type(exc)):
                design_plan(window, region, sub_spec)
            return
        cached = design_plan(window, region, sub_spec)
        again = design_plan(window, region, sub_spec)
    assert again is cached
    assert_same_design(cached, fresh)


# ---------------------------------------------------------------------------
# the core on one field against the replicate-batched image core
# ---------------------------------------------------------------------------


SHARED_COUNT_CASES = [
    ("hypercube:d=2", None, 2.0, "ol"),
    ("hypercube:d=2", None, 3.0, "ol"),
    ("hypercube:d=2", None, 2.5, "ol"),
    ("hypercube:d=2", None, 3.7, "ol"),
    ("hypercube:d=2", None, 2.0, "nol"),
    ("hypercube:d=2", None, 4.0, "nol"),
    ("hypercube:d=2", "circle:r=0.5", 4.0, "ol"),
    ("hypercube:d=2", "circle:r=0.5", 3.0, "nol"),
    ("circle:r=0.5", None, 5.0, "ol"),
    ("circle:r=0.5", None, 4.5, "ol"),
    ("circle:r=0.5", None, 3.0, "nol"),
    ("circle:r=0.5", "circle:r=0.5", 4.0, "nol"),
    ("circle:r=0.5", "hypercube:d=2", 3.0, "ol"),
]


@pytest.mark.parametrize("region_spec, sub_spec, s_lam, scheme", SHARED_COUNT_CASES)
def test_core_equals_one_replicate_image_bit_for_bit(region_spec, sub_spec, s_lam, scheme):
    region = Region(parse_template(region_spec), (18, 21), (0.25, 0.0))
    window = lattice_sites(region)
    spec = SubsampleSpec(parse_template(sub_spec or region_spec), s_lam, scheme)
    plan = design_plan(window, region, spec)
    assert len(plan.grids) == 1
    table = window.table
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((window.n_sites, 1)) * 10.0**seed
        # the mean's one column and momvar's pair (x, x^2)
        for stat, values in [(mean_statistic(), x), (moment_variance(), np.hstack([x, x * x]))]:
            tau = gather_estimate(plan, window, values, stat)[2]
            assert estimate_image(plan, field_image(table, values[None]), stat)[2][0] == tau


def sample_window(region, kind):
    """The region's own window, that window 3 sites short or less its first
    row, or a box around it."""
    window = lattice_sites(region)
    if kind == "short":
        sites = np.delete(window.sites, [0, window.n_sites // 2, window.n_sites - 1], axis=0)
    elif kind == "cropped":
        sites = window.sites[window.sites[:, 0] > window.lo[0]]
    elif kind == "larger":
        box = Region(Template.hypercube(region.d), np.add(region.scale, 6.0), region.shift)
        return lattice_sites(box)
    else:
        return window
    return LatticeWindow(sites)


@pytest.mark.parametrize("kind", ["equal", "short", "cropped", "larger"])
@pytest.mark.parametrize(
    "region_spec, sub_spec, s_lam, scheme, scale, shift",
    [
        *[(*case, (18, 21), (0.25, 0.0)) for case in SHARED_COUNT_CASES],
        ("hypercube:d=2", None, 18.0, "ol", (18, 21), None),  # one subsample across
        ("hypercube:d=2", None, 11.0, "nol", (18, 21), None),  # one subsample
        # closed disk copies that leave the region's window at even scales
        ("hypercube:d=2", "circle:r=0.5", 2.0, "nol", (30, 42), None),
        ("circle:r=0.5", "circle:r=0.5", 4.0, "nol", (30, 42), None),
    ],
)
def test_one_shot_estimate_equals_the_gather_on_any_sample_window(
    region_spec, sub_spec, s_lam, scheme, scale, shift, kind
):
    region = Region(parse_template(region_spec), scale, shift)
    spec = SubsampleSpec(parse_template(sub_spec or region_spec), s_lam, scheme)
    window = sample_window(region, kind)
    # the design's anchors and base do not depend on the window it is built on
    around = lattice_sites(Region(Template.hypercube(2), (60, 60), region.shift))
    plan = design_plan(around, region, spec)
    x = np.random.default_rng(7).standard_normal((window.n_sites, 1)) * 1e3 + 5.0
    for stat, values in [
        (mean_statistic(), x),
        (moment_variance(), np.hstack([x, x * x])),
        (ratio_of_means(), np.hstack([x, x * x + 1.0])),
    ]:
        sample = FieldSample(window, values)
        try:
            theta, theta_tilde, tau = gather_estimate(plan, window, values, stat)
        except (MissingSites, DegenerateSubsampling) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                estimate(sample, region, spec, stat)
            continue
        got = estimate(sample, region, spec, stat)
        assert np.array_equal(got.theta_hats, theta)
        assert got.theta_tilde == theta_tilde and got.tau_hat_sq == tau
        assert np.array_equal(got.subsample_sites, plan.index_set.counts)


def test_a_large_overlapping_design_stores_no_rows():
    region = Region(Template.hypercube(2), (120, 120))
    window = lattice_sites(region)
    tracemalloc.start()
    try:
        plan = _build_design(window, region, SubsampleSpec(region.template, 29.0, "ol"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.index_set.n_subsamples == 92 * 92
    assert peak < 4 << 20  # its (M, sN) int64 rows would take 57 MB


def test_lean_core_keeps_the_reference_checks():
    region = Region(Template.hypercube(2), (6, 6))
    window = lattice_sites(region)
    stat = mean_statistic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = design_plan(window, region, SubsampleSpec(region.template, 2.5, "nol"))
        single = design_plan(window, region, SubsampleSpec(region.template, 3.5, "nol"))
    table = window.table
    values = np.ones((1, window.n_sites, 1))
    with pytest.raises(DimensionMismatch):
        estimate_image(plan, field_image(table, np.ones((1, window.n_sites, 2))), stat)
    values[0, design_rows(plan, window)[0][0], 0] = np.inf
    with pytest.raises(StatisticDomainError):
        estimate_image(plan, field_image(table, values), stat)
    assert single.index_set.n_subsamples == 1
    with pytest.raises(DegenerateSubsampling):
        estimate_image(single, field_image(table, np.ones((1, window.n_sites, 1))), stat)


@pytest.mark.parametrize("s_lam", [1.0, 1.3, 0.7])
def test_nol_design_with_an_empty_template_copy_raises_empty_window(s_lam):
    # in a box shifted by half a site, a radius-s/2 disk can miss every site
    region = Region(Template.hypercube(2), (12, 12), (0.5, 0.5))
    window = lattice_sites(region)
    spec = SubsampleSpec(Template.circle(0.5), s_lam, "nol")
    x = np.random.default_rng(0).standard_normal(window.n_sites)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        with pytest.raises(EmptyWindow, match="offset" if s_lam != 1.0 else "no lattice"):
            design_plan(window, region, spec)
        with pytest.raises(EmptyWindow):
            nol_estimate(FieldSample(window, x), region, spec, mean_statistic())


def test_a_ragged_build_tests_the_sub_template_once_for_all_copies(monkeypatch):
    region = Region(Template.hypercube(2), (120, 120))
    sub = Template.hypercube(2)  # its own geometry object, apart from the region's
    calls, contains_scaled = [], sub.geom.contains_scaled
    monkeypatch.setattr(
        sub.geom, "contains_scaled", lambda *args: calls.append(args) or contains_scaled(*args)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = _build_design(lattice_sites(region), region, SubsampleSpec(sub, 2.5, "nol"))
    assert plan.index_set.n_subsamples == 2209
    assert len(calls) == 1


def test_a_ragged_build_is_one_strided_grid_per_site_pattern(monkeypatch):
    # s = 2.5 puts the copies' corners at floor(2.5 i): four patterns, by the
    # parity of i, each on a step-5 grid
    region = Region(Template.hypercube(2), (120, 120))
    grids, lookups, anchor_grid = [], [], latblock.estimators._anchor_grid

    def counted(*args):
        grids.append(anchor_grid(*args))
        return grids[-1]

    monkeypatch.setattr(latblock.estimators, "_anchor_grid", counted)
    monkeypatch.setattr(LatticeWindow, "lookup", lambda *args: lookups.append(args))
    spec = SubsampleSpec(region.template, 2.5, "nol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = _build_design(lattice_sites(region), region, spec)
    assert [grid.step for grid in plan.grids] == [5, 5, 5, 5]
    assert len(grids) == 4 and lookups == []


def test_a_ragged_sphere_design_has_one_pattern_per_copy_shape():
    region = Region(parse_template("sphere:r=0.5"), (24, 24, 24))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        index_set = enumerate_nol(region, SubsampleSpec(region.template, 2.37, "nol"))
    assert index_set.n_subsamples == 437 and len(index_set.patterns) == 103
    shapes = {(sites - sites.min(axis=0)).tobytes() for sites in copy_sites(index_set)}
    assert len(shapes) == 103


@pytest.mark.parametrize("sub", [None, "hypercube:d=2"])
def test_disk_grids_read_steps_1_and_s_from_their_anchors(sub):
    region = Region(parse_template("circle:r=0.5"), (40, 40))
    window = lattice_sites(region)
    for s_lam in range(3, 9):
        for scheme, step in (("ol", 1), ("nol", s_lam)):
            spec = SubsampleSpec(parse_template(sub) if sub else region.template, s_lam, scheme)
            (grid,) = design_plan(window, region, spec).grids
            assert grid.step == step


@pytest.mark.parametrize("before_empty, error", [(True, MissingSites), (False, EmptyWindow)])
def test_the_first_failing_nol_copy_decides_the_error(before_empty, error):
    region = Region(Template.hypercube(2), (12, 12), (0.5, 0.5))
    window = lattice_sites(region)
    spec = SubsampleSpec(Template.circle(0.5), 1.3, "nol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        copies = copy_sites(enumerate_nol(region, spec))
        empty = next(m for m, sites in enumerate(copies) if len(sites) == 0)
        # a copy before or after the first empty one loses a site
        cut_copy = copies[empty - 1] if before_empty else copies[-1]
        rows = window.lookup(cut_copy[:1])
        sites = np.delete(window.sites, rows, axis=0)
        cut = LatticeWindow(sites)
        with pytest.raises(error):
            _build_design(cut, region, spec)


def test_windows_compare_and_hash_by_their_sites():
    window = lattice_sites(Region(Template.hypercube(2), (5, 7)))
    sites = window.sites.copy()
    same = LatticeWindow(sites)
    other = lattice_sites(Region(Template.hypercube(2), (5, 8)))
    assert same == window and hash(same) == hash(window)
    assert other != window
    assert len({window, same, other}) == 2


# ---------------------------------------------------------------------------
# shared-count designs: the scale-s template's sites moved to anchors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s_lam", range(1, 9))
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize(
    "spec, scale",
    [
        ("hypercube:d=2", (21, 26)),
        ("circle:r=0.5", (30, 30)),
        ("righttri", (36, 36)),
        ("sphere:r=0.5", (20, 20, 20)),
    ],
)
def test_integer_nol_rows_are_the_stacked_cube_windows(spec, scale, shifted, s_lam):
    template = parse_template(spec)
    shift = (0.25, -0.5, 0.1)[: template.d] if shifted else None
    region = Region(template, scale, shift)
    window = lattice_sites(region)
    nol = SubsampleSpec(template, float(s_lam), "nol")
    try:
        offsets = enumerate_nol(region, nol).offsets
    except EmptyWindow:  # a scale-1 copy can miss every shifted site
        with pytest.raises(EmptyWindow):
            _build_design(window, region, nol)
        return
    cubes = nol_subregion_windows(region, nol, offsets)
    rows = window.lookup(np.stack([w.sites for w in cubes]))
    if np.any(rows < 0):  # a closed disk or ball copy can leave the window
        with pytest.raises(MissingSites, match="disjoint"):
            _build_design(window, region, nol)
        return
    plan = _build_design(window, region, nol)
    assert np.array_equal(plan.index_set.offsets, offsets)
    assert np.array_equal(design_rows(plan, window), rows)
    assert len(plan.grids) == 1 and plan.order is None


@pytest.mark.parametrize("scheme", ["ol", "nol"])
@pytest.mark.parametrize("s_lam", [1, 2, 3, 5])
@pytest.mark.parametrize("sub", ["hypercube:d=2", "circle:r=0.5", "isotri"])
def test_shared_count_grid_is_the_scaled_template_at_its_anchors(sub, s_lam, scheme):
    region = Region(Template.circle(0.5), (24, 24), (0.25, 0.0))
    window = lattice_sites(region)
    spec = SubsampleSpec(parse_template(sub), float(s_lam), scheme)
    plan = _build_design(window, region, spec)
    (grid,) = plan.grids
    base = lattice_sites(Region(spec.template, (float(s_lam),) * 2, region.shift)).sites
    assert np.array_equal(grid.base, base)
    assert grid.step == (1 if scheme == "ol" else s_lam)
    cells = np.arange(math.prod(grid.shape)) if grid.index is None else grid.index
    anchors = window.lo + grid.lo + grid.step * np.stack(np.unravel_index(cells, grid.shape), -1)
    assert np.array_equal(anchors, grid.step * plan.index_set.offsets)
    sites = window.sites[design_rows(plan, window)]
    assert np.array_equal(sites, anchors[:, None] + base)


@pytest.mark.parametrize(
    "s_lam, scheme, what",
    [(2.0, "ol", "overlapping"), (2.0, "nol", "disjoint"), (2.5, "nol", "disjoint")],
)
def test_missing_sites_names_the_scheme(s_lam, scheme, what):
    region = Region(Template.hypercube(2), (9, 11))
    window = lattice_sites(region)
    spec = SubsampleSpec(region.template, s_lam, scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        plan = _build_design(window, region, spec)
        first = design_rows(plan, window)[0]
        sites = np.delete(window.sites, first[0], axis=0)  # one subsample site less
        cut = LatticeWindow(sites)
        with pytest.raises(
            MissingSites, match=f"^sample does not cover every {what} subsample site$"
        ):
            _build_design(cut, region, spec)
