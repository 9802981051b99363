"""Statistics and the OL/NOL variance estimators, including the naive oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ratio_of_means,
)
from latblock.errors import (
    DegenerateSubsampling,
    MissingSites,
    NonIntegerScaleWarning,
    StatisticDomainError,
)
from latblock.estimators import (
    _build_design,
    _cached_design,
    build_plan,
    design_plan,
    estimate_from_plan,
    estimate_values,
)
from latblock.geometry import LatticeWindow, lattice_sites


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


# ---------------------------------------------------------------------------
# naive reference implementation (independent of the production path)
# ---------------------------------------------------------------------------


def interval_sites(center, width):
    """Integers in the half-open interval (center - width/2, center + width/2]."""
    lo = math.ceil(center - width / 2)
    hi = math.floor(center + width / 2)
    if lo == center - width / 2:
        lo += 1
    return list(range(lo, hi + 1))


def naive_ol(sample, mlam, nlam, s_lam, stat):
    """Direct transcription of the overlapping design for hypercube windows.

    A translate belongs to the design when every one of its sites is an
    observed site of the region window.
    """
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    count = None
    n_off = 0
    for i1 in range(-2 * mlam, 2 * mlam + 1):
        for i2 in range(-2 * nlam, 2 * nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(i1, s_lam)
                for z2 in interval_sites(i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            n_off += 1
            rows = [pos[z] for z in sites]
            count = len(rows)
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if n_off == 0:
        return None, 0
    thetas = np.array(thetas)
    tilde = np.mean(thetas)
    return np.mean(count * (thetas - tilde) ** 2), n_off


def naive_nol(sample, mlam, nlam, s_lam, stat):
    """Disjoint cubes anchored at multiples of the scale, site-tested."""
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    counts = []
    for i1 in range(-mlam, mlam + 1):
        for i2 in range(-nlam, nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(s_lam * i1, s_lam)
                for z2 in interval_sites(s_lam * i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            rows = [pos[z] for z in sites]
            counts.append(len(rows))
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if not thetas:
        return None, 0
    thetas = np.array(thetas)
    counts = np.array(counts)
    tilde = np.mean(thetas)
    return np.mean(counts * (thetas - tilde) ** 2), len(thetas)


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
        type(sample.window)(
            sites=shuffled_sites[order],
            lo=sample.window.lo,
            hi=sample.window.hi,
        ),
        sample.values[perm][order],
    )
    got = ol_estimate(rebuilt, region, spec, mean_statistic()).tau_hat_sq
    assert got == base


def test_nol_equals_ol_on_cube_offsets():
    region, sample = make_sample((12, 12), seed=21)
    s_lam = 3
    ol_spec = SubsampleSpec(Template.hypercube(2), float(s_lam), "ol")
    nol_spec = SubsampleSpec(Template.hypercube(2), float(s_lam), "nol")
    ol_res = ol_estimate(sample, region, ol_spec, mean_statistic(), keep_theta=True)
    nol_res = nol_estimate(sample, region, nol_spec, mean_statistic(), keep_theta=True)
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
    assert a.scheme == b.scheme
    assert np.array_equal(a.index_set.offsets, b.index_set.offsets)
    assert np.array_equal(a.counts, b.counts)
    if b.row_matrix is None:
        assert a.row_matrix is None
        assert len(a.row_lists) == len(b.row_lists)
        assert all(np.array_equal(x, y) for x, y in zip(a.row_lists, b.row_lists))
    else:
        assert np.array_equal(a.row_matrix, b.row_matrix)


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
        first = build_plan(sample, region, spec)
        hit = build_plan(sample, region, spec)
        fresh = _build_design(sample.window, region, spec)
    assert hit is first
    assert_same_design(hit, fresh)


def test_cached_design_arrays_are_read_only():
    region, sample = make_sample((10, 10))
    plan = build_plan(sample, region, SubsampleSpec(Template.hypercube(2), 3.0, "ol"))
    with pytest.raises(ValueError):
        plan.row_matrix[0, 0] = 0
    with pytest.raises(ValueError):
        plan.counts[0] = 0
    with pytest.raises(ValueError):
        plan.index_set.offsets[0, 0] = 0
    with pytest.warns(NonIntegerScaleWarning):
        ragged = build_plan(sample, region, SubsampleSpec(Template.hypercube(2), 2.5, "nol"))
    with pytest.raises(ValueError):
        ragged.row_lists[0][0] = 0


def test_cache_hit_repeats_non_integer_scale_warning():
    region, sample = make_sample((12, 12), seed=2)
    spec = SubsampleSpec(Template.hypercube(2), 2.5, "nol")
    _cached_design.cache_clear()
    for _ in range(2):  # a miss, then a hit: each warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nol_estimate(sample, region, spec, mean_statistic())
        assert [w.category for w in caught] == [NonIntegerScaleWarning]


def test_design_cache_keys_on_window_sites():
    region, sample = make_sample((8, 8), seed=4)
    _, big = make_sample((12, 12), seed=5)  # observed beyond the 8x8 region
    spec = SubsampleSpec(Template.hypercube(2), 3.0, "ol")
    stat = mean_statistic()
    ol_estimate(sample, region, spec, stat)  # caches the design on the region's window
    on_big = ol_estimate(big, region, spec, stat)
    fresh = estimate_from_plan(_build_design(big.window, region, spec), big, stat)
    assert on_big.tau_hat_sq == fresh.tau_hat_sq
    assert not np.array_equal(
        build_plan(big, region, spec).row_matrix, build_plan(sample, region, spec).row_matrix
    )
    # a window equal in content, such as one read from a file, shares the design
    sites = sample.window.sites.copy()
    copy = FieldSample(LatticeWindow(sites, sites.min(axis=0), sites.max(axis=0)), sample.values)
    assert build_plan(copy, region, spec) is build_plan(sample, region, spec)


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
    theta, theta_tilde, tau = estimate_values(plan, values, stat)
    assert theta.shape == (6, plan.index_set.n_subsamples)
    assert tau.shape == theta_tilde.shape == (6,)
    for r in range(6):
        one = estimate_from_plan(plan, FieldSample(window, values[r]), stat, keep_theta=True)
        assert tau[r] == pytest.approx(one.tau_hat_sq, rel=1e-12)
        assert theta_tilde[r] == pytest.approx(one.theta_tilde, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(theta[r], one.theta_hats, rtol=1e-12, atol=1e-15)


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
