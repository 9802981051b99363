"""Covariogram models, lattice sums and the exact finite-window variance."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len

import latblock.covariance
from latblock import Covariogram, Region, Template, b0, exact_tau_n_sq, sigma, tau_sq
from latblock.covariance import (
    _shell_points,
    exact_tau_n_sq_window,
    lag_counts,
    lag_sigma,
    parse_covariogram,
)
from latblock.errors import ConfigError, DimensionMismatch
from latblock.geometry import LatticeWindow, box_points, lattice_sites, parse_template

E = math.exp(-1.0)


def geom_axis_sum(beta):
    # sum over Z of exp(-beta |k|)
    q = math.exp(-beta)
    return (1 + q) / (1 - q)


def test_sigma_values():
    cov = Covariogram.exp_separable(1.0, 1.0)
    assert sigma(cov, (1, 0)) == pytest.approx(E, rel=1e-15)
    assert sigma(cov, (0, 0)) == 1.0
    iso = Covariogram.gauss_isotropic(0.2)
    assert sigma(iso, (1, 1)) == pytest.approx(math.exp(-0.4), rel=1e-15)
    assert sigma(Covariogram.white(2), (0, 0)) == 1.0
    assert sigma(Covariogram.white(2), (2, 1)) == 0.0


def test_sigma_dimension_check():
    cov = Covariogram.exp_separable(1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        sigma(cov, (1, 2, 3))


def test_tau_sq_white():
    assert tau_sq(Covariogram.white(2)) == 1.0


def test_tau_sq_exp_separable_closed_form():
    cov = Covariogram.exp_separable(1.0, 1.0)
    assert tau_sq(cov) == pytest.approx(geom_axis_sum(1.0) ** 2, rel=1e-8)
    cov2 = Covariogram.exp_separable(0.5, 0.3)
    expected = geom_axis_sum(0.5) * geom_axis_sum(0.3)
    assert expected == pytest.approx(27.42376494, abs=1e-7)
    assert tau_sq(cov2) == pytest.approx(expected, rel=1e-8)


def test_tau_sq_gauss_isotropic_matches_separable():
    iso = Covariogram.gauss_isotropic(0.7, d=2)
    sep = Covariogram.gauss_separable(0.7, 0.7)
    assert tau_sq(iso) == pytest.approx(tau_sq(sep), rel=1e-12)


@pytest.mark.parametrize("maker", [Covariogram.exp_separable, Covariogram.gauss_separable])
def test_tau_sq_decreases_in_beta(maker):
    grid = [0.3, 0.5, 1.0, 2.0]
    vals = [tau_sq(maker(b, 0.4)) for b in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals2 = [tau_sq(maker(0.4, b)) for b in grid]
    assert all(a > b for a, b in zip(vals2, vals2[1:]))


def test_tau_sq_non_convergent_cap():
    from latblock.errors import NonConvergent

    # essentially flat covariogram: the shell rule cannot meet tolerance
    with pytest.raises(NonConvergent):
        tau_sq(Covariogram.exp_separable(1e-9, 1e-9))


def test_tabulated_symmetry_enforced():
    with pytest.raises(ConfigError):
        Covariogram.tabulated(2, {(0, 0): 1.0, (1, 0): 0.5})
    cov = Covariogram.tabulated(2, {(0, 0): 1.0, (1, 0): 0.5, (-1, 0): 0.5})
    assert sigma(cov, (1, 0)) == 0.5
    assert sigma(cov, (5, 5)) == 0.0
    assert tau_sq(cov) == 2.0


def test_tabulated_lookup_is_the_table_and_holds_one_key_per_entry():
    table = {(0, 0): 1.0, (1000, 1000): 0.25, (-1000, -1000): 0.25}
    cov = Covariogram.tabulated(2, table)
    lags = np.array([[0, 0], [1000, 1000], [-1000, -1000], [1, 1], [1000, -1000], [2000, 0]])
    tracemalloc.start()
    try:
        got = cov.sigma_many(lags)  # the first call builds the lookup
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a table over the lags' 2001 x 2001 box would take 32 MB
    assert got.tolist() == [table.get(tuple(k), 0.0) for k in lags.tolist()]
    rng = np.random.default_rng(4)
    half = {tuple(k): float(v) for k, v in zip(rng.integers(-6, 7, (40, 3)).tolist(), rng.random(40))}
    dense = {**half, **{tuple(-x for x in k): v for k, v in half.items()}, (0, 0, 0): 2.0}
    lags = rng.integers(-9, 10, (500, 3))
    expected = [dense.get(tuple(k), 0.0) for k in lags.tolist()]
    assert Covariogram.tabulated(3, dense).sigma_many(lags).tolist() == expected
    far = 2**31  # a 2^32 + 1 wide box per axis: its flat keys overflow 64 bits
    with pytest.raises(ConfigError, match="64-bit"):
        Covariogram.tabulated(2, {(0, 0): 1.0, (far, far): 0.1, (-far, -far): 0.1})


def test_exact_tau_white_any_region():
    for region in [
        Region(Template.hypercube(2), (7, 9)),
        Region(Template.circle(0.5), (10, 10)),
    ]:
        assert exact_tau_n_sq(region, Covariogram.white(2)) == pytest.approx(1.0, rel=1e-14)


def test_exact_tau_2x2_hand_sum():
    region = Region(Template.hypercube(2), (2, 2), (0.5, 0.5))
    val = exact_tau_n_sq(region, Covariogram.exp_separable(1.0, 1.0))
    assert val == pytest.approx((1 + E) ** 2, rel=1e-12)
    assert val == pytest.approx(1 + 2 * E + E * E, rel=1e-12)


@pytest.mark.parametrize(
    "cov",
    [
        Covariogram.exp_separable(1.0, 1.0),
        Covariogram.exp_separable(0.5, 0.3),
        Covariogram.gauss_separable(0.5, 0.3),
        Covariogram.gauss_isotropic(0.2),
        Covariogram.white(2),
    ],
)
@pytest.mark.parametrize("shape", [(3, 3), (7, 5), (12, 12)])
def test_lag_and_pair_paths_agree(cov, shape):
    region = Region(Template.hypercube(2), shape)
    a = exact_tau_n_sq(region, cov, method="lags")
    b = exact_tau_n_sq(region, cov, method="pairs")
    assert a == pytest.approx(b, rel=1e-12)


def test_exact_tau_converges_to_tau_sq():
    cov = Covariogram.exp_separable(1.0, 1.0)
    target = tau_sq(cov)
    vals = [
        exact_tau_n_sq(Region(Template.hypercube(2), (lam, lam)), cov)
        for lam in (8, 16, 32, 64)
    ]
    errs = [abs(v - target) for v in vals]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.15


def test_exact_tau_nonrectangular_window():
    cov = Covariogram.exp_separable(1.0, 1.0)
    region = Region(Template.circle(0.5), (9, 9))
    w = lattice_sites(region)
    a = exact_tau_n_sq_window(w, cov, method="lags")
    b = exact_tau_n_sq_window(w, cov, method="pairs")
    assert a == pytest.approx(b, rel=1e-12)


def test_parse_covariogram():
    cov = parse_covariogram("expsep:b1=1,b2=1")
    assert cov.kind == "exp-separable" and cov.betas == (1.0, 1.0)
    assert parse_covariogram("white", d=2).kind == "white-noise"
    assert parse_covariogram("gaussiso:b=2", d=2).betas == (2.0,)
    with pytest.raises(ConfigError):
        parse_covariogram("expsep:b1=1,bogus=2")
    with pytest.raises(ConfigError):
        parse_covariogram("splines:k=3")


def test_parse_covariogram_table(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("k1,k2,sigma\n0,0,1.0\n1,0,0.25\n-1,0,0.25\n")
    cov = parse_covariogram(f"table:@{p}")
    assert sigma(cov, (1, 0)) == 0.25
    assert tau_sq(cov) == 1.5


@pytest.mark.parametrize(
    "spec, key",
    [("expsep:b1=1,b1=2,b2=1", "b1"), ("gausssep:b1=1,b2=1,b2=3", "b2"), ("gaussiso:b=1,b=2", "b")],
)
def test_a_repeated_covariogram_parameter_is_refused(spec, key):
    with pytest.raises(ConfigError, match=f"^covariogram parameter '{key}' is given twice$"):
        parse_covariogram(spec)


def test_white_noise_refuses_any_parameter():
    with pytest.raises(ConfigError, match="^white takes no parameters, got 'b=1'$"):
        parse_covariogram("white:b=1")
    assert parse_covariogram("white").kind == "white-noise"


def test_a_repeated_table_lag_is_refused_naming_both_lines(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("k1,k2,sigma\n0,0,1.0\n1,0,0.5\n-1,0,0.3\n1,0,0.3\n")
    with pytest.raises(ConfigError, match=r"cov\.csv line 5: lag \(1, 0\) repeats line 3$"):
        parse_covariogram(f"table:@{p}")


@pytest.mark.parametrize("spec, d", [("expsep:b1=1,b2=1", 3), ("gausssep:b1=1,b2=1,b3=1", 2)])
def test_separable_betas_of_another_dimension_are_refused(spec, d):
    with pytest.raises(ConfigError, match=f"^covariogram '{spec}' is {5 - d}-dimensional"):
        parse_covariogram(spec, d=d)
    assert parse_covariogram(spec).d == 5 - d  # no dimension asked: any is taken


def test_table_lags_of_another_dimension_are_refused(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("k1,k2,sigma\n0,0,1.0\n")
    with pytest.raises(ConfigError, match="is 2-dimensional, expected 3$"):
        parse_covariogram(f"table:@{p}", d=3)
    assert parse_covariogram(f"table:@{p}", d=2).d == 2


def direct_lag_counts(window):
    span = tuple(int(h - l + 1) for l, h in zip(window.lo, window.hi))
    ind = np.zeros(span)
    ind[tuple((window.sites - window.lo).T)] = 1.0
    return scipy.signal.correlate(ind, ind, mode="full", method="direct")


def pair_count_lag_counts(window):
    """Every ordered site pair counted at its lag: the flat lag keys
    f_i - f_j + size // 2 in the (2 span - 1) lag box, binned."""
    box = tuple((2 * window.span - 1).tolist())
    f = np.ravel_multi_index(tuple((window.sites - window.lo).T), box)
    keys = (f[:, None] - f[None, :]).ravel() + math.prod(box) // 2
    return np.bincount(keys, minlength=math.prod(box)).reshape(box)


@pytest.mark.parametrize(
    "spec, scale",
    [
        ("hypercube:d=2", (30, 42)),
        ("circle:r=0.5", (40, 40)),
        ("righttri", (30, 30)),
        ("sphere:r=0.5", (16, 16, 16)),
    ],
)
def test_fft_lag_counts_equal_direct_counts(spec, scale):
    window = lattice_sites(Region(parse_template(spec), scale))
    counts = lag_counts(window)
    assert counts.shape == tuple(2 * (window.hi - window.lo) + 1)
    assert counts.dtype == np.float64
    assert np.array_equal(counts, direct_lag_counts(window))
    assert counts.max() == window.n_sites  # the zero lag


@settings(max_examples=60)
@given(d=st.integers(1, 3), data=st.data())
def test_lag_counts_equal_the_binned_pair_lags_of_any_window(d, data):
    span = data.draw(st.lists(st.integers(1, [40, 12, 6][d - 1]), min_size=d, max_size=d))
    bits = data.draw(st.lists(st.booleans(), min_size=math.prod(span), max_size=math.prod(span)))
    lo = data.draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
    mask = np.array(bits).reshape(span)
    mask.flat[-1] = True  # at least one site
    sites = np.argwhere(mask).astype(np.int64) + lo
    window = LatticeWindow(sites)
    counts = lag_counts(window)
    assert counts.dtype == np.float64
    assert (counts == pair_count_lag_counts(window)).all()


def test_lag_counts_fall_back_to_direct_when_fft_is_not_near_integers(monkeypatch):
    window = lattice_sites(Region(Template.circle(0.5), (9, 9)))
    want = pair_count_lag_counts(window)
    direct_calls = []
    irfftn = np.fft.irfftn
    correlate = scipy.signal.correlate

    def off_by_three_tenths(*args, **kwargs):
        return irfftn(*args, **kwargs) + 0.3

    def counting_correlate(*args, **kwargs):
        direct_calls.append(kwargs.get("method"))
        return correlate(*args, **kwargs)

    monkeypatch.setattr(scipy.signal, "correlate", counting_correlate)
    assert (lag_counts(window) == want).all()
    assert direct_calls == []
    monkeypatch.setattr(np.fft, "irfftn", off_by_three_tenths)
    counts = lag_counts(window)
    assert direct_calls == ["direct"]
    assert (counts == want).all()


# exact_tau_n_sq of each (region, covariogram) pair of perfbench's study
# workloads, pinned bit for bit: every study CSV is written from these values
STUDY_ORACLES = [
    ("hypercube:d=2", (30, 42), "expsep:b1=1,b2=1", 4.4576944665155365),
    ("hypercube:d=2", (30, 42), "gausssep:b1=0.5,b2=0.3", 7.730736227010069),
    ("circle:r=0.5", (40, 40), "gaussiso:b=0.5", 6.038179609380685),
    ("hypercube:d=2", (14, 18), "expsep:b1=1,b2=1", 4.190169583141905),
]


@pytest.mark.parametrize("spec, scale, cov, want", STUDY_ORACLES)
def test_study_oracles_keep_their_bits(spec, scale, cov, want):
    window = lattice_sites(Region(parse_template(spec), scale))
    assert exact_tau_n_sq_window(window, parse_covariogram(cov, d=2)) == want


def shell_points_by_filtering(m, d):
    """The sup-norm shell as the (2m + 1)^d box, filtered."""
    pts = box_points([-m] * d, [m] * d)
    return pts[np.abs(pts).max(axis=-1) == m]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_face_built_shells_equal_the_filtered_box(d):
    for m in range(1, 41):
        got = _shell_points(m, d)
        want = shell_points_by_filtering(m, d)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize(
    "spec",
    ["sphere:r=0.5", "hypercube:d=3", "cylinder:r=0.3,h=0.8", "circle:r=0.5", "righttri"],
)
def test_b0_is_unchanged_by_face_built_shells(monkeypatch, spec):
    template = parse_template(spec)
    d = template.d
    covs = [
        parse_covariogram("expsep:" + ",".join(f"b{i + 1}={0.6 + 0.2 * i}" for i in range(d)), d=d),
        Covariogram.gauss_isotropic(0.3, d=d),
    ]
    fast = [b0(template, cov) for cov in covs]
    monkeypatch.setattr(latblock.covariance, "_shell_points", shell_points_by_filtering)
    assert fast == [b0(template, cov) for cov in covs]


def test_next_fast_len_equals_scipy_real_lengths():
    lengths = range(1, 20001)
    want = [scipy_next_fast_len(n, real=True) for n in lengths]
    assert [latblock.covariance.next_fast_len(n) for n in lengths] == want


@pytest.mark.parametrize(
    "spec, scale",
    [
        ("hypercube:d=1", (9,)),
        ("hypercube:d=2", (30, 42)),
        ("circle:r=0.5", (40, 40)),
        ("righttri", (30, 30)),
        ("sphere:r=0.5", (16, 16, 16)),
        ("hypercube:d=3", (4, 1, 5)),
    ],
)
def test_lag_sigma_has_the_shape_of_lag_counts(spec, scale):
    window = lattice_sites(Region(parse_template(spec), scale))
    cov = Covariogram.exp_separable(*[0.8] * window.d)
    table = lag_sigma(cov, window)
    assert table.shape == lag_counts(window).shape
    assert table.ravel()[table.size // 2] == 1.0  # the zero lag at the center
    assert table[(0,) * window.d] == sigma(cov, 1 - window.span)  # the lowest corner
