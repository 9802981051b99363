"""Gaussian field simulation: exactness, determinism and stream independence."""

import math

import numpy as np
import pytest
from brute_force import pairwise_covariance_matrix, wrapped_circulant_base

from latblock import (
    Covariogram,
    Region,
    Template,
    build_generator,
    sample_field,
    substream,
)
from latblock.errors import NotPositiveDefinite, WindowTooLarge
from latblock.fieldsim import (
    RngStream,
    covariance_matrix,
    lift_for_statistic,
    reconstruction_error,
)
from latblock.geometry import box_points, lattice_sites, parse_template


def window(shape, template=None):
    template = template or Template.hypercube(2)
    return lattice_sites(Region(template, shape))


def test_white_noise_identity_factor():
    w = window((5, 5))
    gen = build_generator(Covariogram.white(2), w, method="cholesky")
    assert np.array_equal(gen.chol, np.eye(w.n_sites))


def test_cholesky_reconstruction_error():
    w = window((14, 18))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w, method="cholesky")
    assert reconstruction_error(gen) < 1e-10


def test_cholesky_on_disk_window():
    w = window((18, 18), Template.circle(0.5))
    gen = build_generator(Covariogram.gauss_separable(0.5, 0.3), w, method="auto")
    # disk windows are not full rectangles, so auto falls back to the factorization
    assert gen.method == "cholesky"
    assert reconstruction_error(gen) < 1e-10


def test_window_cap():
    w = window((14, 18))
    with pytest.raises(WindowTooLarge):
        build_generator(Covariogram.white(2), w, method="cholesky", site_cap=100)


def test_not_positive_definite_detected():
    # an inconsistent tabulated "covariogram" with huge off-diagonal mass
    bad = Covariogram.tabulated(
        2, {(0, 0): 1.0, (1, 0): 0.9, (-1, 0): 0.9, (2, 0): 0.9, (-2, 0): 0.9}
    )
    w = window((5, 1))
    with pytest.raises(NotPositiveDefinite):
        build_generator(bad, w, method="cholesky")


def test_sampling_deterministic_and_replicates_distinct():
    w = window((8, 8))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    a = sample_field(gen, substream(123, 5)).values
    b = sample_field(gen, substream(123, 5)).values
    c = sample_field(gen, substream(123, 6)).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_outputs_distinct_across_indices():
    a = substream(42, 0).normals(64)
    b = substream(42, 1).normals(64)
    assert not np.array_equal(a, b)


def test_stream_pure_function_of_key_and_counter():
    s1 = RngStream(9, 3)
    first = s1.normals(10)
    second = s1.normals(10)
    s2 = RngStream(9, 3)
    assert np.array_equal(s2.normals(10), first)
    assert np.array_equal(s2.normals(10), second)
    assert not np.array_equal(first, second)


def test_stream_cross_correlation_small():
    n = 100_000
    a = substream(7, 0).normals(n)
    b = substream(7, 1).normals(n)
    rho = float(np.mean(a * b))
    assert abs(rho) < 4.0 / math.sqrt(n)


def test_uniforms_strictly_interior():
    u = substream(0, 0).uniforms(10_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


@pytest.mark.parametrize("n", [0, 1, 7, 9512])
def test_uniforms_equal_the_bounded_integer_draw(n):
    for seed, index in [(s, 3 * s + 1) for s in range(10)] + [(2**40 + i, i) for i in range(10)]:
        key = np.array([seed, index], dtype=np.uint64)
        ints = np.random.Generator(np.random.Philox(key=key))
        stream = RngStream(seed, index)
        for _ in range(2):  # a second call continues the same stream
            raw = ints.integers(0, 1 << 63, size=n, dtype=np.uint64) >> np.uint64(10)
            expected = (raw.astype(np.float64) + 0.5) * 2.0**-53
            assert np.array_equal(stream.uniforms(n), expected)


class _RawBits:
    """A bit generator stub that hands out fixed raw 64-bit draws."""

    def __init__(self, raw):
        self.raw = np.asarray(raw, dtype=np.uint64)

    def random_raw(self, n):
        return self.raw[:n].copy()


def test_top_raw_draw_stays_below_one():
    top = (1 << 64) - 1  # its top 53 bits are 2**53 - 1
    edges = [0, 1 << 11, top - (1 << 11), top]
    stream = RngStream(1, 2)
    stream._bits = _RawBits(edges)
    u = stream.uniforms(4)
    assert u[-1] == np.nextafter(1.0, 0.0)
    # only the top draw moves: the others keep the formula's bits
    expected = ((np.array(edges[:3], dtype=np.uint64) >> np.uint64(11)) + 0.5) * 2.0**-53
    assert np.array_equal(u[:3], expected)
    assert np.all(u < 1.0)
    stream._bits = _RawBits([top, top])
    normals = stream.normals(2)
    assert np.all(np.isfinite(normals)) and np.all(normals > 8.0)


def test_serial_equals_parallel_schedule():
    w = window((6, 6))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    serial = [sample_field(gen, substream(5, i)).values for i in range(8)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda i: sample_field(gen, substream(5, i)).values, range(8)))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_marginal_variance_matches_sigma0():
    w = window((4, 4))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    n = 10_000
    site = 7
    draws = np.array([sample_field(gen, substream(2, i)).values[site, 0] for i in range(n)])
    tol = 4.0 * math.sqrt(2.0 / n)
    assert abs(draws.var() - 1.0) < tol


def test_lag_covariance_matches_model():
    w = window((4, 4))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    idx = w.indexer()
    i0 = int(idx.lookup(np.array([[0, 0]]))[0])
    i1 = int(idx.lookup(np.array([[1, 0]]))[0])
    n = 10_000
    pairs = np.array(
        [sample_field(gen, substream(4, i)).values[[i0, i1], 0] for i in range(n)]
    )
    cov_hat = float(np.mean(pairs[:, 0] * pairs[:, 1]))
    se = 2.0 / math.sqrt(n)
    assert abs(cov_hat - math.exp(-1.0)) < 4.0 * se


def test_circulant_used_on_full_rectangles():
    w = window((10, 10))
    gen = build_generator(Covariogram.gauss_separable(0.5, 0.3), w, method="circulant")
    assert gen.method == "circulant"
    assert gen.embed_shape == (18, 18)


def test_circulant_matches_cholesky_in_law():
    w = window((10, 10))
    cov = Covariogram.gauss_separable(0.5, 0.3)
    gen_c = build_generator(cov, w, method="circulant")
    gen_d = build_generator(cov, w, method="cholesky")
    n = 10_000
    idx = w.indexer()
    anchors = idx.lookup(np.array([[0, 0], [1, 0], [0, 1], [1, 1], [-2, 3]]))
    draws_c = np.array(
        [sample_field(gen_c, substream(11, i)).values[anchors, 0] for i in range(n)]
    )
    draws_d = np.array(
        [sample_field(gen_d, substream(12, i)).values[anchors, 0] for i in range(n)]
    )
    # lag-0 variance and a few cross moments agree within Monte Carlo error
    for j in range(len(anchors)):
        se = 4.0 * math.sqrt(2.0 / n)
        assert abs(draws_c[:, j].var() - draws_d[:, j].var()) < 2 * se
    for a, b in [(0, 1), (0, 2), (0, 3), (0, 4)]:
        cc = np.mean(draws_c[:, a] * draws_c[:, b])
        cd = np.mean(draws_d[:, a] * draws_d[:, b])
        assert abs(cc - cd) < 8.0 / math.sqrt(n)


def test_circulant_exact_second_moments():
    # the spectral route must reproduce the model covariance exactly in law:
    # E[X X^T] = FFT-synthesized covariance; check against the dense matrix
    w = window((6, 6))
    cov = Covariogram.exp_separable(1.0, 1.0)
    gen = build_generator(cov, w, method="circulant")
    assert gen.method == "circulant"
    m = int(np.prod(gen.embed_shape))
    # build the implied covariance by pushing unit impulses through the map
    lam = gen.spectrum_sqrt**2
    base = np.fft.ifftn(lam).real * 1.0
    # covariance between grid points j and l is base[(j - l) mod M]
    sites = w.sites - w.lo
    n = w.n_sites
    implied = np.empty((n, n))
    for a in range(n):
        diff = (sites - sites[a]) % np.array(gen.embed_shape)
        implied[a] = base[diff[:, 0], diff[:, 1]]
    target = covariance_matrix(cov, w)
    assert np.max(np.abs(implied - target)) < 1e-10


def test_stationarity_in_law_two_anchors():
    w = window((12, 12))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    idx = w.indexer()
    a0 = idx.lookup(np.array([[-4, -4], [-3, -4]]))
    a1 = idx.lookup(np.array([[3, 4], [4, 4]]))
    n = 6000
    d0, d1 = [], []
    for i in range(n):
        v = sample_field(gen, substream(31, i)).values[:, 0]
        d0.append(v[a0[0]] * v[a0[1]])
        d1.append(v[a1[0]] * v[a1[1]])
    gap = abs(np.mean(d0) - np.mean(d1))
    assert gap < 8.0 / math.sqrt(n)


def test_lift_for_statistic():
    w = window((3, 3))
    vals = np.arange(w.n_sites, dtype=float)[:, None]
    sample_obj = sample_field(
        build_generator(Covariogram.white(2), w), substream(1, 0)
    )
    from latblock.estimators import FieldSample

    sample_obj = FieldSample(w, vals)
    lifted = lift_for_statistic(sample_obj, "momvar")
    assert lifted.p == 2
    assert np.array_equal(lifted.values[:, 1], vals[:, 0] ** 2)
    same = lift_for_statistic(sample_obj, "mean")
    assert same is sample_obj


# -- the one lag table: Cholesky matrix and circulant base ---------------------


def models(d):
    """One covariogram of every kind in dimension d."""
    table = {tuple(k): math.exp(-np.abs(k).sum()) for k in box_points([-2] * d, [2] * d)}
    return [
        Covariogram.exp_separable(*(0.6 + 0.2 * i for i in range(d))),
        Covariogram.gauss_separable(*(0.5 - 0.1 * i for i in range(d))),
        Covariogram.gauss_isotropic(0.4, d),
        Covariogram.white(d),
        Covariogram.tabulated(d, table),
    ]


@pytest.mark.parametrize(
    "spec, scale",
    [
        ("hypercube:d=1", (9,)),
        ("hypercube:d=2", (30, 42)),
        ("circle:r=0.5", (40, 40)),  # 1257 sites
        ("righttri", (30, 30)),
        ("sphere:r=0.5", (16, 16, 16)),  # 2109 sites
        ("hypercube:d=3", (4, 1, 5)),  # a span-1 axis
    ],
)
def test_covariance_matrix_from_the_lag_table_equals_pairwise_sigma(spec, scale):
    w = lattice_sites(Region(parse_template(spec), scale))
    for cov in models(w.d):
        assert np.array_equal(covariance_matrix(cov, w), pairwise_covariance_matrix(cov, w))


@pytest.mark.parametrize("shape", [(1,), (9,), (30, 42), (14, 1), (1, 7), (4, 1, 5), (6, 5, 4)])
def test_circulant_base_from_the_lag_table_equals_wrapped_sigma(monkeypatch, shape):
    w = window(shape, Template.hypercube(len(shape)))
    bases = []
    fftn = np.fft.fftn

    def spy(a, *args, **kwargs):
        bases.append(a)
        return fftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", spy)
    for cov in models(w.d):
        bases.clear()
        gen = build_generator(cov, w, method="circulant")
        expected = wrapped_circulant_base(cov, w.span)
        assert bases[0].shape == expected.shape
        assert np.array_equal(bases[0], expected)
        if gen.method == "circulant":
            assert gen.embed_shape == expected.shape
