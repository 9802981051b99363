"""Gaussian field simulation: exactness, determinism and stream independence."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from brute_force import fftn_circulant_draw, pairwise_covariance_matrix, wrapped_circulant_base

from latblock import (
    Covariogram,
    Region,
    Template,
    build_generator,
    sample_field,
    substream,
)
from latblock import fieldsim
from latblock.covariance import parse_covariogram
from latblock.errors import ConfigError, NotPositiveDefinite, WindowTooLarge
from latblock.fieldsim import (
    RngStream,
    covariance_matrix,
    reconstruction_error,
    sample_fields,
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


def test_window_cap(monkeypatch):
    w = window((14, 18))
    monkeypatch.setattr(fieldsim, "DEFAULT_SITE_CAP", 100)
    with pytest.raises(WindowTooLarge, match="252 sites exceed the dense factorization cap 100"):
        build_generator(Covariogram.white(2), w, method="cholesky")


def test_not_positive_definite_detected():
    # an inconsistent tabulated "covariogram" with huge off-diagonal mass
    bad = Covariogram.tabulated(
        2, {(0, 0): 1.0, (1, 0): 0.9, (-1, 0): 0.9, (2, 0): 0.9, (-2, 0): 0.9}
    )
    w = window((5, 1))
    with pytest.raises(NotPositiveDefinite):
        build_generator(bad, w, method="cholesky")


def test_an_indefinite_disk_matrix_is_refused_without_a_warning():
    # the factorization signals failure by the invalid flag; under numpy's
    # default error state it would warn and return NaNs instead
    w = window((40, 40), Template.circle(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite, match="not positive definite$"):
            build_generator(parse_covariogram("gaussiso:b=0.05"), w)


@pytest.mark.parametrize(
    "spec, scale, model",
    [
        ("circle:r=0.5", (40, 40), "gausssep:b1=0.5,b2=0.3"),  # 1257 sites
        ("righttri", (30, 30), "expsep:b1=0.6,b2=0.8"),
        ("hex:l=0.5", (24, 24), "gaussiso:b=0.4"),
        ("sphere:r=0.5", (12, 12, 12), "expsep:b1=1,b2=1,b3=1"),
        ("circle:r=0.5", (20, 20), "white"),
    ],
)
def test_the_in_place_factor_equals_numpy_cholesky_of_the_pairwise_matrix(spec, scale, model):
    w = lattice_sites(Region(parse_template(spec), scale))
    cov = parse_covariogram(model, d=w.d)
    gen = build_generator(cov, w)
    assert gen.method == "cholesky"
    expected = np.linalg.cholesky(pairwise_covariance_matrix(cov, w))
    assert gen.chol.flags.c_contiguous and gen.chol.strides == expected.strides
    assert np.array_equal(gen.chol, expected)
    if model == "white":
        assert np.array_equal(gen.chol, np.eye(w.n_sites))


def test_the_dense_build_holds_one_n_by_n_buffer():
    w = window((40, 40), Template.circle(0.5))
    cov = Covariogram.gauss_separable(0.5, 0.3)
    matrix_bytes = w.n_sites**2 * 8
    tracemalloc.start()
    try:
        gen = build_generator(cov, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gen.chol.nbytes == matrix_bytes
    # Sigma, factored in place, and blocks of its gather; no second matrix
    assert peak < 1.25 * matrix_bytes


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


@pytest.mark.parametrize("seed, index", [(2**64 + 3, 0), (3, 2**64), (-1, 0), (0, -1)])
def test_a_key_outside_the_philox_words_is_refused(seed, index):
    # masked to 64 bits, seed 2^64 + 3 would draw exactly the fields of seed 3
    with pytest.raises(ConfigError, match=r"must be in \[0, 2\^64\)$"):
        RngStream(seed, index)


def test_the_largest_key_is_taken():
    top = 2**64 - 1
    raw = np.random.Philox(key=np.array([top, top], dtype=np.uint64)).random_raw(4)
    expected = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(RngStream(top, top).uniforms(4), expected)


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


def test_in_place_draws_equal_the_formula_on_fresh_arrays():
    for seed, index in [(s, 7 * s + 2) for s in range(20)]:
        key = np.array([seed, index], dtype=np.uint64)
        bits = np.random.Philox(key=key)
        stream = RngStream(seed, index)
        for n in (1, 9, 9512):
            u = ((bits.random_raw(n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            assert np.array_equal(stream.normals(n), ndtri(np.minimum(u, np.nextafter(1.0, 0.0))))


# the corner keys, and two study keys: the first replicate of seed 20260810
# and replicate 99 of the second pair of a 100-replicate study at seed 7
@pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 2**64 - 1), (20260810, 0), (7, 199)])
def test_a_stream_is_philox_keyed_by_seed_and_index(seed, index):
    keyed = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    bits = RngStream(seed, index)._bits
    state, expected = bits.state, keyed.state
    assert state["state"]["key"].tolist() == expected["state"]["key"].tolist() == [seed, index]
    assert state["state"]["counter"].tolist() == expected["state"]["counter"].tolist()
    assert state["buffer_pos"] == expected["buffer_pos"]
    assert np.array_equal(bits.random_raw(10**4), keyed.random_raw(10**4))


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
    i0 = int(w.lookup(np.array([[0, 0]]))[0])
    i1 = int(w.lookup(np.array([[1, 0]]))[0])
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
    anchors = w.lookup(np.array([[0, 0], [1, 0], [0, 1], [1, 1], [-2, 3]]))
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
    a0 = w.lookup(np.array([[-4, -4], [-3, -4]]))
    a1 = w.lookup(np.array([[3, 4], [4, 4]]))
    n = 6000
    d0, d1 = [], []
    for i in range(n):
        v = sample_field(gen, substream(31, i)).values[:, 0]
        d0.append(v[a0[0]] * v[a0[1]])
        d1.append(v[a1[0]] * v[a1[1]])
    gap = abs(np.mean(d0) - np.mean(d1))
    assert gap < 8.0 / math.sqrt(n)


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
    "spec, scale, rows",
    [
        ("hypercube:d=1", (9,), None),
        ("hypercube:d=2", (30, 42), None),
        ("circle:r=0.5", (40, 40), None),  # 1257 sites
        ("righttri", (30, 30), None),
        ("sphere:r=0.5", (16, 16, 16), None),  # 2109 sites
        ("hypercube:d=3", (4, 1, 5), None),  # a span-1 axis
        # gathered a row at a time, 7 rows at a time (a short last block)
        # and in one block of more rows than sites
        ("circle:r=0.5", (40, 40), 1),
        ("circle:r=0.5", (40, 40), 7),
        ("circle:r=0.5", (40, 40), 5000),
        ("hypercube:d=3", (4, 1, 5), 1),
        ("hypercube:d=3", (4, 1, 5), 7),
        ("hypercube:d=1", (9,), 5000),
    ],
)
def test_covariance_matrix_from_the_lag_table_equals_pairwise_sigma(monkeypatch, spec, scale, rows):
    w = lattice_sites(Region(parse_template(spec), scale))
    if rows is not None:
        monkeypatch.setattr(fieldsim, "_GATHER_BLOCK_CELLS", rows * w.n_sites)
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


# boxes in d = 1, 2, 3 with odd and even spans and span-1 axes, on each of
# which every kind of ``models`` has a nonnegative definite embedding
@pytest.mark.parametrize(
    "shape",
    [
        *[(1,), (8,), (9,)],
        *[(30, 42), (7, 10), (13, 1), (1, 6)],
        *[(5, 2, 1), (5, 1, 2), (2, 2, 2), (1, 1, 4)],
    ],
)
def test_pruned_circulant_draw_equals_the_full_fftn(shape):
    w = window(shape, Template.hypercube(len(shape)))
    for cov in models(w.d):
        gen = build_generator(cov, w)
        assert gen.method == "circulant"
        for rep in range(20):
            got = sample_field(gen, substream(13, rep))
            expected = fftn_circulant_draw(gen, substream(13, rep))
            assert np.array_equal(got.values, expected.values)


def assert_rows_keep_their_bits(gen, order, piece):
    """``sample_fields`` over streams ``order`` in pieces of ``piece``: each
    row equals ``sample_field`` for its stream, and the full-``fftn`` draw on
    the circulant route, bit for bit."""
    for lo in range(0, len(order), piece):
        reps = order[lo : lo + piece]
        rows = sample_fields(gen, [substream(13, rep) for rep in reps])
        assert rows.shape == (len(reps), gen.window.n_sites)
        for rep, row in zip(reps, rows):
            one = sample_field(gen, substream(13, rep)).values[:, 0]
            assert np.array_equal(row.view(np.uint64), one.view(np.uint64))
            if gen.method == "circulant":
                full = fftn_circulant_draw(gen, substream(13, rep)).values[:, 0]
                assert np.array_equal(row.view(np.uint64), full.view(np.uint64))


# streams given out of order
ORDER = [7, 2, 11, 0, 5, 9, 1, 10, 3]


@pytest.mark.parametrize("piece", [1, 3, 4])
@pytest.mark.parametrize("shape", [(14, 18), (13, 17), (30, 42), (6, 7, 5)])
def test_batched_circulant_draws_keep_every_bit(shape, piece):
    w = window(shape, Template.hypercube(len(shape)))
    gens = [build_generator(cov, w) for cov in models(w.d)]
    assert sum(gen.method == "circulant" for gen in gens) >= 4
    for gen in gens:  # the dense route where a torus embedding fails
        assert_rows_keep_their_bits(gen, ORDER, piece)


@pytest.mark.parametrize("piece", [1, 3, 4])
def test_batched_dense_draws_keep_every_bit(piece):
    w = window((16, 16), Template.circle(0.5))
    gen = build_generator(Covariogram.gauss_separable(0.5, 0.3), w)
    assert gen.method == "cholesky"
    assert_rows_keep_their_bits(gen, ORDER, piece)
