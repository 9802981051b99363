"""Exact simulation of mean-zero stationary Gaussian fields on lattice windows.

Two exact routes: a dense lower-triangular factorization of the site-pair
covariance matrix (always available at desk scale), and spectral sampling on
an embedding torus for full rectangular windows when the embedding is
nonnegative definite.  Randomness comes from counter-based streams keyed by
(master seed, replicate index), with normals drawn through the inverse CDF so
replicate schedules are reproducible across platforms and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from .covariance import Covariogram, lag_sigma
from .errors import ConfigError, DimensionMismatch, EmptyWindow, NotPositiveDefinite, WindowTooLarge
from .estimators import FieldSample
from .geometry import LatticeWindow

_U64 = np.uint64
_KEYS = 1 << 64  # a Philox key word, and so a seed or an index, is below this
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest float64 below 1

CHOLESKY = "cholesky"
CIRCULANT = "circulant"

DEFAULT_SITE_CAP = 5000

_GATHER_BLOCK_CELLS = 1 << 16  # covariance matrix cells indexed at a time


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its two 64-bit key words as they are.

    ``Philox(key=...)`` first builds a ``SeedSequence`` from OS entropy, which
    the key then overrides; ``Philox(_PhiloxKey(key))`` asks this object for
    its key instead and reaches the same state.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class RngStream:
    """Counter-based random stream keyed by (seed, replicate index).

    A fresh stream replays the same outputs for the same key, and streams with
    distinct indices are independent by construction.
    """

    def __init__(self, seed: int, index: int = 0):
        if not (0 <= seed < _KEYS and 0 <= index < _KEYS):
            raise ConfigError("seed and replicate index must be in [0, 2^64)")
        self.seed = int(seed)
        self.index = int(index)
        key = np.array([self.seed, self.index], dtype=_U64)
        self._bits = np.random.Philox(_PhiloxKey(key))

    def uniforms(self, n: int) -> np.ndarray:
        """Strictly interior uniforms on (0, 1) with 53-bit resolution."""
        return _uniforms(self._bits.random_raw(n))

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via the inverse CDF of the uniform stream."""
        u = self.uniforms(n)
        return ndtri(u, out=u)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniforms of raw Philox draws ``raw``, which this overwrites."""
    # the top 53 bits of each raw draw; the same bits as
    # integers(0, 2**63, dtype=uint64) >> 10, whose bounded draw is raw >> 1
    raw >>= _U64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    # the top draw, raw = 2**53 - 1, rounds to exactly 1.0, where ndtri is inf
    return np.minimum(u, _BELOW_ONE, out=u)


def _normals(streams, n: int) -> np.ndarray:
    """(len(streams), n): row i holds stream i's next ``n`` normals, taken
    from one buffer of every stream's raw draws by one ``ndtri`` call."""
    raw = np.empty((len(streams), n), dtype=_U64)
    for row, stream in zip(raw, streams):
        row[:] = stream._bits.random_raw(n)
    u = _uniforms(raw)
    return ndtri(u, out=u)


def substream(master_seed: int, replicate: int) -> RngStream:
    """Independent stream for one replicate of a seeded experiment."""
    return RngStream(master_seed, replicate)


@dataclass(frozen=True)
class FieldGenerator:
    """Prepared sampler for one (covariogram, window) pair."""

    window: LatticeWindow
    cov: Covariogram
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)
    chol: np.ndarray | None = field(default=None, repr=False, compare=False)
    spectrum_sqrt: np.ndarray | None = field(default=None, repr=False, compare=False)
    embed_shape: tuple = ()
    block_shape: tuple = ()


def covariance_matrix(cov: Covariogram, window: LatticeWindow) -> np.ndarray:
    """Dense site-pair covariance matrix in window site order, read from the
    lag table: site i's flat lag-box position, less site j's, plus the center's.

    The matrix is one C-ordered (N, N) array, filled a block of rows (about
    ``_GATHER_BLOCK_CELLS`` entries) at a time, so no N x N index is built.
    """
    table = lag_sigma(cov, window)
    f = (window.sites - window.lo) @ (np.array(table.strides) // table.itemsize)
    row_f = f + table.size // 2
    n = window.n_sites
    out = np.empty((n, n))
    rows = max(1, _GATHER_BLOCK_CELLS // n)
    for start in range(0, n, rows):
        out[start : start + rows] = table.ravel()[row_f[start : start + rows, None] - f]
    return out


def _circulant_spectrum(table: np.ndarray):
    """Nonnegative spectrum of the embedding torus, or None if indefinite.
    The wrapped torus lags all lie in the box of the ``lag_sigma`` table."""
    # per axis the torus lags 0..r, then -(r-1)..-1, shifted by the reach r
    base = table[np.ix_(*(np.r_[r : 2 * r + 1, 1:r] for r in np.array(table.shape) // 2))]
    embed = base.shape
    lam = np.fft.fftn(base)
    if np.max(np.abs(lam.imag)) > 1e-8 * max(np.max(np.abs(lam.real)), 1.0):
        return None, embed
    lam = lam.real
    floor = -1e-10 * max(float(lam.max()), 1.0)
    if lam.min() < floor:
        return None, embed
    return np.sqrt(np.clip(lam, 0.0, None)), embed


def build_generator(
    cov: Covariogram,
    window: LatticeWindow,
    method: str = "auto",
) -> FieldGenerator:
    """Prepare an exact sampler for the covariogram on the window.

    ``auto`` prefers the spectral route on full rectangular windows and falls
    back to the dense factorization; an explicit ``circulant`` request also
    falls back when the embedding fails, with the reason recorded.  The
    dense route takes at most ``DEFAULT_SITE_CAP`` sites.

    The dense route factors Sigma in place: ``chol`` is the lower factor in
    the buffer ``covariance_matrix`` filled, so the build peaks at two N x N
    float arrays (Sigma and the factorization's work copy) and keeps one.
    """
    if window.n_sites == 0:
        raise EmptyWindow("cannot build a generator on an empty window")
    if cov.d != window.d:
        raise DimensionMismatch("covariogram dimension mismatch")
    if method not in ("auto", CHOLESKY, CIRCULANT):
        raise ConfigError("method must be auto, cholesky or circulant")

    diagnostics: dict = {"requested": method}
    if method in ("auto", CIRCULANT):
        if np.prod(window.span) == window.n_sites:  # a full rectangle
            sqrt_lam, embed = _circulant_spectrum(lag_sigma(cov, window))
            if sqrt_lam is not None:
                diagnostics["embedding"] = embed
                return FieldGenerator(
                    window=window,
                    cov=cov,
                    method=CIRCULANT,
                    diagnostics=diagnostics,
                    spectrum_sqrt=sqrt_lam,
                    embed_shape=embed,
                    block_shape=tuple(int(s) for s in window.span),
                )
            diagnostics["fallback"] = "embedding not nonnegative definite"
        else:
            diagnostics["fallback"] = "window is not a full rectangle"
        if method == CIRCULANT:
            diagnostics["note"] = "circulant requested; using dense factorization"

    if window.n_sites > DEFAULT_SITE_CAP:
        raise WindowTooLarge(
            f"{window.n_sites} sites exceed the dense factorization cap {DEFAULT_SITE_CAP}"
        )
    chol = covariance_matrix(cov, window)
    # np.linalg.cholesky's own gufunc and error state, with Sigma's buffer as
    # the output: the same bits, without a second N x N result
    with np.errstate(
        call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        _umath_linalg.cholesky_lo(chol, out=chol, signature="d->d")
    return FieldGenerator(
        window=window, cov=cov, method=CHOLESKY, diagnostics=diagnostics, chol=chol
    )


def _not_positive_definite(err, flag):
    raise NotPositiveDefinite("covariance matrix on this window is not positive definite")


def reconstruction_error(gen: FieldGenerator) -> float:
    """Relative Frobenius error of the factorization (dense route only)."""
    if gen.method != CHOLESKY:
        raise ConfigError("reconstruction check applies to the dense factorization")
    sigma_mat = covariance_matrix(gen.cov, gen.window)
    delta = gen.chol @ gen.chol.T - sigma_mat
    return float(np.linalg.norm(delta) / np.linalg.norm(sigma_mat))


def sample_field(gen: FieldGenerator, stream: RngStream) -> FieldSample:
    """One mean-zero Gaussian draw on the generator's window."""
    return FieldSample(gen.window, sample_fields(gen, [stream])[0])


def sample_fields(gen: FieldGenerator, streams) -> np.ndarray:
    """Mean-zero Gaussian draws on the generator's window, (len(streams), N):
    row i is ``sample_field(gen, streams[i])``'s values, bit for bit.

    Every stream's normals come from one buffer, by one ``ndtri`` call.  The
    dense route then takes one matrix-vector product per stream; the
    circulant route runs each FFT pass over every stream's torus at once,
    which transforms each line on its own, as ``fftn`` does.
    """
    n = len(streams)
    if gen.method == CHOLESKY:
        out = np.empty((n, gen.window.n_sites))
        for row, z in zip(out, _normals(streams, gen.window.n_sites)):
            row[:] = gen.chol @ z
        return out
    m = int(np.prod(gen.embed_shape))
    z = _normals(streams, 2 * m).reshape(n, 2, *gen.embed_shape)
    w = np.empty((n, *gen.embed_shape), dtype=complex)
    w.real, w.imag = z[:, 0], z[:, 1]  # the bits of z[:m] + 1j * z[m:]
    w *= gen.spectrum_sqrt
    # fftn's 1-D passes in its order, last axis first; after a pass only the
    # block's lines along that axis are kept
    for axis, size in reversed(list(enumerate(gen.block_shape, start=1))):
        w = np.fft.fft(w, axis=axis)[(slice(None),) * axis + (slice(0, size),)]
    # complex / real is not real / real in the last bit: divide as fftn's result did
    return (w / np.sqrt(m)).real.reshape(n, -1)

