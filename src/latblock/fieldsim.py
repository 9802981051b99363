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
from scipy.special import ndtri

from .covariance import Covariogram, lag_sigma
from .errors import ConfigError, DimensionMismatch, EmptyWindow, NotPositiveDefinite, WindowTooLarge
from .estimators import FieldSample
from .geometry import LatticeWindow

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest float64 below 1

CHOLESKY = "cholesky"
CIRCULANT = "circulant"

DEFAULT_SITE_CAP = 5000


class RngStream:
    """Counter-based random stream keyed by (seed, replicate index).

    A fresh stream replays the same outputs for the same key, and streams with
    distinct indices are independent by construction.
    """

    def __init__(self, seed: int, index: int = 0):
        if seed < 0 or index < 0:
            raise ConfigError("seed and replicate index must be nonnegative")
        self.seed = int(seed)
        self.index = int(index)
        key = np.array([self.seed & _MASK64, self.index & _MASK64], dtype=_U64)
        self._bits = np.random.Philox(key=key)

    def uniforms(self, n: int) -> np.ndarray:
        """Strictly interior uniforms on (0, 1) with 53-bit resolution."""
        # the top 53 bits of each raw draw; the same bits as
        # integers(0, 2**63, dtype=uint64) >> 10, whose bounded draw is raw >> 1
        raw = self._bits.random_raw(n) >> _U64(11)
        u = (raw.astype(np.float64) + 0.5) * 2.0**-53
        # the top draw, raw = 2**53 - 1, rounds to exactly 1.0, where ndtri is inf
        return np.minimum(u, _BELOW_ONE, out=u)

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via the inverse CDF of the uniform stream."""
        return ndtri(self.uniforms(n))


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
    lag table: site i's flat lag-box position, less site j's, plus the center's."""
    table = lag_sigma(cov, window)
    f = (window.sites - window.lo) @ (np.array(table.strides) // table.itemsize)
    return table.ravel()[f[:, None] - f[None, :] + table.size // 2]


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
    site_cap: int = DEFAULT_SITE_CAP,
) -> FieldGenerator:
    """Prepare an exact sampler for the covariogram on the window.

    ``auto`` prefers the spectral route on full rectangular windows and falls
    back to the dense factorization; an explicit ``circulant`` request also
    falls back when the embedding fails, with the reason recorded.
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

    if window.n_sites > site_cap:
        raise WindowTooLarge(
            f"{window.n_sites} sites exceed the dense factorization cap {site_cap}"
        )
    sigma_mat = covariance_matrix(cov, window)
    try:
        chol = np.linalg.cholesky(sigma_mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "covariance matrix on this window is not positive definite"
        ) from exc
    return FieldGenerator(
        window=window, cov=cov, method=CHOLESKY, diagnostics=diagnostics, chol=chol
    )


def reconstruction_error(gen: FieldGenerator) -> float:
    """Relative Frobenius error of the factorization (dense route only)."""
    if gen.method != CHOLESKY:
        raise ConfigError("reconstruction check applies to the dense factorization")
    sigma_mat = covariance_matrix(gen.cov, gen.window)
    delta = gen.chol @ gen.chol.T - sigma_mat
    return float(np.linalg.norm(delta) / np.linalg.norm(sigma_mat))


def sample_field(gen: FieldGenerator, stream: RngStream) -> FieldSample:
    """One mean-zero Gaussian draw on the generator's window."""
    if gen.method == CHOLESKY:
        z = stream.normals(gen.window.n_sites)
        values = gen.chol @ z
        return FieldSample(gen.window, values[:, None])
    m = int(np.prod(gen.embed_shape))
    z = stream.normals(2 * m)
    zeta = (z[:m] + 1j * z[m:]).reshape(gen.embed_shape)
    w = np.fft.fftn(gen.spectrum_sqrt * zeta) / np.sqrt(m)
    block = w.real[tuple(slice(0, s) for s in gen.block_shape)]
    return FieldSample(gen.window, block.ravel()[:, None])


# Statistics whose input columns are a per-site transform of a scalar field.
LIFTED_STATISTICS = ("mean", "momvar")


def lift_for_statistic(sample: FieldSample, stat_name: str) -> FieldSample:
    """Deterministic per-site transform giving a statistic its input columns."""
    name = stat_name.lower()
    if name not in LIFTED_STATISTICS:
        raise ConfigError(
            f"no scalar-field lift registered for statistic {stat_name!r}"
        )
    if name == "momvar":
        x = sample.values[:, 0]
        return FieldSample(sample.window, np.stack([x, x * x], axis=1))
    return sample
