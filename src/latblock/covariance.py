"""Covariogram models, the long-run variance and the exact finite-window oracle.

The covariogram sigma(k) is the autocovariance of the (gradient-reduced)
scalar process at integer lag k.  Its lattice sum is the long-run variance
of the normalized sample mean; on a finite window the same quantity has an
exact expression through lag counts, which serves as the simulation oracle
for linear statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import correlate

from .errors import ConfigError, DimensionMismatch, EmptyWindow, NonConvergent
from .geometry import LatticeWindow, Region, box_points, lattice_sites

_HARD_CAP = 10_000

EXP_SEPARABLE = "exp-separable"
GAUSS_SEPARABLE = "gauss-separable"
GAUSS_ISOTROPIC = "gauss-isotropic"
WHITE = "white-noise"
TABULATED = "tabulated"


@dataclass(frozen=True)
class Covariogram:
    """A symmetric, absolutely summable autocovariance model on Z^d."""

    kind: str
    d: int
    betas: tuple = ()
    table: tuple = ()  # ((k tuple, value), ...) for the tabulated kind

    def __post_init__(self):
        if self.kind in (EXP_SEPARABLE, GAUSS_SEPARABLE):
            if len(self.betas) != self.d:
                raise ConfigError("separable model needs one beta per axis")
            if any(b <= 0 for b in self.betas):
                raise ConfigError("betas must be positive")
        elif self.kind == GAUSS_ISOTROPIC:
            if len(self.betas) != 1 or self.betas[0] <= 0:
                raise ConfigError("isotropic model needs a single positive beta")
        elif self.kind == TABULATED:
            entries = dict(self.table)
            if not entries:
                raise ConfigError("tabulated model needs at least the origin entry")
            zero = (0,) * self.d
            if zero not in entries or entries[zero] <= 0:
                raise ConfigError("tabulated model needs sigma(0) > 0")
            for k, v in entries.items():
                if len(k) != self.d:
                    raise ConfigError("tabulated lag dimension mismatch")
                neg = tuple(-x for x in k)
                if neg not in entries or entries[neg] != v:
                    raise ConfigError(
                        f"tabulated model is not symmetric at lag {k}"
                    )
        elif self.kind != WHITE:
            raise ConfigError(f"unknown covariogram kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exp_separable(*betas: float) -> "Covariogram":
        return Covariogram(EXP_SEPARABLE, len(betas), tuple(float(b) for b in betas))

    @staticmethod
    def gauss_separable(*betas: float) -> "Covariogram":
        return Covariogram(GAUSS_SEPARABLE, len(betas), tuple(float(b) for b in betas))

    @staticmethod
    def gauss_isotropic(beta: float, d: int = 2) -> "Covariogram":
        return Covariogram(GAUSS_ISOTROPIC, d, (float(beta),))

    @staticmethod
    def white(d: int = 2) -> "Covariogram":
        return Covariogram(WHITE, d)

    @staticmethod
    def tabulated(d: int, entries: dict) -> "Covariogram":
        table = tuple(sorted((tuple(int(x) for x in k), float(v)) for k, v in entries.items()))
        return Covariogram(TABULATED, d, (), table)

    # -- evaluation ---------------------------------------------------------

    def sigma_many(self, lags: np.ndarray) -> np.ndarray:
        """Vectorized model values at integer lags of shape (..., d)."""
        lags = np.asarray(lags)
        if lags.shape[-1] != self.d:
            raise DimensionMismatch("lag dimension mismatch")
        k = lags.astype(np.float64)
        if self.kind == EXP_SEPARABLE:
            return np.exp(-(np.abs(k) * np.asarray(self.betas)).sum(axis=-1))
        if self.kind == GAUSS_SEPARABLE:
            return np.exp(-((k * k) * np.asarray(self.betas)).sum(axis=-1))
        if self.kind == GAUSS_ISOTROPIC:
            return np.exp(-self.betas[0] * (k * k).sum(axis=-1))
        if self.kind == WHITE:
            return np.where(np.all(lags == 0, axis=-1), 1.0, 0.0)
        entries = dict(self.table)
        flat = lags.reshape(-1, self.d)
        vals = np.array([entries.get(tuple(int(x) for x in row), 0.0) for row in flat])
        return vals.reshape(lags.shape[:-1])

    def axis_term(self, axis: int, m: int) -> float:
        """One-dimensional factor term for separable kinds."""
        if self.kind == EXP_SEPARABLE:
            return math.exp(-self.betas[axis] * m)
        if self.kind == GAUSS_SEPARABLE:
            return math.exp(-self.betas[axis] * m * m)
        if self.kind == GAUSS_ISOTROPIC:
            return math.exp(-self.betas[0] * m * m)
        raise ConfigError("axis_term only applies to separable kinds")

    def is_separable(self) -> bool:
        return self.kind in (EXP_SEPARABLE, GAUSS_SEPARABLE, GAUSS_ISOTROPIC)


def sigma(cov: Covariogram, k) -> float:
    """Covariogram value at a single integer lag."""
    k = np.asarray(k)
    if k.shape != (cov.d,):
        raise DimensionMismatch(
            f"lag has shape {k.shape}, model is {cov.d}-dimensional"
        )
    return float(cov.sigma_many(k[None, :])[0])


def tau_sq(cov: Covariogram, rel_tol: float = 1e-10) -> float:
    """Long-run variance: the covariogram summed over the integer lattice.

    Truncated by growing sup-norm shells until the newest shell contributes
    less than ``rel_tol`` of the partial sum; separable models factor into
    per-axis series.
    """
    if rel_tol <= 0:
        raise ConfigError("rel_tol must be positive")
    if cov.kind == WHITE:
        return 1.0
    if cov.kind == TABULATED:
        return float(sum(v for _, v in cov.table))
    total = 1.0
    for axis in range(cov.d):
        s = 1.0
        m = 1
        while True:
            term = 2.0 * cov.axis_term(axis, m)
            s += term
            if term < rel_tol * abs(s):
                break
            m += 1
            if m > _HARD_CAP:
                raise NonConvergent(
                    f"axis {axis} series did not meet rel_tol within {_HARD_CAP} terms"
                )
        total *= s
    return total


def sum_over_shells(term_fn, d: int, rel_tol: float = 1e-10, include_origin=True):
    """Sum term_fn over Z^d by sup-norm shells with a relative stopping rule.

    ``term_fn`` maps an (m, d) integer array to values; stopping compares the
    newest shell's absolute mass against the absolute partial sum.
    """
    if rel_tol <= 0:
        raise ConfigError("rel_tol must be positive")
    total = 0.0
    if include_origin:
        total += float(term_fn(np.zeros((1, d), dtype=np.int64))[0])
    m = 1
    abs_total = abs(total)
    while True:
        shell = _shell_points(m, d)
        vals = np.asarray(term_fn(shell), float)
        total += float(vals.sum())
        mass = float(np.abs(vals).sum())
        abs_total += mass
        if mass < rel_tol * max(abs_total, 1e-300):
            return total
        m += 1
        if m > _HARD_CAP:
            raise NonConvergent(f"lattice sum did not converge within {_HARD_CAP} shells")


def _shell_points(m: int, d: int) -> np.ndarray:
    pts = box_points([-m] * d, [m] * d)
    return pts[np.abs(pts).max(axis=-1) == m]


def exact_tau_n_sq(
    region: Region, cov: Covariogram, method: str = "lags"
) -> float:
    """Exact variance of the root-N-scaled sample mean over the region window.

    This equals the target of the subsample variance estimators when the
    statistic is linear in the scalar field.  ``method`` picks the lag-count
    path or the pair double sum; both agree to floating-point accuracy.
    """
    window = lattice_sites(region)
    return exact_tau_n_sq_window(window, cov, method)


def exact_tau_n_sq_window(
    window: LatticeWindow, cov: Covariogram, method: str = "lags"
) -> float:
    if window.n_sites == 0:
        raise EmptyWindow("empty window")
    if cov.d != window.d:
        raise DimensionMismatch("covariogram dimension mismatch")
    n = window.n_sites
    if method == "lags":
        span = tuple(int(h - l + 1) for l, h in zip(window.lo, window.hi))
        ind = np.zeros(span, dtype=np.float64)
        ind[tuple((window.sites - window.lo).T)] = 1.0
        counts = correlate(ind, ind, mode="full", method="direct")
        lags = box_points([1 - s for s in span], [s - 1 for s in span])
        vals = cov.sigma_many(lags)
        return float((counts.ravel() * vals).sum() / n)
    if method == "pairs":
        total = 0.0
        chunk = max(1, int(2e6) // max(n, 1))
        for start in range(0, n, chunk):
            block = window.sites[start : start + chunk]
            diffs = block[:, None, :] - window.sites[None, :, :]
            total += float(cov.sigma_many(diffs).sum())
        return total / n
    raise ConfigError("method must be 'lags' or 'pairs'")


# -- covariogram mini-grammar -------------------------------------------------


def parse_covariogram(spec: str, d: int | None = None) -> Covariogram:
    """Parse a covariogram spec, e.g. ``expsep:b1=1,b2=1`` or ``white``.

    ``table:@file.csv`` loads a symmetric table with columns k1..kd,sigma.
    """
    spec = spec.strip()
    token, _, argstr = spec.partition(":")
    token = token.lower()
    if token == "white":
        return Covariogram.white(d or 2)
    if token in ("expsep", "gausssep"):
        kv = _parse_kv(argstr)
        betas = []
        i = 1
        while f"b{i}" in kv:
            betas.append(float(kv.pop(f"b{i}")))
            i += 1
        if kv or not betas:
            raise ConfigError(f"bad separable covariogram args {argstr!r}")
        maker = Covariogram.exp_separable if token == "expsep" else Covariogram.gauss_separable
        return maker(*betas)
    if token == "gaussiso":
        kv = _parse_kv(argstr)
        if set(kv) != {"b"}:
            raise ConfigError("gaussiso takes a single parameter b")
        return Covariogram.gauss_isotropic(float(kv["b"]), d or 2)
    if token == "table":
        if not argstr.startswith("@"):
            raise ConfigError("table covariogram needs @file.csv")
        return _load_table(argstr[1:])
    raise ConfigError(f"unknown covariogram kind {token!r}")


def _parse_kv(argstr: str) -> dict:
    out = {}
    if not argstr:
        return out
    for part in argstr.split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ConfigError(f"bad parameter {part!r}")
        out[key.strip()] = val.strip()
    return out


def _load_table(path: str) -> Covariogram:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(f"empty covariogram table {path!r}")
    header = [h.strip().lower() for h in rows[0]]
    if header[-1] != "sigma" or not all(h.startswith("k") for h in header[:-1]):
        raise ConfigError("table header must be k1,...,kd,sigma")
    d = len(header) - 1
    entries = {}
    for row in rows[1:]:
        if not row:
            continue
        k = tuple(int(x) for x in row[:-1])
        entries[k] = float(row[-1])
    return Covariogram.tabulated(d, entries)
