"""Covariogram models, the long-run variance and the exact finite-window oracle.

The covariogram sigma(k) is the autocovariance of the (gradient-reduced)
scalar process at integer lag k.  Its lattice sum is the long-run variance
of the normalized sample mean; on a finite window the same quantity has an
exact expression through lag counts (one numpy n-D real FFT pair, rounded),
which serves as the simulation oracle for linear statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
            _require_rates(self.betas, [f"b{i + 1}" for i in range(self.d)])
        elif self.kind == GAUSS_ISOTROPIC:
            if len(self.betas) != 1:
                raise ConfigError("isotropic model needs a single positive beta")
            _require_rates(self.betas, ["b"])
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
            # symmetric lags span [-m, m] on each axis
            if math.prod(2 * max(abs(k[i]) for k in entries) + 1 for i in range(self.d)) >= 2**63:
                raise ConfigError("tabulated lags span a box too large for 64-bit lag keys")
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
        lo, span, table_lags, keys, values = self._lag_rows
        flat = np.ravel_multi_index(tuple(np.moveaxis(lags - lo, -1, 0)), span, mode="clip")
        row = np.minimum(np.searchsorted(keys, flat), len(keys) - 1)
        return values[np.where(np.all(table_lags[row] == lags, axis=-1), row, -1)]

    @cached_property
    def _lag_rows(self) -> tuple:
        """A tabulated model's sorted lags and their flat keys in the lags' box,
        built on first use, and its values with 0.0 last (row -1: a lag left out)."""
        lags = np.array([k for k, _ in self.table], np.int64)  # sorted, so keys are too
        span = tuple((lags.max(axis=0) - lags.min(axis=0) + 1).tolist())
        keys = np.ravel_multi_index(tuple((lags - lags.min(axis=0)).T), span)
        return lags.min(axis=0), span, lags, keys, np.array([v for _, v in self.table] + [0.0])

    def axis_term(self, axis: int, m: int) -> float:
        """One-dimensional factor term for separable kinds."""
        if self.kind == EXP_SEPARABLE:
            return math.exp(-self.betas[axis] * m)
        if self.kind == GAUSS_SEPARABLE:
            return math.exp(-self.betas[axis] * m * m)
        if self.kind == GAUSS_ISOTROPIC:
            return math.exp(-self.betas[0] * m * m)
        raise ConfigError("axis_term only applies to separable kinds")


def _require_rates(betas, names) -> None:
    for name, b in zip(names, betas):
        if not (math.isfinite(b) and b > 0):
            raise ConfigError(f"covariogram {name} must be positive and finite, got {b!r}")


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


def sum_over_shells(term_fn, d: int, rel_tol: float = 1e-10):
    """Sum term_fn over Z^d less the origin by sup-norm shells with a
    relative stopping rule.

    ``term_fn`` maps an (m, d) integer array to values; stopping compares the
    newest shell's absolute mass against the absolute partial sum.
    """
    if rel_tol <= 0:
        raise ConfigError("rel_tol must be positive")
    total = abs_total = 0.0
    m = 1
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
    """Points of sup-norm m in ``box_points`` order: the x0 = -m face, each
    inner x0 with the (d-1)-dimensional shell, then the x0 = +m face."""
    if d == 1:
        return np.array([[-m], [m]], dtype=np.int64)
    face = box_points([-m] * (d - 1), [m] * (d - 1))
    ring = _shell_points(m, d - 1)
    inner = np.arange(-m + 1, m)
    return np.concatenate([
        np.column_stack([np.full(len(face), -m), face]),
        np.column_stack([np.repeat(inner, len(ring)), np.tile(ring, (len(inner), 1))]),
        np.column_stack([np.full(len(face), m), face]),
    ])


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


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: ``scipy.fft.next_fast_len(n, real=True)``."""
    if n < 1:
        raise ValueError(f"transform length must be positive, got {n}")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def lag_counts(window: LatticeWindow) -> np.ndarray:
    """Site pairs of the window at each lag of its box, (2 span - 1) per axis: the
    indicator's autocorrelation by one real FFT pair, padded so no lag wraps, then
    rounded; correlated directly if a value is 1/4 or more off its integer."""
    span = window.span.tolist()
    ind = np.zeros(span, dtype=np.float64)
    ind[tuple((window.sites - window.lo).T)] = 1.0
    padded = [next_fast_len(2 * n - 1) for n in span]
    axes = tuple(range(window.d))
    spec = np.fft.rfftn(ind, padded, axes=axes)
    circular = np.fft.irfftn(spec.real**2 + spec.imag**2, padded, axes=axes)
    fast = circular[np.ix_(*(np.arange(1 - n, n) for n in span))]
    counts = np.rint(fast)
    if np.max(np.abs(fast - counts)) < 0.25:
        return counts
    from scipy.signal import correlate

    return correlate(ind, ind, mode="full", method="direct")


def lag_sigma(cov: Covariogram, window: LatticeWindow) -> np.ndarray:
    """Sigma at each lag of the window's box, shaped and ordered like ``lag_counts``
    (zero lag at flat index ``size // 2``): the one table of the oracle and generators."""
    reach = window.span - 1
    return cov.sigma_many(box_points(-reach, reach)).reshape(tuple(2 * reach + 1))


def exact_tau_n_sq_window(
    window: LatticeWindow, cov: Covariogram, method: str = "lags"
) -> float:
    if window.n_sites == 0:
        raise EmptyWindow("empty window")
    if cov.d != window.d:
        raise DimensionMismatch("covariogram dimension mismatch")
    n = window.n_sites
    if method == "lags":
        return float((lag_counts(window).ravel() * lag_sigma(cov, window).ravel()).sum() / n)
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
    Given ``d``, separable betas or table lags of another dimension raise.
    """
    spec = spec.strip()
    token, _, argstr = spec.partition(":")
    token = token.lower()
    if token == "white":
        if argstr:
            raise ConfigError(f"white takes no parameters, got {argstr!r}")
        return Covariogram.white(d or 2)
    if token in ("expsep", "gausssep"):
        kv = _parse_kv(argstr)
        betas = []
        i = 1
        while f"b{i}" in kv:
            betas.append(_spec_number(kv.pop(f"b{i}"), f"covariogram b{i}"))
            i += 1
        if kv or not betas:
            raise ConfigError(f"bad separable covariogram args {argstr!r}")
        maker = Covariogram.exp_separable if token == "expsep" else Covariogram.gauss_separable
        return _of_dimension(maker(*betas), d, spec)
    if token == "gaussiso":
        kv = _parse_kv(argstr)
        if set(kv) != {"b"}:
            raise ConfigError("gaussiso takes a single parameter b")
        return Covariogram.gauss_isotropic(_spec_number(kv["b"], "covariogram b"), d or 2)
    if token == "table":
        if not argstr.startswith("@"):
            raise ConfigError("table covariogram needs @file.csv")
        return _of_dimension(_load_table(argstr[1:]), d, spec)
    raise ConfigError(f"unknown covariogram kind {token!r}")


def _of_dimension(cov: Covariogram, d: int | None, spec: str) -> Covariogram:
    if d is not None and cov.d != d:
        raise ConfigError(f"covariogram {spec!r} is {cov.d}-dimensional, expected {d}")
    return cov


def _spec_number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{what} must be a number, got {text!r}") from exc


def _parse_kv(argstr: str) -> dict:
    out = {}
    if not argstr:
        return out
    for part in argstr.split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ConfigError(f"bad parameter {part!r}")
        key = key.strip()
        if key in out:
            raise ConfigError(f"covariogram parameter {key!r} is given twice")
        out[key] = val.strip()
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
    first_line = {}  # lag -> line it was read from
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        where = f"{path} line {lineno}"
        if len(row) != len(header):
            raise ConfigError(f"{where}: row has {len(row)} fields, header has {len(header)}")
        try:
            k = tuple(int(x) for x in row[:-1])
        except ValueError as exc:
            raise ConfigError(f"{where}: lags must be integers, got {row[:-1]}") from exc
        if k in first_line:
            raise ConfigError(f"{where}: lag {k} repeats line {first_line[k]}")
        first_line[k] = lineno
        entries[k] = _spec_number(row[-1], f"{where}: sigma")
        if not math.isfinite(entries[k]):
            raise ConfigError(f"{where}: sigma must be finite, got {row[-1]!r}")
    return Covariogram.tabulated(d, entries)
