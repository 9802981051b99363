"""Shape constants, boundary bias weights and the relative-efficiency exponent.

The variance constant has an analytic registry entry per shape; the bias
weights are the closed-form volume-loss rates of the template geometry.  Each
has an independent numeric route: the variance constant integrates the
squared set covariance on a grid, and the bias weights differentiate the
exact set covariance at the origin with a three-point extrapolated secant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import Covariogram, next_fast_len, sum_over_shells
from .errors import (
    ConfigError,
    QuadratureBudgetExceeded,
    UnsupportedD1Nonlinear,
    UnsupportedShape,
)
from .geometry import Template, box_points, raster_lines, set_covariance_exact

ANALYTIC = "analytic"
NUMERIC = "numeric"
AUTO = "auto"
# Spectrum bins per k0_numeric slab: 512 kB of complex values, so that a slab's
# transform and its power sum stay in the core's cache.
_SLAB_BINS = 1 << 15


@dataclass(frozen=True)
class ShapeConstants:
    """Variance constants of a template: k1 = k0 * volume, and 0 < k1 < 1."""

    k0: float
    k1: float
    volume: float
    source: str


@dataclass(frozen=True)
class BiasWeights:
    """Boundary volume-loss rates over a sup-norm ball of lags."""

    template_kind: str
    radius: int
    weights: tuple  # ((k tuple, value), ...)
    source: str

    def as_dict(self) -> dict:
        return dict(self.weights)


# ---------------------------------------------------------------------------
# variance constant
# ---------------------------------------------------------------------------


def _k0_analytic(template: Template) -> float | None:
    kind = template.kind
    p = template.param_dict
    if kind == "hypercube":
        return (2.0 / 3.0) ** template.d
    if kind == "rotated-rectangle":
        return 4.0 / 9.0
    if kind == "circle":
        return 1.0 - 16.0 / (3.0 * math.pi**2)
    if kind in ("right-triangle", "isoceles-triangle"):
        return 2.0 / 5.0
    if kind == "regular-hexagon":
        return 37.0 / 81.0
    if kind == "trapezoid":
        t = p["b2"] / p["b1"]
        c = (t + 1.0) ** -2 * (1.0 + 2.0 * (t - 1.0) / (t + 1.0))
        return 2.0 / 5.0 * (1.0 + 4.0 * c / 9.0)
    if kind == "parallelogram":
        # any parallelogram is an invertible affine image of the square, and
        # the constant is affine invariant
        return 4.0 / 9.0
    if kind == "sphere":
        return 34.0 / 105.0
    if kind == "cylinder":
        return 2.0 / 3.0 * (1.0 - 16.0 / (3.0 * math.pi**2))
    return None


def k0(template: Template) -> ShapeConstants:
    """Variance constant of the template shape (analytic registry preferred)."""
    vol = template.volume()
    val = _k0_analytic(template)
    if val is not None:
        return ShapeConstants(k0=val, k1=val * vol, volume=vol, source=ANALYTIC)
    val = k0_numeric(template)
    return ShapeConstants(k0=val, k1=val * vol, volume=vol, source=NUMERIC)


def k0_numeric(template: Template, step: float | None = None) -> float:
    """Quadrature value of the variance constant.

    Integrates the squared cell-center set covariance over the shift lattice.
    By Parseval, the squared mask autocorrelation sums to (1/P) sum |M|^4: M is
    the transform of the mask zero-padded to >= 2n - 1 bins per axis (so
    circular is linear autocorrelation) and P the padded size. M is real along
    the first axis, whose half spectrum counts each bin twice except DC and an
    even length's Nyquist. That transform runs on each block of mask lines as
    ``raster_lines`` makes it, so the mask is never held whole; the other axes
    are transformed one cache-sized slab of first-axis bins at a time, each
    copied into the C layout (bins, ...) first, so no array of the padded size
    is formed and the sums run in the order of the ``scipy.fft`` form.
    """
    if template.d > 3:
        raise QuadratureBudgetExceeded(
            "set-covariance quadrature is offered for d <= 3 only"
        )
    if step is None:
        step = 1.0 / 512 if template.d <= 2 else 1.0 / 96
    shape, blocks = raster_lines(template, step)
    padded = [next_fast_len(2 * n - 1) for n in shape]
    # the half spectrum, its bins innermost like the lines they come from
    lines = np.empty((math.prod(shape[1:]), padded[0] // 2 + 1), complex)
    cells = 0
    for start, rows in blocks:
        cells += np.count_nonzero(rows)
        np.fft.rfft(rows, padded[0], axis=-1, out=lines[start:start + len(rows)])
    vol = float(cells) * step**template.d
    half = np.moveaxis(lines.reshape(*shape[1:], -1), -1, 0)
    weight = np.full(half.shape[:1] + (1,) * (template.d - 1), 2.0)
    weight[0] = 1.0
    if padded[0] % 2 == 0:
        weight[-1] = 1.0
    width = max(1, _SLAB_BINS // math.prod(padded[1:]))
    slab = np.empty((min(width, len(half)),) + half.shape[1:], half.dtype)
    acf_sq = 0.0
    for lo in range(0, len(half), width):
        spec = slab[:len(half) - lo]  # the C layout (bins, ...), reused
        spec[...] = half[lo:lo + width]
        for axis in range(1, template.d):  # ascending, as pocketfft's n-D pass runs
            spec = np.fft.fft(spec, padded[axis], axis=axis)
        power = spec.real**2 + spec.imag**2
        acf_sq += float(((power * power) * weight[lo:lo + width]).sum())
    return acf_sq / math.prod(padded) * step ** (3 * template.d) / vol**3


def k1(template: Template) -> float:
    """Overlap-to-disjoint variance ratio: k0 times the template volume."""
    return k0(template).k1


def are(template: Template) -> float:
    """Asymptotic relative efficiency of the NOL to the OL estimator."""
    return k1(template) ** (2.0 / (template.d + 2))


# ---------------------------------------------------------------------------
# bias weights
# ---------------------------------------------------------------------------


def v_weight(template: Template, k) -> float:
    """Boundary volume-loss rate at lag k.

    The limit of (|sR| - |sR ∩ (k + sR)|) / s^(d-1) as the scale s grows: the
    closed form of the template's geometry.
    """
    k = np.asarray(k, float)
    if k.shape != (template.d,):
        raise UnsupportedShape("lag dimension mismatch")
    return float(template.geom.boundary_rate(k))


def b0_weight(template: Template, k) -> float:
    """Covariogram weight of the bias constant: the volume-loss rate over |R0|."""
    return float(template.geom.bias_weight(np.asarray(k, float)))


def v_weight_numeric(template: Template, k, eps: float = 1e-2) -> float:
    """Secant estimate of the volume-loss rate with quadratic extrapolation.

    Combines s(e) = (g(0) - g(e*k)) / e at eps, eps/2 and eps/4 so that the
    e and e^2 terms cancel, which makes it exact (up to rounding) wherever
    the set covariance is cubic along the ray, as for boxes in three
    dimensions; the one-sided derivative of the set covariance at the origin
    equals the weight for convex shapes.
    """
    k = np.asarray(k, float)
    if np.all(k == 0):
        return 0.0
    g0 = template.volume()

    def secant(e):
        return (g0 - set_covariance_exact(template, e * k)) / e

    return (8.0 * secant(eps / 4.0) - 6.0 * secant(eps / 2.0) + secant(eps)) / 3.0


def bias_weights(template: Template, radius: int = 3, source: str = AUTO) -> BiasWeights:
    """Weights over the sup-norm ball of lags: closed form, or the secant oracle.

    ``source`` is ``"auto"`` (the geometry's closed form) or ``"numeric"``.
    """
    if source not in (AUTO, NUMERIC):
        raise ConfigError(f"bias weight source must be 'auto' or 'numeric', got {source!r}")
    lags = box_points([-radius] * template.d, [radius] * template.d)
    if source == NUMERIC:
        vals = [v_weight_numeric(template, row) for row in lags]
    else:
        vals = template.geom.boundary_rate(lags)
    entries = tuple((tuple(int(x) for x in row), float(v)) for row, v in zip(lags, vals))
    used = NUMERIC if source == NUMERIC else ANALYTIC
    return BiasWeights(template_kind=template.kind, radius=radius, weights=entries, source=used)


# ---------------------------------------------------------------------------
# bias constant
# ---------------------------------------------------------------------------


def b0(
    template: Template,
    cov: Covariogram,
    rel_tol: float = 1e-10,
    statistic=None,
) -> float:
    """Leading bias constant: the sum over nonzero lags k of b0_weight(k) * sigma(k).

    For one-dimensional sampling this is the full constant only when the
    statistic is linear; nonlinear one-dimensional statistics carry an extra
    fourth-order term that is out of scope here.
    """
    if template.d == 1 and statistic is not None and not getattr(statistic, "is_linear", False):
        raise UnsupportedD1Nonlinear(
            "d=1 bias constant for nonlinear statistics is not supported"
        )
    if cov.d != template.d:
        raise UnsupportedShape("covariogram dimension mismatch")

    def term(lags: np.ndarray) -> np.ndarray:
        return template.geom.bias_weight(lags) * cov.sigma_many(lags)

    return sum_over_shells(term, template.d, rel_tol=rel_tol)
