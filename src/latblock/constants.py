"""Shape constants, boundary bias weights and the relative-efficiency exponent.

Each quantity has an analytic registry entry per shape and an independent
numeric route: the variance constant integrates the squared set covariance
on a grid, and the bias weights differentiate the exact set covariance at
the origin with a two-point extrapolated secant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .covariance import Covariogram, sum_over_shells
from .errors import (
    QuadratureBudgetExceeded,
    UnsupportedD1Nonlinear,
    UnsupportedShape,
)
from .geometry import Template, box_points, raster_mask, rotation_cos_sin, set_covariance_exact

ANALYTIC = "analytic"
NUMERIC = "numeric"


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

    Integrates the squared cell-center set covariance over the shift lattice;
    the set covariance itself comes from one mask autocorrelation.
    """
    if template.d > 3:
        raise QuadratureBudgetExceeded(
            "set-covariance quadrature is offered for d <= 3 only"
        )
    if step is None:
        step = 1.0 / 512 if template.d <= 2 else 1.0 / 96
    mask, h = raster_mask(template, step)
    vol = float(mask.sum()) * h**template.d
    rev = mask[tuple([slice(None, None, -1)] * template.d)]
    acf = fftconvolve(mask, rev, mode="full")
    g_vals = acf * h**template.d
    integral = float((g_vals * g_vals).sum()) * h**template.d
    return integral / vol**3


def k1(template: Template) -> float:
    """Overlap-to-disjoint variance ratio: k0 times the template volume."""
    return k0(template).k1


def are(template: Template) -> float:
    """Asymptotic relative efficiency of the NOL to the OL estimator."""
    return k1(template) ** (2.0 / (template.d + 2))


# ---------------------------------------------------------------------------
# bias weights
# ---------------------------------------------------------------------------


def _v_analytic(template: Template, k: np.ndarray) -> float | None:
    kind = template.kind
    p = template.param_dict
    k = np.asarray(k, float)
    if kind == "hypercube":
        return float(np.abs(k).sum())
    if kind == "circle":
        return 2.0 * p["r"] * float(np.linalg.norm(k))
    if kind == "rotated-rectangle":
        c, s = rotation_cos_sin(p["theta"])
        return p["l2"] * abs(k[0] * c - k[1] * s) + p["l1"] * abs(k[0] * s + k[1] * c)
    if kind == "right-triangle":
        return 0.5 * (abs(k[0]) + abs(k[1]) + abs(k[0] + k[1]))
    if kind == "isoceles-triangle":
        return 0.5 * (abs(k[1]) + max(2.0 * abs(k[0]), abs(k[1])))
    if kind == "regular-hexagon":
        return p["l"] * (abs(k[1]) + max(math.sqrt(3.0) * abs(k[0]), abs(k[1])))
    if kind == "sphere":
        return math.pi * p["r"] ** 2 * float(np.linalg.norm(k))
    if kind == "cylinder":
        xy = float(math.hypot(k[0], k[1]))
        return 2.0 * p["h"] * p["r"] * xy + math.pi * p["r"] ** 2 * abs(k[2])
    # trapezoid and parallelogram fall through to the numeric route: their
    # printed closed forms are not registered
    return None


def v_weight(template: Template, k) -> float:
    """Boundary volume-loss rate at integer lag k.

    The limit of (|sR| - |sR ∩ (k + sR)|) / s^(d-1) as the scale s grows;
    analytic for the registered shapes, otherwise an extrapolated secant of
    the exact set covariance.
    """
    k = np.asarray(k)
    if k.shape != (template.d,):
        raise UnsupportedShape("lag dimension mismatch")
    if np.all(k == 0):
        return 0.0
    val = _v_analytic(template, k)
    if val is not None:
        return val
    return v_weight_numeric(template, k)


def b0_weight(template: Template, k) -> float:
    """Covariogram weight of the bias constant: the volume-loss rate over |R0|.

    Closed forms keep the division inside each term where that preserves exact
    identities (the diamond case of the rotated rectangle in particular);
    shapes without a registered weight divide the numeric rate by the volume.
    """
    k = np.asarray(k, float)
    kind = template.kind
    p = template.param_dict
    if kind == "rotated-rectangle":
        c, s = rotation_cos_sin(p["theta"])
        return abs(k[0] * c - k[1] * s) / p["l1"] + abs(k[0] * s + k[1] * c) / p["l2"]
    if kind == "hypercube":
        return float(np.abs(k).sum())
    if kind == "circle":
        return 2.0 * float(np.linalg.norm(k)) / (math.pi * p["r"])
    if kind == "sphere":
        return 0.75 * float(np.linalg.norm(k)) / p["r"]
    if kind == "cylinder":
        return abs(k[2]) / p["h"] + 2.0 * math.hypot(k[0], k[1]) / (math.pi * p["r"])
    return v_weight(template, k) / template.volume()


def v_weight_numeric(template: Template, k, eps: float = 1e-2) -> float:
    """Secant estimate of the volume-loss rate with linear extrapolation.

    Uses (g(0) - g(eps*k)) / eps at eps and eps/2; the one-sided derivative
    of the set covariance at the origin equals the weight for convex shapes.
    """
    k = np.asarray(k, float)
    if np.all(k == 0):
        return 0.0
    g0 = template.volume()

    def secant(e):
        return (g0 - set_covariance_exact(template, e * k)) / e

    return 2.0 * secant(eps / 2.0) - secant(eps)


def bias_weights(template: Template, radius: int = 3, source: str = "auto") -> BiasWeights:
    """Weights over the sup-norm ball of lags, analytic where registered."""
    lags = box_points([-radius] * template.d, [radius] * template.d)
    entries = []
    used = ANALYTIC
    for row in lags:
        if source == "numeric":
            val = v_weight_numeric(template, row) if np.any(row != 0) else 0.0
            used = NUMERIC
        else:
            val = v_weight(template, row)
            if _v_analytic(template, row) is None and np.any(row != 0):
                used = NUMERIC
        entries.append((tuple(int(x) for x in row), float(val)))
    return BiasWeights(
        template_kind=template.kind, radius=radius, weights=tuple(entries), source=used
    )


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
        w = np.array([b0_weight(template, row) for row in lags])
        return w * cov.sigma_many(lags)

    return sum_over_shells(term, template.d, rel_tol=rel_tol, include_origin=False)
