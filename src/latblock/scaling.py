"""Optimal subsample scale: the theoretical formula and two data-driven selectors.

The mean squared error of a subsample variance estimator balances a variance
term growing with the subsample scale against a squared bias term shrinking
with it; the minimizer grows like the (d+2)-th root of the region volume.
The plug-in selector estimates the unknown long-run variance and bias
constant from two pilot scales; the subsample-of-subsamples selector
minimizes an empirical MSE curve on pilot blocks and recalibrates the argmin
by the volume-ratio power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ShapeConstants, k0 as shape_k0
from .errors import (
    ConfigError,
    DegenerateSubsampling,
    InsufficientCandidates,
    LatblockError,
    ZeroBiasConstant,
)
from .estimators import (
    FieldSample,
    SmoothStatistic,
    SubsamplePlan,
    design_plan,
    estimate,
    estimate_values,
)
from .geometry import NOL, OL, LatticeWindow, Region, SubsampleSpec, lattice_sites


@dataclass(frozen=True)
class ScalingPlan:
    """Chosen subsample scale with the diagnostics that produced it."""

    scheme: str
    lambda_opt_real: float
    lambda_opt_int: int
    diagnostics: dict = field(default_factory=dict, compare=False)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _clamp_scale(x: float, region: Region | None) -> int:
    v = max(1, _round_half_up(x))
    if region is not None:
        hi = max(1, int(math.ceil(min(region.scale))) - 1)
        v = min(v, hi)
    return v


def theoretical_scaling(
    d: int,
    det_delta: float,
    b0: float,
    tau_sq: float,
    shape: ShapeConstants,
    scheme: str = OL,
    region: Region | None = None,
) -> ScalingPlan:
    """MSE-optimal subsample scale from the variance and bias constants.

    Overlapping: (det(Delta) * B0^2 / (d * K0 * tau^4))^(1/(d+2)).
    Nonoverlapping: (det(Delta) * |R0| * B0^2 / (d * tau^4))^(1/(d+2)).
    """
    if scheme not in (OL, NOL):
        raise ConfigError("scheme must be 'ol' or 'nol'")
    if tau_sq <= 0 or not np.isfinite(tau_sq):
        raise ConfigError("tau_sq must be positive and finite")
    if not (math.isfinite(det_delta) and det_delta > 0):
        raise ConfigError("det_delta must be positive and finite")
    if not np.isfinite(b0):
        raise ConfigError("b0 must be finite")
    if b0 == 0.0:
        raise ZeroBiasConstant(
            "bias constant is zero: the leading-order MSE balance degenerates"
        )
    try:
        if scheme == OL:
            base = det_delta * b0**2 / (d * shape.k0 * tau_sq**2)
        else:
            base = det_delta * shape.volume * b0**2 / (d * tau_sq**2)
        lam = base ** (1.0 / (d + 2))
    except (OverflowError, ZeroDivisionError):  # a square beyond the float range
        lam = math.inf
    if not math.isfinite(lam):
        raise ConfigError(
            f"the optimal scale is out of range: det_delta = {det_delta}, b0 = {b0}, "
            f"tau_sq = {tau_sq}"
        )
    return ScalingPlan(
        scheme=scheme,
        lambda_opt_real=float(lam),
        lambda_opt_int=_clamp_scale(lam, region),
        diagnostics={
            "d": d,
            "det_delta": det_delta,
            "b0": b0,
            "tau_sq": tau_sq,
            "k0": shape.k0,
            "volume": shape.volume,
        },
    )


# ---------------------------------------------------------------------------
# nonparametric plug-in
# ---------------------------------------------------------------------------


def npi_pilot_scales(region_volume: float, d: int, c1: float, c2: float):
    """Raw and rounded pilot scales for the plug-in selector."""
    if not all(math.isfinite(c) and c > 0 for c in (c1, c2)):
        raise ConfigError(f"pilot constants must be positive and finite, got c1 = {c1}, c2 = {c2}")
    s1 = c1 * region_volume ** (1.0 / (d + 2))
    s2 = c2 * region_volume ** (1.0 / (d + 4))
    return s1, s2, max(1, _round_half_up(s1)), max(1, _round_half_up(s2))


def npi_region_pilots(region: Region, c1: float, c2: float):
    """``npi_pilot_scales`` on ``region``, refusing pilots outside it.

    The selector estimates at s1, s2 and 2 * s2; like the scales of an MSE
    grid, each must lie below min(region.scale).
    """
    s1_raw, s2_raw, s1, s2 = npi_pilot_scales(region.volume(), region.d, c1, c2)
    top = min(region.scale)
    if max(s1, 2 * s2) >= top:
        raise ConfigError(
            f"npi pilot scales s1 = {s1} and 2*s2 = {2 * s2} (c1 = {c1}, c2 = {c2}) "
            f"must lie below min(region scale) = {top:g}"
        )
    return s1_raw, s2_raw, s1, s2


def npi_bias_estimate(tau_fn, pilot: int) -> float:
    """Two-scale difference estimate of the bias constant.

    Exact on any estimator curve of the form tau2 - b0/scale.
    """
    if pilot < 1:
        raise ConfigError("pilot scale must be a positive integer")
    return 2.0 * pilot * (tau_fn(2 * pilot) - tau_fn(pilot))


def npi_scaling(
    sample: FieldSample,
    region: Region,
    stat: SmoothStatistic,
    c1: float = 0.5,
    c2: float = 0.5,
    scheme: str = OL,
) -> ScalingPlan:
    """Plug-in estimate of the optimal subsample scale from pilot estimators."""
    d = region.d
    s1_raw, s2_raw, s1, s2 = npi_region_pilots(region, c1, c2)

    def tau_fn(lam: int) -> float:
        spec = SubsampleSpec(region.template, float(lam), scheme)
        return estimate(sample, region, spec, stat).tau_hat_sq

    tau2_hat = tau_fn(s1)
    b0_hat = npi_bias_estimate(tau_fn, s2)
    shape = shape_k0(region.template)
    plan = theoretical_scaling(
        d, region.det_scale(), b0_hat, tau2_hat, shape, scheme, region=region
    )
    diag = dict(plan.diagnostics)
    diag.update(
        {
            "c1": c1,
            "c2": c2,
            "pilot1_raw": s1_raw,
            "pilot2_raw": s2_raw,
            "pilot1": s1,
            "pilot2": s2,
            "tau_sq_hat": tau2_hat,
            "b0_hat": b0_hat,
        }
    )
    return ScalingPlan(plan.scheme, plan.lambda_opt_real, plan.lambda_opt_int, diag)


# ---------------------------------------------------------------------------
# empirical MSE minimization on pilot blocks
# ---------------------------------------------------------------------------


def hj_recalibrate(s_hat_pilot: float, volume_ratio: float, d: int) -> float:
    """Power-law recalibration from pilot-block scale to the full region."""
    if volume_ratio <= 0:
        raise ConfigError("volume ratio must be positive")
    return s_hat_pilot * volume_ratio ** (1.0 / (2 + d))


def hj_candidate_scales(
    region: Region, lambda_m: int, candidates=None, min_candidates: int = 5
) -> list:
    """hj's sorted candidate scales; raises for settings no sample can satisfy."""
    if min_candidates < 1:
        raise ConfigError(f"min_candidates must be at least 1, got {min_candidates}")
    if lambda_m >= min(region.scale):
        raise ConfigError("lambda_m must be smaller than the region scaling")
    if lambda_m < 2:
        raise ConfigError("lambda_m must be at least 2")
    if candidates is None:
        candidates = list(range(2, lambda_m))
    candidates = sorted(int(c) for c in candidates)
    if any(c < 1 or c >= lambda_m for c in candidates):
        raise ConfigError("candidates must be integers in [1, lambda_m)")
    if len(candidates) < min_candidates:
        raise InsufficientCandidates(
            f"{len(candidates)} candidate scale(s); {min_candidates} required"
        )
    return candidates


@dataclass(frozen=True)
class HjDesign:
    """hj's data-independent designs at one lambda_m on one window."""

    blocks: SubsamplePlan  # the window's OL design of the pilot region
    local: tuple  # ((c, plan on the pilot window), ...) for usable candidates c
    dropped: tuple  # ((c, error class name), ...) for candidates without a design
    volume_ratio: float  # region volume over pilot-region volume


def hj_designs(
    window: LatticeWindow,
    region: Region,
    lambda_m: int,
    candidates=None,
    scheme: str = OL,
    min_candidates: int = 5,
) -> HjDesign:
    """The pilot blocks of ``region`` and the candidate designs on one block.

    Every overlapping translate of the lambda_m-scaled template is a block;
    a candidate whose design on the pilot window fails to build or holds
    fewer than two subsamples is dropped.
    """
    d = region.d
    candidates = hj_candidate_scales(region, lambda_m, candidates, min_candidates)
    blocks = design_plan(window, region, SubsampleSpec(region.template, float(lambda_m), OL))
    pilot_region = Region(region.template, (float(lambda_m),) * d, region.shift)
    pilot_window = lattice_sites(pilot_region)
    local, dropped = [], []
    for c in candidates:
        try:
            plan = design_plan(
                pilot_window, pilot_region, SubsampleSpec(region.template, float(c), scheme)
            )
            if plan.index_set.n_subsamples < 2:
                raise DegenerateSubsampling(f"{plan.index_set.n_subsamples} subsample(s)")
        except LatblockError as exc:
            dropped.append((c, type(exc).__name__))
            continue
        local.append((c, plan))
    ratio = region.det_scale() / float(lambda_m) ** d
    return HjDesign(blocks, tuple(local), tuple(dropped), ratio)


def hj_choose(usable: list, mse_curve, volume_ratio: float, region: Region) -> tuple:
    """(pilot argmin, recalibrated scale, its clamped integer) of an MSE curve.

    The argmin breaks ties toward the smallest of the sorted ``usable``
    candidates.
    """
    if not usable:
        raise DegenerateSubsampling("no candidate scale is estimable on the pilot blocks")
    best = usable[int(np.argmin(mse_curve))]
    lam_real = hj_recalibrate(float(best), volume_ratio, region.d)
    return best, lam_real, _clamp_scale(lam_real, region)


def hj_scaling(
    sample: FieldSample,
    region: Region,
    stat: SmoothStatistic,
    lambda_m: int,
    candidates=None,
    scheme: str = OL,
    min_candidates: int = 5,
) -> ScalingPlan:
    """Empirical-MSE selection of the subsample scale on pilot blocks.

    Every overlapping translate of the lambda_m-scaled template acts as a
    small sampling region; the scheme's estimator runs on each block at every
    candidate scale, the squared deviation from the full-region estimator at
    lambda_m is averaged into an MSE curve, and the argmin (ties to the
    smallest) is recalibrated by the region-to-block volume ratio.
    """
    lambda_m = int(lambda_m)
    design = hj_designs(sample.window, region, lambda_m, candidates, scheme, min_candidates)
    proxy = estimate(
        sample, region, SubsampleSpec(region.template, float(lambda_m), scheme), stat
    ).tau_hat_sq

    mse_curve = []
    usable = []
    dropped = list(design.dropped)
    block_values = sample.values[design.blocks.row_matrix]  # (B, nB, p), pilot-window order
    for c, local in design.local:
        # a statistic undefined on some block's subsample drops the candidate
        try:
            tau_blocks = estimate_values(local, block_values, stat)[2]  # (B,)
        except LatblockError as exc:
            dropped.append((c, type(exc).__name__))
            continue
        mse_curve.append(float(np.mean((tau_blocks - proxy) ** 2)))
        usable.append(c)

    best, lam_real, lam_int = hj_choose(usable, mse_curve, design.volume_ratio, region)
    return ScalingPlan(
        scheme=scheme,
        lambda_opt_real=float(lam_real),
        lambda_opt_int=lam_int,
        diagnostics={
            "lambda_m": lambda_m,
            "candidates": usable,
            "dropped": sorted(dropped),
            "mse_curve": mse_curve,
            "s_hat_pilot": best,
            "proxy_tau_sq": proxy,
            "volume_ratio": design.volume_ratio,
            "n_blocks": int(design.blocks.index_set.n_subsamples),
        },
    )
