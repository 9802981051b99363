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
from functools import lru_cache

import numpy as np

from .constants import ShapeConstants, k0 as shape_k0
from .errors import (
    ConfigError,
    DegenerateSubsampling,
    EmptySubsampleSet,
    EmptyWindow,
    InsufficientCandidates,
    LatblockError,
    ZeroBiasConstant,
)
from .estimators import (
    FieldSample,
    SmoothStatistic,
    SubsamplePlan,
    design_plan,
    estimate_blocks,
    estimate_image,
    field_image,
)
from .geometry import (
    DESIGN_CACHE_SIZE,
    NOL,
    OL,
    LatticeWindow,
    Region,
    SubsampleSpec,
    enumerate_nol,
    lattice_sites,
)


@dataclass(frozen=True)
class ScalingPlan:
    """Chosen subsample scale with the diagnostics that produced it."""

    scheme: str
    lambda_opt_real: float
    lambda_opt_int: int
    diagnostics: dict = field(default_factory=dict, compare=False)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _clamp_scale(x: float, region: Region | None, scheme: str) -> int:
    v = max(1, _round_half_up(x))
    return v if region is None else min(v, _scale_cap(region, scheme))


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _scale_cap(region: Region, scheme: str) -> int:
    """The largest integer scale a selector returns on ``region``: one below
    its shortest side, and for NOL the last scale up to which every NOL
    design on the region's template holds at least two subsamples.

    The count of NOL subsamples falls as the scale grows, so that is the
    largest scale with two; the scan goes up from 1 because the designs near
    the side are the costly ones to build.
    """
    cap = max(1, math.ceil(min(region.scale)) - 1)
    if scheme == OL:
        return cap
    s_lam = 1
    while s_lam < cap and _nol_subsamples(region, s_lam + 1) >= 2:
        s_lam += 1
    return s_lam


def _nol_subsamples(region: Region, s_lam: int) -> int:
    try:
        design = enumerate_nol(region, SubsampleSpec(region.template, float(s_lam), NOL))
    except (EmptySubsampleSet, EmptyWindow):
        return 0
    return design.n_subsamples


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
    diagnostics = dict(
        d=d, det_delta=det_delta, b0=b0, tau_sq=tau_sq, k0=shape.k0, volume=shape.volume
    )
    return ScalingPlan(scheme, float(lam), _clamp_scale(lam, region, scheme), diagnostics)


# ---------------------------------------------------------------------------
# nonparametric plug-in
# ---------------------------------------------------------------------------


def npi_pilot_scales(region_volume: float, d: int, c1: float, c2: float):
    """Raw and rounded pilot scales for the plug-in selector."""
    if not all(math.isfinite(c) and c > 0 for c in (c1, c2)):
        raise ConfigError(f"pilot constants must be positive and finite, got c1 = {c1}, c2 = {c2}")
    s1 = c1 * region_volume ** (1.0 / (d + 2))
    s2 = c2 * region_volume ** (1.0 / (d + 4))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise ConfigError(
            f"npi pilot scales are out of range: s1 = {s1}, s2 = {s2} "
            f"(region volume {region_volume})"
        )
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
    """Plug-in estimate of the optimal subsample scale from pilot estimators:
    ``SelectorEngine`` on the one field ``sample``."""
    return _select_one(sample, region, stat, ("npi", c1, c2, None), scheme)


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
    repeated = sorted({c for c in candidates if candidates.count(c) > 1})
    if repeated:  # else a repeat would count toward min_candidates
        raise ConfigError(f"candidates repeat {repeated}: {candidates}")
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


def hj_choose(usable: list, mse_curve, volume_ratio: float, region: Region, scheme: str) -> tuple:
    """(pilot argmin, recalibrated scale, its integer clamped for ``scheme``)
    of an MSE curve.

    The argmin breaks ties toward the smallest of the sorted ``usable``
    candidates.
    """
    if not usable:
        raise DegenerateSubsampling("no candidate scale is estimable on the pilot blocks")
    best = usable[int(np.argmin(mse_curve))]
    lam_real = hj_recalibrate(float(best), volume_ratio, region.d)
    return best, lam_real, _clamp_scale(lam_real, region, scheme)


def hj_scaling(
    sample: FieldSample,
    region: Region,
    stat: SmoothStatistic,
    lambda_m: int,
    candidates=None,
    scheme: str = OL,
    min_candidates: int = 5,
) -> ScalingPlan:
    """Empirical-MSE selection of the subsample scale on pilot blocks
    (``SelectorEngine`` on the one field ``sample``): the MSE curve of the
    candidates' estimates on every lambda_m-scaled block against the region's
    estimate at lambda_m, its argmin (ties to the smallest) recalibrated by
    the region-to-block volume ratio.
    """
    setting = ("hj", None, None, int(lambda_m))
    return _select_one(sample, region, stat, setting, scheme, candidates, min_candidates)


def _select_one(sample: FieldSample, region: Region, stat, setting, scheme, *hj_args):
    engine = SelectorEngine(sample.window, region, [setting], scheme, *hj_args)
    image = field_image(sample.window.table, sample.values[None])
    ((outcome,),) = engine.select(image, stat, {})
    if isinstance(outcome, LatblockError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# the selector engine
# ---------------------------------------------------------------------------


# Cells of the (R, p, M_local, B) block sums one ``estimate_blocks`` call
# gathers at most: hj takes a chunk's fields a few at a time past this bound.
_GATHER_CELLS = 1 << 17


class SelectorEngine:
    """npi and hj on R fields of one window, chosen from tau_hat_sq tables.

    ``settings`` holds ("npi", c1, c2, None) or ("hj", None, None, lambda_m)
    per selector setting.  The designs a selector reads are data-independent
    and built once: npi's pilot scales, hj's designs (or the
    ``LatblockError`` that refused them), the window's OL design at every
    usable hj candidate and the shape constants.
    """

    def __init__(self, window, region, settings, scheme=OL, candidates=None, min_candidates=5):
        self.window, self.region, self.scheme = window, region, scheme
        self.settings = list(settings)
        npi = [(c1, c2) for method, c1, c2, _ in self.settings if method == "npi"]
        self.pilots = {c: npi_region_pilots(region, *c) for c in npi}  # (s1_raw, s2_raw, s1, s2)
        self.shape = shape_k0(region.template) if self.pilots else None
        self.hj = {}  # lambda_m -> HjDesign, or the error that fails it on every field
        for method, _, _, lm in self.settings:
            if method == "hj":
                try:
                    self.hj[lm] = hj_designs(window, region, lm, candidates, scheme, min_candidates)
                except LatblockError as exc:
                    self.hj[lm] = exc
        designs = [design for design in self.hj.values() if isinstance(design, HjDesign)]
        self.full = {  # the window's OL design at each usable candidate scale
            c: design_plan(window, region, SubsampleSpec(region.template, float(c), OL))
            for design in designs for c, _ in design.local
        }

    def tau(self, image: np.ndarray, stat: SmoothStatistic, taus: dict, lam: int) -> list:
        """The (R,) tau_hat_sq table of ``image`` at scale ``lam``, memo ``taus``."""
        if lam not in taus:
            spec = SubsampleSpec(self.region.template, float(lam), self.scheme)
            plan = design_plan(self.window, self.region, spec)
            taus[lam] = estimate_image(plan, image, stat)[2].tolist()
        return taus[lam]

    def select(self, image: np.ndarray, stat: SmoothStatistic, taus: dict) -> list:
        """Per field of ``image`` (the ``field_image`` of R fields), per setting,
        the ``ScalingPlan`` chosen, or the ``LatblockError`` it raised.

        Each scale is read from one tau_hat_sq table (``tau``), and hj's block
        estimates from ``estimate_blocks``, a few fields a call so that each
        gathers at most ``_GATHER_CELLS`` block sums.  A candidate whose
        statistic is undefined on some block is dropped for all R fields at
        once.  Only a ratio of means can be, and only one field (R = 1) meets
        it: studies lift only polynomial statistics.
        """
        curves = {}  # lambda_m -> (usable candidates, dropped, per candidate the (R,) MSE)
        out = []
        for r in range(image.shape[-1]):
            out.append([])
            for method, c1, c2, lm in self.settings:
                try:
                    if method == "npi":
                        out[r].append(self._npi(image, stat, taus, r, c1, c2))
                    else:
                        out[r].append(self._hj(image, stat, taus, curves, r, lm))
                except LatblockError as exc:
                    out[r].append(exc)
        return out

    def _npi(self, image, stat, taus, r, c1, c2) -> ScalingPlan:
        s1_raw, s2_raw, s1, s2 = self.pilots[c1, c2]
        tau2_hat = self.tau(image, stat, taus, s1)[r]
        b0_hat = npi_bias_estimate(lambda lam: self.tau(image, stat, taus, lam)[r], s2)
        region = self.region
        plan = theoretical_scaling(
            region.d, region.det_scale(), b0_hat, tau2_hat, self.shape, self.scheme, region=region
        )
        plan.diagnostics.update(
            c1=c1, c2=c2, pilot1_raw=s1_raw, pilot2_raw=s2_raw, pilot1=s1, pilot2=s2,
            tau_sq_hat=tau2_hat, b0_hat=b0_hat,
        )
        return plan

    def _hj(self, image, stat, taus, curves, r, lm) -> ScalingPlan:
        design = self.hj[lm]
        if isinstance(design, LatblockError):
            raise design.with_traceback(None)
        proxy = self.tau(image, stat, taus, lm)
        if lm not in curves:
            usable, dropped, mse = [], list(design.dropped), []
            n_blocks = design.blocks.index_set.n_subsamples
            for c, local in design.local:
                width = max(1, _GATHER_CELLS // (n_blocks * local.index_set.n_subsamples * stat.p))
                parts = [image[..., i : i + width] for i in range(0, image.shape[-1], width)]
                args = (self.full[c], design.blocks, local, stat)
                try:
                    tau_blocks = np.concatenate([estimate_blocks(x, *args) for x in parts])
                except LatblockError as exc:
                    dropped.append((c, type(exc).__name__))
                    continue
                mse.append(((tau_blocks - np.array(proxy)[:, None]) ** 2).mean(-1).tolist())
                usable.append(c)
            curves[lm] = usable, sorted(dropped), mse
        usable, dropped, mse = curves[lm]
        curve = [row[r] for row in mse]
        best, lam_real, lam_int = hj_choose(
            usable, curve, design.volume_ratio, self.region, self.scheme
        )
        diagnostics = dict(
            lambda_m=lm, candidates=list(usable), dropped=list(dropped), mse_curve=curve,
            s_hat_pilot=best, proxy_tau_sq=proxy[r], volume_ratio=design.volume_ratio,
            n_blocks=int(design.blocks.index_set.n_subsamples),
        )
        return ScalingPlan(self.scheme, float(lam_real), lam_int, diagnostics)
