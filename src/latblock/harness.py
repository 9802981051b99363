"""Monte Carlo studies: normalized-MSE sweeps, empirical optimal scales and
selector performance, with deterministic seeding and CSV emission.

A study simulates each replicate field once and evaluates every estimator
cell on it, so cells share common random numbers.  Replicates run one after
another, each drawing from its own counter-based substream keyed by (seed,
region, model, replicate).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .constants import k0 as shape_k0
from .covariance import Covariogram, exact_tau_n_sq_window, parse_covariogram
from .errors import ConfigError, DegenerateSubsampling, InsufficientCandidates, LatblockError
from .estimators import (
    SmoothStatistic,
    design_plan,
    estimate,
    estimate_blocks,
    estimate_image,
    estimate_values,
    field_image,
    parse_statistic,
)
from .fieldsim import (
    LIFTED_STATISTICS,
    build_generator,
    lift_for_statistic,
    sample_field,
    substream,
)
from .geometry import NOL, OL, Region, SubsampleSpec, Template, lattice_sites, parse_template
from .scaling import (
    hj_candidate_scales,
    hj_choose,
    hj_designs,
    hj_scaling,
    npi_bias_estimate,
    npi_pilot_scales,
    npi_scaling,
    theoretical_scaling,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    name: str
    template: Template
    scale: tuple

    def region(self) -> Region:
        return Region(self.template, self.scale)


@dataclass(frozen=True)
class SelectorConfig:
    npi_c1: tuple = ()
    npi_c2: tuple = ()
    hj_lambda_m: tuple = ()
    hj_candidates: tuple | None = None
    hj_min_candidates: int = 5
    scheme: str = OL
    s_lambda_opt: dict | None = None  # "region|model" -> int; None means auto

    def __post_init__(self):
        if self.scheme not in (OL, NOL):
            raise ConfigError(f"unknown selector scheme {self.scheme!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Declarative Monte Carlo experiment, schema-validated before compute."""

    regions: tuple
    covariograms: tuple  # ((name, Covariogram), ...)
    statistic: SmoothStatistic
    statistic_name: str
    schemes: tuple
    sub_templates: tuple  # ((name, Template | None), ...); None = region template
    s_lambda_grid: dict  # region name -> tuple of ints
    replicates: int
    seed: int
    selectors: SelectorConfig
    outputs: dict = field(default_factory=dict)
    tau_n_sq_override: dict = field(default_factory=dict)


def check_workers(value) -> None:
    """Validate a ``workers`` setting, which is accepted and ignored:
    replicates run serially (see the README's design notes)."""
    if _number(value, "workers", integer=True) < 1:
        raise ConfigError(f"workers must be at least 1, got {value}")


def load_config(path: str) -> StudyConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


# The keys of each map in a study config (the README schema); others are refused.
_KEYS = {
    "config": {
        "regions", "covariograms", "statistic", "schemes", "sub_templates", "s_lambda_grid",
        "replicates", "seed", "selectors", "outputs", "tau_n_sq", "workers",
    },
    "region": {"name", "template", "scale"},
    "covariogram": {"name", "spec"},
    "sub_template": {"name", "spec"},
    "selectors": {"npi", "hj", "scheme", "s_lambda_opt"},
    "selectors.npi": {"c1", "c2"},
    "selectors.hj": {"lambda_m", "candidates", "min_candidates"},
    "outputs": {"mse_csv", "scaling_csv", "phi_csv"},
}


def _fields(value, where: str, required=()) -> dict:
    """``value`` as the config map ``where``, with its required keys and no others."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - _KEYS[where], key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where} is missing {key!r}")
    return value


def _number(value, key: str, integer: bool = False):
    """A finite config number, integral where ``integer`` is set.

    Text, booleans, lists and fractional values of integer fields raise a
    ConfigError naming ``key``.
    """
    num = math.nan
    if not isinstance(value, bool):
        try:
            if integer and not isinstance(value, float):
                return int(value)
            num = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if math.isfinite(num) and (not integer or num.is_integer()):
        return int(num) if integer else num
    kind = "an integer" if integer else "a finite number"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _list(values, key: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return values


def _text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _numbers(values, key: str, integer: bool = False) -> tuple:
    return tuple(_number(v, f"{key} entry", integer) for v in _list(values, key))


def _number_map(values, key: str, integer: bool = False) -> dict:
    if not isinstance(values, dict):
        raise ConfigError(f"{key} must be a map of region|model -> number")
    return {str(k): _number(v, f"{key}[{k!r}]", integer) for k, v in values.items()}


def config_from_dict(raw: dict) -> StudyConfig:
    raw = _fields(raw, "config", required=("regions", "covariograms", "replicates", "seed"))

    regions = []
    for item in _list(raw["regions"], "regions"):
        item = _fields(item, "region", required=("template", "scale"))
        template = parse_template(_text(item["template"], "region.template"))
        scale = item["scale"]
        scale = _numbers(scale if isinstance(scale, (list, tuple)) else [scale], "region.scale")
        default = f"{item['template']}@{'x'.join(str(s) for s in scale)}"
        name = _text(item.get("name", default), "region.name") or default
        regions.append(RegionSpec(name=name, template=template, scale=scale))
    if not regions:
        raise ConfigError("config needs at least one region")
    names = [r.name for r in regions]
    if len(set(names)) != len(names):
        raise ConfigError("region names must be unique")
    dims = sorted({r.template.d for r in regions})
    if len(dims) > 1:  # every covariogram is parsed for, and used on, every region
        raise ConfigError(f"regions must share one dimension, got d = {dims}")

    covs = []
    for item in _list(raw["covariograms"], "covariograms"):
        if isinstance(item, str):
            spec_str, name = item, item
        else:
            item = _fields(item, "covariogram", required=("spec",))
            spec_str = _text(item["spec"], "covariogram.spec")
            name = _text(item.get("name", spec_str), "covariogram.name")
        covs.append((name, parse_covariogram(spec_str, d=regions[0].template.d)))
    if not covs:
        raise ConfigError("config needs at least one covariogram")
    if len({name for name, _ in covs}) != len(covs):
        raise ConfigError("covariogram names must be unique")

    stat_name = str(raw.get("statistic", "mean"))
    statistic = parse_statistic(stat_name)
    if statistic.name not in LIFTED_STATISTICS:
        raise ConfigError(
            f"statistic {stat_name!r} has no scalar-field lift, so a study cannot simulate it"
        )

    schemes = tuple(str(s).lower() for s in _list(raw.get("schemes", [OL]), "schemes"))
    for s in schemes:
        if s not in (OL, NOL):
            raise ConfigError(f"unknown scheme {s!r}")
    if len(set(schemes)) != len(schemes):
        raise ConfigError(f"schemes must not repeat a scheme, got {list(schemes)}")

    subs = []
    for item in _list(raw.get("sub_templates", [None]), "sub_templates"):
        if item is None or item == "same":
            subs.append(("same", None))
        elif isinstance(item, str):
            subs.append((item, parse_template(item)))
        else:
            item = _fields(item, "sub_template", required=("spec",))
            spec = _text(item["spec"], "sub_template.spec")
            subs.append((_text(item.get("name", spec), "sub_template.name"), parse_template(spec)))
    sub_names = [s[0] for s in subs]
    if len(set(sub_names)) != len(sub_names):
        raise ConfigError("sub-template names must be unique")
    for name, sub in subs:
        if sub is not None and sub.d != dims[0]:
            raise ConfigError(
                f"sub-template {name!r} has d = {sub.d}, but the regions have d = {dims[0]}"
            )

    grid_raw = raw.get("s_lambda_grid", [])
    if isinstance(grid_raw, dict):
        unknown = sorted(set(grid_raw) - set(names), key=str)
        if unknown:
            raise ConfigError(f"s_lambda_grid names no region: {', '.join(map(repr, unknown))}")
    grid = {}
    for reg in regions:
        if isinstance(grid_raw, dict):
            vals = grid_raw.get(reg.name, [])
        else:
            vals = grid_raw
        vals = _numbers(vals, "s_lambda_grid", integer=True)
        if any(v < 1 for v in vals):
            raise ConfigError("subsample scales must be positive integers")
        if len(set(vals)) != len(vals):
            raise ConfigError(
                f"s_lambda_grid for region {reg.name!r} repeats a scale: {list(vals)}"
            )
        if any(v >= min(reg.scale) for v in vals):
            raise ConfigError(
                f"scale grid for region {reg.name!r} exceeds its scaling range"
            )
        grid[reg.name] = vals

    replicates = _number(raw["replicates"], "replicates", integer=True)
    if replicates < 100:
        raise ConfigError("studies need at least 100 replicates")
    seed = _number(raw["seed"], "seed", integer=True)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    check_workers(raw.get("workers", 1))

    sel_raw = _fields(raw.get("selectors", {}), "selectors")
    npi = _fields(sel_raw.get("npi", {}), "selectors.npi")
    hj = _fields(sel_raw.get("hj", {}), "selectors.hj")
    opt = sel_raw.get("s_lambda_opt")
    opt = _number_map(opt, "selectors.s_lambda_opt", integer=True) if opt is not None else {}
    selectors = SelectorConfig(
        npi_c1=_numbers(npi.get("c1", []), "selectors.npi.c1"),
        npi_c2=_numbers(npi.get("c2", []), "selectors.npi.c2"),
        hj_lambda_m=_numbers(hj.get("lambda_m", []), "selectors.hj.lambda_m", integer=True),
        hj_candidates=(
            _numbers(hj["candidates"], "selectors.hj.candidates", integer=True)
            if "candidates" in hj
            else None
        ),
        hj_min_candidates=_number(
            hj.get("min_candidates", 5), "selectors.hj.min_candidates", integer=True
        ),
        scheme=str(sel_raw.get("scheme", OL)).lower(),
        s_lambda_opt=opt or None,  # an empty map derives the scales, like no map
    )
    _check_selectors(regions, selectors)

    tau_n_sq = _number_map(raw.get("tau_n_sq", {}), "tau_n_sq")
    pairs = {f"{reg.name}|{name}": reg for reg in regions for name, _ in covs}
    for what, keys in (("selectors.s_lambda_opt", opt), ("tau_n_sq", tau_n_sq)):
        unknown = sorted(set(keys) - set(pairs))
        if unknown:
            raise ConfigError(
                f"{what} names no region|model pair: {', '.join(map(repr, unknown))}"
            )
    for key, value in opt.items():
        # the range of s_lambda_grid, where every scale has a subsample translate
        hi = min(pairs[key].scale)
        if not 1 <= value < hi:
            raise ConfigError(
                f"selectors.s_lambda_opt[{key!r}] must be at least 1 and below {hi:g}, got {value}"
            )
    for key, value in tau_n_sq.items():
        if value <= 0:
            raise ConfigError(f"tau_n_sq[{key!r}] must be positive, got {value}")

    return StudyConfig(
        regions=tuple(regions),
        covariograms=tuple(covs),
        statistic=statistic,
        statistic_name=stat_name,
        schemes=schemes,
        sub_templates=tuple(subs),
        s_lambda_grid=grid,
        replicates=replicates,
        seed=seed,
        selectors=selectors,
        outputs={
            key: _text(path, f"outputs.{key}")
            for key, path in _fields(raw.get("outputs", {}), "outputs").items()
        },
        tau_n_sq_override=tau_n_sq,
    )


def _check_selectors(regions, sel: SelectorConfig) -> None:
    """Refuse, before any study work, selector settings every replicate would
    refuse, and repeated settings."""
    for key, values in (
        ("npi.c1", sel.npi_c1),
        ("npi.c2", sel.npi_c2),
        ("hj.lambda_m", sel.hj_lambda_m),
        ("hj.candidates", sel.hj_candidates or ()),
    ):
        if len(set(values)) != len(values):
            raise ConfigError(f"selectors.{key} repeats an entry: {list(values)}")
    if sel.hj_min_candidates < 1:
        raise ConfigError(
            f"selectors.hj.min_candidates must be at least 1, got {sel.hj_min_candidates}"
        )
    for reg in regions:
        region = reg.region()
        try:
            for c1 in sel.npi_c1:
                for c2 in sel.npi_c2:
                    npi_pilot_scales(region.volume(), region.d, c1, c2)
            for lambda_m in sel.hj_lambda_m:
                hj_candidate_scales(region, lambda_m, sel.hj_candidates, sel.hj_min_candidates)
        except (ConfigError, InsufficientCandidates) as exc:
            raise ConfigError(f"selectors on region {reg.name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class MseCell:
    region: str
    model: str
    scheme: str
    sub_template: str
    s_lambda: int
    mse: float | None
    mc_se: float | None
    reps: int
    note: str = ""
    deviations: np.ndarray | None = None


@dataclass
class PhiRow:
    region: str
    model: str
    scheme: str
    method: str
    c1: float | None
    c2: float | None
    lambda_m: int | None
    s_lambda_opt: int
    e_phi_sq: float | None
    mc_se: float | None
    reps: int
    freq: dict = field(default_factory=dict)
    note: str = ""


def _mean_se(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        se = 0.0
    return mean, se


def _tau_n(config: StudyConfig, key: str, window, cov: Covariogram) -> float:
    if key in config.tau_n_sq_override:
        return config.tau_n_sq_override[key]
    if not config.statistic.is_linear:
        raise ConfigError(
            "normalized MSE needs tau_n_sq overrides for nonlinear statistics"
        )
    return exact_tau_n_sq_window(window, cov)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _study_pairs(config: StudyConfig):
    """The study loop: every (region, model) pair with its replicate samples.

    Yields ``(reg_spec, region, window, model, tau_n, samples)`` per pair,
    region by region.  ``samples`` iterates over the pair's replicates in
    order, drawing each field from its own substream and lifting it for the
    statistic; it builds the pair's generator at its first draw.
    """
    for r_idx, reg_spec in enumerate(config.regions):
        region = reg_spec.region()
        window = lattice_sites(region)
        for c_idx, (cov_name, cov) in enumerate(config.covariograms):
            tau_n = _tau_n(config, f"{reg_spec.name}|{cov_name}", window, cov)
            # replicate streams of this pair: one contiguous index range
            first = (r_idx * len(config.covariograms) + c_idx) * config.replicates
            samples = _samples(config, cov, window, range(first, first + config.replicates))
            yield reg_spec, region, window, cov_name, tau_n, samples


def _samples(config: StudyConfig, cov: Covariogram, window, streams):
    gen = build_generator(cov, window)
    for rep in streams:
        fld = sample_field(gen, substream(config.seed, rep))
        yield lift_for_statistic(fld, config.statistic_name)


def _cell_designs(config: StudyConfig, reg_spec: RegionSpec, region: Region, window) -> list:
    """((scheme, sub_template, s_lambda), plan or None, dead-cell note) per MSE cell."""
    out = []
    for scheme in config.schemes:
        for sub_name, sub_template in config.sub_templates:
            template = sub_template if sub_template is not None else region.template
            for lam in config.s_lambda_grid[reg_spec.name]:
                try:
                    plan = design_plan(window, region, SubsampleSpec(template, float(lam), scheme))
                    if plan.index_set.n_subsamples < 2:
                        raise DegenerateSubsampling(f"{plan.index_set.n_subsamples} subsample(s)")
                    out.append(((scheme, sub_name, lam), plan, ""))
                except LatblockError as exc:
                    out.append(((scheme, sub_name, lam), None, type(exc).__name__))
    # estimable cells first, then the dead ones, each in grid order
    return sorted(out, key=lambda cell: cell[1] is None)


# Field-image cells per replicate chunk of the MSE study (256 kB of float64):
# a chunk's image stays in cache while every design of the window reads it.
_IMAGE_BLOCK_CELLS = 1 << 15


def _replicate_taus(plans: list, samples, stat: SmoothStatistic, window, replicates: int):
    """tau_hat_sq of every design on every replicate, shape (replicates, designs).

    A scalar statistic on a shared-count design takes a chunk of replicates
    at a time through one field image shared by all such designs; ragged
    designs and p > 1 statistics take an ``estimate_values`` call per
    replicate.  Both give the bits of ``estimate_values``.
    """
    taus = np.empty((replicates, len(plans)))
    if not plans:
        return taus  # no live cell: draw no field
    batched = [i for i, plan in enumerate(plans) if plan.grid is not None and stat.p == 1]
    single = [i for i in range(len(plans)) if i not in batched]
    table = window.indexer().table
    block = max(1, _IMAGE_BLOCK_CELLS // table.size)
    start = 0
    while chunk := list(islice(samples, block)):
        stop = start + len(chunk)
        if batched:
            image = field_image(table, np.stack([sample.values[:, 0] for sample in chunk]))
            for i in batched:
                taus[start:stop, i] = estimate_image(plans[i], image, stat)
        for rep, sample in enumerate(chunk, start):
            for i in single:
                taus[rep, i] = estimate_values(plans[i], sample.values, stat)[2]
        start = stop
    return taus


def mse_study(config: StudyConfig) -> list[MseCell]:
    """Normalized MSE of the subsample variance estimators over the cell grid."""
    stat = config.statistic
    cells: list[MseCell] = []
    designs: dict = {}
    for reg_spec, region, window, cov_name, tau_n, samples in _study_pairs(config):
        if reg_spec.name not in designs:
            designs[reg_spec.name] = _cell_designs(config, reg_spec, region, window)
        grid = designs[reg_spec.name]
        live = [plan for _, plan, _ in grid if plan is not None]
        taus = _replicate_taus(live, samples, stat, window, config.replicates)
        per_rep = [[(tau / tau_n - 1.0) ** 2 for tau in row] for row in taus.tolist()]
        columns = iter(np.asarray(per_rep, float).reshape(config.replicates, len(live)).T)
        for (scheme, sub_name, lam), plan, note in grid:
            devs = next(columns) if plan is not None else None
            mse, se = _mean_se(devs) if plan is not None else (None, None)
            cells.append(
                MseCell(
                    region=reg_spec.name,
                    model=cov_name,
                    scheme=scheme,
                    sub_template=sub_name,
                    s_lambda=lam,
                    mse=mse,
                    mc_se=se,
                    reps=config.replicates,
                    note=note,
                    deviations=devs,
                )
            )
    return cells


def optimal_scaling_rows(cells: list[MseCell]) -> list[dict]:
    """Per-column argmin of the MSE grid; ties break toward the smaller scale."""
    groups: dict = {}
    for cell in cells:
        groups.setdefault(
            (cell.region, cell.model, cell.scheme, cell.sub_template), []
        ).append(cell)
    rows = []
    for (region, model, scheme, sub_name), group in groups.items():
        live = [c for c in group if c.mse is not None]
        best = min(live, key=lambda c: (c.mse, c.s_lambda)) if live else None
        rows.append(
            {
                "region": region,
                "model": model,
                "scheme": scheme,
                "sub_template": sub_name,
                "s_lambda_opt": best.s_lambda if best else None,
                "mse_at_opt": best.mse if best else None,
                "reps": (best or group[0]).reps,
                "note": "" if best else "no estimable cells",
            }
        )
    return rows


def optimal_scaling_study(config: StudyConfig) -> list[dict]:
    return optimal_scaling_rows(mse_study(config))


def _oracle_scales(config: StudyConfig, scaling_rows: list | None = None) -> dict:
    """"region|model" -> oracle scale of the selector study.

    Pinned by ``selectors.s_lambda_opt``, otherwise the MSE-grid argmin of the
    selector scheme on the region's own template; ``scaling_rows`` saves
    running the MSE study again when the caller already has them.
    """
    if config.selectors.s_lambda_opt is not None:
        return dict(config.selectors.s_lambda_opt)
    if scaling_rows is None:
        scaling_rows = optimal_scaling_study(config)
    return {
        f"{row['region']}|{row['model']}": row["s_lambda_opt"]
        for row in scaling_rows
        if row["scheme"] == config.selectors.scheme
        and row["sub_template"] == "same"
        and row["s_lambda_opt"] is not None
    }


def _deviations_per_replicate(samples, region, stat, sel, methods, s_opt, tau_n):
    """Per replicate, (s_hat, phi) of every selector setting in ``methods``.

    The reference path: one ``npi_scaling`` or ``hj_scaling`` call per
    setting and replicate.  ``phi`` is the selected scale's estimate less the
    oracle scale's, over tau_n.
    """

    def tau_at(sample, lam):
        spec = SubsampleSpec(region.template, float(lam), sel.scheme)
        return estimate(sample, region, spec, stat).tau_hat_sq

    for sample in samples:
        tau_opt = tau_at(sample, s_opt)
        out = []
        for method, c1, c2, lm in methods:
            if method == "npi":
                plan = npi_scaling(sample, region, stat, c1, c2, sel.scheme)
            else:
                plan = hj_scaling(
                    sample,
                    region,
                    stat,
                    lm,
                    candidates=sel.hj_candidates,
                    scheme=sel.scheme,
                    min_candidates=sel.hj_min_candidates,
                )
            s_hat = plan.lambda_opt_int
            out.append((s_hat, (tau_at(sample, s_hat) - tau_opt) / tau_n))
        yield out


# Cells of the widest array a chunk of the selector study gathers: hj's
# (replicates, pilot blocks, local subsamples) sums at one candidate.
_GATHER_CELLS = 1 << 17


def _deviations_by_chunk(samples, window, region, stat, sel, methods, s_opt, tau_n):
    """``_deviations_per_replicate`` for a scalar statistic, a chunk of
    replicates at a time.

    Every design a selector reads is data-independent.  So a chunk goes
    through one field image, and each scale it needs (the oracle, npi's
    pilots, hj's proxy and every chosen scale) gets a tau_hat_sq table from
    ``estimate_image``.  hj's block estimates are gathered from the whole
    window's OL subsample sums (``estimate_blocks``).  The selectors then run
    per replicate on these tables with the helpers ``npi_scaling`` and
    ``hj_scaling`` use, so every value keeps its bits.  For the mean, the
    only scalar statistic a study lifts, no estimate of a finite field is
    undefined, so no candidate is dropped for its values.
    """
    d = region.d
    hj = {
        lm: hj_designs(window, region, lm, sel.hj_candidates, sel.scheme, sel.hj_min_candidates)
        for method, _, _, lm in methods
        if method == "hj"
    }
    full = {  # the window's OL design at each candidate scale
        c: design_plan(window, region, SubsampleSpec(region.template, float(c), OL))
        for design in hj.values()
        for c, _ in design.local
    }
    widest = max(
        (
            design.blocks.index_set.n_subsamples * local.index_set.n_subsamples
            for design in hj.values()
            for _, local in design.local
        ),
        default=1,
    )
    table = window.indexer().table
    block = max(1, min(_IMAGE_BLOCK_CELLS // table.size, _GATHER_CELLS // widest))
    if any(method == "npi" for method, *_ in methods):
        shape = shape_k0(region.template)
    while chunk := list(islice(samples, block)):
        image = field_image(table, np.stack([sample.values[:, 0] for sample in chunk]))
        taus = {}

        def tau_at(lam) -> list:
            if lam not in taus:
                spec = SubsampleSpec(region.template, float(lam), sel.scheme)
                taus[lam] = estimate_image(design_plan(window, region, spec), image, stat).tolist()
            return taus[lam]

        tau_opt = tau_at(s_opt)
        picks = []  # per setting, the chosen scale of each replicate
        for method, c1, c2, lm in methods:
            if method == "npi":
                _, _, s1, s2 = npi_pilot_scales(region.volume(), d, c1, c2)
                tau2 = tau_at(s1)
                picks.append(
                    [
                        theoretical_scaling(
                            d,
                            region.det_scale(),
                            npi_bias_estimate(lambda lam: tau_at(lam)[r], s2),
                            tau2[r],
                            shape,
                            sel.scheme,
                            region=region,
                        ).lambda_opt_int
                        for r in range(len(chunk))
                    ]
                )
                continue
            design = hj[lm]
            proxy = np.array(tau_at(lm))[:, None]
            curves = []
            for c, local in design.local:
                tau_blocks = estimate_blocks(image, full[c], design.blocks, local, stat)
                curves.append(((tau_blocks - proxy) ** 2).mean(-1).tolist())
            usable = [c for c, _ in design.local]
            ratio = design.volume_ratio
            picks.append(
                [
                    hj_choose(usable, [curve[r] for curve in curves], ratio, region)[2]
                    for r in range(len(chunk))
                ]
            )
        for r in range(len(chunk)):
            yield [(s_hat[r], (tau_at(s_hat[r])[r] - tau_opt[r]) / tau_n) for s_hat in picks]


def phi_study(config: StudyConfig) -> list[PhiRow]:
    """Selector performance: relative deviation from the oracle-scale estimator.

    A scalar statistic takes replicates a chunk at a time
    (``_deviations_by_chunk``), a p > 1 statistic one at a time
    (``_deviations_per_replicate``); both give the same values.
    """
    sel = config.selectors
    methods = [("npi", c1, c2, None) for c1 in sel.npi_c1 for c2 in sel.npi_c2]
    methods += [("hj", None, None, lm) for lm in sel.hj_lambda_m]
    if not methods:
        raise ConfigError("phi study needs at least one selector setting")
    s_opt_map = _oracle_scales(config)
    for key in (f"{r.name}|{name}" for r in config.regions for name, _ in config.covariograms):
        if key not in s_opt_map:
            raise ConfigError(f"no oracle scale for cell {key!r}")

    stat = config.statistic
    rows: list[PhiRow] = []
    for reg_spec, region, window, cov_name, tau_n, samples in _study_pairs(config):
        s_opt = int(s_opt_map[f"{reg_spec.name}|{cov_name}"])
        if stat.p == 1:
            per_rep = _deviations_by_chunk(
                samples, window, region, stat, sel, methods, s_opt, tau_n
            )
        else:
            per_rep = _deviations_per_replicate(samples, region, stat, sel, methods, s_opt, tau_n)
        per_rep = list(per_rep)
        for m_idx, (method, c1, c2, lm) in enumerate(methods):
            column = [out[m_idx] for out in per_rep]
            e_phi, se = _mean_se(np.array([phi for _, phi in column]) ** 2)
            rows.append(
                PhiRow(
                    region=reg_spec.name,
                    model=cov_name,
                    scheme=sel.scheme,
                    method=method,
                    c1=c1,
                    c2=c2,
                    lambda_m=lm,
                    s_lambda_opt=s_opt,
                    e_phi_sq=e_phi,
                    mc_se=se,
                    reps=config.replicates,
                    freq=dict(Counter(int(s_hat) for s_hat, _ in column)),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

MSE_COLUMNS = (
    "region",
    "model",
    "scheme",
    "sub_template",
    "s_lambda",
    "mse",
    "mc_se",
    "reps",
    "note",
)

SCALING_COLUMNS = (
    "region",
    "model",
    "scheme",
    "sub_template",
    "s_lambda_opt",
    "mse_at_opt",
    "reps",
    "note",
)

PHI_COLUMNS = (
    "region",
    "model",
    "scheme",
    "method",
    "c1",
    "c2",
    "lambda_m",
    "s_lambda_opt",
    "e_phi_sq",
    "mc_se",
    "reps",
    "freq",
    "note",
)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quote(text: str) -> str:
    if any(ch in text for ch in (',', '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows, columns, path: str) -> None:
    """Write rows (dicts) as RFC-4180 CSV with LF endings and 17-digit floats.

    Partial files are never left behind: output lands in a temp file first.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_quote(_fmt(row.get(col))) for col in columns) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def mse_cells_to_rows(cells: list[MseCell]) -> list[dict]:
    return [{col: getattr(c, col) for col in MSE_COLUMNS} for c in cells]


def phi_rows_to_rows(rows: list[PhiRow]) -> list[dict]:
    return [
        {
            **{col: getattr(r, col) for col in PHI_COLUMNS},
            "freq": ";".join(f"{k}:{v}" for k, v in sorted(r.freq.items())),
        }
        for r in rows
    ]


@dataclass
class StudyResult:
    mse_cells: list | None = None
    scaling_rows: list | None = None
    phi_rows: list | None = None


def run_study(config: StudyConfig) -> StudyResult:
    """Run whichever studies the config's outputs request and write the CSVs."""
    outputs = config.outputs
    result = StudyResult()
    need_mse = bool(
        outputs.get("mse_csv")
        or outputs.get("scaling_csv")
        or (outputs.get("phi_csv") and config.selectors.s_lambda_opt is None)
    )
    if need_mse:
        result.mse_cells = mse_study(config)
        result.scaling_rows = optimal_scaling_rows(result.mse_cells)
    if outputs.get("mse_csv"):
        emit_csv(mse_cells_to_rows(result.mse_cells), MSE_COLUMNS, outputs["mse_csv"])
    if outputs.get("scaling_csv"):
        emit_csv(result.scaling_rows, SCALING_COLUMNS, outputs["scaling_csv"])
    if outputs.get("phi_csv"):
        s_opt = _oracle_scales(config, result.scaling_rows)
        cfg = replace(config, selectors=replace(config.selectors, s_lambda_opt=s_opt))
        result.phi_rows = phi_study(cfg)
        emit_csv(phi_rows_to_rows(result.phi_rows), PHI_COLUMNS, outputs["phi_csv"])
    return result
