"""Monte Carlo studies: normalized-MSE sweeps, empirical optimal scales and
selector performance, with deterministic seeding and CSV emission.

A study simulates each replicate field once and evaluates every estimator
cell on it, so cells share common random numbers.  Each replicate draws from
its own counter-based substream keyed by (seed, region, model, replicate).
Replicates are estimated in order on the caller's thread; on the circulant
route the next chunk of them is drawn on one second thread meanwhile.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .covariance import Covariogram, exact_tau_n_sq_window, parse_covariogram
from .errors import ConfigError, DegenerateSubsampling, InsufficientCandidates, LatblockError
from .estimators import (
    SmoothStatistic,
    design_plan,
    estimate_image,
    field_image,
    parse_statistic,
)
from .fieldsim import (
    CIRCULANT,
    LIFTED_STATISTICS,
    build_generator,
    lift_for_statistic,
    sample_field,
    substream,
)
from .geometry import (
    NOL,
    OL,
    LatticeWindow,
    Region,
    SubsampleSpec,
    Template,
    lattice_sites,
    parse_template,
)
from .scaling import SelectorEngine, hj_candidate_scales, npi_region_pilots


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
    """Validate a ``workers`` setting, which is accepted and ignored: a study
    estimates replicates on the caller's thread and draws them on at most one
    other (see the README's design notes)."""
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
    if not isinstance(value, (bool, str)):
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
    _check_selectors(regions, selectors, set(hj))

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
    outputs = {}
    for key, path in _fields(raw.get("outputs", {}), "outputs").items():
        if not _text(path, f"outputs.{key}"):
            raise ConfigError(f"outputs.{key} must not be empty")
        for other, taken in outputs.items():
            if os.path.normpath(taken) == os.path.normpath(path):
                raise ConfigError(f"outputs.{other} and outputs.{key} name the same file {path!r}")
        outputs[key] = path
    config = StudyConfig(
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
        outputs=outputs,
        tau_n_sq_override=tau_n_sq,
    )
    if "phi_csv" in outputs:
        _check_phi_study(config)
    return config


def _check_selectors(regions, sel: SelectorConfig, hj_keys: set) -> None:
    """Refuse, before any study work, selector settings every replicate would
    refuse, repeated settings, and keys that make no setting: npi runs at
    every (c1, c2) pair, and the hj keys given (``hj_keys``) other than
    lambda_m only qualify its lambda_m settings."""
    if bool(sel.npi_c1) != bool(sel.npi_c2):
        given, needed = ("c1", "c2") if sel.npi_c1 else ("c2", "c1")
        raise ConfigError(f"selectors.npi.{given} needs selectors.npi.{needed}")
    extra = sorted(hj_keys - {"lambda_m"})
    if extra and not sel.hj_lambda_m:
        raise ConfigError(f"selectors.hj.{extra[0]} needs selectors.hj.lambda_m")
    for key, values in (
        ("npi.c1", sel.npi_c1),
        ("npi.c2", sel.npi_c2),
        ("hj.lambda_m", sel.hj_lambda_m),
        ("hj.candidates", sel.hj_candidates or ()),
    ):
        if len(set(values)) != len(values):
            raise ConfigError(f"selectors.{key} repeats an entry: {list(values)}")
    for reg in regions:
        region = reg.region()
        try:
            for c1 in sel.npi_c1:
                for c2 in sel.npi_c2:
                    npi_region_pilots(region, c1, c2)
            for lambda_m in sel.hj_lambda_m:
                hj_candidate_scales(region, lambda_m, sel.hj_candidates, sel.hj_min_candidates)
        except (ConfigError, InsufficientCandidates) as exc:
            raise ConfigError(f"selectors on region {reg.name!r}: {exc}") from exc


def _check_phi_study(config: StudyConfig) -> list:
    """(method, c1, c2, lambda_m) of every selector setting, npi's first.

    Refuses, before any study work, a selector study that cannot run: one
    with no selector setting, or with a region|model pair whose oracle scale
    is neither pinned nor an argmin of an MSE grid cell that
    ``_is_oracle_cell`` accepts.  A pair whose grid cells all turn out dead
    is found when its designs are built (``StudyPlan.refuse_dead``).
    """
    sel, grid, subs = config.selectors, config.s_lambda_grid, config.sub_templates
    methods = [("npi", c1, c2, None) for c1 in sel.npi_c1 for c2 in sel.npi_c2]
    methods += [("hj", None, None, lm) for lm in sel.hj_lambda_m]
    if not methods:
        raise ConfigError("phi study needs at least one selector setting")
    derivable = any(_is_oracle_cell(sel, s, t) for s in config.schemes for t, _ in subs)
    for key, reg in ((f"{r.name}|{m}", r) for r in config.regions for m, _ in config.covariograms):
        if sel.s_lambda_opt is not None:
            gaps = [(key not in sel.s_lambda_opt, "selectors.s_lambda_opt does not name it")]
        else:
            gaps = [
                (
                    not derivable,
                    f"no MSE cell runs selector scheme {sel.scheme!r} on sub_template 'same'",
                ),
                (not grid[reg.name], f"the s_lambda_grid of region {reg.name!r} is empty"),
            ]
        for gap, why in gaps:
            if gap:
                raise ConfigError(f"no oracle scale for cell {key!r}: {why}")
    return methods


def _is_oracle_cell(sel: SelectorConfig, scheme: str, sub_template: str) -> bool:
    """Whether an MSE grid cell's argmin is the selector study's oracle
    scale: the cell runs the selector scheme on the region's own template."""
    return scheme == sel.scheme and sub_template == "same"


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


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


# Field-image cells per replicate chunk (256 kB of float64), counting each of
# a site's p columns: a chunk's image stays in cache while every design of
# the window reads it.
_IMAGE_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class Replicates:
    """One (region, model) pair's replicate fields, drawn on demand.

    Replicate ``rep`` of ``streams`` is drawn from ``substream(seed, rep)``
    and lifted for the statistic ``stat``.  The pair's generator is built
    when the draws start, so a pair that is never drawn builds none.
    """

    cov: Covariogram
    window: LatticeWindow
    seed: int
    streams: range
    stat: SmoothStatistic

    def chunks(self):
        """Each chunk's ``field_image``, in order, as many replicates a chunk
        as fill ``_IMAGE_BLOCK_CELLS`` cells of the window's bounding box.

        On the circulant route the next chunk is drawn on a second thread
        while the caller works on this one; close the iterator
        (``contextlib.closing``) so that an error stops that thread.  The
        dense route draws on the caller's thread: its matrix-vector product
        already runs on every core.
        """
        cells = int(np.prod(self.window.span)) * self.stat.p  # per replicate
        gen = build_generator(self.cov, self.window)
        chunks = self._draw(gen, max(1, _IMAGE_BLOCK_CELLS // cells))
        return _prefetch(chunks) if gen.method == CIRCULANT else chunks

    def _sample(self, gen, rep: int):
        return lift_for_statistic(sample_field(gen, substream(self.seed, rep)), self.stat.name)

    def _draw(self, gen, block: int):
        table = self.window.indexer().table
        for start in range(0, len(self.streams), block):
            values = [self._sample(gen, rep).values for rep in self.streams[start : start + block]]
            yield field_image(table, np.stack(values))


def _prefetch(chunks):
    """``chunks``, each drawn on one second thread while the caller works on
    the one before; a draw's error is raised in the caller."""
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(next, chunks, None)
        while (chunk := ahead.result()) is not None:
            ahead = pool.submit(next, chunks, None)
            yield chunk


@dataclass(frozen=True)
class RegionPlan:
    """A region's MSE cells, ((scheme, sub_template, s_lambda), design or None,
    dead-cell note) each, estimable ones first; their designs ``plans``; the
    oracle column, s_lambda -> column of ``plans``; the selector engine."""

    cells: tuple
    plans: tuple
    oracle: dict
    engine: SelectorEngine | None


@dataclass(frozen=True)
class PairPlan:
    """A (region, model) pair: designs, tau_n, pinned oracle scale, undrawn replicates."""

    key: str  # "region|model"
    region: str
    model: str
    designs: RegionPlan
    tau_n: float
    s_opt: int | None
    samples: Replicates


@dataclass(frozen=True)
class StudyPlan:
    """A study before its first draw: MSE grid (``mse``), selectors (``phi``), pairs."""

    mse: bool
    phi: bool
    pairs: tuple

    def refuse_dead(self) -> None:
        """Refuse a selector study with a pair whose oracle column is unpinned and all dead."""
        key = next((p.key for p in self.pairs if self.phi and p.designs.engine is None), None)
        if key is not None:
            raise ConfigError(f"no oracle scale for cell {key!r}: its oracle MSE cells are dead")


def plan_study(config: StudyConfig, mse: bool, phi: bool) -> StudyPlan:
    """The data-independent work of a study of the MSE grid (``mse``) and the
    selectors (``phi``), with no field drawn.  A selector study that writes
    no MSE grid is refused here when a pair's oracle column is all dead."""
    overrides, pinned = config.tau_n_sq_override, config.selectors.s_lambda_opt
    methods = _check_phi_study(config) if phi else []
    if not config.statistic.is_linear:  # then every pair needs its tau_n_sq override
        if len(overrides) < len(config.regions) * len(config.covariograms):
            raise ConfigError("normalized MSE needs tau_n_sq overrides for nonlinear statistics")
    pairs = []
    for reg_spec in config.regions:
        region = reg_spec.region()
        window = lattice_sites(region)
        designs = _plan_region(config, reg_spec.name, region, window, mse, methods)
        for model, cov in config.covariograms:
            key = f"{reg_spec.name}|{model}"
            tau_n = overrides[key] if key in overrides else exact_tau_n_sq_window(window, cov)
            first = len(pairs) * config.replicates  # a pair's streams are one contiguous range
            streams = range(first, first + config.replicates)
            samples = Replicates(cov, window, config.seed, streams, config.statistic)
            s_opt = int(pinned[key]) if phi and pinned else None
            pairs.append(PairPlan(key, reg_spec.name, model, designs, tau_n, s_opt, samples))
    plan = StudyPlan(mse, phi, tuple(pairs))
    if not mse:
        plan.refuse_dead()
    return plan


def _plan_region(config: StudyConfig, name: str, region: Region, window, mse: bool, methods):
    """The ``RegionPlan`` of region ``name``: every MSE cell with ``mse``; else
    only the oracle column that ``methods`` read, and none if it is pinned."""
    sel, pinned = config.selectors, config.selectors.s_lambda_opt
    cells = []
    for scheme in config.schemes:
        for sub_name, sub_template in config.sub_templates:
            if not (mse or methods and pinned is None and _is_oracle_cell(sel, scheme, sub_name)):
                continue
            template = sub_template if sub_template is not None else region.template
            for lam in config.s_lambda_grid[name]:
                try:
                    plan = design_plan(window, region, SubsampleSpec(template, float(lam), scheme))
                    if plan.index_set.n_subsamples < 2:
                        raise DegenerateSubsampling(f"{plan.index_set.n_subsamples} subsample(s)")
                    cells.append(((scheme, sub_name, lam), plan, ""))
                except LatblockError as exc:
                    cells.append(((scheme, sub_name, lam), None, type(exc).__name__))
    cells.sort(key=lambda cell: cell[1] is None)  # stable: each part keeps grid order
    plans = tuple(plan for _, plan, _ in cells if plan is not None)
    live = cells[: len(plans)]
    oracle = {c[2]: i for i, (c, _, _) in enumerate(live) if _is_oracle_cell(sel, *c[:2])}
    engine = None
    if methods and (pinned is not None or oracle):
        engine = SelectorEngine(
            window, region, methods, sel.scheme, sel.hj_candidates, sel.hj_min_candidates
        )
    return RegionPlan(tuple(cells), plans, oracle, engine)


def _replicate_pass(samples: Replicates, plans: list, engine, oracle: dict, s_opt) -> tuple:
    """One pass over a pair's replicates ``samples``, a chunk at a time through
    one field image: tau_hat_sq (replicates, designs) of the designs ``plans``;
    with a ``SelectorEngine``, per replicate and setting the ``_selected``
    outcome, and per replicate tau_hat_sq at a pinned oracle scale ``s_opt``,
    where an error ends the study.  The engine reads a scale that ``oracle``
    maps to a column of ``plans`` from that column: the same cached design,
    so the same floats.
    """
    taus = np.empty((len(samples.streams), len(plans)))
    outcomes, tau_opt = [], []
    if not plans and engine is None:
        return taus, outcomes, tau_opt  # nothing to estimate: draw no field
    stat, start = samples.stat, 0
    with closing(samples.chunks()) as chunks:
        for image in chunks:
            rows = taus[start : start + image.shape[-1]]
            start += image.shape[-1]
            for i, plan in enumerate(plans):
                rows[:, i] = estimate_image(plan, image, stat)[2]
            if engine is None:
                continue
            memo = {lam: rows[:, i].tolist() for lam, i in oracle.items()}
            if s_opt is not None:
                tau_opt += engine.tau(image, stat, memo, s_opt)
            for r, chosen in enumerate(engine.select(image, stat, memo)):
                outcomes.append([_selected(engine, image, stat, memo, r, plan) for plan in chosen])
    return taus, outcomes, tau_opt


def _selected(engine, image, stat, memo: dict, r: int, plan):
    """(s_hat, tau_hat_sq at s_hat) of field ``r``'s ``ScalingPlan``, or the
    class name of the ``LatblockError`` that choosing or estimating raised."""
    if isinstance(plan, LatblockError):
        return type(plan).__name__
    try:
        return plan.lambda_opt_int, engine.tau(image, stat, memo, plan.lambda_opt_int)[r]
    except LatblockError as exc:
        return type(exc).__name__


def _study(plan: StudyPlan) -> StudyResult:
    """The MSE grid and the selector study of ``plan``, in one pass over each
    pair's replicates (``_replicate_pass``).

    An unpinned oracle scale is the argmin of the pair's oracle column, ties
    broken toward the smaller scale as in ``optimal_scaling_rows``.  phi is
    the selected scale's estimate less the oracle scale's, over tau_n.  A
    setting that failed on some replicates is summarised over the others, NA
    without any, and its note counts the failures.
    """
    all_cells, phi_rows = [], []
    for pair in plan.pairs:
        designs, tau_n, reps = pair.designs, pair.tau_n, len(pair.samples.streams)
        engine, oracle, plans = designs.engine, designs.oracle, designs.plans
        taus, outcomes, tau_opt = _replicate_pass(pair.samples, plans, engine, oracle, pair.s_opt)
        per_rep = [[(tau / tau_n - 1.0) ** 2 for tau in row] for row in taus.tolist()]
        columns = iter(np.asarray(per_rep, float).reshape(reps, len(plans)).T)
        cells = []
        for cell, design, note in designs.cells:  # cell: (scheme, sub_template, s_lambda)
            devs = next(columns) if design is not None else None
            mean, se = _mean_se(devs) if design is not None else (None, None)
            cells.append(MseCell(pair.region, pair.model, *cell, mean, se, reps, note, devs))
        all_cells += cells
        if engine is None:
            continue
        s_opt = pair.s_opt
        if s_opt is None:
            s_opt = min(oracle, key=lambda lam: (cells[oracle[lam]].mse, lam))
            tau_opt = taus[:, oracle[s_opt]].tolist()
        for m_idx, setting in enumerate(engine.settings):  # (method, c1, c2, lambda_m)
            column = [out[m_idx] for out in outcomes]
            done = [
                (out[0], (out[1] - opt) / tau_n)
                for out, opt in zip(column, tau_opt)
                if not isinstance(out, str)
            ]
            failed = [out for out in column if isinstance(out, str)]
            e_phi, se = _mean_se(np.array([dev for _, dev in done]) ** 2) if done else (None, None)
            freq = dict(Counter(int(s_hat) for s_hat, _ in done))
            note = f"failed {len(failed)}: {';'.join(sorted(set(failed)))}" if failed else ""
            row = (*setting, s_opt, e_phi, se, reps, freq, note)
            phi_rows.append(PhiRow(pair.region, pair.model, engine.scheme, *row))
    mse = (all_cells, optimal_scaling_rows(all_cells)) if plan.mse else (None, None)
    return StudyResult(*mse, phi_rows if plan.phi else None)


def mse_study(config: StudyConfig) -> list[MseCell]:
    """Normalized MSE of the subsample variance estimators over the cell grid."""
    return _study(plan_study(config, mse=True, phi=False)).mse_cells


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


def phi_study(config: StudyConfig) -> list[PhiRow]:
    """Selector performance: relative deviation from the oracle-scale estimator."""
    return _study(plan_study(config, mse=False, phi=True)).phi_rows


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
            # NA when the setting failed on every replicate
            "freq": ";".join(f"{k}:{v}" for k, v in sorted(r.freq.items())) or None,
        }
        for r in rows
    ]


@dataclass
class StudyResult:
    mse_cells: list | None = None
    scaling_rows: list | None = None
    phi_rows: list | None = None


def run_study(config: StudyConfig) -> StudyResult:
    """Run the studies the config's outputs request, in one pass; write their CSVs."""
    outputs = config.outputs
    for key, path in outputs.items():  # refused before the study, not at its end
        if os.path.isdir(path):
            raise ConfigError(f"outputs.{key}: {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise ConfigError(f"outputs.{key}: the directory of {path!r} does not exist")
    mse = "mse_csv" in outputs or "scaling_csv" in outputs
    phi = "phi_csv" in outputs
    if not (mse or phi):
        return StudyResult()
    plan = plan_study(config, mse, phi)
    result = _study(plan)
    if "mse_csv" in outputs:
        emit_csv(mse_cells_to_rows(result.mse_cells), MSE_COLUMNS, outputs["mse_csv"])
    if "scaling_csv" in outputs:
        emit_csv(result.scaling_rows, SCALING_COLUMNS, outputs["scaling_csv"])
    if phi:
        plan.refuse_dead()
        emit_csv(phi_rows_to_rows(result.phi_rows), PHI_COLUMNS, outputs["phi_csv"])
    return result
