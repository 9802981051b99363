"""Monte Carlo studies: normalized-MSE sweeps, empirical optimal scales and
selector performance, with deterministic seeding and CSV emission.

A study simulates each replicate field once and evaluates every estimator
cell on it, so cells share common random numbers.  Replicates draw from
counter-based substreams keyed by (seed, region, model, replicate), which
makes outputs byte-identical across thread counts.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import Covariogram, exact_tau_n_sq_window, parse_covariogram
from .errors import ConfigError, DegenerateSubsampling, LatblockError
from .estimators import (
    SmoothStatistic,
    design_plan,
    estimate,
    estimate_from_plan,
    parse_statistic,
)
from .fieldsim import build_generator, lift_for_statistic, sample_field, substream
from .geometry import NOL, OL, Region, SubsampleSpec, Template, lattice_sites, parse_template
from .scaling import hj_scaling, npi_scaling


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
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")


def load_config(path: str) -> StudyConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> StudyConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    def need(key):
        if key not in raw:
            raise ConfigError(f"config is missing {key!r}")
        return raw[key]

    regions = []
    for item in need("regions"):
        if "template" not in item or "scale" not in item:
            raise ConfigError("each region needs template and scale")
        template = parse_template(item["template"])
        scale = tuple(float(s) for s in np.atleast_1d(item["scale"]))
        name = item.get("name") or f"{item['template']}@{'x'.join(str(s) for s in scale)}"
        regions.append(RegionSpec(name=name, template=template, scale=scale))
    if not regions:
        raise ConfigError("config needs at least one region")
    names = [r.name for r in regions]
    if len(set(names)) != len(names):
        raise ConfigError("region names must be unique")

    covs = []
    for item in need("covariograms"):
        if isinstance(item, str):
            spec_str, name = item, item
        else:
            spec_str = item["spec"]
            name = item.get("name", spec_str)
        covs.append((name, parse_covariogram(spec_str, d=regions[0].template.d)))
    if not covs:
        raise ConfigError("config needs at least one covariogram")

    stat_name = raw.get("statistic", "mean")
    statistic = parse_statistic(stat_name)

    schemes = tuple(s.lower() for s in raw.get("schemes", [OL]))
    for s in schemes:
        if s not in (OL, NOL):
            raise ConfigError(f"unknown scheme {s!r}")

    subs = []
    for item in raw.get("sub_templates", [None]):
        if item is None or item == "same":
            subs.append(("same", None))
        elif isinstance(item, str):
            subs.append((item, parse_template(item)))
        else:
            subs.append((item.get("name", item["spec"]), parse_template(item["spec"])))
    sub_names = [s[0] for s in subs]
    if len(set(sub_names)) != len(sub_names):
        raise ConfigError("sub-template names must be unique")

    grid_raw = raw.get("s_lambda_grid", [])
    grid = {}
    for reg in regions:
        if isinstance(grid_raw, dict):
            vals = grid_raw.get(reg.name, [])
        else:
            vals = grid_raw
        vals = tuple(int(v) for v in vals)
        if any(v < 1 for v in vals):
            raise ConfigError("subsample scales must be positive integers")
        if any(v >= min(reg.scale) for v in vals):
            raise ConfigError(
                f"scale grid for region {reg.name!r} exceeds its scaling range"
            )
        grid[reg.name] = vals

    replicates = int(need("replicates"))
    if replicates < 100:
        raise ConfigError("studies need at least 100 replicates")
    seed = int(need("seed"))
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    sel_raw = raw.get("selectors", {})
    npi = sel_raw.get("npi", {})
    hj = sel_raw.get("hj", {})
    opt = sel_raw.get("s_lambda_opt")
    if opt is not None and not isinstance(opt, dict):
        raise ConfigError("selectors.s_lambda_opt must be a map of region|model -> int")
    selectors = SelectorConfig(
        npi_c1=tuple(float(c) for c in npi.get("c1", [])),
        npi_c2=tuple(float(c) for c in npi.get("c2", [])),
        hj_lambda_m=tuple(int(l) for l in hj.get("lambda_m", [])),
        hj_candidates=(
            tuple(int(c) for c in hj["candidates"]) if "candidates" in hj else None
        ),
        hj_min_candidates=int(hj.get("min_candidates", 5)),
        scheme=str(sel_raw.get("scheme", OL)).lower(),
        s_lambda_opt={str(k): int(v) for k, v in opt.items()} if opt else None,
    )

    overrides = {
        str(k): float(v) for k, v in raw.get("tau_n_sq", {}).items()
    }

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
        outputs=dict(raw.get("outputs", {})),
        tau_n_sq_override=overrides,
        workers=int(raw.get("workers", 1)),
    )


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


def _stream_index(pair_index: int, replicates: int, rep: int) -> int:
    return pair_index * replicates + rep


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


def mse_study(config: StudyConfig) -> list[MseCell]:
    """Normalized MSE of the subsample variance estimators over the cell grid."""
    cells: list[MseCell] = []
    stat = config.statistic
    for r_idx, reg_spec in enumerate(config.regions):
        region = reg_spec.region()
        window = lattice_sites(region)

        plans = []
        for scheme in config.schemes:
            for sub_name, sub_template in config.sub_templates:
                template = sub_template if sub_template is not None else region.template
                for lam in config.s_lambda_grid[reg_spec.name]:
                    cell_key = (scheme, sub_name, lam)
                    try:
                        plan = design_plan(
                            window, region, SubsampleSpec(template, float(lam), scheme)
                        )
                        if plan.index_set.n_subsamples < 2:
                            raise DegenerateSubsampling(
                                f"{plan.index_set.n_subsamples} subsample(s)"
                            )
                        plans.append((cell_key, plan, ""))
                    except LatblockError as exc:
                        plans.append((cell_key, None, type(exc).__name__))

        for c_idx, (cov_name, cov) in enumerate(config.covariograms):
            key = f"{reg_spec.name}|{cov_name}"
            tau_n = _tau_n(config, key, window, cov)
            gen = build_generator(cov, window)
            pair_index = r_idx * len(config.covariograms) + c_idx

            live = [(k, p) for (k, p, note) in plans if p is not None]
            dead = [(k, note) for (k, p, note) in plans if p is None]

            def one_rep(rep, _gen=gen, _live=live, _pair=pair_index):
                stream = substream(
                    config.seed, _stream_index(_pair, config.replicates, rep)
                )
                fld = sample_field(_gen, stream)
                sample = lift_for_statistic(fld, config.statistic_name)
                out = []
                for _, plan in _live:
                    tau_hat = estimate_from_plan(plan, sample, stat).tau_hat_sq
                    out.append((tau_hat / tau_n - 1.0) ** 2)
                return out

            per_rep = _run_replicates(one_rep, config.replicates, config.workers)
            dev_matrix = np.asarray(per_rep, float).reshape(config.replicates, len(live))

            for j, (cell_key, _) in enumerate(live):
                scheme, sub_name, lam = cell_key
                devs = dev_matrix[:, j]
                mse, se = _mean_se(devs)
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
                        deviations=devs,
                    )
                )
            for cell_key, note in dead:
                scheme, sub_name, lam = cell_key
                cells.append(
                    MseCell(
                        region=reg_spec.name,
                        model=cov_name,
                        scheme=scheme,
                        sub_template=sub_name,
                        s_lambda=lam,
                        mse=None,
                        mc_se=None,
                        reps=config.replicates,
                        note=note,
                    )
                )
    return cells


def _run_replicates(one_rep, replicates: int, workers: int):
    if workers <= 1:
        return [one_rep(rep) for rep in range(replicates)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_rep, range(replicates)))


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
        if not live:
            rows.append(
                {
                    "region": region,
                    "model": model,
                    "scheme": scheme,
                    "sub_template": sub_name,
                    "s_lambda_opt": None,
                    "mse_at_opt": None,
                    "reps": group[0].reps,
                    "note": "no estimable cells",
                }
            )
            continue
        best = min(live, key=lambda c: (c.mse, c.s_lambda))
        rows.append(
            {
                "region": region,
                "model": model,
                "scheme": scheme,
                "sub_template": sub_name,
                "s_lambda_opt": best.s_lambda,
                "mse_at_opt": best.mse,
                "reps": best.reps,
                "note": "",
            }
        )
    return rows


def optimal_scaling_study(config: StudyConfig) -> list[dict]:
    return optimal_scaling_rows(mse_study(config))


def _resolve_s_opt(config: StudyConfig) -> dict:
    if config.selectors.s_lambda_opt is not None:
        return dict(config.selectors.s_lambda_opt)
    rows = optimal_scaling_rows(mse_study(config))
    out = {}
    for row in rows:
        if (
            row["scheme"] == config.selectors.scheme
            and row["sub_template"] == "same"
            and row["s_lambda_opt"] is not None
        ):
            out[f"{row['region']}|{row['model']}"] = row["s_lambda_opt"]
    return out


def phi_study(config: StudyConfig) -> list[PhiRow]:
    """Selector performance: relative deviation from the oracle-scale estimator."""
    sel = config.selectors
    methods = [("npi", c1, c2, None) for c1 in sel.npi_c1 for c2 in sel.npi_c2]
    methods += [("hj", None, None, lm) for lm in sel.hj_lambda_m]
    if not methods:
        raise ConfigError("phi study needs at least one selector setting")
    s_opt_map = _resolve_s_opt(config)

    stat = config.statistic
    rows: list[PhiRow] = []
    for r_idx, reg_spec in enumerate(config.regions):
        region = reg_spec.region()
        window = lattice_sites(region)
        for c_idx, (cov_name, cov) in enumerate(config.covariograms):
            key = f"{reg_spec.name}|{cov_name}"
            if key not in s_opt_map:
                raise ConfigError(f"no oracle scale for cell {key!r}")
            s_opt = int(s_opt_map[key])
            tau_n = _tau_n(config, key, window, cov)
            gen = build_generator(cov, window)
            pair_index = r_idx * len(config.covariograms) + c_idx

            def tau_at(sample, lam, _region=region):
                spec = SubsampleSpec(_region.template, float(lam), sel.scheme)
                return estimate(sample, _region, spec, stat).tau_hat_sq

            def one_rep(rep, _gen=gen, _pair=pair_index, _region=region):
                stream = substream(
                    config.seed, _stream_index(_pair, config.replicates, rep)
                )
                fld = sample_field(_gen, stream)
                sample = lift_for_statistic(fld, config.statistic_name)
                tau_opt = tau_at(sample, s_opt)
                out = []
                for method, c1, c2, lm in methods:
                    if method == "npi":
                        plan = npi_scaling(sample, _region, stat, c1, c2, sel.scheme)
                    else:
                        plan = hj_scaling(
                            sample,
                            _region,
                            stat,
                            lm,
                            candidates=sel.hj_candidates,
                            scheme=sel.scheme,
                            min_candidates=sel.hj_min_candidates,
                        )
                    s_hat = plan.lambda_opt_int
                    phi = (tau_at(sample, s_hat) - tau_opt) / tau_n
                    out.append((s_hat, phi))
                return out

            per_rep = _run_replicates(one_rep, config.replicates, config.workers)

            for m_idx, (method, c1, c2, lm) in enumerate(methods):
                s_hats = np.array([per_rep[r][m_idx][0] for r in range(config.replicates)])
                phis = np.array([per_rep[r][m_idx][1] for r in range(config.replicates)])
                e_phi, se = _mean_se(phis**2)
                freq: dict = {}
                for s in s_hats.tolist():
                    freq[int(s)] = freq.get(int(s), 0) + 1
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
                        freq=freq,
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
    return [
        {
            "region": c.region,
            "model": c.model,
            "scheme": c.scheme,
            "sub_template": c.sub_template,
            "s_lambda": c.s_lambda,
            "mse": c.mse,
            "mc_se": c.mc_se,
            "reps": c.reps,
            "note": c.note,
        }
        for c in cells
    ]


def phi_rows_to_rows(rows: list[PhiRow]) -> list[dict]:
    out = []
    for r in rows:
        freq = ";".join(f"{k}:{v}" for k, v in sorted(r.freq.items()))
        out.append(
            {
                "region": r.region,
                "model": r.model,
                "scheme": r.scheme,
                "method": r.method,
                "c1": r.c1,
                "c2": r.c2,
                "lambda_m": r.lambda_m,
                "s_lambda_opt": r.s_lambda_opt,
                "e_phi_sq": r.e_phi_sq,
                "mc_se": r.mc_se,
                "reps": r.reps,
                "freq": freq,
                "note": r.note,
            }
        )
    return out


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
    if outputs.get("mse_csv"):
        emit_csv(mse_cells_to_rows(result.mse_cells), MSE_COLUMNS, outputs["mse_csv"])
    if outputs.get("scaling_csv") or result.mse_cells is not None:
        if result.mse_cells is not None:
            result.scaling_rows = optimal_scaling_rows(result.mse_cells)
    if outputs.get("scaling_csv"):
        emit_csv(result.scaling_rows, SCALING_COLUMNS, outputs["scaling_csv"])
    if outputs.get("phi_csv"):
        cfg = config
        if config.selectors.s_lambda_opt is None:
            s_opt = {}
            for row in result.scaling_rows:
                if (
                    row["scheme"] == config.selectors.scheme
                    and row["sub_template"] == "same"
                    and row["s_lambda_opt"] is not None
                ):
                    s_opt[f"{row['region']}|{row['model']}"] = row["s_lambda_opt"]
            cfg = replace(
                config, selectors=replace(config.selectors, s_lambda_opt=s_opt)
            )
        result.phi_rows = phi_study(cfg)
        emit_csv(phi_rows_to_rows(result.phi_rows), PHI_COLUMNS, outputs["phi_csv"])
    return result
