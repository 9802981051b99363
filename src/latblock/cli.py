"""Command-line interface: constants, estimate, scale, simulate and study."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .constants import are, b0 as bias_constant, k0 as shape_constants
from .covariance import parse_covariogram, tau_sq
from .errors import ConfigError, LatblockError
from .estimators import FieldSample, estimate, parse_statistic
from .fieldsim import build_generator, sample_field, substream
from .geometry import (
    LatticeWindow,
    Region,
    SubsampleSpec,
    Template,
    lattice_sites,
    parse_template,
)
from .harness import emit_csv, load_config, run_study
from .scaling import hj_scaling, npi_scaling, theoretical_scaling


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def read_field_csv(path: str) -> FieldSample:
    """Field CSV: header s1..sd,v1..vp, integer sites, float values, any row order."""
    if not os.path.exists(path):
        raise ConfigError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ConfigError(f"empty data file: {path}")
    header = [h.strip().lower() for h in lines[0][1].split(",")]
    d = sum(1 for h in header if h.startswith("s"))
    p = sum(1 for h in header if h.startswith("v"))
    if d < 1 or p < 1 or d + p != len(header):
        raise ConfigError("field CSV header must be s1,...,sd,v1,...,vp")
    sites = []
    values = []
    first_line = {}  # site -> line it was read from
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        try:
            coords = [float(x) for x in parts[:d]]
            vals = [float(x) for x in parts[d:]]
        except ValueError:
            vals = None
        if vals is None or len(parts) != d + p:
            raise ConfigError(f"{path} line {lineno}: bad row {ln!r}")
        if not all(c.is_integer() for c in coords):
            raise ConfigError(f"{path} line {lineno}: site coordinates must be integers")
        site = tuple(int(c) for c in coords)
        if site in first_line:
            raise ConfigError(
                f"{path} line {lineno}: site {site} repeats line {first_line[site]}"
            )
        first_line[site] = lineno
        sites.append(site)
        values.append(vals)
    if not sites:
        raise ConfigError(f"no data rows in {path}")
    sites_arr = np.asarray(sites, np.int64)
    values_arr = np.asarray(values, float)
    order = np.lexsort(tuple(sites_arr[:, j] for j in range(d - 1, -1, -1)))
    sites_arr = sites_arr[order]
    values_arr = values_arr[order]
    window = LatticeWindow(
        sites=sites_arr, lo=sites_arr.min(axis=0), hi=sites_arr.max(axis=0)
    )
    return FieldSample(window, values_arr)


def write_field_csv(sample: FieldSample, path: str) -> None:
    tmp = path + ".tmp"
    d = sample.window.d
    p = sample.p
    try:
        with open(tmp, "w", newline="") as fh:
            header = [f"s{j + 1}" for j in range(d)] + [f"v{j + 1}" for j in range(p)]
            fh.write(",".join(header) + "\n")
            for site, vals in zip(sample.window.sites, sample.values):
                cells = [str(int(s)) for s in site] + [
                    format(float(v), ".17g") for v in vals
                ]
                fh.write(",".join(cells) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def infer_region(template: Template, sample: FieldSample, scale_text: str | None) -> Region:
    if scale_text is not None:
        return Region(template, _parse_floats(scale_text))
    sites = sample.window.sites
    if template.kind == "hypercube":
        scale = tuple(float(h - l + 1) for l, h in zip(sample.window.lo, sample.window.hi))
    elif template.kind in ("circle", "sphere"):
        r = template.param_dict["r"]
        lam = float(np.max(np.linalg.norm(sites, axis=1))) / r
        scale = (lam,) * template.d
    else:
        raise ConfigError(
            "cannot infer the region scaling for this template; pass --region-scale"
        )
    region = Region(template, scale)
    window = lattice_sites(region)
    if window.n_sites != sample.window.n_sites or not np.array_equal(
        window.sites, sites
    ):
        raise ConfigError(
            "data sites do not exactly fill the inferred region; pass --region-scale"
        )
    return region


def _print_kv(pairs, csv_path=None):
    for key, val in pairs:
        print(f"{key}: {val}")
    if csv_path:
        rows = [{"key": k, "value": v} for k, v in pairs]
        emit_csv(rows, ("key", "value"), csv_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    template = parse_template(args.template)
    shape = shape_constants(template)
    pairs = [
        ("template", template.spec_string()),
        ("volume", format(shape.volume, ".12g")),
        ("k0", format(shape.k0, ".12g")),
        ("k1", format(shape.k1, ".12g")),
        ("are", format(are(template), ".12g")),
        ("source", shape.source),
    ]
    if args.cov:
        cov = parse_covariogram(args.cov, d=template.d)
        pairs.append(("tau_sq", format(tau_sq(cov), ".12g")))
        pairs.append(("b0", format(bias_constant(template, cov), ".12g")))
    _print_kv(pairs, args.csv)
    return 0


def _cmd_estimate(args) -> int:
    sample = read_field_csv(args.data)
    template = parse_template(args.template)
    region = infer_region(template, sample, args.region_scale)
    sub_template = parse_template(args.sub_template) if args.sub_template else template
    stat = parse_statistic(args.stat)
    spec = SubsampleSpec(sub_template, float(args.scale), args.scheme)
    result = estimate(sample, region, spec, stat)
    pairs = [
        ("scheme", result.scheme),
        ("tau_hat_sq", format(result.tau_hat_sq, ".17g")),
        ("n_subsamples", result.n_subsamples),
        ("subsample_sites", int(result.subsample_sites[0])
         if np.all(result.subsample_sites == result.subsample_sites[0])
         else ";".join(str(int(c)) for c in result.subsample_sites)),
        ("theta_tilde", format(result.theta_tilde, ".17g")),
    ]
    _print_kv(pairs, args.csv)
    return 0


def _cmd_scale(args) -> int:
    if args.method == "theory":
        if args.template is None:
            raise ConfigError("theory scaling needs --template")
        template = parse_template(args.template)
        shape = shape_constants(template)
        if args.det_delta is None:
            raise ConfigError("theory scaling needs --det-delta")
        if args.tau2 is not None:
            tau2 = args.tau2
        elif args.cov is not None:
            tau2 = tau_sq(parse_covariogram(args.cov, d=template.d))
        else:
            raise ConfigError("theory scaling needs --tau2 or --cov")
        if args.b0 is not None:
            b0_val = args.b0
        elif args.cov is not None:
            b0_val = bias_constant(template, parse_covariogram(args.cov, d=template.d))
        else:
            raise ConfigError("theory scaling needs --b0 or --cov")
        plan = theoretical_scaling(
            template.d, args.det_delta, b0_val, tau2, shape, args.scheme
        )
    else:
        if args.data is None or args.template is None:
            raise ConfigError(f"{args.method} scaling needs --data and --template")
        sample = read_field_csv(args.data)
        template = parse_template(args.template)
        region = infer_region(template, sample, args.region_scale)
        stat = parse_statistic(args.stat)
        if args.method == "npi":
            plan = npi_scaling(sample, region, stat, args.c1, args.c2, args.scheme)
        else:
            if args.lambda_m is None:
                raise ConfigError("hj scaling needs --lambda-m")
            candidates = _parse_ints(args.candidates) if args.candidates else None
            plan = hj_scaling(
                sample,
                region,
                stat,
                args.lambda_m,
                candidates=candidates,
                scheme=args.scheme,
                min_candidates=args.min_candidates,
            )
    pairs = [
        ("method", args.method),
        ("scheme", plan.scheme),
        ("lambda_opt_real", format(plan.lambda_opt_real, ".17g")),
        ("lambda_opt_int", plan.lambda_opt_int),
    ]
    for key, val in sorted(plan.diagnostics.items()):
        pairs.append((f"diag.{key}", val))
    _print_kv(pairs, args.csv)
    return 0


def _cmd_simulate(args) -> int:
    template = parse_template(args.template)
    cov = parse_covariogram(args.cov, d=template.d)
    region = Region(template, _parse_floats(args.scale))
    window = lattice_sites(region)
    gen = build_generator(cov, window, method=args.method)
    sample = sample_field(gen, substream(args.seed, args.replicate))
    write_field_csv(sample, args.out)
    print(f"wrote {window.n_sites} sites to {args.out} (method={gen.method})")
    return 0


def _cmd_study(args) -> int:
    config = load_config(args.config)
    if args.workers is not None:
        from dataclasses import replace

        config = replace(config, workers=args.workers)
    result = run_study(config)
    for name in ("mse_csv", "scaling_csv", "phi_csv"):
        if config.outputs.get(name):
            print(f"wrote {config.outputs[name]}")
    if result.mse_cells is not None:
        print(f"{len(result.mse_cells)} MSE cells")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latblock",
        description="Spatial subsampling variance estimation on lattice windows",
    )
    parser.add_argument("--version", action="version", version=f"latblock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="shape constants of a template")
    p.add_argument("--template", required=True)
    p.add_argument("--cov", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("estimate", help="subsample variance estimate from a field CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--scheme", choices=["ol", "nol"], required=True)
    p.add_argument("--scale", type=float, required=True, help="subsample scale")
    p.add_argument("--stat", choices=["mean", "ratio", "momvar"], required=True)
    p.add_argument("--sub-template", default=None)
    p.add_argument("--region-scale", default=None, help="comma-separated scaling diag")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("scale", help="optimal subsample scale")
    p.add_argument("--method", choices=["theory", "npi", "hj"], required=True)
    p.add_argument("--template", default=None)
    p.add_argument("--scheme", choices=["ol", "nol"], default="ol")
    p.add_argument("--det-delta", type=float, default=None)
    p.add_argument("--b0", type=float, default=None)
    p.add_argument("--tau2", type=float, default=None)
    p.add_argument("--cov", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--region-scale", default=None)
    p.add_argument("--stat", choices=["mean", "ratio", "momvar"], default="mean")
    p.add_argument("--c1", type=float, default=0.5)
    p.add_argument("--c2", type=float, default=0.5)
    p.add_argument("--lambda-m", type=int, default=None)
    p.add_argument("--candidates", default=None)
    p.add_argument("--min-candidates", type=int, default=5)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("simulate", help="simulate one Gaussian field replicate")
    p.add_argument("--cov", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--scale", required=True, help="comma-separated scaling diag")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--method", choices=["auto", "cholesky", "circulant"], default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study", help="run a Monte Carlo study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatblockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
