"""Brute-force references: the OL and NOL designs on rectangular windows, the
OL offsets by a membership test of every translated site, the NOL template
copies built one copy at a time, the covariogram evaluated at every site pair
or wrapped torus lag, the circulant draw by one full ``fftn`` of the
embedding torus, the shape-constant quadrature by ``scipy.fft``, a design's
estimate by gathering its (M, sN) rows of sample values (copy by copy for a
ragged design), the npi and hj selectors on one sample through that gather,
and the selector study run one replicate at a time.

A plain helper module, imported by the estimator, geometry, covariance, field
and harness tests and by acceptance criterion 05; it holds no tests.
"""

import math
from collections import Counter

import numpy as np
from scipy.fft import fftn, next_fast_len, rfft

from latblock.constants import _SLAB_BINS
from latblock.constants import k0 as shape_k0
from latblock.errors import EmptyWindow, LatblockError, MissingSites
from latblock.estimators import FieldSample, _check_core, _reduce_theta, design_plan
from latblock.fieldsim import build_generator, lift_for_statistic, sample_field, substream
from latblock.geometry import (
    _EQ_TOL,
    OL,
    LatticeWindow,
    Region,
    SubsampleSpec,
    box_points,
    lattice_sites,
    raster_mask,
)
from latblock.harness import PhiRow, _mean_se, optimal_scaling_study, plan_study
from latblock.scaling import (
    ScalingPlan,
    hj_choose,
    hj_designs,
    npi_bias_estimate,
    npi_region_pilots,
    theoretical_scaling,
)


def interval_sites(center, width):
    """Integers in the half-open interval (center - width/2, center + width/2]."""
    lo = math.ceil(center - width / 2)
    hi = math.floor(center + width / 2)
    if lo == center - width / 2:
        lo += 1
    return list(range(lo, hi + 1))


def _candidate_offsets(region: Region, pad_lo: np.ndarray, pad_hi: np.ndarray):
    scale = np.asarray(region.scale)
    lo_f, hi_f = region.template.geom.bbox()
    lo = np.floor(lo_f * scale - pad_hi - 1).astype(np.int64)
    hi = np.ceil(hi_f * scale - pad_lo + 1).astype(np.int64)
    return box_points(lo, hi)


def _offsets_with_sites_inside(region: Region, base_sites: np.ndarray) -> np.ndarray:
    """Integer offsets whose translated site block lies inside the region window.

    The membership predicate is the exact per-shape boundary rule, evaluated
    at every translated site, so the test is exact; a translate belongs to the
    design precisely when each of its sampling sites is an observed site.
    """
    scale = np.asarray(region.scale)
    shift = np.asarray(region.shift)
    cand = _candidate_offsets(
        region, base_sites.min(axis=0).astype(float), base_sites.max(axis=0).astype(float)
    )
    if cand.shape[0] == 0:
        return cand
    pts = cand[:, None, :] + base_sites[None, :, :]
    ok = np.all(region.template.geom.contains_scaled(pts, scale, shift), axis=1)
    return cand[ok]


def nol_subregion_windows(region: Region, spec: SubsampleSpec, offsets) -> list:
    """Site windows of the NOL template copies at ``offsets``, one copy at a time.

    With ``s_lambda * i = n + f`` and ``n = floor(s_lambda * i)``, copy i is
    the sites of the scaled sub-template at lattice shift ``shift - f``,
    moved by ``n``; at an integer scale f = 0, n = s_lambda * i, and a copy
    without sites raises ``EmptyWindow``.  An empty copy at another scale
    keeps its box's corners.
    """
    s_lam = spec.s_lambda
    shift = np.asarray(region.shift)
    geom = spec.template.geom
    lo_f, hi_f = geom.bbox()
    out = []
    for i in np.asarray(offsets, np.int64):
        if spec.is_integer_scale():
            whole, frac = int(round(s_lam)) * i, np.zeros(region.d)
        else:
            corner = s_lam * i.astype(float)
            frac = corner - np.floor(corner)
            whole = np.floor(corner).astype(np.int64)
        lo = np.ceil(s_lam * lo_f - shift + frac - _EQ_TOL).astype(np.int64)
        hi = np.floor(s_lam * hi_f - shift + frac + _EQ_TOL).astype(np.int64)
        cand = box_points(lo, hi)
        sites = cand[geom.contains_scaled(cand, (s_lam,) * region.d, shift - frac)]
        if len(sites):
            lo, hi = sites.min(axis=0), sites.max(axis=0)
        elif spec.is_integer_scale():
            raise EmptyWindow("region contains no lattice sites")
        out.append(LatticeWindow(sites=sites + whole, lo=lo + whole, hi=hi + whole))
    return out


def naive_ol(sample, mlam, nlam, s_lam, stat):
    """Direct transcription of the overlapping design for hypercube windows.

    A translate belongs to the design when every one of its sites is an
    observed site of the region window.
    """
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    count = None
    n_off = 0
    for i1 in range(-2 * mlam, 2 * mlam + 1):
        for i2 in range(-2 * nlam, 2 * nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(i1, s_lam)
                for z2 in interval_sites(i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            n_off += 1
            rows = [pos[z] for z in sites]
            count = len(rows)
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if n_off == 0:
        return None, 0
    thetas = np.array(thetas)
    tilde = np.mean(thetas)
    return np.mean(count * (thetas - tilde) ** 2), n_off


def naive_nol(sample, mlam, nlam, s_lam, stat):
    """Disjoint cubes anchored at multiples of the scale, site-tested."""
    pos = {tuple(s): i for i, s in enumerate(sample.window.sites.tolist())}
    thetas = []
    counts = []
    for i1 in range(-mlam, mlam + 1):
        for i2 in range(-nlam, nlam + 1):
            sites = [
                (z1, z2)
                for z1 in interval_sites(s_lam * i1, s_lam)
                for z2 in interval_sites(s_lam * i2, s_lam)
            ]
            if not sites or not all(z in pos for z in sites):
                continue
            rows = [pos[z] for z in sites]
            counts.append(len(rows))
            block = np.asarray([sample.values[r] for r in rows])
            thetas.append(float(stat(block.mean(axis=0))))
    if not thetas:
        return None, 0
    thetas = np.array(thetas)
    counts = np.array(counts)
    tilde = np.mean(thetas)
    return np.mean(counts * (thetas - tilde) ** 2), len(thetas)


def pairwise_covariance_matrix(cov, window, chunk=512):
    """Dense site-pair covariance matrix in window site order."""
    n = window.n_sites
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, chunk):
        block = window.sites[start : start + chunk]
        diffs = block[:, None, :] - window.sites[None, :, :]
        out[start : start + block.shape[0]] = cov.sigma_many(diffs)
    return out


def wrapped_circulant_base(cov, span):
    """Embedding-torus base: the covariogram at the wrapped torus lags."""
    embed = tuple(int(max(2 * (s - 1), 1)) for s in span)
    size = np.array(embed)
    idx = box_points([0] * len(embed), size - 1)
    lags = np.where(idx <= size // 2, idx, idx - size)  # wrapped torus lags
    return cov.sigma_many(lags).reshape(embed)


def fftn_circulant_draw(gen, stream):
    """The circulant draw by one ``fftn`` of the whole embedding torus, cut to
    the block afterwards."""
    m = int(np.prod(gen.embed_shape))
    z = stream.normals(2 * m)
    zeta = (z[:m] + 1j * z[m:]).reshape(gen.embed_shape)
    w = np.fft.fftn(gen.spectrum_sqrt * zeta) / np.sqrt(m)
    block = w.real[tuple(slice(0, s) for s in gen.block_shape)]
    return FieldSample(gen.window, block.ravel()[:, None])


def scipy_k0_numeric(template, step):
    """``k0_numeric`` with its transforms taken by ``scipy.fft``: the real one
    on the first axis, then one n-D complex transform per slab."""
    mask, h = raster_mask(template, step)
    vol = float(mask.sum()) * h**template.d
    padded = [next_fast_len(2 * n - 1, real=True) for n in mask.shape]
    half = rfft(mask, padded[0], axis=0)
    weight = np.full(half.shape[:1] + (1,) * (template.d - 1), 2.0)
    weight[0] = 1.0
    if padded[0] % 2 == 0:
        weight[-1] = 1.0
    axes = tuple(range(1, template.d))
    width = max(1, _SLAB_BINS // math.prod(padded[1:]))
    acf_sq = 0.0
    for lo in range(0, len(half), width):
        spec = fftn(half[lo:lo + width], padded[1:], axes=axes)
        power = spec.real**2 + spec.imag**2
        acf_sq += float(((power * power) * weight[lo:lo + width]).sum())
    return acf_sq / math.prod(padded) * h ** (3 * template.d) / vol**3


def design_rows(plan, window):
    """The rows of ``window`` that hold each subsample of a design, -1 where
    a site is not in the window: a shared-count design's (M, sN) rows
    (anchor ``step * offset`` plus each base site), or a ragged design's
    rows of every template copy."""
    indexer = window.indexer()
    if plan.index_set.copies is not None:
        return [indexer.lookup(sites) for sites in plan.index_set.copies]
    (grid,) = plan.grids
    return indexer.lookup(grid.step * plan.index_set.offsets[:, None] + grid.base)


def _covered_rows(plan, window):
    rows = design_rows(plan, window)
    if any(np.any(r < 0) for r in rows):
        what = "overlapping" if plan.index_set.scheme == OL else "disjoint"
        raise MissingSites(f"sample does not cover every {what} subsample site")
    return rows


def gather_estimate(plan, window, values, stat):
    """theta (..., M), theta_tilde (...) and tau_hat_sq (...) of a shared-count
    design on field values (..., N, p) of ``window``, by gathering each
    subsample's values and taking their mean over its sites.

    The design may be built on another window of the same region: a site of
    it that ``window`` misses raises ``MissingSites``.
    """
    rows = _covered_rows(plan, window)
    _check_core(plan, values.shape[-1], stat)
    theta = stat(values[..., rows, :].mean(axis=-2))
    return (theta, *_reduce_theta(plan, theta, stat))


def gather_ragged(plan, window, values, stat):
    """``gather_estimate`` of a ragged design, gathered copy by copy."""
    rows = _covered_rows(plan, window)
    _check_core(plan, values.shape[-1], stat)
    theta = np.stack([stat(values[..., r, :].mean(axis=-2)) for r in rows], axis=-1)
    return (theta, *_reduce_theta(plan, theta, stat))


def gather_tau(sample, region, spec, stat) -> float:
    """tau_hat_sq of ``spec`` on ``sample`` by ``gather_estimate``."""
    plan = design_plan(sample.window, region, spec)
    return float(gather_estimate(plan, sample.window, sample.values, stat)[2])


def npi_scaling_reference(sample, region, stat, c1=0.5, c2=0.5, scheme=OL) -> ScalingPlan:
    """``npi_scaling`` on one sample, each scale estimated by ``gather_tau``."""
    d = region.d
    s1_raw, s2_raw, s1, s2 = npi_region_pilots(region, c1, c2)

    def tau_fn(lam: int) -> float:
        return gather_tau(sample, region, SubsampleSpec(region.template, float(lam), scheme), stat)

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


def hj_scaling_reference(
    sample, region, stat, lambda_m, candidates=None, scheme=OL, min_candidates=5
) -> ScalingPlan:
    """``hj_scaling`` on one sample: the proxy by ``gather_tau``, and each
    candidate by ``gather_estimate`` on the gathered pilot-block values."""
    lambda_m = int(lambda_m)
    design = hj_designs(sample.window, region, lambda_m, candidates, scheme, min_candidates)
    proxy_spec = SubsampleSpec(region.template, float(lambda_m), scheme)
    proxy = gather_tau(sample, region, proxy_spec, stat)

    mse_curve = []
    usable = []
    dropped = list(design.dropped)
    pilot = lattice_sites(Region(region.template, (float(lambda_m),) * region.d, region.shift))
    block_values = sample.values[design_rows(design.blocks, sample.window)]  # (B, nB, p)
    for c, local in design.local:
        # a statistic undefined on some block's subsample drops the candidate
        try:
            tau_blocks = gather_estimate(local, pilot, block_values, stat)[2]  # (B,)
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


def per_replicate_deviations(samples, region, stat, sel, methods, s_opt, tau_n):
    """Per replicate of ``samples``, a pair's ``harness.Replicates``, (s_hat,
    phi) of every selector setting in ``methods``, or the class name of the
    ``LatblockError`` it raised.

    Each replicate is drawn and lifted on its own, and gets one
    ``npi_scaling_reference`` or ``hj_scaling_reference`` call per setting,
    each scale estimated by ``gather_tau``.  ``phi`` is the selected scale's
    estimate less the oracle scale's, over tau_n.
    """

    def selector_deviations(sample):
        def tau_at(lam):
            spec = SubsampleSpec(region.template, float(lam), sel.scheme)
            return gather_tau(sample, region, spec, stat)

        tau_opt = tau_at(s_opt)
        out = []
        for method, c1, c2, lm in methods:
            try:
                if method == "npi":
                    plan = npi_scaling_reference(sample, region, stat, c1, c2, sel.scheme)
                else:
                    plan = hj_scaling_reference(
                        sample,
                        region,
                        stat,
                        lm,
                        candidates=sel.hj_candidates,
                        scheme=sel.scheme,
                        min_candidates=sel.hj_min_candidates,
                    )
                s_hat = plan.lambda_opt_int
                out.append((s_hat, (tau_at(s_hat) - tau_opt) / tau_n))
            except LatblockError as exc:
                out.append(type(exc).__name__)
        return out

    gen = build_generator(samples.cov, samples.window)
    return [
        selector_deviations(
            lift_for_statistic(sample_field(gen, substream(samples.seed, rep)), stat.name)
        )
        for rep in samples.streams
    ]


def oracle_scales(config):
    """"region|model" -> the selector study's oracle scale: pinned by
    ``selectors.s_lambda_opt``, otherwise the MSE-grid argmin of the selector
    scheme on the region's own template."""
    sel = config.selectors
    if sel.s_lambda_opt is not None:
        return dict(sel.s_lambda_opt)
    return {
        f"{row['region']}|{row['model']}": row["s_lambda_opt"]
        for row in optimal_scaling_study(config)
        if row["scheme"] == sel.scheme and row["sub_template"] == "same"
    }


def per_replicate_phi_rows(config):
    """The selector study, each replicate through ``per_replicate_deviations``.

    A ``LatblockError`` from one setting on one replicate fails that setting
    there: its row is summarised over the other replicates (NA with none
    left) and its note counts the failures and names their error classes.
    """
    sel = config.selectors
    methods = [("npi", c1, c2, None) for c1 in sel.npi_c1 for c2 in sel.npi_c2]
    methods += [("hj", None, None, lm) for lm in sel.hj_lambda_m]
    s_opt_map = oracle_scales(config)
    stat = config.statistic
    rows = []
    regions = {reg.name: reg.region() for reg in config.regions}
    for pair in plan_study(config, mse=False, phi=True).pairs:
        s_opt, region = int(s_opt_map[pair.key]), regions[pair.region]
        per_rep = per_replicate_deviations(pair.samples, region, stat, sel, methods, s_opt, pair.tau_n)
        for m_idx, (method, c1, c2, lm) in enumerate(methods):
            column = [out[m_idx] for out in per_rep]
            done = [out for out in column if not isinstance(out, str)]
            errors = [out for out in column if isinstance(out, str)]
            e_phi, se = None, None
            if done:
                e_phi, se = _mean_se(np.array([phi for _, phi in done]) ** 2)
            note = ""
            if errors:
                note = f"failed {len(errors)}: " + ";".join(sorted(set(errors)))
            rows.append(
                PhiRow(
                    region=pair.region,
                    model=pair.model,
                    scheme=sel.scheme,
                    method=method,
                    c1=c1,
                    c2=c2,
                    lambda_m=lm,
                    s_lambda_opt=s_opt,
                    e_phi_sq=e_phi,
                    mc_se=se,
                    reps=config.replicates,
                    freq=dict(Counter(int(s_hat) for s_hat, _ in done)),
                    note=note,
                )
            )
    return rows
