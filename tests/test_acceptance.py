"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo criteria use
1000 replicates with fixed seeds; their tolerances are multiples of the run's
own Monte Carlo standard error.
"""

import math

import numpy as np
import pytest

from latblock import (
    Covariogram,
    FieldSample,
    Region,
    SubsampleSpec,
    Template,
    build_generator,
    exact_tau_n_sq,
    hj_scaling,
    k0,
    k0_numeric,
    k1,
    npi_bias_estimate,
    npi_scaling,
    ol_estimate,
    sample_field,
    substream,
    theoretical_scaling,
    v_weight,
    v_weight_numeric,
)
from latblock.constants import b0_weight
from latblock.estimators import mean_statistic, moment_variance, nol_estimate
from latblock.geometry import affine_image, lattice_sites
from latblock.harness import config_from_dict, mse_study, run_study
from latblock.scaling import hj_recalibrate, npi_pilot_scales

SEED = 20260810


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def diamond():
    return Template.rotated_rectangle(math.pi / 4, math.sqrt(0.5), math.sqrt(0.5))


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mse_small_rect():
    cfg = config_from_dict(
        {
            "regions": [{"name": "rect14x18", "template": "hypercube:d=2", "scale": [14, 18]}],
            "covariograms": [{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
            "statistic": "mean",
            "schemes": ["ol"],
            "s_lambda_grid": [1, 2, 3, 4, 5, 6, 7],
            "replicates": 1000,
            "seed": SEED,
        }
    )
    return {c.s_lambda: c for c in mse_study(cfg)}


@pytest.fixture(scope="module")
def mse_big_rect():
    cfg = config_from_dict(
        {
            "regions": [{"name": "rect30x42", "template": "hypercube:d=2", "scale": [30, 42]}],
            "covariograms": [{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
            "statistic": "mean",
            "schemes": ["ol"],
            "s_lambda_grid": [7],
            "replicates": 1000,
            "seed": SEED + 1,
        }
    )
    return mse_study(cfg)[0]


@pytest.fixture(scope="module")
def mse_cross_shape():
    cfg = config_from_dict(
        {
            "regions": [{"name": "sq20", "template": "hypercube:d=2", "scale": [20, 20]}],
            "covariograms": [{"name": "Giso(2)", "spec": "gaussiso:b=2"}],
            "statistic": "mean",
            "schemes": ["ol"],
            "sub_templates": ["same", "circle:r=0.5"],
            "s_lambda_grid": [3],
            "replicates": 1000,
            "seed": SEED + 2,
        }
    )
    return {c.sub_template: c for c in mse_study(cfg)}


@pytest.fixture(scope="module")
def selector_runs():
    stat = mean_statistic()
    reps = 1000

    # plug-in selector on the small rectangle
    region = Region(Template.hypercube(2), (14, 18))
    window = lattice_sites(region)
    cov = Covariogram.exp_separable(1.0, 1.0)
    gen = build_generator(cov, window)
    tau_n = exact_tau_n_sq(region, cov)
    opt_plan = SubsampleSpec(Template.hypercube(2), 4.0, "ol")  # oracle scale
    npi_freq = {}
    phis = []
    for i in range(reps):
        field = sample_field(gen, substream(SEED + 3, i))
        plan = npi_scaling(field, region, stat, 0.5, 0.5, "ol")
        s_hat = plan.lambda_opt_int
        npi_freq[s_hat] = npi_freq.get(s_hat, 0) + 1
        tau_opt = ol_estimate(field, region, opt_plan, stat).tau_hat_sq
        tau_hat = ol_estimate(
            field, region, SubsampleSpec(Template.hypercube(2), float(s_hat), "ol"), stat
        ).tau_hat_sq
        phis.append((tau_hat - tau_opt) / tau_n)

    # empirical-MSE selector on the radius-9 disk; the pilot block is the
    # disk of radius 3 (scaling 6) and the candidate scalings are {3, 4},
    # the two pilot argmins the benchmark frequency distribution exhibits
    disk = Region(Template.circle(0.5), (18, 18))
    dgen = build_generator(Covariogram.gauss_separable(0.5, 0.3), lattice_sites(disk))
    hj_freq = {}
    for i in range(reps):
        field = sample_field(dgen, substream(SEED + 4, i))
        plan = hj_scaling(
            field, disk, stat, 6, candidates=[3, 4], scheme="ol", min_candidates=2
        )
        s_hat = plan.lambda_opt_int
        hj_freq[s_hat] = hj_freq.get(s_hat, 0) + 1

    return {"npi_freq": npi_freq, "phis": np.array(phis), "hj_freq": hj_freq, "reps": reps}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_shape_constant_goldens():
    checks = [
        (k0(Template.hypercube(1)).k0, 2 / 3, "k0 interval"),
        (k0(Template.hypercube(2)).k0, 4 / 9, "k0 square"),
        (k0(Template.hypercube(3)).k0, 8 / 27, "k0 cube"),
        (k0(Template.hypercube(6)).k0, (2 / 3) ** 6, "k0 hypercube d=6"),
        (k0(Template.sphere(0.5)).k0, 34 / 105, "k0 sphere"),
        (k0(Template.circle(0.5)).k0, 1 - 16 / (3 * math.pi**2), "k0 circle"),
        (k0(Template.regular_hexagon(0.5)).k0, 37 / 81, "k0 hexagon"),
        (k0(Template.right_triangle()).k0, 2 / 5, "k0 triangle"),
        (k1(Template.circle(0.5)), math.pi / 4 - 4 / (3 * math.pi), "k1 circle"),
        (k1(Template.sphere(0.5)), 17 * math.pi / 315, "k1 sphere"),
        (k1(Template.right_triangle()), 1 / 5, "k1 right triangle"),
        (k1(diamond()), 2 / 9, "k1 diamond"),
    ]
    worst = max(abs(got - want) for got, want, _ in checks)
    report(1, worst < 1e-6, f"analytic shape constants, worst |err| = {worst:.2e}")


def test_criterion_02_numeric_k0_and_affine_invariance():
    pairs = [
        (Template.hypercube(2), 4 / 9),
        (Template.hypercube(3), 8 / 27),
        (Template.sphere(0.5), 34 / 105),
        (Template.circle(0.5), 1 - 16 / (3 * math.pi**2)),
        (Template.regular_hexagon(0.5), 37 / 81),
        (Template.right_triangle(), 2 / 5),
    ]
    worst = max(abs(k0_numeric(t) - want) for t, want in pairs)
    ok = worst < 1e-3

    rng = np.random.default_rng(SEED)
    worst_aff = 0.0
    for template in (Template.circle(0.5), Template.right_triangle()):
        base = k0_numeric(template)
        theta = rng.uniform(0.2, 2.8)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        diag = np.diag(rng.uniform(0.6, 1.4, size=2))
        worst_aff = max(worst_aff, abs(k0_numeric(affine_image(template, rot @ diag)) - base))
    ok = ok and worst_aff < 2e-3
    report(
        2,
        ok,
        f"quadrature k0 worst |err| = {worst:.2e}; affine perturbation worst = {worst_aff:.2e}",
    )


def test_criterion_03_degenerate_limits_and_diamond_weights():
    rect_limit = abs(k0(Template.trapezoid(0.5, 0.5)).k0 - 4 / 9)
    tri_limit = abs(k0(Template.trapezoid(0.0009, 0.9)).k0 - 2 / 5)
    exact = all(
        b0_weight(diamond(), (a, b)) == 2 * max(abs(a), abs(b))
        for a in range(-5, 6)
        for b in range(-5, 6)
    )
    ok = rect_limit < 1e-3 and tri_limit < 1e-3 and exact
    report(
        3,
        ok,
        f"trapezoid limits err ({rect_limit:.1e}, {tri_limit:.1e}); "
        f"diamond weights exact = {exact}",
    )


def test_criterion_04_bias_weight_oracle():
    shapes = [
        Template.hypercube(2),
        Template.circle(0.5),
        diamond(),
        Template.right_triangle(),
        Template.isoceles_triangle(),
        Template.regular_hexagon(0.5),
    ]
    worst = 0.0
    for template in shapes:
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == b == 0:
                    continue
                err = abs(
                    v_weight_numeric(template, (a, b)) - v_weight(template, (a, b))
                )
                worst = max(worst, err)
    report(4, worst < 1e-3, f"numeric vs analytic volume-loss rates, worst = {worst:.2e}")


def test_criterion_05_brute_force_equivalence():
    from brute_force import naive_nol, naive_ol

    rng = np.random.default_rng(SEED)
    checked = 0
    exact = True
    for stat in (mean_statistic(), moment_variance()):
        for mlam in range(1, 7):
            for nlam in range(1, 7):
                region = Region(Template.hypercube(2), (mlam, nlam))
                window = lattice_sites(region)
                values = rng.standard_normal((window.n_sites, stat.p))
                if stat.p == 2:
                    values[:, 1] = values[:, 0] ** 2
                sample = FieldSample(window, values)
                for s_lam in range(1, min(mlam, nlam) + 1):
                    naive_tau, naive_j = naive_ol(sample, mlam, nlam, s_lam, stat)
                    if naive_j >= 2:
                        got = ol_estimate(
                            sample,
                            region,
                            SubsampleSpec(Template.hypercube(2), float(s_lam), "ol"),
                            stat,
                        )
                        exact = exact and got.tau_hat_sq == naive_tau
                        checked += 1
                    naive_tau, naive_j = naive_nol(sample, mlam, nlam, s_lam, stat)
                    if naive_j >= 2:
                        got = nol_estimate(
                            sample,
                            region,
                            SubsampleSpec(Template.hypercube(2), float(s_lam), "nol"),
                            stat,
                        )
                        exact = exact and got.tau_hat_sq == naive_tau
                        checked += 1
    report(5, exact and checked > 100, f"bit-for-bit on {checked} estimator cells")


def test_criterion_06_exact_variance_oracle():
    worst = 0.0
    for cov in (
        Covariogram.exp_separable(1.0, 1.0),
        Covariogram.exp_separable(0.5, 0.3),
        Covariogram.gauss_separable(0.5, 0.3),
        Covariogram.white(2),
    ):
        for shape in ((5, 5), (12, 12), (12, 7)):
            region = Region(Template.hypercube(2), shape)
            a = exact_tau_n_sq(region, cov, method="lags")
            b = exact_tau_n_sq(region, cov, method="pairs")
            worst = max(worst, abs(a - b) / abs(b))
    region22 = Region(Template.hypercube(2), (2, 2), (0.5, 0.5))
    val = exact_tau_n_sq(region22, Covariogram.exp_separable(1.0, 1.0))
    hand = (1 + math.exp(-1)) ** 2
    anchor = abs(val - hand) / hand
    ok = worst < 1e-12 and anchor < 1e-12
    report(6, ok, f"lag/pair path gap {worst:.1e}; 2x2 hand-sum gap {anchor:.1e}")


def test_criterion_07_selector_arithmetic():
    tau2, b0_true = 5.25, 7.5

    def curve(lam):
        return tau2 - b0_true / lam

    worst = 0.0
    for c1 in (0.5, 1.0):
        for c2 in (0.5,):
            _, _, _, pilot = npi_pilot_scales(1260.0, 2, c1, c2)
            worst = max(worst, abs(npi_bias_estimate(curve, pilot) - b0_true) / b0_true)
    exact_recal = hj_recalibrate(3.0, 16.0, 2) == 6.0
    report(7, worst < 1e-12 and exact_recal, f"plug-in exactness {worst:.1e}; recalibration 3*16^(1/4) == 6: {exact_recal}")


def test_criterion_08_scaling_laws():
    shape = k0(Template.hypercube(2))
    worst_ratio = 0.0
    for det in (252.0, 1260.0, 9999.0):
        ol = theoretical_scaling(2, det, 7.969179, 4.682694, shape, "ol")
        nol = theoretical_scaling(2, det, 7.969179, 4.682694, shape, "nol")
        target = shape.k1 ** (-0.25)
        worst_ratio = max(
            worst_ratio, abs(ol.lambda_opt_real / nol.lambda_opt_real - target) / target
        )
    base = theoretical_scaling(2, 400.0, 2.5, 3.5, shape, "ol").lambda_opt_real
    worst_hom = 0.0
    for m in (2.0, 16.0, 125.0):
        lam = theoretical_scaling(2, m * 400.0, 2.5, 3.5, shape, "ol").lambda_opt_real
        worst_hom = max(worst_hom, abs(lam / base - m**0.25) / m**0.25)
    ok = worst_ratio < 1e-12 and worst_hom < 1e-12
    report(8, ok, f"OL/NOL ratio gap {worst_ratio:.1e}; homogeneity gap {worst_hom:.1e}")


def test_criterion_09_table6_reproduction(mse_small_rect, mse_big_rect):
    targets = {3: 0.2201, 4: 0.1926, 5: 0.2106}
    details = []
    ok = True
    for lam, want in targets.items():
        cell = mse_small_rect[lam]
        z = abs(cell.mse - want) / cell.mc_se
        details.append(f"s{lam}: {cell.mse:.4f} (z={z:.2f})")
        ok = ok and z <= 3.0
    live = [c for c in mse_small_rect.values() if c.mse is not None]
    best_small = min(live, key=lambda c: (c.mse, c.s_lambda))
    argmin = best_small.s_lambda
    ok = ok and argmin in (3, 4, 5)
    zb = abs(mse_big_rect.mse - 0.0983) / mse_big_rect.mc_se
    ok = ok and zb <= 3.0
    # consistency: the achievable MSE shrinks as the region grows
    ok = ok and mse_big_rect.mse < best_small.mse
    report(
        9,
        ok,
        "; ".join(details) + f"; argmin={argmin}; 30x42 s7: {mse_big_rect.mse:.4f} (z={zb:.2f})",
    )


def test_criterion_10_cross_shape_reproduction(mse_cross_shape):
    rect = mse_cross_shape["same"]
    circ = mse_cross_shape["circle:r=0.5"]
    z_rect = abs(rect.mse - 0.0436) / rect.mc_se
    z_circ = abs(circ.mse - 0.0436) / circ.mc_se
    ok = z_rect <= 3.0 and z_circ <= 3.0
    report(
        10,
        ok,
        f"square sub {rect.mse:.4f} (z={z_rect:.2f}); circle sub {circ.mse:.4f} (z={z_circ:.2f})",
    )


def test_criterion_11_selector_sanity(selector_runs):
    reps = selector_runs["reps"]
    npi_freq = selector_runs["npi_freq"]
    npi_mass = sum(v for k, v in npi_freq.items() if k in (3, 4, 5)) / reps
    e_phi_sq = float(np.mean(selector_runs["phis"] ** 2))
    hj_freq = selector_runs["hj_freq"]
    hj_mass = sum(v for k, v in hj_freq.items() if k in (5, 6)) / reps
    ok = npi_mass >= 0.9 and e_phi_sq < 0.05 and hj_mass >= 0.8
    report(
        11,
        ok,
        f"plug-in mass on {{3,4,5}} = {npi_mass:.3f} (freq {dict(sorted(npi_freq.items()))}); "
        f"E(phi^2) = {e_phi_sq:.4f}; "
        f"block-MSE mass on {{5,6}} = {hj_mass:.3f} (freq {dict(sorted(hj_freq.items()))})",
    )


def test_criterion_12_study_determinism(tmp_path):
    def outputs(tag):
        return {
            "mse_csv": str(tmp_path / f"mse_{tag}.csv"),
            "scaling_csv": str(tmp_path / f"scal_{tag}.csv"),
        }

    def raw(tag, workers):
        return {
            "regions": [{"name": "rect", "template": "hypercube:d=2", "scale": [12, 14]}],
            "covariograms": [{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
            "statistic": "mean",
            "schemes": ["ol", "nol"],
            "s_lambda_grid": [2, 3, 4],
            "replicates": 150,
            "seed": SEED + 5,
            "workers": workers,
            "outputs": outputs(tag),
        }

    run_study(config_from_dict(raw("a", 1)))
    run_study(config_from_dict(raw("b", 4)))
    same_mse = (tmp_path / "mse_a.csv").read_bytes() == (tmp_path / "mse_b.csv").read_bytes()
    same_scal = (tmp_path / "scal_a.csv").read_bytes() == (tmp_path / "scal_b.csv").read_bytes()
    report(12, same_mse and same_scal, f"byte-identical CSVs across thread counts: {same_mse and same_scal}")
