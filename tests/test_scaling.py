"""Theoretical optimal scale and the two data-driven selectors."""

import math

import numpy as np
import pytest

from latblock import (
    Covariogram,
    Region,
    SubsampleSpec,
    Template,
    build_generator,
    hj_scaling,
    k0,
    npi_bias_estimate,
    npi_scaling,
    parse_template,
    sample_field,
    substream,
    theoretical_scaling,
)
from latblock import scaling
from latblock.errors import (
    ConfigError,
    EmptySubsampleSet,
    InsufficientCandidates,
    ZeroBiasConstant,
)
from latblock.estimators import SmoothStatistic, mean_statistic
from latblock.geometry import lattice_sites
from latblock.scaling import hj_recalibrate, npi_pilot_scales

B0_CUBE_E11 = 7.969179068221  # 2 * S1 * S0 geometric series
TAU_CUBE_E11 = ((1 + math.exp(-1)) / (1 - math.exp(-1))) ** 2


def cube_shape():
    return k0(Template.hypercube(2))


def test_theoretical_scaling_anchor_value():
    plan = theoretical_scaling(2, 1260.0, B0_CUBE_E11, TAU_CUBE_E11, cube_shape(), "ol")
    assert plan.lambda_opt_real == pytest.approx(8.0, abs=0.05)
    assert plan.lambda_opt_int == 8


def test_ol_nol_ratio_law():
    shape = cube_shape()
    for det in (252.0, 1260.0, 5000.0):
        ol = theoretical_scaling(2, det, 3.3, 2.2, shape, "ol")
        nol = theoretical_scaling(2, det, 3.3, 2.2, shape, "nol")
        ratio = ol.lambda_opt_real / nol.lambda_opt_real
        assert ratio == pytest.approx(shape.k1 ** (-1.0 / 4.0), rel=1e-12)
    # rectangles: the ratio is (3/2)^(d/(d+2))
    assert shape.k1 ** (-1.0 / 4.0) == pytest.approx(1.5 ** 0.5, rel=1e-12)


def test_det_delta_homogeneity():
    shape = cube_shape()
    base = theoretical_scaling(2, 500.0, 2.0, 3.0, shape, "ol").lambda_opt_real
    for m in (2.0, 10.0, 64.0):
        scaled = theoretical_scaling(2, m * 500.0, 2.0, 3.0, shape, "ol").lambda_opt_real
        assert scaled / base == pytest.approx(m ** 0.25, rel=1e-12)


def test_zero_bias_constant_raises():
    with pytest.raises(ZeroBiasConstant):
        theoretical_scaling(2, 100.0, 0.0, 1.0, cube_shape(), "ol")


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigError):
        theoretical_scaling(2, 100.0, 1.0, -1.0, cube_shape(), "ol")
    with pytest.raises(ConfigError):
        theoretical_scaling(2, -5.0, 1.0, 1.0, cube_shape(), "ol")


# ---------------------------------------------------------------------------
# plug-in selector
# ---------------------------------------------------------------------------


def test_npi_pilot_scales_arithmetic():
    s1, s2, i1, i2 = npi_pilot_scales(252.0, 2, 0.5, 0.5)
    assert s1 == pytest.approx(0.5 * 252.0 ** 0.25, rel=1e-14)
    assert s2 == pytest.approx(0.5 * 252.0 ** (1.0 / 6.0), rel=1e-14)
    assert (i1, i2) == (2, 1)


@pytest.mark.parametrize("c1", [0.5, 1.0])
@pytest.mark.parametrize("c2", [0.5])
def test_npi_exact_on_hyperbolic_curve(c1, c2):
    # on tau2 - b0/lam the two-point difference recovers b0 exactly
    tau2, b0_true = 5.25, 7.5

    def curve(lam):
        return tau2 - b0_true / lam

    _, _, _, pilot = npi_pilot_scales(1260.0, 2, c1, c2)
    got = npi_bias_estimate(curve, pilot)
    assert got == pytest.approx(b0_true, rel=1e-12)


def test_npi_on_seeded_field():
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    stat = mean_statistic()
    plans = [
        npi_scaling(sample_field(gen, substream(77, i)), region, stat, 0.5, 0.5, "ol")
        for i in range(60)
    ]
    ints = [p.lambda_opt_int for p in plans]
    frac = sum(1 for v in ints if v in (3, 4, 5)) / len(ints)
    assert frac >= 0.9
    diag = plans[0].diagnostics
    assert diag["pilot1"] == 2 and diag["pilot2"] == 1


def test_npi_deterministic():
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    f = sample_field(gen, substream(7, 0))
    a = npi_scaling(f, region, mean_statistic(), 0.5, 0.5, "ol")
    b = npi_scaling(f, region, mean_statistic(), 0.5, 0.5, "ol")
    assert a.lambda_opt_real == b.lambda_opt_real
    assert a.lambda_opt_int == b.lambda_opt_int


# ---------------------------------------------------------------------------
# empirical-MSE selector
# ---------------------------------------------------------------------------


def test_hj_recalibration_arithmetic():
    assert hj_recalibrate(3.0, 16.0, 2) == 6.0


def test_hj_recalibration_monotone_in_region_volume():
    vals = [hj_recalibrate(3.0, ratio, 2) for ratio in (4.0, 9.0, 16.0, 25.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_hj_insufficient_candidates():
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    f = sample_field(gen, substream(3, 0))
    with pytest.raises(InsufficientCandidates):
        hj_scaling(f, region, mean_statistic(), 4, scheme="ol")  # grid {2,3}


def test_hj_deterministic_and_tie_break():
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    f = sample_field(gen, substream(3, 1))
    a = hj_scaling(f, region, mean_statistic(), 5, candidates=[1, 2, 3, 4], min_candidates=4)
    b = hj_scaling(f, region, mean_statistic(), 5, candidates=[4, 2, 1, 3], min_candidates=4)
    assert a.lambda_opt_int == b.lambda_opt_int
    assert a.diagnostics["mse_curve"] == b.diagnostics["mse_curve"]
    assert a.diagnostics["candidates"] == [1, 2, 3, 4]
    assert a.diagnostics["dropped"] == []


def test_hj_on_seeded_rectangle():
    # pilot blocks of scale 5; benchmark runs put nearly all of the mass on
    # final estimates 2 and 4 for this region and model
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), w)
    stat = mean_statistic()
    freq = {}
    for i in range(60):
        f = sample_field(gen, substream(55, i))
        plan = hj_scaling(f, region, stat, 5, candidates=[1, 2, 3, 4], min_candidates=4)
        freq[plan.lambda_opt_int] = freq.get(plan.lambda_opt_int, 0) + 1
    assert set(freq) <= {2, 4, 5, 7}
    assert freq.get(2, 0) + freq.get(4, 0) >= 48


def test_hj_drops_degenerate_candidates():
    region = Region(Template.circle(0.5), (18, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.gauss_separable(0.5, 0.3), w)
    f = sample_field(gen, substream(9, 0))
    plan = hj_scaling(
        f, region, mean_statistic(), 6, candidates=[2, 3, 4, 5], min_candidates=4
    )
    # a radius-2.5 sub-disk admits a single translate inside the radius-3 block
    assert plan.diagnostics["dropped"] == [(5, "DegenerateSubsampling")]
    assert plan.diagnostics["candidates"] == [2, 3, 4]


def test_hj_lambda_m_validation():
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    gen = build_generator(Covariogram.white(2), w)
    f = sample_field(gen, substream(1, 0))
    with pytest.raises(ConfigError):
        hj_scaling(f, region, mean_statistic(), 14)
    with pytest.raises(ConfigError):
        hj_scaling(f, region, mean_statistic(), 5, candidates=[0, 1, 2, 3, 4])


@pytest.mark.parametrize("error", [EmptySubsampleSet, RuntimeError])
def test_hj_drops_only_latblock_errors(monkeypatch, error):
    region = Region(Template.hypercube(2), (14, 18))
    w = lattice_sites(region)
    f = sample_field(build_generator(Covariogram.white(2), w), substream(1, 0))
    real = scaling.design_plan

    def failing_candidate(window, reg, spec):
        if reg != region and spec.s_lambda == 3.0:
            raise error("candidate design failed")
        return real(window, reg, spec)

    monkeypatch.setattr(scaling, "design_plan", failing_candidate)
    args = (f, region, mean_statistic(), 5)
    if error is RuntimeError:  # a bug, not a degenerate design: it must surface
        with pytest.raises(RuntimeError):
            hj_scaling(*args, candidates=[1, 2, 3, 4], min_candidates=4)
    else:
        plan = hj_scaling(*args, candidates=[1, 2, 3, 4], min_candidates=3)
        assert plan.diagnostics["dropped"] == [(3, "EmptySubsampleSet")]


def test_hj_drops_candidate_whose_statistic_is_undefined():
    # the 5x5 pilot window holds 9 overlapping subsamples at candidate 3 only;
    # the statistic is undefined on the pilot blocks there and nowhere else
    def fragile(x):
        if x.ndim == 3 and x.shape[-2] == 9:
            return np.full(x.shape[:-1], np.nan)
        return x[..., 0]

    stat = SmoothStatistic("fragile", 1, fragile, lambda x: np.ones_like(x), is_linear=True)
    region = Region(Template.hypercube(2), (14, 18))
    f = sample_field(build_generator(Covariogram.white(2), lattice_sites(region)), substream(1, 0))
    plan = hj_scaling(f, region, stat, 5, candidates=[1, 2, 3, 4], min_candidates=3)
    assert plan.diagnostics["dropped"] == [(3, "StatisticDomainError")]
    assert plan.diagnostics["candidates"] == [1, 2, 4]
    assert np.all(np.isfinite(plan.diagnostics["mse_curve"]))


@pytest.mark.parametrize(
    "spec, scale, shift, lambda_m",
    [
        ("hypercube:d=2", (14, 18), None, 5),
        ("hypercube:d=2", (13, 16), (0.25, -0.4), 6),
        ("circle:r=0.5", (18, 18), None, 6),
        ("circle:r=0.5", (20, 20), (0.3, 0.1), 7),
        ("hex:l=0.5", (16, 16), (-0.2, 0.5), 6),
    ],
)
def test_hj_pilot_window_is_the_first_block_moved_back(monkeypatch, spec, scale, shift, lambda_m):
    template = parse_template(spec)
    region = Region(template, scale, shift)
    window = lattice_sites(region)
    f = sample_field(build_generator(Covariogram.white(2), window), substream(2, 0))
    real = scaling.design_plan
    pilots = []

    def spy(win, reg, sub):
        if reg != region:
            pilots.append(win)
        return real(win, reg, sub)

    monkeypatch.setattr(scaling, "design_plan", spy)
    hj_scaling(f, region, mean_statistic(), lambda_m, candidates=[1, 2, 3], min_candidates=1)
    blocks = real(window, region, SubsampleSpec(template, float(lambda_m), "ol"))
    first = window.sites[blocks.row_matrix[0]] - blocks.index_set.offsets[0]
    assert len(pilots) == 3
    for pilot in pilots:
        assert np.array_equal(pilot.sites, first)
        assert np.array_equal(pilot.lo, first.min(axis=0))
        assert np.array_equal(pilot.hi, first.max(axis=0))
