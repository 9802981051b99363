"""Theoretical optimal scale and the two data-driven selectors."""

import math

import numpy as np
import pytest
from brute_force import design_rows, hj_scaling_reference, npi_scaling_reference

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
    LatblockError,
    StatisticDomainError,
    ZeroBiasConstant,
)
from latblock.estimators import (
    FieldSample,
    SmoothStatistic,
    field_image,
    mean_statistic,
    moment_variance,
    ratio_of_means,
)
from latblock.geometry import enumerate_nol, lattice_sites
from latblock.scaling import SelectorEngine, hj_recalibrate, npi_pilot_scales

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
    first = window.sites[design_rows(blocks, window)[0]] - blocks.index_set.offsets[0]
    assert len(pilots) == 3
    for pilot in pilots:
        assert np.array_equal(pilot.sites, first)
        assert np.array_equal(pilot.lo, first.min(axis=0))
        assert np.array_equal(pilot.hi, first.max(axis=0))


# ---------------------------------------------------------------------------
# the selector engine against the per-sample references
# ---------------------------------------------------------------------------


def outcome(select, *args, **kwargs):
    """The plan ``select`` returns, or the ``LatblockError`` it raises."""
    try:
        return select(*args, **kwargs)
    except LatblockError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, LatblockError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want
        assert got.diagnostics == want.diagnostics  # ScalingPlan equality skips them


BOX = Region(Template.hypercube(2), (14, 18))
DISK = Region(Template.circle(0.5), (20, 20), (0.3, 0.1))


def seeded_sample(region, stat_name, seed=4):
    window = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), window)
    x = sample_field(gen, substream(seed, 0)).values[:, 0]
    if stat_name == "mean":
        return FieldSample(window, x), mean_statistic()
    return FieldSample(window, np.stack([x, x * x], axis=-1)), moment_variance()


@pytest.mark.parametrize("scheme", ["ol", "nol"])
@pytest.mark.parametrize("stat_name", ["mean", "momvar"])
@pytest.mark.parametrize("region", [BOX, DISK], ids=["box", "shifted-disk"])
def test_selectors_equal_the_per_sample_references(region, stat_name, scheme):
    sample, stat = seeded_sample(region, stat_name)
    plans = []
    for c1, c2 in [(0.5, 0.5), (1.0, 0.5), (0.6, 0.4)]:
        args = (sample, region, stat, c1, c2, scheme)
        plans.append(outcome(npi_scaling, *args))
        assert_same_outcome(plans[-1], outcome(npi_scaling_reference, *args))
    for lambda_m, candidates, least in [(6, [1, 2, 3, 4, 5], 1), (8, None, 3), (4, None, 5)]:
        args = (sample, region, stat, lambda_m, candidates, scheme, least)
        plans.append(outcome(hj_scaling, *args))
        assert_same_outcome(plans[-1], outcome(hj_scaling_reference, *args))
    assert any(not isinstance(plan, LatblockError) for plan in plans)


def ratio_sample():
    """A ratio-of-means field on the 14 x 18 box whose denominator is zero on
    its low 3 x 3 corner."""
    window = lattice_sites(BOX)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), window)
    x = sample_field(gen, substream(7, 0)).values[:, 0]
    corner = np.all(window.sites <= window.lo + 2, axis=1)
    denominator = np.where(corner, 0.0, 2.0 + 0.1 * x)
    return FieldSample(window, np.stack([x, denominator], axis=-1))


def test_a_zero_denominator_drops_hj_candidates_and_fails_npi():
    sample, stat = ratio_sample(), ratio_of_means()
    plan = hj_scaling(sample, BOX, stat, 8)
    assert_same_outcome(plan, hj_scaling_reference(sample, BOX, stat, 8))
    assert plan.diagnostics["dropped"] == [
        (2, "StatisticDomainError"),
        (3, "StatisticDomainError"),
    ]
    assert plan.diagnostics["candidates"] == [4, 5, 6, 7]
    with pytest.raises(StatisticDomainError) as got:
        npi_scaling(sample, BOX, stat)
    assert_same_outcome(got.value, outcome(npi_scaling_reference, sample, BOX, stat))


@pytest.mark.parametrize("scheme", ["ol", "nol"])
@pytest.mark.parametrize("stat_name", ["mean", "momvar"])
def test_select_on_replicates_equals_select_on_each(stat_name, scheme):
    window = lattice_sites(BOX)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), window)
    x = np.stack([sample_field(gen, substream(6, rep)).values[:, 0] for rep in range(5)])
    x[2] = 0.25  # a constant field: tau_hat_sq = 0, so npi fails there alone
    values = x[..., None] if stat_name == "mean" else np.stack([x, x * x], axis=-1)
    stat = mean_statistic() if stat_name == "mean" else moment_variance()
    settings = [
        ("npi", 0.5, 0.5, None),
        ("npi", 1.0, 0.5, None),
        ("hj", None, None, 6),
        ("hj", None, None, 4),  # two candidates: refused on every replicate
    ]
    engine = SelectorEngine(window, BOX, settings, scheme, None, 3)
    table = window.table
    together = engine.select(field_image(table, values), stat, {})
    assert len(together) == 5
    for rep, plans in enumerate(together):
        (alone,) = engine.select(field_image(table, values[rep : rep + 1]), stat, {})
        for got, want in zip(plans, alone, strict=True):
            assert_same_outcome(got, want)
    done = ["ScalingPlan"] * 3 + ["InsufficientCandidates"]
    failed = ["ConfigError"] * 2 + done[2:]
    classes = [[type(plan).__name__ for plan in plans] for plans in together]
    assert classes == [done, done, failed, done, done]


@pytest.mark.parametrize(
    "template, scale, nol_cap",
    [
        ("hypercube:d=2", (30, 40), 13),
        ("hypercube:d=2", (14, 18), 6),
        ("circle:r=0.5", (40, 40), 13),
        ("sphere:r=0.5", (12, 12, 12), 4),
    ],
)
def test_the_nol_cap_is_the_last_scale_with_two_subsamples(template, scale, nol_cap):
    region = Region(parse_template(template), scale)
    side_cap = math.ceil(min(scale)) - 1
    assert scaling._scale_cap(region, "ol") == side_cap

    def count(s_lam):
        spec = SubsampleSpec(region.template, float(s_lam), "nol")
        try:
            return enumerate_nol(region, spec).n_subsamples
        except EmptySubsampleSet:
            return 0

    counts = [count(s_lam) for s_lam in range(1, side_cap + 1)]
    assert min(counts[:nol_cap]) >= 2 and max(counts[nol_cap:]) < 2
    assert scaling._scale_cap(region, "nol") == nol_cap
    # theory, like npi and hj, clamps to its scheme's cap
    shape = k0(region.template)
    for scheme, cap in [("ol", side_cap), ("nol", nol_cap)]:
        plan = theoretical_scaling(region.d, region.det_scale(), 50.0, 1.0, shape, scheme, region)
        assert plan.lambda_opt_real > cap + 1 and plan.lambda_opt_int == cap
