"""Shape constants, bias weights and the bias constant."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from brute_force import scipy_k0_numeric
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from latblock import (
    Covariogram,
    Template,
    are,
    b0,
    bias_weights,
    k0,
    k0_numeric,
    k1,
    v_weight,
    v_weight_numeric,
)
from latblock.constants import ANALYTIC, NUMERIC, b0_weight
from latblock.errors import QuadratureBudgetExceeded, UnsupportedD1Nonlinear
from latblock.estimators import moment_variance
from latblock.geometry import affine_image, box_points, parse_template, raster_mask

E = math.exp(-1.0)


def diamond():
    return Template.rotated_rectangle(math.pi / 4, math.sqrt(0.5), math.sqrt(0.5))


def trapezoid_k0(b1, b2):
    t = b2 / b1
    c = (t + 1) ** -2 * (1 + 2 * (t - 1) / (t + 1))
    return 2 / 5 * (1 + 4 * c / 9)


# each shape's closed form, written as its geometry computes it
GOLDEN_K0 = [
    (Template.hypercube(1), (2 / 3) ** 1),
    (Template.hypercube(2), (2 / 3) ** 2),
    (Template.hypercube(3), (2 / 3) ** 3),
    (Template.sphere(0.5), 34 / 105),
    (Template.circle(0.5), 1 - 16 / (3 * math.pi**2)),
    (Template.regular_hexagon(0.5), 37 / 81),
    (Template.right_triangle(), 2 / 5),
    (Template.isoceles_triangle(), 2 / 5),
    (Template.rotated_rectangle(0.3, 0.8, 0.45), 4 / 9),
    (Template.cylinder(0.4, 0.9), 2 / 3 * (1 - 16 / (3 * math.pi**2))),
    (Template.trapezoid(0.3, 0.6), trapezoid_k0(0.3, 0.6)),
    (Template.trapezoid(0.5, 1.0), trapezoid_k0(0.5, 1.0)),
    (Template.parallelogram(1.2, 0.6, 0.5), 4 / 9),
]


@pytest.mark.parametrize("template,expected", GOLDEN_K0)
def test_k0_analytic_registry(template, expected):
    sc = k0(template)
    assert sc.source == ANALYTIC
    assert sc.k0 == expected
    assert sc.k1 == expected * template.volume()
    assert 0 < sc.k1 < 1


def test_k1_goldens():
    assert k1(Template.circle(0.5)) == pytest.approx(math.pi / 4 - 4 / (3 * math.pi), abs=1e-9)
    assert k1(Template.sphere(0.5)) == pytest.approx(17 * math.pi / 315, abs=1e-9)
    assert k1(Template.right_triangle()) == pytest.approx(1 / 5, abs=1e-12)
    assert k1(diamond()) == pytest.approx(2 / 9, abs=1e-9)


def test_trapezoid_degenerate_limits():
    # equal parallel sides: rectangle
    assert k0(Template.trapezoid(0.5, 0.5)).k0 == pytest.approx(4 / 9, abs=1e-12)
    # extreme ratio: triangle
    assert k0(Template.trapezoid(0.001, 1.0)).k0 == pytest.approx(2 / 5, abs=1e-3)


@pytest.mark.parametrize(
    "template",
    [
        Template.hypercube(1),
        Template.hypercube(2),
        Template.hypercube(3),
        Template.circle(0.5),
        Template.sphere(0.5),
        Template.cylinder(0.4, 0.9),
        Template.rotated_rectangle(0.3, 0.5, 0.4),
        diamond(),
    ],
    ids=lambda t: t.spec_string(),
)
def test_closed_form_bias_weight_is_volume_loss_rate_over_volume(template):
    for k in itertools.product(range(-3, 4), repeat=template.d):
        assert b0_weight(template, k) * template.volume() == pytest.approx(
            v_weight(template, k), rel=1e-12
        )


@pytest.mark.parametrize(
    "template",
    [
        Template.hypercube(2),
        Template.circle(0.5),
        Template.right_triangle(),
        Template.regular_hexagon(0.5),
        Template.trapezoid(0.3, 0.6),
        Template.parallelogram(1.2, 0.6, 0.5),
    ],
)
def test_k0_numeric_matches_analytic(template):
    assert k0_numeric(template) == pytest.approx(k0(template).k0, abs=1e-3)


def default_step(template):
    return 1.0 / 512 if template.d <= 2 else 1.0 / 96


def k0_by_direct_autocorrelation(template, step):
    """The quadrature with the mask autocorrelation formed explicitly."""
    mask, h = raster_mask(template, step)
    vol = float(mask.sum()) * h**template.d
    rev = mask[tuple([slice(None, None, -1)] * template.d)]
    acf = fftconvolve(mask, rev, mode="full")
    g_vals = acf * h**template.d
    integral = float((g_vals * g_vals).sum()) * h**template.d
    return integral / vol**3


ODD_PADDED_STEP = 1 / 38  # 38 cells per unit axis pad to next_fast_len(75) = 75


QUADRATURE_CASES = [
    ("hypercube:d=1", None),
    ("hypercube:d=2", None),
    ("hypercube:d=3", None),
    ("circle:r=0.5", None),
    ("righttri", None),
    ("isotri", None),
    ("trapezoid:b1=0.5,b2=1", None),
    ("hex:l=0.5", None),
    ("parallelogram:gamma=1.2,l1=0.6,l2=0.5", None),
    ("rotrect:theta=0.7854,l1=0.7071,l2=0.7071", None),
    ("sphere:r=0.5", None),
    ("cylinder:r=0.3,h=0.8", None),
    ("hypercube:d=2", ODD_PADDED_STEP),
    ("circle:r=0.5", ODD_PADDED_STEP),
    ("sphere:r=0.5", ODD_PADDED_STEP),
]


@pytest.mark.parametrize("spec, step", QUADRATURE_CASES)
def test_k0_numeric_equals_the_direct_autocorrelation_sum(spec, step):
    template = parse_template(spec)
    step = step or default_step(template)
    want = k0_by_direct_autocorrelation(template, step)
    assert k0_numeric(template, step) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "spec, step, n_last, padded_last",
    [
        ("hypercube:d=2", ODD_PADDED_STEP, 38, 75),
        ("circle:r=0.5", ODD_PADDED_STEP, 38, 75),
        ("sphere:r=0.5", ODD_PADDED_STEP, 38, 75),
        ("hypercube:d=2", None, 512, 1024),
        ("hex:l=0.5", None, 444, 900),
        ("parallelogram:gamma=1.2,l1=0.6,l2=0.5", None, 239, 480),
    ],
)
def test_quadrature_cases_pad_the_last_axis_to_both_parities(spec, step, n_last, padded_last):
    # an odd padded length has no Nyquist bin on the last axis; an even one has
    template = parse_template(spec)
    mask, _ = raster_mask(template, step or default_step(template))
    assert mask.shape[-1] == n_last
    assert next_fast_len(2 * n_last - 1, real=True) == padded_last


@pytest.mark.parametrize(
    "spec, step, n_first, padded_first",
    [
        ("hypercube:d=2", ODD_PADDED_STEP, 38, 75),
        ("sphere:r=0.5", ODD_PADDED_STEP, 38, 75),
        ("hypercube:d=2", None, 512, 1024),
        ("parallelogram:gamma=1.2,l1=0.6,l2=0.5", None, 400, 800),
    ],
)
def test_quadrature_cases_pad_the_first_axis_to_both_parities(spec, step, n_first, padded_first):
    # the real transform runs along the first axis, so its Nyquist weight
    # follows that axis's padded length
    template = parse_template(spec)
    mask, _ = raster_mask(template, step or default_step(template))
    assert mask.shape[0] == n_first
    assert next_fast_len(2 * n_first - 1, real=True) == padded_first


@pytest.mark.parametrize(
    "spec, step",
    [
        ("hypercube:d=1", None),
        ("hex:l=0.5", None),
        ("parallelogram:gamma=1.2,l1=0.6,l2=0.5", None),
        ("sphere:r=0.5", ODD_PADDED_STEP),
    ],
)
@pytest.mark.parametrize("slab_bins", [1, 3000, 1 << 40])
def test_k0_numeric_does_not_depend_on_the_slab_width(monkeypatch, spec, step, slab_bins):
    template = parse_template(spec)
    step = step or default_step(template)
    want = k0_numeric(template, step)
    monkeypatch.setattr("latblock.constants._SLAB_BINS", slab_bins)
    assert k0_numeric(template, step) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spec, step", QUADRATURE_CASES)
def test_k0_numeric_equals_the_scipy_fft_form_bit_for_bit(spec, step):
    template = parse_template(spec)
    step = step or default_step(template)
    assert k0_numeric(template, step) == scipy_k0_numeric(template, step)


def test_k0_numeric_budget_guard():
    with pytest.raises(QuadratureBudgetExceeded):
        k0_numeric(Template.hypercube(4))


def test_k0_affine_invariance():
    rng = np.random.default_rng(1)
    for template in [Template.circle(0.5), Template.right_triangle()]:
        base = k0_numeric(template)
        theta = rng.uniform(0, math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        diag = np.diag(rng.uniform(0.6, 1.3, size=2))
        image = affine_image(template, rot @ diag)
        sc = k0(image)  # an image has no closed form: the quadrature gives its K0
        assert sc.source == NUMERIC
        assert sc.k0 == pytest.approx(base, abs=2e-3)


def test_are_values():
    assert are(Template.hypercube(2)) == pytest.approx(2 / 3, rel=1e-14)
    assert are(Template.circle(0.5)) == pytest.approx(0.3609849818**0.5, abs=1e-6)
    # rectangles approach 4/9 from above as the dimension grows
    vals = [(2 / 3) ** (2 * d / (d + 2)) for d in (1, 2, 3, 6, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 4 / 9


# ---------------------------------------------------------------------------
# bias weights
# ---------------------------------------------------------------------------


def test_v_weight_examples():
    assert v_weight(Template.hypercube(2), (0, 0)) == 0.0
    assert v_weight(Template.hypercube(2), (1, 1)) == 2.0
    assert v_weight(Template.circle(0.5), (1, 0)) == pytest.approx(1.0, rel=1e-12)
    assert v_weight(Template.hypercube(1), (3,)) == 3.0
    assert v_weight(diamond(), (2, 1)) == pytest.approx(2.0, rel=1e-12)


def test_right_triangle_weights_split_by_sign():
    t = Template.right_triangle()
    # equal signs: first-norm weight; opposite signs: sup-norm weight
    assert v_weight(t, (2, 1)) == pytest.approx(3.0, rel=1e-12)
    assert v_weight(t, (-2, -1)) == pytest.approx(3.0, rel=1e-12)
    assert v_weight(t, (2, -1)) == pytest.approx(2.0, rel=1e-12)
    assert v_weight(t, (-2, 3)) == pytest.approx(3.0, rel=1e-12)


def test_isoceles_triangle_weights():
    t = Template.isoceles_triangle()
    for k in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        expected = 0.5 * (abs(k[1]) + max(2 * abs(k[0]), abs(k[1])))
        assert v_weight(t, k) == pytest.approx(expected, rel=1e-12)


def test_diamond_weights_equal_rotated_rectangle_exactly():
    dia = diamond()
    for k1_ in range(-5, 6):
        for k2_ in range(-5, 6):
            # exact equality, no tolerance
            assert b0_weight(dia, (k1_, k2_)) == 2 * max(abs(k1_), abs(k2_))


@pytest.mark.parametrize(
    "template",
    [
        Template.hypercube(2),
        Template.circle(0.5),
        diamond(),
        Template.right_triangle(),
        Template.isoceles_triangle(),
        Template.regular_hexagon(0.5),
    ],
)
def test_numeric_weights_match_analytic(template):
    for k1_ in range(-3, 4):
        for k2_ in range(-3, 4):
            if k1_ == k2_ == 0:
                continue
            ana = v_weight(template, (k1_, k2_))
            num = v_weight_numeric(template, (k1_, k2_))
            assert num == pytest.approx(ana, abs=1e-3)


def test_v_weight_symmetry_positivity_linear_growth():
    bw = bias_weights(Template.regular_hexagon(0.5), radius=4)
    table = bw.as_dict()
    assert table[(0, 0)] == 0.0
    for k, v in table.items():
        assert v >= 0.0
        assert v == pytest.approx(table[tuple(-x for x in k)], abs=1e-12)
        norm = np.linalg.norm(k)
        if norm > 0:
            assert v <= 4.0 * norm  # at most linear growth


def test_v_weight_3d_shapes():
    sph = Template.sphere(0.5)
    assert v_weight(sph, (1, 0, 0)) == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert v_weight_numeric(sph, (1, 1, 0)) == pytest.approx(
        v_weight(sph, (1, 1, 0)), abs=1e-3
    )
    cyl = Template.cylinder(0.4, 0.9)
    assert v_weight(cyl, (0, 0, 2)) == pytest.approx(2 * math.pi * 0.16, rel=1e-12)
    assert v_weight_numeric(cyl, (1, 0, 1)) == pytest.approx(
        v_weight(cyl, (1, 0, 1)), abs=1e-3
    )


# ---------------------------------------------------------------------------
# bias constant
# ---------------------------------------------------------------------------


def test_b0_white_noise_vanishes():
    for template in [Template.hypercube(2), Template.circle(0.5)]:
        assert b0(template, Covariogram.white(2)) == 0.0


def test_b0_hypercube_exp_geometric_series():
    s0 = (1 + E) / (1 - E)
    s1 = 2 * E / (1 - E) ** 2
    expected = 2 * s1 * s0
    assert expected == pytest.approx(7.9691790683, abs=1e-9)
    got = b0(Template.hypercube(2), Covariogram.exp_separable(1.0, 1.0))
    assert got == pytest.approx(expected, rel=1e-8)


def test_b0_circle_weight_structure():
    # weight (4/pi) ||k|| over the circle of radius 1/2
    cov = Covariogram.gauss_isotropic(0.5)

    def norm_sum(cap=12):
        total = 0.0
        for a in range(-cap, cap + 1):
            for b_ in range(-cap, cap + 1):
                total += math.hypot(a, b_) * math.exp(-0.5 * (a * a + b_ * b_))
        return total

    expected = 4 / math.pi * norm_sum()
    assert b0(Template.circle(0.5), cov) == pytest.approx(expected, rel=1e-8)


def test_b0_circle_scales_inversely_with_radius():
    cov = Covariogram.gauss_isotropic(0.5)
    b_half = b0(Template.circle(0.5), cov)
    b_quarter = b0(Template.circle(0.25), cov)
    assert b_quarter == pytest.approx(2.0 * b_half, rel=1e-10)


def test_b0_numeric_path_parallelogram_close_to_rotrect():
    # a parallelogram with gamma ~ pi/2 behaves like the matching rectangle
    cov = Covariogram.exp_separable(1.0, 1.0)
    near_rect = b0(Template.parallelogram(math.pi / 2, 0.8, 0.45), cov)
    rect = b0(Template.rotated_rectangle(0.0, 0.8, 0.45), cov)
    assert near_rect == pytest.approx(rect, rel=1e-6)


def test_b0_d1_nonlinear_guard():
    interval = Template.hypercube(1)
    cov = Covariogram.exp_separable(1.0)
    with pytest.raises(UnsupportedD1Nonlinear):
        b0(interval, cov, statistic=moment_variance())
    # linear statistic is fine: weight |k| over the unit interval
    s1 = 2 * E / (1 - E) ** 2
    assert b0(interval, cov) == pytest.approx(s1, rel=1e-8)


# ---------------------------------------------------------------------------
# closed-form volume-loss rates of every geometry
# ---------------------------------------------------------------------------

SHEAR = np.array([[1.1, 0.3], [-0.2, 0.8]])

# shapes whose rates the criterion-04 oracle sweep does not cover
ORACLE_SHAPES = {
    "trapezoid(0.3,0.6)": Template.trapezoid(0.3, 0.6),
    "trapezoid(0.2,0.9)": Template.trapezoid(0.2, 0.9),
    "parallelogram": Template.parallelogram(1.2, 0.6, 0.5),
    "cylinder": Template.cylinder(0.4, 0.9),
    "affine circle": affine_image(Template.circle(0.5), SHEAR),
    "affine square": affine_image(Template.hypercube(2), SHEAR),
    "affine triangle": affine_image(Template.right_triangle(), SHEAR),
}


@pytest.mark.parametrize("template", ORACLE_SHAPES.values(), ids=ORACLE_SHAPES.keys())
def test_closed_form_rates_match_secant_oracle(template):
    for k in itertools.product(range(-3, 4), repeat=template.d):
        assert v_weight(template, k) == pytest.approx(v_weight_numeric(template, k), abs=1e-3)


TEMPLATES_2D = [
    Template.hypercube(2),
    Template.circle(0.4),
    Template.rotated_rectangle(0.3, 0.8, 0.45),
    Template.right_triangle(),
    Template.isoceles_triangle(),
    Template.trapezoid(0.3, 0.6),
    Template.regular_hexagon(0.5),
    Template.parallelogram(1.2, 0.6, 0.5),
]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    template=st.sampled_from(TEMPLATES_2D),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    k=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_affine_image_rate_is_determinant_times_pulled_back_rate(template, entries, k):
    mat = np.array(entries).reshape(2, 2)
    assume(abs(np.linalg.det(mat)) > 0.05 and np.linalg.cond(mat) < 100)
    expected = abs(np.linalg.det(mat)) * v_weight(template, np.linalg.solve(mat, k))
    assert v_weight(affine_image(template, mat), k) == pytest.approx(expected, rel=1e-12)


ALL_SPECS = [
    "hypercube:d=1", "hypercube:d=2", "hypercube:d=3", "circle:r=0.3", "sphere:r=0.4",
    "rotrect:theta=0.7854,l1=0.7,l2=0.5", "righttri", "isotri", "trapezoid:b1=0.3,b2=0.6",
    "hex:l=0.4", "parallelogram:gamma=1.2,l1=0.6,l2=0.5", "cylinder:r=0.4,h=0.9",
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_batched_bias_weights_equal_per_lag_weights_exactly(spec):
    # b0 evaluates a whole shell at once; each lag must get its per-lag value
    template = parse_template(spec)
    lags = box_points([-4] * template.d, [4] * template.d)
    batch = template.geom.bias_weight(lags)
    assert batch.tolist() == [b0_weight(template, row) for row in lags]
    rates = template.geom.boundary_rate(lags)
    assert rates.tolist() == [v_weight(template, row) for row in lags]


def test_bias_weights_match_the_secant_reference_on_the_trapezoid():
    trap = Template.trapezoid(0.3, 0.6)
    for k, v in bias_weights(trap, radius=2).weights:
        assert v == pytest.approx(v_weight_numeric(trap, k), abs=1e-12)


# 3-D bodies whose set covariance is cubic along every ray
BOXES_3D = {
    "cube": Template.hypercube(3),
    "box": affine_image(Template.hypercube(3), np.diag([0.5, 0.8, 1.0])),
    "sheared cube": affine_image(
        Template.hypercube(3), np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]])
    ),
}


@pytest.mark.parametrize("template", BOXES_3D.values(), ids=BOXES_3D.keys())
def test_secant_oracle_is_exact_on_3d_boxes(template):
    # a two-point secant leaves an O(eps^2) error here: 8.99865 for the
    # exact 9 at lag (3, 3, 3) on the cube
    for k in itertools.product(range(-3, 4), repeat=3):
        assert v_weight_numeric(template, k) == pytest.approx(
            v_weight(template, k), rel=1e-9, abs=1e-12
        )
