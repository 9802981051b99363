"""Geometry: membership, lattice windows, set covariance, subsample enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from brute_force import _offsets_with_sites_inside, nol_subregion_windows
from latblock import (
    Region,
    SubsampleSpec,
    Template,
    contains,
    enumerate_nol,
    enumerate_ol,
    lattice_sites,
    overlap_count,
    parse_template,
    set_covariance,
    set_covariance_exact,
)
from latblock.errors import (
    ConfigError,
    DimensionMismatch,
    EmptySubsampleSet,
    LatblockError,
    NonIntegerScaleWarning,
)
from latblock.geometry import (
    _EQ_TOL,
    affine_image,
    box_points,
    raster_mask,
)


def all_templates_2d():
    return [
        Template.hypercube(2),
        Template.rotated_rectangle(0.7854, 0.7071, 0.7071),
        Template.circle(0.5),
        Template.right_triangle(),
        Template.isoceles_triangle(),
        Template.trapezoid(0.3, 0.6),
        Template.regular_hexagon(0.5),
        Template.parallelogram(1.2, 0.6, 0.5),
    ]


def all_templates_3d():
    return [Template.sphere(0.5), Template.cylinder(0.4, 0.9)]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_hypercube_half_open():
    t = Template.hypercube(2)
    assert contains(t, (0.5, 0.5))
    assert not contains(t, (-0.5, 0.0))
    assert contains(t, (0.0, 0.0))


def test_circle_closed_boundary():
    t = Template.circle(0.5)
    assert contains(t, (0.5, 0.0))
    assert not contains(t, (0.5000001, 0.0))


def test_right_triangle_above_hypotenuse():
    t = Template.right_triangle()
    # hypotenuse is x + y = 0; (0.3, 0.3) lies above it
    assert not contains(t, (0.3, 0.3))
    assert contains(t, (0.3, -0.3))
    assert contains(t, (0.0, 0.0))


def test_dimension_mismatch_rejected():
    t = Template.hypercube(2)
    with pytest.raises(DimensionMismatch):
        contains(t, (0.1, 0.1, 0.1))


def test_parameter_validation():
    with pytest.raises(ConfigError):
        Template.circle(0.6)
    with pytest.raises(ConfigError):
        Template.regular_hexagon(0.51)
    with pytest.raises(ConfigError):
        Template.trapezoid(0.6, 0.3)
    with pytest.raises(ConfigError):
        Template.parallelogram(0.0, 0.5, 0.5)
    with pytest.raises(ConfigError):
        Template.rotated_rectangle(0.3, 1.2, 0.4)  # does not fit the unit cell


@pytest.mark.parametrize("template", all_templates_2d() + all_templates_3d())
def test_templates_fit_unit_cell_and_cover_origin(template):
    lo, hi = template.geom.bbox()
    assert np.all(lo >= -0.5 - 1e-9) and np.all(hi <= 0.5 + 1e-9)
    # origin belongs to the closure for every registered shape
    assert template.geom.contains(np.zeros((1, template.d)))[0] or contains(
        template, np.zeros(template.d)
    )


def test_template_grammar_round_trip():
    for spec in [
        "hypercube:d=2",
        "circle:r=0.5",
        "rotrect:theta=0.7854,l1=0.7071,l2=0.7071",
        "hex:l=0.5",
        "trapezoid:b1=0.3,b2=0.6",
        "sphere:r=0.5",
        "cylinder:r=0.4,h=0.9",
        "righttri",
        "isotri",
        "parallelogram:gamma=1.2,l1=0.6,l2=0.5",
    ]:
        t = parse_template(spec)
        again = parse_template(t.spec_string())
        assert again.kind == t.kind
        assert again.volume() == pytest.approx(t.volume(), rel=1e-12)
    with pytest.raises(ConfigError):
        parse_template("pentagon:n=5")
    with pytest.raises(ConfigError):
        parse_template("circle:radius=0.5")


# ---------------------------------------------------------------------------
# lattice windows
# ---------------------------------------------------------------------------


def test_lattice_sites_hypercube_10x10():
    w = lattice_sites(Region(Template.hypercube(2), (10, 10)))
    assert w.n_sites == 100
    assert w.sites.min() == -4 and w.sites.max() == 5


def test_lattice_sites_circle_scale_2():
    w = lattice_sites(Region(Template.circle(0.5), (2, 2)))
    assert w.n_sites == 5
    assert sorted(map(tuple, w.sites.tolist())) == [
        (-1, 0),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, 0),
    ]


@pytest.mark.parametrize("radius", [5, 13, 20, 25])
def test_lattice_sites_pythagorean_boundaries_exact(radius):
    # boundary sites like (5, 12) on the radius-13 disk must not be lost to
    # division rounding
    w = lattice_sites(Region(Template.circle(0.5), (2 * radius, 2 * radius)))
    exact = sum(
        1
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if x * x + y * y <= radius * radius
    )
    assert w.n_sites == exact


def test_lattice_sites_lex_order_and_distinct():
    w = lattice_sites(Region(Template.circle(0.5), (9, 9)))
    rows = list(map(tuple, w.sites.tolist()))
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("template", all_templates_2d())
def test_site_count_density_limit_2d(template):
    vol = template.volume()
    for lam in (16, 48):
        w = lattice_sites(Region(template, (lam,) * 2))
        assert w.n_sites / lam**2 == pytest.approx(vol, abs=4.0 / lam)


@pytest.mark.parametrize("template", all_templates_2d() + all_templates_3d())
def test_boundary_error_stays_bounded(template):
    d = template.d
    vol = template.volume()
    lams = (8, 16, 32, 64) if d == 2 else (8, 16, 32)
    ratios = []
    for lam in lams:
        w = lattice_sites(Region(template, (lam,) * d))
        ratios.append(abs(w.n_sites - vol * lam**d) / lam ** (d - 1))
    # boundary discrepancy normalized by surface order stays bounded
    assert max(ratios) < 8.0


def test_lattice_shift_honored():
    w = lattice_sites(Region(Template.hypercube(1), (4,), (0.5,)))
    # sites z with z + 1/2 in (-2, 2]: z in {-2, -1, 0, 1}
    assert w.sites.ravel().tolist() == [-2, -1, 0, 1]


# ---------------------------------------------------------------------------
# set covariance
# ---------------------------------------------------------------------------


def test_set_covariance_hypercube_values():
    t = Template.hypercube(2)
    assert set_covariance(t, (0.0, 0.0)) == 1.0
    assert set_covariance(t, (0.5, 0.0)) == 0.5
    assert set_covariance(t, (0.3, 0.2)) == pytest.approx(0.7 * 0.8, rel=1e-15)


def test_set_covariance_circle_lens_oracle():
    # lens area 2 r^2 acos(t/2r) - (t/2) sqrt(4r^2 - t^2) at r=1/2, t=1/2
    r, t = 0.5, 0.5
    lens = 2 * r * r * math.acos(t / (2 * r)) - 0.5 * t * math.sqrt(4 * r * r - t * t)
    assert lens == pytest.approx(0.30709242465, abs=1e-9)
    circ = Template.circle(0.5)
    assert set_covariance_exact(circ, (0.5, 0.0)) == pytest.approx(lens, rel=1e-14)
    quad = set_covariance(circ, (0.5, 0.0))
    assert quad == pytest.approx(lens, abs=2e-3)


def test_set_covariance_sphere_matches_quadrature():
    sph = Template.sphere(0.5)
    exact = set_covariance_exact(sph, (0.3, 0.1, 0.2))
    quad = set_covariance(sph, (0.3, 0.1, 0.2))
    assert quad == pytest.approx(exact, abs=5e-3)


@pytest.mark.parametrize("template", all_templates_2d() + all_templates_3d())
def test_set_covariance_properties(template):
    rng = np.random.default_rng(0)
    d = template.d
    vol = template.volume()
    diam = template.diameter()
    for _ in range(20):
        x = rng.uniform(-1, 1, size=d)
        g = set_covariance_exact(template, x)
        g_neg = set_covariance_exact(template, -x)
        assert g == pytest.approx(g_neg, abs=1e-12)
        assert -1e-12 <= g <= vol + 1e-12
    far = np.zeros(d)
    far[0] = diam + 0.01
    assert set_covariance_exact(template, far) == 0.0
    assert set_covariance_exact(template, np.zeros(d)) == pytest.approx(vol, rel=1e-12)


# ---------------------------------------------------------------------------
# overlap counts
# ---------------------------------------------------------------------------


def test_overlap_count_examples():
    t = Template.hypercube(2)
    assert overlap_count(t, 3, (0, 0)) == 9
    assert overlap_count(t, 3, (1, 0)) == 6
    assert overlap_count(t, 3, (4, 0)) == 0


def test_overlap_count_far_translate_every_shape():
    for template in all_templates_2d():
        k = int(math.ceil(4 * template.diameter())) + 1
        assert overlap_count(template, 4, (k, 0)) == 0


def test_overlap_count_symmetric_and_bounded():
    t = Template.circle(0.5)
    n = overlap_count(t, 5, (0, 0))
    for k in [(1, 0), (1, 1), (2, 1), (0, 3)]:
        c = overlap_count(t, 5, k)
        assert c == overlap_count(t, 5, tuple(-x for x in k))
        assert c <= n


def test_overlap_count_monotone_hypercube():
    t = Template.hypercube(2)
    prev = overlap_count(t, 6, (0, 0))
    for k1 in range(1, 7):
        cur = overlap_count(t, 6, (k1, 0))
        assert cur <= prev
        prev = cur


# ---------------------------------------------------------------------------
# subsample enumeration
# ---------------------------------------------------------------------------


def test_enumerate_ol_hypercube_examples():
    reg = Region(Template.hypercube(2), (10, 10))
    idx = enumerate_ol(reg, SubsampleSpec(Template.hypercube(2), 4.0, "ol"))
    assert idx.n_subsamples == 49
    assert idx.offsets.min() == -3 and idx.offsets.max() == 3
    assert int(idx.counts[0]) == 16

    whole = enumerate_ol(reg, SubsampleSpec(Template.hypercube(2), 10.0, "ol"))
    assert whole.n_subsamples == 1
    assert whole.offsets.tolist() == [[0, 0]]


def test_enumerate_ol_origin_member():
    reg = Region(Template.circle(0.5), (18, 18))
    idx = enumerate_ol(reg, SubsampleSpec(Template.circle(0.5), 6.0, "ol"))
    assert [0, 0] in idx.offsets.tolist()


def test_enumerate_ol_density_limit():
    t = Template.circle(0.5)
    errs = []
    for lam in (24, 48, 96):
        idx = enumerate_ol(Region(t, (lam, lam)), SubsampleSpec(t, 4.0, "ol"))
        errs.append(abs(idx.n_subsamples / lam**2 - t.volume()))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.09


def test_enumerate_nol_hypercube_examples():
    reg = Region(Template.hypercube(2), (10, 10))
    idx3 = enumerate_nol(reg, SubsampleSpec(Template.hypercube(2), 3.0, "nol"))
    assert idx3.n_subsamples == 9
    assert idx3.offsets.min() == -1 and idx3.offsets.max() == 1
    idx4 = enumerate_nol(reg, SubsampleSpec(Template.hypercube(2), 4.0, "nol"))
    assert idx4.n_subsamples == 1


def test_enumerate_nol_equal_counts_integer_scale():
    reg = Region(Template.hypercube(2), (14, 18))
    idx = enumerate_nol(reg, SubsampleSpec(Template.hypercube(2), 3.0, "nol"))
    assert np.all(idx.counts == idx.counts[0])
    assert int(idx.counts[0]) == 9


def test_enumerate_nol_non_integer_scale_warns():
    reg = Region(Template.hypercube(2), (12, 12))
    with pytest.warns(NonIntegerScaleWarning):
        idx = enumerate_nol(reg, SubsampleSpec(Template.hypercube(2), 2.5, "nol"))
    assert idx.n_subsamples >= 2


def test_enumeration_pure_and_deterministic():
    reg = Region(Template.regular_hexagon(0.5), (20, 20))
    spec = SubsampleSpec(Template.circle(0.5), 4.0, "ol")
    a = enumerate_ol(reg, spec)
    b = enumerate_ol(reg, spec)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize(
    "region_t,sub_t",
    [
        (Template.hypercube(2), Template.circle(0.5)),
        (Template.circle(0.5), Template.hypercube(2)),
        (Template.regular_hexagon(0.5), Template.regular_hexagon(0.5)),
        (Template.right_triangle(), Template.right_triangle()),
    ],
)
def test_ol_offsets_site_containment(region_t, sub_t):
    reg = Region(region_t, (16, 16))
    window = set(map(tuple, lattice_sites(reg).sites.tolist()))
    spec = SubsampleSpec(sub_t, 4.0, "ol")
    idx = enumerate_ol(reg, spec)
    base = lattice_sites(Region(sub_t, (4.0, 4.0))).sites
    for off in idx.offsets:
        for s in base:
            assert tuple((off + s).tolist()) in window


NOL_COPY_CASES = [
    (sub, shift, s_lam)
    for sub in ["righttri", "hex:l=0.5", "circle:r=0.5", "rotrect:theta=0.5,l1=0.8,l2=0.4"]
    for shift in [(0.3, 0.1), (0.1, -0.3), (1 / 3, -1 / 3)]
    for s_lam in [2.0, 3.0, 2.37, 2.5, 3.3]
] + [
    (sub, shift, s_lam)
    for sub in ["sphere:r=0.5", "cylinder:r=0.4,h=0.9"]
    for shift in [(0.3, 0.1, -0.2), (1 / 3, -1 / 3, 0.1)]
    for s_lam in [2.0, 2.37, 3.3]
]


@pytest.mark.parametrize("sub, shift, s_lam", NOL_COPY_CASES)
def test_nol_copies_are_the_per_copy_reference(sub, shift, s_lam):
    if len(shift) == 2:
        region = Region(Template.circle(0.5), (30, 30), shift)
    else:
        region = Region(Template.hypercube(3), (12, 12, 12), shift)
    spec = SubsampleSpec(parse_template(sub), s_lam, "nol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        idx = enumerate_nol(region, spec)
    copies = idx.copies
    if copies is None:  # an integer scale: the base moved by s * i
        copies = [idx.base + int(s_lam) * i for i in idx.offsets]
    reference = nol_subregion_windows(region, spec, idx.offsets)
    assert [c.tolist() for c in copies] == [w.sites.tolist() for w in reference]


def test_nol_subregions_inside_region():
    reg = Region(Template.circle(0.5), (18, 18))
    spec = SubsampleSpec(Template.circle(0.5), 4.0, "nol")
    idx = enumerate_nol(reg, spec)
    window = set(map(tuple, lattice_sites(reg).sites.tolist()))
    for w in nol_subregion_windows(reg, spec, idx.offsets):
        for s in w.sites:
            assert tuple(s.tolist()) in window


def test_empty_subsample_set():
    reg = Region(Template.hypercube(2), (4, 4))
    with pytest.raises(EmptySubsampleSet):
        enumerate_ol(reg, SubsampleSpec(Template.hypercube(2), 5.0, "ol"))


@pytest.mark.parametrize(
    "region, s_lam",
    [
        # no lattice site in the region at all
        (Region(Template.circle(0.5), (0.9, 0.9), (0.5, 0.5)), 2.0),
        # a base wider than the region along one axis
        (Region(Template.hypercube(2), (4, 12)), 5.0),
        # a base that fits the region's bounding box but not the disk
        (Region(Template.circle(0.5), (10, 10)), 8.0),
    ],
)
def test_ol_with_no_fitting_translate_raises_empty_subsample_set(region, s_lam):
    with pytest.raises(EmptySubsampleSet):
        enumerate_ol(region, SubsampleSpec(Template.hypercube(2), s_lam, "ol"))


def test_affine_images_cannot_build_regions():
    circle = Template.circle(0.5)
    a = affine_image(circle, np.diag([1.0, 0.5]))
    b = affine_image(circle, np.diag([0.5, 1.0]))
    # equality and hashing ignore the geometry, so designs could not tell them apart
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ConfigError):
        Region(a, (10, 10))
    with pytest.raises(ConfigError):
        SubsampleSpec(a, 3.0, "ol")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sides=st.lists(st.integers(1, 9), min_size=1, max_size=3), data=st.data())
def test_hypercube_ol_count_is_product_of_free_positions(sides, data):
    d = len(sides)
    s = data.draw(st.integers(1, min(sides)))
    region = Region(Template.hypercube(d), tuple(float(n) for n in sides))
    idx = enumerate_ol(region, SubsampleSpec(Template.hypercube(d), float(s), "ol"))
    assert idx.n_subsamples == math.prod(n - s + 1 for n in sides)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(
        ["hypercube:d=2", "circle:r=0.5", "hex:l=0.4", "righttri", "sphere:r=0.5"]
    ),
    scale=st.integers(2, 11),
    shift=st.floats(-0.5, 0.5),
)
def test_window_indexer_round_trips_sites(spec, scale, shift):
    template = parse_template(spec)
    window = lattice_sites(Region(template, (float(scale),) * template.d, (shift,) * template.d))
    indexer = window.indexer()
    assert np.array_equal(indexer.lookup(window.sites), np.arange(window.n_sites))
    # every other site of a box one step wider than the window maps to -1
    box = box_points(window.lo - 1, window.hi + 1)
    rows = indexer.lookup(box)
    hit = rows >= 0
    assert np.array_equal(window.sites[rows[hit]], box[hit])
    assert hit.sum() == window.n_sites


def nol_design_one_by_one(region, spec):
    """Reference NOL design: each candidate cube is tested on its own sites."""
    s_lam = spec.s_lambda
    scale, shift = np.asarray(region.scale), np.asarray(region.shift)
    geom = region.template.geom
    lo_f, hi_f = geom.bbox()
    lo = np.floor(lo_f * scale / s_lam - 1).astype(np.int64)
    hi = np.ceil(hi_f * scale / s_lam + 1).astype(np.int64)
    keep = []
    for i_vec in box_points(lo, hi):
        center = s_lam * i_vec.astype(float)
        slo = np.ceil(center - s_lam / 2.0 - shift + _EQ_TOL).astype(np.int64)
        shi = np.floor(center + s_lam / 2.0 - shift + _EQ_TOL).astype(np.int64)
        cube_sites = box_points(slo, shi)
        if cube_sites.shape[0] and np.all(geom.contains_scaled(cube_sites, scale, shift)):
            keep.append(i_vec)
    if not keep:
        raise EmptySubsampleSet("no partitioning cube fits inside the region")
    offsets = np.array(keep, np.int64)
    counts = [w.n_sites for w in nol_subregion_windows(region, spec, offsets)]
    return offsets, np.array(counts, np.int64)


def design_or_error(build):
    try:
        offsets, counts = build()
    except LatblockError as exc:
        return type(exc).__name__
    return offsets.tolist(), counts.tolist()


NOL_TEMPLATES = [
    "hypercube:d=1",
    "hypercube:d=2",
    "hypercube:d=3",
    "circle:r=0.5",
    "righttri",
    "isotri",
    "trapezoid:b1=0.5,b2=1",
    "hex:l=0.5",
    "parallelogram:gamma=1.2,l1=0.6,l2=0.5",
    "rotrect:theta=0.7854,l1=0.7071,l2=0.7071",
    "sphere:r=0.5",
    "cylinder:r=0.4,h=0.9",
]


@settings(max_examples=120)
@given(spec=st.sampled_from(NOL_TEMPLATES), integer=st.booleans(), data=st.data())
def test_enumerate_nol_matches_per_cube_oracle(spec, integer, data):
    template = parse_template(spec)
    d = template.d
    top = 8.0 if d == 3 else 15.0
    scale = tuple(data.draw(st.lists(st.floats(3.0, top), min_size=d, max_size=d)))
    shift = tuple(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)))
    half = min(scale) / 2
    s_lam = float(data.draw(st.integers(1, int(half)) if integer else st.floats(0.5, half)))
    region = Region(template, scale, shift)
    sub = SubsampleSpec(template, s_lam, "nol")

    def vectorised():
        idx = enumerate_nol(region, sub)
        return idx.offsets, idx.counts

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        expected = design_or_error(lambda: nol_design_one_by_one(region, sub))
        assert design_or_error(vectorised) == expected
    event(expected if isinstance(expected, str) else "design")


def ol_offsets_by_membership(region, spec):
    """Reference OL offsets: every site of every candidate translate tested."""
    sub_region = Region(spec.template, (spec.s_lambda,) * region.d, region.shift)
    offsets = _offsets_with_sites_inside(region, lattice_sites(sub_region).sites)
    if offsets.shape[0] == 0:
        raise EmptySubsampleSet("no subsample translate fits inside the region")
    return offsets


OL_SWEEP_SCALES = {1: (13.0,), 2: (13.0, 16.0), 3: (6.0, 7.0, 5.0)}
# sub-template scales: integers and not, some too wide for the region
OL_SWEEP_SUB_SCALES = {
    1: (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 9.0, 14.0),
    2: (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 9.0, 14.0),
    3: (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0),
}
OL_SWEEP_SUBS = {
    1: [None],
    2: [None, "hypercube:d=2", "circle:r=0.5", "isotri"],
    3: [None, "hypercube:d=3", "sphere:r=0.5"],
}


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("spec", NOL_TEMPLATES)
def test_enumerate_ol_equals_the_membership_reference(spec, shifted):
    template = parse_template(spec)
    d = template.d
    shift = (0.3, 0.1, -0.2)[:d] if shifted else None
    region = Region(template, OL_SWEEP_SCALES[d], shift)
    for sub in OL_SWEEP_SUBS[d]:
        for s_lam in OL_SWEEP_SUB_SCALES[d]:
            ol = SubsampleSpec(parse_template(sub or spec), s_lam, "ol")
            try:
                expected = ol_offsets_by_membership(region, ol)
            except LatblockError as exc:
                with pytest.raises(type(exc)):
                    enumerate_ol(region, ol)
                continue
            idx = enumerate_ol(region, ol)
            assert idx.offsets.dtype == expected.dtype
            assert np.array_equal(idx.offsets, expected), (sub, s_lam)


def raster_mask_in_one_block(template, step):
    """raster_mask's grid with every cell center made and tested at once."""
    lo, hi = template.geom.bbox()
    shape = [int(math.ceil((hi[j] - lo[j]) / step - 1e-12)) for j in range(template.d)]
    centers = box_points([0] * template.d, [n - 1 for n in shape]) + 0.5
    centers *= step
    centers += lo
    return template.geom.contains(centers).reshape(shape).astype(np.float64)


@pytest.mark.parametrize(
    "spec, step",
    [
        ("hypercube:d=1", 1 / 1000),
        ("hypercube:d=2", 1 / 512),
        ("circle:r=0.5", 1 / 512),
        ("righttri", 1 / 512),
        ("isotri", 1 / 300),
        ("trapezoid:b1=0.5,b2=1", 1 / 512),
        ("hex:l=0.5", 1 / 512),
        ("parallelogram:gamma=1.2,l1=0.6,l2=0.5", 1 / 512),
        ("rotrect:theta=0.7854,l1=0.7071,l2=0.7071", 1 / 200),
        ("hypercube:d=3", 1 / 40),
        ("sphere:r=0.5", 1 / 96),
        ("sphere:r=0.5", 1 / 38),
        ("cylinder:r=0.3,h=0.8", 1 / 50),
    ],
)
@pytest.mark.parametrize("block_cells", [None, 7])
def test_raster_mask_blocks_equal_the_whole_grid(monkeypatch, spec, step, block_cells):
    if block_cells is not None:  # one first-axis row per block
        monkeypatch.setattr("latblock.geometry._RASTER_BLOCK_CELLS", block_cells)
    templates = [parse_template(spec)]
    if templates[0].d == 2:
        templates.append(affine_image(templates[0], np.array([[1.2, 0.3], [-0.2, 0.9]])))
    for template in templates:
        mask, h = raster_mask(template, step)
        want = raster_mask_in_one_block(template, step)
        assert h == step
        assert mask.dtype == want.dtype and mask.shape == want.shape
        assert np.array_equal(mask, want)
