"""The selector study's chunk path: every PhiRow equals the per-replicate
reference, also when a setting fails on some replicates; each field's choice
in a chunk equals the per-sample references and the per-field formulas; and
hj's block estimates gathered from whole-window sums equal the estimator core
on the pilot blocks bit for bit."""

import functools
import math

import numpy as np
import pytest
from brute_force import (
    design_rows,
    gather_estimate,
    gather_tau,
    hj_scaling_reference,
    npi_scaling_reference,
    per_replicate_deviations,
    per_replicate_phi_rows,
)
from hypothesis import given
from hypothesis import strategies as st

import latblock.harness
import latblock.scaling
from latblock.covariance import Covariogram
from latblock.errors import DegenerateSubsampling, LatblockError
from latblock.estimators import (
    FieldSample,
    design_plan,
    estimate_blocks,
    field_image,
    mean_statistic,
    moment_variance,
)
from latblock.fieldsim import build_generator, sample_field, substream
from latblock.geometry import OL, Region, SubsampleSpec, Template, lattice_sites, parse_template
from latblock.harness import (
    _replicate_pass,
    _selected,
    config_from_dict,
    phi_study,
    plan_study,
    run_study,
)
from latblock.scaling import (
    SelectorEngine,
    _scale_cap,
    hj_choose,
    hj_designs,
    npi_bias_estimate,
    theoretical_scaling,
)

REPLICATES = 100

# name -> (region, selector scheme, hj candidates, oracle scale)
CASES = {
    "nol-box": ({"template": "hypercube:d=2", "scale": [30, 40]}, "nol", [1, 2, 3, 4, 5], 5),
    "ol-disk": ({"template": "circle:r=0.5", "scale": [20, 20]}, "ol", list(range(1, 8)), 3),
}


def case_raw(name, statistic="mean", **extra):
    region, scheme, candidates, s_opt = CASES[name]
    return {
        "regions": [{"name": "r", **region}],
        "covariograms": [{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        "statistic": statistic,
        "replicates": REPLICATES,
        "seed": 5,
        "selectors": {
            "npi": {"c1": [0.5, 0.6], "c2": [0.4, 0.5]},
            "hj": {"lambda_m": [8, 10], "candidates": candidates, "min_candidates": 3},
            "scheme": scheme,
            "s_lambda_opt": {"r|E": s_opt},
        },
        # momvar's normalized deviations need a pinned tau_n_sq
        **({"tau_n_sq": {"r|E": 2.0}} if statistic == "momvar" else {}),
        **extra,
    }


@functools.lru_cache(maxsize=None)
def reference_rows(name, statistic="mean"):
    return per_replicate_phi_rows(config_from_dict(case_raw(name, statistic)))


def widest_gather(config):
    """Cells per replicate of hj's widest block gather, counting columns."""
    sel = config.selectors
    region = config.regions[0].region()
    window = lattice_sites(region)
    widths, dropped = [], []
    for lm in sel.hj_lambda_m:
        design = hj_designs(window, region, lm, sel.hj_candidates, sel.scheme, 3)
        dropped += design.dropped
        widths += [
            design.blocks.index_set.n_subsamples * local.index_set.n_subsamples
            for _, local in design.local
        ]
    assert dropped  # some local designs are degenerate
    return max(widths) * config.statistic.p


@pytest.mark.parametrize("statistic", ["mean", "momvar"])
@pytest.mark.parametrize("chunk", [1, 7, REPLICATES])
@pytest.mark.parametrize("name", sorted(CASES))
def test_chunked_rows_equal_the_per_replicate_reference(monkeypatch, name, chunk, statistic):
    config = config_from_dict(case_raw(name, statistic))
    window = lattice_sites(config.regions[0].region())
    cells = window.table.size * config.statistic.p
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", chunk * cells)
    # hj's widest block gather takes 3 fields of a chunk at a time
    widest = widest_gather(config)
    monkeypatch.setattr(latblock.scaling, "_GATHER_CELLS", 3 * widest)
    sizes, gathers = [], []

    def spy(table, values):
        sizes.append(values.shape[0])
        return field_image(table, values)

    def blocks_spy(image, full, blocks, local, stat):
        cells = blocks.index_set.n_subsamples * local.index_set.n_subsamples * stat.p
        gathers.append(image.shape[-1] * cells)
        return estimate_blocks(image, full, blocks, local, stat)

    monkeypatch.setattr(latblock.harness, "field_image", spy)
    monkeypatch.setattr(latblock.scaling, "estimate_blocks", blocks_spy)
    rows = phi_study(config)
    assert max(gathers) == min(chunk, 3) * widest
    assert rows == reference_rows(name, statistic)
    assert len(rows) == 6
    # the NOL cap keeps momvar's npi (0.5, 0.5) off the one-cube scale it asks
    # for on one replicate of the box
    assert [sum(row.freq.values()) for row in rows] == [REPLICATES] * 6
    assert [row.note for row in rows] == [""] * 6
    # chunks of 7 leave a last chunk of 2
    full, last = divmod(REPLICATES, chunk)
    assert sizes == [chunk] * full + [last] * (last > 0)


def count_calls(monkeypatch, name) -> list:
    calls = []
    real = getattr(latblock.harness, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(latblock.harness, name, counted)
    return calls


def no_per_replicate_selectors():
    """The study holds neither per-replicate selector, so it cannot call one."""
    return not any(hasattr(latblock.harness, name) for name in ("npi_scaling", "hj_scaling"))


def test_momvar_takes_the_chunk_path(monkeypatch):
    raw = case_raw("ol-disk", statistic="momvar")
    raw["selectors"]["npi"] = {"c1": [0.5], "c2": [0.5]}
    config = config_from_dict(raw)
    images = count_calls(monkeypatch, "field_image")
    rows = phi_study(config)
    assert images and no_per_replicate_selectors()
    assert rows == per_replicate_phi_rows(config)


def test_mean_takes_the_chunk_path(monkeypatch):
    images = count_calls(monkeypatch, "field_image")
    assert phi_study(config_from_dict(case_raw("ol-disk"))) == reference_rows("ol-disk")
    assert images and no_per_replicate_selectors()


@pytest.mark.parametrize(
    "spec, scale, shift, scheme, lambda_m, candidates",
    [
        ("hypercube:d=2", (14, 18), None, "ol", 8, range(1, 8)),
        ("hypercube:d=2", (9, 8.5), None, "ol", 8, range(1, 8)),  # 4 blocks
        ("circle:r=0.5", (9, 9), None, "ol", 8, range(1, 8)),  # 1 block: summed pairwise
        ("hypercube:d=3", (8, 9, 10), None, "nol", 6, range(1, 6)),
        ("hypercube:d=2", (13, 16), (0.25, -0.4), "nol", 6, range(1, 6)),
        ("circle:r=0.5", (20, 20), (0.3, 0.1), "ol", 10, range(1, 10)),
        ("hex:l=0.5", (16, 16), (-0.2, 0.5), "nol", 7, range(1, 7)),
    ],
)
def test_block_gather_equals_the_core_on_the_pilot_blocks(
    spec, scale, shift, scheme, lambda_m, candidates
):
    region = Region(parse_template(spec), scale, shift)
    window = lattice_sites(region)
    x = np.random.default_rng(3).standard_normal((5, window.n_sites)) * 1e3 + 7.0
    design = hj_designs(window, region, lambda_m, list(candidates), scheme, 1)
    assert design.local
    pilot = lattice_sites(Region(region.template, (float(lambda_m),) * region.d, region.shift))
    rows = design_rows(design.blocks, window)
    # the mean's (R, N, 1) values and momvar's (R, N, 2) pairs (x, x^2)
    lifted = np.stack([x, x * x], axis=-1)
    for stat, values in [(mean_statistic(), x[..., None]), (moment_variance(), lifted)]:
        image = field_image(window.table, values)
        for c, local in design.local:
            full = design_plan(window, region, SubsampleSpec(region.template, float(c), OL))
            got = estimate_blocks(image, full, design.blocks, local, stat)
            assert got.shape == (5, design.blocks.index_set.n_subsamples)
            for row, field in zip(got, values):
                assert np.array_equal(row, gather_estimate(local, pilot, field[rows], stat)[2])


def test_hj_choose_breaks_ties_toward_the_smallest_candidate():
    region = Region(Template.hypercube(2), (14, 18))
    ratio = 14 * 18 / 8.0**2
    best, lam_real, lam_int = hj_choose([2, 3, 5], [0.4, 0.1, 0.1], ratio, region, "ol")
    assert best == 3
    assert lam_real == 3.0 * ratio ** 0.25 and lam_int == round(lam_real)
    with pytest.raises(DegenerateSubsampling):
        hj_choose([], [], ratio, region, "ol")


def test_hj_choose_clamps_to_the_cap_of_its_scheme():
    region = Region(Template.hypercube(2), (30, 40))
    ratio = 30 * 40 / 8.0**2  # candidate 7 recalibrates to 14.57
    assert hj_choose([7], [0.1], ratio, region, "ol")[2] == 15
    assert hj_choose([7], [0.1], ratio, region, "nol")[2] == 13


# npi asks for s = 14 for c2 = 0.8 on replicate 31 (counting from 0), and at
# s >= 14 one NOL cube fits in the 30 x 40 box
FAILING = {
    "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [30, 40]}],
    "covariograms": [{"name": "E", "spec": "expsep:b1=1,b2=1"}],
    "statistic": "mean",
    "replicates": REPLICATES,
    "seed": 5,
    "selectors": {
        "npi": {"c1": [0.5, 1.0], "c2": [0.5, 0.8]},
        "scheme": "nol",
        "s_lambda_opt": {"r|E": 5},
    },
}


def scheme_blind_cap(region, scheme):
    """A cap that ignores the scheme, one below the shortest side: under it
    npi (0.5, 0.8) takes the one-cube s = 14 on replicate 31."""
    return math.ceil(min(region.scale)) - 1


def test_both_selector_paths_clamp_npi_to_the_nol_cap():
    config = config_from_dict(FAILING)
    sel, stat = config.selectors, config.statistic
    methods = [("npi", c1, c2, None) for c1 in sel.npi_c1 for c2 in sel.npi_c2]
    (pair,) = plan_study(config, mse=False, phi=True).pairs
    region, tau_n, samples = config.regions[0].region(), pair.tau_n, pair.samples
    assert (_scale_cap(region, "ol"), _scale_cap(region, "nol")) == (29, 13)
    engine = SelectorEngine(samples.window, region, methods, sel.scheme)
    _, outcomes, tau_opt = _replicate_pass(samples, [], engine, {}, 5)
    chunked = [
        [out if isinstance(out, str) else (out[0], (out[1] - opt) / tau_n) for out in row]
        for row, opt in zip(outcomes, tau_opt)
    ]
    single = per_replicate_deviations(samples, region, stat, sel, methods, 5, tau_n)
    assert chunked == single
    # under scheme_blind_cap replicate 31's s = 14 fails as
    # DegenerateSubsampling; the NOL cap of 13 keeps every replicate estimable
    assert not any(isinstance(o, str) for out in single for o in out)
    assert single[31][1][0] == 13


@pytest.mark.parametrize("chunk", [1, 7, REPLICATES])
def test_a_failed_replicate_fails_only_its_setting(monkeypatch, chunk):
    # the scheme-blind cap makes one replicate of one setting fail
    monkeypatch.setattr(latblock.scaling, "_scale_cap", scheme_blind_cap)
    config = config_from_dict(FAILING)
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", chunk * 30 * 40)
    rows = phi_study(config)
    assert rows == failing_reference()
    assert [row.note for row in rows] == ["", "failed 1: DegenerateSubsampling", "", ""]
    assert [sum(row.freq.values()) for row in rows] == [100, 99, 100, 100]
    assert all(row.reps == REPLICATES for row in rows)


@functools.lru_cache(maxsize=None)
def failing_reference():
    """The per-replicate rows of ``FAILING``; every caller runs it under
    ``scheme_blind_cap``."""
    return per_replicate_phi_rows(config_from_dict(FAILING))


def test_a_setting_that_fails_everywhere_writes_na(tmp_path):
    # every hj candidate holds one NOL cube on the 8 x 8 pilot region
    raw = {
        **FAILING,
        "selectors": {
            "npi": {"c1": [1.0], "c2": [0.5]},
            "hj": {"lambda_m": [8], "candidates": [5, 6, 7], "min_candidates": 1},
            "scheme": "nol",
            "s_lambda_opt": {"r|E": 5},
        },
        "outputs": {"phi_csv": str(tmp_path / "phi.csv")},
    }
    config = config_from_dict(raw)
    rows = phi_study(config)
    assert rows == per_replicate_phi_rows(config)
    run_study(config)
    lines = (tmp_path / "phi.csv").read_text().splitlines()
    assert lines[1].endswith(",100,2:2;3:1;4:17;5:35;6:28;7:14;8:3,")
    assert lines[2] == "r,E,nol,hj,NA,NA,8,5,NA,NA,100,NA,failed 100: DegenerateSubsampling"


# ---------------------------------------------------------------------------
# one chunk's choice, field by field
# ---------------------------------------------------------------------------

# fields of the chunk below: draws of FAILING's box but for a constant one, and
# two whose npi pilot estimates are seeded in the memo
CONSTANT, ZERO_BIAS, PAST_THE_CAP = 3, 4, 5


def reference_selection(sample, region, stat, setting, scheme, seeded):
    """(s_hat, tau_hat_sq at s_hat) of one setting on one field by the
    per-sample references, or the class name of the ``LatblockError`` it
    raised; ``seeded`` (scale -> tau_hat_sq) overrides those estimates."""
    method, c1, c2, lambda_m = setting

    def tau_at(lam):
        if lam in seeded:
            return seeded[lam]
        return gather_tau(sample, region, SubsampleSpec(region.template, float(lam), scheme), stat)

    try:
        if method == "npi":
            plan = npi_scaling_reference(sample, region, stat, c1, c2, scheme, taus=seeded)
        else:
            plan = hj_scaling_reference(sample, region, stat, lambda_m, None, scheme, 3)
        return plan.lambda_opt_int, tau_at(plan.lambda_opt_int)
    except LatblockError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("scheme", ["ol", "nol"])
@pytest.mark.parametrize("statistic", ["mean", "momvar"])
def test_a_chunk_choice_equals_the_per_sample_references(monkeypatch, statistic, scheme):
    # under the scheme-blind cap a plug-in scale past every cap is 29, where
    # one NOL cube fits: DegenerateSubsampling at the chosen scale
    monkeypatch.setattr(latblock.scaling, "_scale_cap", scheme_blind_cap)
    region = Region(Template.hypercube(2), (30, 40))
    window = lattice_sites(region)
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), window)
    x = np.stack([sample_field(gen, substream(5, rep)).values[:, 0] for rep in range(7)])
    x[CONSTANT] = 0.25  # tau_hat_sq = 0: npi refuses it with ConfigError
    if statistic == "mean":
        values, stat = x[..., None], mean_statistic()
    else:
        values, stat = np.stack([x, x * x], axis=-1), moment_variance()
    settings = [
        ("npi", 0.5, 0.5, None),
        ("npi", 1.0, 0.5, None),
        ("hj", None, None, 8),
        ("hj", None, None, 4),  # two candidates, three required: refused on every field
    ]
    engine = SelectorEngine(window, region, settings, scheme, None, 3)
    image = field_image(window.table, values)
    _, _, s1, s2 = engine.pilots[0.5, 0.5]
    memo = {lam: engine.tau(image, stat, {}, lam) for lam in (s1, s2, 2 * s2)}
    seeded = {
        ZERO_BIAS: {2 * s2: float(memo[s2][ZERO_BIAS])},  # equal pilots: b0_hat = 0
        PAST_THE_CAP: {s1: 1e-12},  # a tiny tau_hat_sq at s1: a scale past every cap
    }
    for r, taus in seeded.items():
        for lam, tau in taus.items():
            memo[lam][r] = tau
    got = [
        [_selected(engine, image, stat, memo, r, plan) for plan in plans]
        for r, plans in enumerate(engine.select(image, stat, memo))
    ]
    for r, field in enumerate(values):
        sample = FieldSample(window, field)
        want = [
            reference_selection(sample, region, stat, setting, scheme, seeded.get(r, {}))
            for setting in settings
        ]
        assert got[r] == want
    npi = [out[0] if isinstance(out[0], str) else out[0][0] for out in got]
    assert npi[CONSTANT] == "ConfigError" and npi[ZERO_BIAS] == "ZeroBiasConstant"
    assert npi[PAST_THE_CAP] == ("DegenerateSubsampling" if scheme == "nol" else 29)
    assert all(isinstance(out[2], tuple) for out in got)  # hj chooses on every field
    assert [out[3] for out in got] == ["InsufficientCandidates"] * len(values)


PROPERTY_REGIONS = {
    "box": Region(Template.hypercube(2), (14, 18)),  # npi's s1 is its 2 * s2
    "wide-box": Region(Template.hypercube(2), (30, 40)),
    "shifted-disk": Region(Template.circle(0.5), (20, 20), (0.3, 0.1)),
}
# tau_hat_sq tables: zeros of both signs, negatives, tiny and huge values whose
# powers leave the float range, and non-finite ones
TAUS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-200, 1e200, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1e-3, 1e3),
)


@functools.lru_cache(maxsize=None)
def npi_engine(region_name, scheme):
    region = PROPERTY_REGIONS[region_name]
    return SelectorEngine(lattice_sites(region), region, [("npi", 0.5, 0.5, None)], scheme)


@given(
    region_name=st.sampled_from(sorted(PROPERTY_REGIONS)),
    scheme=st.sampled_from(["ol", "nol"]),
    pilots=st.lists(st.tuples(TAUS, TAUS, TAUS, st.booleans()), min_size=1, max_size=12),
)
def test_chunk_choice_equals_the_per_field_choice(region_name, scheme, pilots):
    engine = npi_engine(region_name, scheme)
    region = engine.region
    _, _, s1, s2 = engine.pilots[0.5, 0.5]
    # the memo's tables at s2, 2 * s2 and s1, with equal pilot pairs where asked
    memo = {
        s2: [at_s2 for _, at_s2, _, _ in pilots],
        2 * s2: [at_s2 if equal else at_2s2 for _, at_s2, at_2s2, equal in pilots],
    }
    memo[s1] = [at_s1 for at_s1, _, _, _ in pilots]
    image = np.empty((1, 1, len(pilots)))  # the memo holds every table npi reads
    for r, (got,) in enumerate(engine.select(image, None, memo)):

        def tau(lam):
            return memo[lam][r]

        try:
            want = theoretical_scaling(
                region.d, region.det_scale(), npi_bias_estimate(tau, s2), tau(s1), engine.shape,
                scheme, region,
            )
        except LatblockError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            continue
        assert got.lambda_opt_real.hex() == want.lambda_opt_real.hex()
        assert got.lambda_opt_int == want.lambda_opt_int
