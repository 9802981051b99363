"""The selector study's chunk path: every PhiRow equals the per-replicate
reference, and hj's block estimates gathered from whole-window sums equal the
estimator core on the pilot blocks bit for bit."""

import functools

import numpy as np
import pytest
from brute_force import per_replicate_phi_rows

import latblock.harness
from latblock.errors import DegenerateSubsampling
from latblock.estimators import (
    design_plan,
    estimate_blocks,
    estimate_values,
    field_image,
    mean_statistic,
)
from latblock.geometry import OL, Region, SubsampleSpec, Template, lattice_sites, parse_template
from latblock.harness import config_from_dict, phi_study
from latblock.scaling import hj_choose, hj_designs

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
        **extra,
    }


@functools.lru_cache(maxsize=None)
def reference_rows(name):
    return per_replicate_phi_rows(config_from_dict(case_raw(name)))


def widest_gather(config):
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
    return max(widths)


@pytest.mark.parametrize("chunk", [1, 7, REPLICATES])
@pytest.mark.parametrize("name", sorted(CASES))
def test_chunked_rows_equal_the_per_replicate_reference(monkeypatch, name, chunk):
    config = config_from_dict(case_raw(name))
    monkeypatch.setattr(latblock.harness, "_IMAGE_BLOCK_CELLS", 1 << 40)
    monkeypatch.setattr(latblock.harness, "_GATHER_CELLS", chunk * widest_gather(config))
    sizes = []

    def spy(table, values):
        sizes.append(values.shape[0])
        return field_image(table, values)

    monkeypatch.setattr(latblock.harness, "field_image", spy)
    rows = phi_study(config)
    assert rows == reference_rows(name)
    assert len(rows) == 6 and all(sum(row.freq.values()) == REPLICATES for row in rows)
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


def test_momvar_takes_the_per_replicate_path(monkeypatch):
    raw = case_raw("ol-disk", statistic="momvar", tau_n_sq={"r|E": 2.0})
    raw["selectors"]["npi"] = {"c1": [0.5], "c2": [0.5]}
    config = config_from_dict(raw)
    npi = count_calls(monkeypatch, "npi_scaling")
    hj = count_calls(monkeypatch, "hj_scaling")
    images = count_calls(monkeypatch, "field_image")
    rows = phi_study(config)
    assert len(npi) == REPLICATES and len(hj) == 2 * REPLICATES and images == []
    assert rows == per_replicate_phi_rows(config)


def test_mean_takes_the_chunk_path(monkeypatch):
    npi = count_calls(monkeypatch, "npi_scaling")
    hj = count_calls(monkeypatch, "hj_scaling")
    assert phi_study(config_from_dict(case_raw("ol-disk"))) == reference_rows("ol-disk")
    assert npi == [] and hj == []


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
    stat = mean_statistic()
    values = np.random.default_rng(3).standard_normal((5, window.n_sites)) * 1e3 + 7.0
    image = field_image(window.indexer().table, values)
    design = hj_designs(window, region, lambda_m, list(candidates), scheme, 1)
    assert design.local
    for c, local in design.local:
        full = design_plan(window, region, SubsampleSpec(region.template, float(c), OL))
        got = estimate_blocks(image, full, design.blocks, local, stat)
        assert got.shape == (5, design.blocks.index_set.n_subsamples)
        for row, field in zip(got, values):
            block_values = field[design.blocks.row_matrix][..., None]
            assert np.array_equal(row, estimate_values(local, block_values, stat)[2])


def test_hj_choose_breaks_ties_toward_the_smallest_candidate():
    region = Region(Template.hypercube(2), (14, 18))
    ratio = 14 * 18 / 8.0**2
    best, lam_real, lam_int = hj_choose([2, 3, 5], [0.4, 0.1, 0.1], ratio, region)
    assert best == 3
    assert lam_real == 3.0 * ratio ** 0.25 and lam_int == round(lam_real)
    with pytest.raises(DegenerateSubsampling):
        hj_choose([], [], ratio, region)
