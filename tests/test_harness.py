"""Study configuration, Monte Carlo studies and CSV emission."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from latblock.errors import ConfigError
from latblock.harness import (
    MSE_COLUMNS,
    PHI_COLUMNS,
    config_from_dict,
    emit_csv,
    mse_cells_to_rows,
    mse_study,
    optimal_scaling_rows,
    phi_rows_to_rows,
    phi_study,
    plan_study,
    run_study,
)


def base_config(**overrides):
    raw = {
        "regions": [{"name": "rect10", "template": "hypercube:d=2", "scale": [10, 10]}],
        "covariograms": [{"name": "white", "spec": "white"}],
        "statistic": "mean",
        "schemes": ["ol"],
        "s_lambda_grid": [1, 2, 3],
        "replicates": 120,
        "seed": 77,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_requires_core_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"regions": []})
    with pytest.raises(ConfigError):
        config_from_dict(base_config(replicates=50))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(seed=-1))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(s_lambda_grid=[12]))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(schemes=["diagonal"]))
    cfg = config_from_dict(base_config())
    assert cfg.replicates == 120
    assert cfg.s_lambda_grid["rect10"] == (1, 2, 3)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 3, 1.9e19])
def test_config_refuses_a_seed_past_64_bits(seed):
    # a seed is one Philox key word: 2^64 + 3 would draw the fields of seed 3
    with pytest.raises(ConfigError, match=r"^seed must be in \[0, 2\^64\), got "):
        config_from_dict(base_config(seed=seed))
    assert config_from_dict(base_config(seed=2**64 - 1)).seed == 2**64 - 1


def test_config_per_region_grid_and_duplicates():
    raw = base_config(
        regions=[
            {"name": "a", "template": "hypercube:d=2", "scale": [10, 10]},
            {"name": "b", "template": "hypercube:d=2", "scale": [6, 6]},
        ],
        s_lambda_grid={"a": [2, 4], "b": [2]},
    )
    cfg = config_from_dict(raw)
    assert cfg.s_lambda_grid == {"a": (2, 4), "b": (2,)}
    raw_bad = base_config(
        regions=[
            {"name": "a", "template": "hypercube:d=2", "scale": [10, 10]},
            {"name": "a", "template": "hypercube:d=2", "scale": [6, 6]},
        ]
    )
    with pytest.raises(ConfigError):
        config_from_dict(raw_bad)


# ---------------------------------------------------------------------------
# MSE study
# ---------------------------------------------------------------------------


def test_white_noise_mse_matches_direct_accumulation():
    # independent accumulation path: same fields, same cells, raw loops
    from latblock.covariance import Covariogram
    from latblock.estimators import FieldSample, mean_statistic, ol_estimate
    from latblock.fieldsim import build_generator, sample_field, substream
    from latblock.geometry import Region, SubsampleSpec, Template, lattice_sites

    cfg = config_from_dict(base_config())
    cells = mse_study(cfg)

    region = Region(Template.hypercube(2), (10, 10))
    window = lattice_sites(region)
    gen = build_generator(Covariogram.white(2), window)
    stat = mean_statistic()
    for cell in cells:
        devs = []
        for rep in range(cfg.replicates):
            field = sample_field(gen, substream(77, rep))
            est = ol_estimate(
                field,
                region,
                SubsampleSpec(Template.hypercube(2), float(cell.s_lambda), "ol"),
                stat,
            )
            devs.append((est.tau_hat_sq / 1.0 - 1.0) ** 2)
        assert cell.mse == np.mean(devs)  # exact: same replicates, same oracle


def test_mc_standard_error_two_pass():
    cfg = config_from_dict(base_config())
    cells = mse_study(cfg)
    for cell in cells:
        devs = cell.deviations
        mean = sum(devs) / len(devs)
        ss = sum((d - mean) ** 2 for d in devs) / (len(devs) - 1)
        assert cell.mc_se == pytest.approx(math.sqrt(ss / len(devs)), rel=1e-12)


def test_degenerate_cells_reported_na():
    raw = base_config(s_lambda_grid=[4, 9], schemes=["nol"])
    cells = mse_study(config_from_dict(raw))
    by_lam = {c.s_lambda: c for c in cells}
    assert by_lam[4].mse is None
    assert by_lam[4].note == "DegenerateSubsampling"
    assert by_lam[9].mse is None
    assert by_lam[9].note == "DegenerateSubsampling"


def test_argmin_rows_tie_to_smallest():
    cells = mse_study(config_from_dict(base_config()))
    rows = optimal_scaling_rows(cells)
    assert len(rows) == 1
    # white noise has zero bias, so the smallest scale wins
    assert rows[0]["s_lambda_opt"] == 1


def test_exact_mse_takes_ragged_designs():
    """Per-copy weights give the shared-count form at integer NOL scales, and
    a ragged NOL design's value, which the Monte Carlo of its estimates meets."""
    import warnings

    from brute_force import design_rows

    from latblock.covariance import Covariogram, exact_tau_n_sq_window
    from latblock.errors import NonIntegerScaleWarning
    from latblock.estimators import design_plan, mean_statistic, nol_estimate
    from latblock.fieldsim import build_generator, sample_field, substream
    from latblock.geometry import Region, SubsampleSpec, Template, lattice_sites

    region = Region(Template.hypercube(2), (14, 18))
    window = lattice_sites(region)
    cov = Covariogram.exp_separable(1.0, 1.0)
    for s_lam, want in ((3.0, 0.2390), (4.0, 0.2566)):
        spec = SubsampleSpec(region.template, s_lam, "nol")
        rows = design_rows(design_plan(window, region, spec), window)  # (M, sN)
        n_sub, size = rows.shape
        averager = np.zeros((n_sub, window.n_sites))
        averager[np.arange(n_sub)[:, None], rows] = 1.0 / size
        center = np.eye(n_sub) - np.ones((n_sub, n_sub)) / n_sub
        shared = quadratic_form_mse((size / n_sub) * averager.T @ center @ averager, window, cov)
        assert exact_normalized_mse(region, cov, spec) == pytest.approx(shared, rel=1e-12)
        assert shared == pytest.approx(want, abs=5e-5)
    ragged = SubsampleSpec(region.template, 3.5, "nol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerScaleWarning)
        exact = exact_normalized_mse(region, cov, ragged)
        assert exact == pytest.approx(0.2229, abs=5e-5)
        gen = build_generator(cov, window)
        tau_n = exact_tau_n_sq_window(window, cov)
        for seed in (99, 7, 123):
            errors = np.array([
                (nol_estimate(sample_field(gen, substream(seed, rep)), region, ragged,
                              mean_statistic()).tau_hat_sq / tau_n - 1.0) ** 2
                for rep in range(400)
            ])
            mc_se = errors.std(ddof=1) / math.sqrt(errors.size)
            assert abs(errors.mean() - exact) <= 3.2 * mc_se, seed


def test_workers_do_not_change_results():
    cfg1 = config_from_dict(base_config())
    cfg2 = config_from_dict(base_config(workers=4))
    cells1 = mse_study(cfg1)
    cells2 = mse_study(cfg2)
    for a, b in zip(cells1, cells2):
        assert a.mse == b.mse
        assert a.mc_se == b.mc_se


def exact_normalized_mse(region, cov, spec):
    """Closed-form normalized MSE for the mean statistic on a Gaussian field.

    The estimator is a quadratic form z'Az in the site vector, so its mean is
    tr(A S) and its variance 2 tr((A S)^2); no simulation enters.  Subsample
    m averages its count_m sites (row m of W, weights 1/count_m), and
    A = W'C D C W / M, with C the centring matrix and D = diag(counts), so a
    ragged design needs no shared count.
    """
    from brute_force import design_rows

    from latblock.estimators import design_plan
    from latblock.geometry import lattice_sites

    window = lattice_sites(region)
    plan = design_plan(window, region, spec)
    counts = plan.index_set.counts
    n_sub = len(counts)
    averager = np.zeros((n_sub, window.n_sites))
    for i, rows in enumerate(design_rows(plan, window)):
        averager[i, rows] = 1.0 / counts[i]
    center = np.eye(n_sub) - np.ones((n_sub, n_sub)) / n_sub
    deviations = center @ averager
    return quadratic_form_mse(deviations.T @ (counts[:, None] * deviations) / n_sub, window, cov)


def quadratic_form_mse(quad, window, cov):
    """Normalized MSE of the estimate z'(quad)z of tau_n on ``window``."""
    from latblock.covariance import exact_tau_n_sq_window
    from latblock.fieldsim import covariance_matrix

    tau_n = exact_tau_n_sq_window(window, cov)
    prod = quad @ covariance_matrix(cov, window)
    mean_tau = np.trace(prod)
    var_tau = 2.0 * np.trace(prod @ prod)
    return (var_tau + (mean_tau - tau_n) ** 2) / tau_n**2


def test_exact_mse_oracle_matches_benchmark_and_simulated():
    """The closed-form MSE pins both the benchmark values and the Monte Carlo."""
    from latblock.covariance import Covariogram
    from latblock.geometry import Region, SubsampleSpec, Template

    region = Region(Template.hypercube(2), (14, 18))
    cov = Covariogram.exp_separable(1.0, 1.0)
    benchmark = {1: 0.5855, 2: 0.3312, 3: 0.2201, 4: 0.1926, 5: 0.2106, 6: 0.2533, 7: 0.3086}
    exact = {
        lam: exact_normalized_mse(
            region, cov, SubsampleSpec(Template.hypercube(2), float(lam), "ol")
        )
        for lam in benchmark
    }
    for lam, want in benchmark.items():
        # the benchmark grid came from 10^4 replicates; its own error is ~0.004
        assert exact[lam] == pytest.approx(want, abs=0.012), lam

    cfg = config_from_dict(
        {
            "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [14, 18]}],
            "covariograms": [{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
            "statistic": "mean",
            "schemes": ["ol"],
            "s_lambda_grid": [3, 4, 5],
            "replicates": 400,
            "seed": 99,
        }
    )
    for cell in mse_study(cfg):
        assert abs(cell.mse - exact[cell.s_lambda]) <= 3.2 * cell.mc_se


def test_exact_mse_oracle_disk_region():
    """Circular regions with circular subsamples also match benchmark cells."""
    from latblock.covariance import Covariogram
    from latblock.geometry import Region, SubsampleSpec, Template

    disk = Region(Template.circle(0.5), (18, 18))
    cov = Covariogram.exp_separable(1.0, 1.0)
    benchmark = {3: 0.2252, 4: 0.2332, 5: 0.2126}
    for lam, want in benchmark.items():
        got = exact_normalized_mse(
            disk, cov, SubsampleSpec(Template.circle(0.5), float(lam), "ol")
        )
        assert got == pytest.approx(want, abs=0.012), lam


def test_exact_mse_oracle_cross_shape():
    """Square and circle subsamples on the square region hit the benchmark
    minimum at the same scale."""
    from latblock.covariance import Covariogram
    from latblock.geometry import Region, SubsampleSpec, Template

    reg = Region(Template.hypercube(2), (20, 20))
    cov = Covariogram.gauss_isotropic(2.0)
    curves = {}
    for name, sub in [("square", Template.hypercube(2)), ("circle", Template.circle(0.5))]:
        curves[name] = {
            lam: exact_normalized_mse(reg, cov, SubsampleSpec(sub, float(lam), "ol"))
            for lam in (2, 3, 4, 5)
        }
        assert min(curves[name], key=curves[name].get) == 3
        assert curves[name][3] == pytest.approx(0.0436, abs=0.005)
    # scale-3 disks and 3x3 blocks cover identical lattice sites
    assert curves["square"][3] == curves["circle"][3]


def test_white_noise_mse_monotone_beyond_one():
    cfg = config_from_dict(base_config(s_lambda_grid=[1, 2, 3, 4]))
    cells = sorted(mse_study(cfg), key=lambda c: c.s_lambda)
    vals = [c.mse for c in cells]
    # zero bias leaves a pure variance tradeoff, increasing in the scale
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_mse_study_draws_no_field_for_a_pair_without_live_cells(monkeypatch):
    import latblock.harness

    calls = []
    sample_fields = latblock.harness.sample_fields

    def counting_sample_fields(gen, streams):
        calls.extend(stream.index for stream in streams)  # the replicates' stream indices
        return sample_fields(gen, streams)

    monkeypatch.setattr(latblock.harness, "sample_fields", counting_sample_fields)
    cfg = config_from_dict(
        base_config(
            regions=[
                {"name": "dead", "template": "hypercube:d=2", "scale": [10, 10]},
                {"name": "live", "template": "hypercube:d=2", "scale": [10, 10]},
            ],
            schemes=["nol"],
            s_lambda_grid={"dead": [6, 9], "live": [2, 3]},  # one NOL cube at 6 and 9
        )
    )
    cells = mse_study(cfg)
    assert [c.mse is None for c in cells] == [True, True, False, False]
    assert sorted(calls) == list(range(cfg.replicates, 2 * cfg.replicates))


def test_mse_study_builds_no_generator_for_a_pair_without_live_cells(monkeypatch):
    import latblock.harness

    built = []
    build_generator = latblock.harness.build_generator

    def counting_build_generator(cov, window):
        built.append(window.n_sites)
        return build_generator(cov, window)

    monkeypatch.setattr(latblock.harness, "build_generator", counting_build_generator)
    cfg = config_from_dict(
        base_config(
            regions=[
                {"name": "live", "template": "hypercube:d=2", "scale": [10, 10]},
                {"name": "dead", "template": "circle:r=0.5", "scale": [12, 12]},
            ],
            schemes=["nol"],
            s_lambda_grid={"live": [2, 3], "dead": [9]},  # one NOL cube at 9
        )
    )
    cells = mse_study(cfg)
    assert [c.note for c in cells] == ["", "", "DegenerateSubsampling"]
    assert built == [100]  # the live box only


def test_optimal_scaling_study_wrapper():
    from latblock.harness import optimal_scaling_study

    rows = optimal_scaling_study(config_from_dict(base_config()))
    assert rows[0]["s_lambda_opt"] == 1


# ---------------------------------------------------------------------------
# selector study
# ---------------------------------------------------------------------------


def test_phi_study_frequencies_sum_and_oracle_zero():
    raw = base_config(
        regions=[{"name": "rect12", "template": "hypercube:d=2", "scale": [12, 14]}],
        covariograms=[{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
        s_lambda_grid=[2, 3, 4],
        replicates=100,
        selectors={
            "npi": {"c1": [0.5], "c2": [0.5]},
            "s_lambda_opt": {"rect12|E(1,1)": 3},
        },
    )
    rows = phi_study(config_from_dict(raw))
    assert len(rows) == 1
    row = rows[0]
    assert sum(row.freq.values()) == 100
    assert row.e_phi_sq >= 0.0
    # replicates whose estimate hits the oracle scale contribute exactly zero
    assert row.s_lambda_opt == 3


def test_phi_small_deviation_on_strong_dependence():
    # the plug-in selector's squared relative deviation stays small in
    # absolute terms on the strongly dependent model as well
    raw = base_config(
        regions=[{"name": "rect14x18", "template": "hypercube:d=2", "scale": [14, 18]}],
        covariograms=[{"name": "E(0.5,0.3)", "spec": "expsep:b1=0.5,b2=0.3"}],
        s_lambda_grid=[5, 6, 7],
        replicates=200,
        selectors={
            "npi": {"c1": [0.5], "c2": [0.5]},
            "s_lambda_opt": {"rect14x18|E(0.5,0.3)": 6},
        },
    )
    rows = phi_study(config_from_dict(raw))
    assert rows[0].e_phi_sq < 0.05


def test_phi_study_with_block_mse_selector():
    raw = base_config(
        regions=[{"name": "rect12", "template": "hypercube:d=2", "scale": [12, 14]}],
        covariograms=[{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
        s_lambda_grid=[2, 3, 4],
        replicates=100,
        selectors={
            "hj": {"lambda_m": [5], "candidates": [1, 2, 3, 4], "min_candidates": 4},
            "s_lambda_opt": {"rect12|E(1,1)": 3},
        },
    )
    rows = phi_study(config_from_dict(raw))
    assert len(rows) == 1
    assert rows[0].method == "hj"
    assert rows[0].lambda_m == 5
    assert sum(rows[0].freq.values()) == 100
    assert rows[0].e_phi_sq >= 0.0


def test_phi_requires_selector_settings():
    raw = base_config(selectors={})
    with pytest.raises(ConfigError):
        phi_study(config_from_dict(raw))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], MSE_COLUMNS, str(path))
    assert path.read_bytes() == (",".join(MSE_COLUMNS) + "\n").encode()


def test_emit_csv_round_trip(tmp_path):
    cells = mse_study(config_from_dict(base_config()))
    rows = mse_cells_to_rows(cells)
    path = tmp_path / "mse.csv"
    emit_csv(rows, MSE_COLUMNS, str(path))
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(MSE_COLUMNS)
    parsed = [dict(zip(MSE_COLUMNS, ln.split(","))) for ln in lines[1:]]
    for row, back in zip(rows, parsed):
        assert float(back["mse"]) == row["mse"]  # 17 digits round-trip exactly
        assert float(back["mc_se"]) == row["mc_se"]
        assert int(back["s_lambda"]) == row["s_lambda"]
        assert back["region"] == row["region"]


def test_emit_csv_quoting_and_lf(tmp_path):
    path = tmp_path / "q.csv"
    emit_csv(
        [{"key": 'na,me "x"', "value": 1.5}],
        ("key", "value"),
        str(path),
    )
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.split(b"\n")[1].startswith(b'"na,me ""x"""')


def test_identical_runs_byte_identical(tmp_path):
    raw = base_config(
        covariograms=[{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
        outputs={"mse_csv": str(tmp_path / "a.csv"), "scaling_csv": str(tmp_path / "s.csv")},
    )
    run_study(config_from_dict(raw))
    a = (tmp_path / "a.csv").read_bytes()
    s = (tmp_path / "s.csv").read_bytes()
    raw["outputs"] = {
        "mse_csv": str(tmp_path / "b.csv"),
        "scaling_csv": str(tmp_path / "t.csv"),
    }
    raw["workers"] = 3
    run_study(config_from_dict(raw))
    assert (tmp_path / "b.csv").read_bytes() == a
    assert (tmp_path / "t.csv").read_bytes() == s


def test_phi_study_refuses_an_oracle_map_missing_a_pair_before_any_draw(monkeypatch):
    import latblock.harness

    draws = []
    monkeypatch.setattr(latblock.harness, "sample_fields", lambda gen, streams: draws.extend(streams))
    raw = base_config(
        covariograms=["white", {"name": "E", "spec": "expsep:b1=1,b2=1"}],
        selectors={"npi": {"c1": [0.5], "c2": [0.5]}, "s_lambda_opt": {"rect10|E": 3}},
    )
    with pytest.raises(ConfigError, match=re.escape("no oracle scale for cell 'rect10|white'")):
        phi_study(config_from_dict(raw))
    assert draws == []


def test_a_study_plan_draws_nothing_and_is_the_same_when_built_twice(monkeypatch):
    import latblock.harness

    calls = []
    for name in ("build_generator", "sample_fields"):
        monkeypatch.setattr(latblock.harness, name, lambda *args, name=name: calls.append(name))
    box = {"template": "hypercube:d=2", "scale": [10, 10]}
    raw = base_config(
        regions=[{"name": "live", **box}, {"name": "dead", **box}],
        covariograms=["white", {"name": "E", "spec": "expsep:b1=1,b2=1"}],
        schemes=["ol", "nol"],
        s_lambda_grid={"live": [2, 3], "dead": [6, 9]},
        selectors={"npi": {"c1": [0.5], "c2": [0.5]}, "scheme": "nol"},
    )
    config = config_from_dict(raw)

    def view(plan):
        return [
            (
                pair.key,
                pair.tau_n,
                pair.s_opt,
                pair.samples.streams,
                [(cell, design is None, note) for cell, design, note in pair.designs.cells],
                pair.designs.oracle,
                pair.designs.engine is None,
            )
            for pair in plan.pairs
        ]

    first = view(plan_study(config, mse=True, phi=True))
    assert view(plan_study(config, mse=True, phi=True)) == first
    assert calls == []
    assert [pair[0] for pair in first] == ["live|white", "live|E", "dead|white", "dead|E"]
    assert [pair[3] for pair in first] == [range(i * 120, (i + 1) * 120) for i in range(4)]
    assert first[0][1] == 1.0  # white noise: tau_n^2 = N Var(mean) = 1
    # one NOL cube fits the box at 6 and 9: the dead region's NOL cells and engine
    dead = first[2][4]
    assert [note for cell, _, note in dead if cell[0] == "nol"] == ["DegenerateSubsampling"] * 2
    assert [pair[5] for pair in first] == [{2: 2, 3: 3}, {2: 2, 3: 3}, {}, {}]
    assert [pair[6] for pair in first] == [False, False, True, True]


def test_a_config_loads_away_from_its_output_directory(tmp_path):
    config = config_from_dict(base_config(outputs={"mse_csv": str(tmp_path / "nodir" / "m.csv")}))
    with pytest.raises(ConfigError, match="the directory of .* does not exist"):
        run_study(config)


def test_run_study_phi_auto_oracle(tmp_path):
    raw = base_config(
        regions=[{"name": "rect12", "template": "hypercube:d=2", "scale": [12, 14]}],
        covariograms=[{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
        s_lambda_grid=[2, 3, 4],
        replicates=100,
        selectors={"npi": {"c1": [0.5], "c2": [0.5]}},
        outputs={"phi_csv": str(tmp_path / "phi.csv")},
    )
    result = run_study(config_from_dict(raw))
    assert result.phi_rows is not None
    text = (tmp_path / "phi.csv").read_text().strip().split("\n")
    assert text[0] == ",".join(PHI_COLUMNS)
    assert len(text) == 2
    row = phi_rows_to_rows(result.phi_rows)[0]
    assert sum(int(p.split(":")[1]) for p in row["freq"].split(";")) == 100


def test_run_study_derives_oracle_scales_from_scaling_argmin(tmp_path):
    raw = base_config(
        regions=[
            {"name": "rect12", "template": "hypercube:d=2", "scale": [12, 14]},
            {"name": "disk12", "template": "circle:r=0.5", "scale": [12, 12]},
        ],
        covariograms=[
            {"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"},
            {"name": "white", "spec": "white"},
        ],
        schemes=["ol", "nol"],
        sub_templates=["same", "circle:r=0.5"],
        s_lambda_grid=[2, 3, 4],
        replicates=100,
        selectors={"npi": {"c1": [0.5, 1.0], "c2": [0.5]}, "scheme": "ol"},
        outputs={
            "scaling_csv": str(tmp_path / "scaling.csv"),
            "phi_csv": str(tmp_path / "phi.csv"),
        },
    )
    config = config_from_dict(raw)
    result = run_study(config)
    assert result.phi_rows == phi_study(config)

    with open(tmp_path / "scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    argmin = {
        f"{row['region']}|{row['model']}": int(row["s_lambda_opt"])
        for row in rows
        if row["scheme"] == "ol" and row["sub_template"] == "same"
    }
    assert len(argmin) == 4
    assert {f"{r.region}|{r.model}": r.s_lambda_opt for r in result.phi_rows} == argmin


def test_workers_is_validated_but_not_kept():
    config = config_from_dict(base_config(workers=3))
    assert "workers" not in {f.name for f in dataclasses.fields(config)}
    with pytest.raises(ConfigError):
        config_from_dict(base_config(workers=0))
