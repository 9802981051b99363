"""Command-line interface behavior and exit codes."""

import json

import numpy as np
import pytest

from latblock.cli import main, read_field_csv, write_field_csv
from latblock.errors import ConfigError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "constants" in out


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(["constants", "--template", "hypercube:d=2", "--bogus"], capsys)
    assert code == 2


def test_constants_command(capsys):
    code, out, _ = run(["constants", "--template", "hypercube:d=2"], capsys)
    assert code == 0
    kv = dict(line.split(": ") for line in out.strip().split("\n"))
    assert float(kv["k0"]) == pytest.approx(4 / 9, rel=1e-9)
    assert float(kv["k1"]) == pytest.approx(4 / 9, rel=1e-9)
    assert float(kv["are"]) == pytest.approx(2 / 3, rel=1e-9)


def test_constants_with_covariogram(capsys):
    code, out, _ = run(
        ["constants", "--template", "hypercube:d=2", "--cov", "expsep:b1=1,b2=1"],
        capsys,
    )
    assert code == 0
    kv = dict(line.split(": ") for line in out.strip().split("\n"))
    assert float(kv["tau_sq"]) == pytest.approx(4.682694, abs=1e-5)
    assert float(kv["b0"]) == pytest.approx(7.969179, abs=1e-5)


def test_constants_bad_template_exit_2(capsys):
    code, _, err = run(["constants", "--template", "blob:r=1"], capsys)
    assert code == 2
    assert "error" in err


def test_simulate_requires_seed(capsys, tmp_path):
    code, _, _ = run(
        [
            "simulate",
            "--cov",
            "white",
            "--template",
            "hypercube:d=2",
            "--scale",
            "6,6",
            "--out",
            str(tmp_path / "f.csv"),
        ],
        capsys,
    )
    assert code == 2


def test_simulate_deterministic_and_readable(capsys, tmp_path):
    args = [
        "simulate",
        "--cov",
        "expsep:b1=1,b2=1",
        "--template",
        "hypercube:d=2",
        "--scale",
        "8,8",
        "--seed",
        "42",
        "--replicate",
        "3",
    ]
    code, _, _ = run(args + ["--out", str(tmp_path / "a.csv")], capsys)
    assert code == 0
    code, _, _ = run(args + ["--out", str(tmp_path / "b.csv")], capsys)
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    sample = read_field_csv(str(tmp_path / "a.csv"))
    assert sample.window.n_sites == 64
    assert sample.p == 1


def test_field_csv_round_trip(tmp_path):
    from latblock.estimators import FieldSample
    from latblock.geometry import LatticeWindow

    sites = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    window = LatticeWindow(sites=sites, lo=sites.min(0), hi=sites.max(0))
    values = np.array([[0.1], [0.2], [0.3], [1.0 / 3.0]])
    path = tmp_path / "field.csv"
    write_field_csv(FieldSample(window, values), str(path))
    back = read_field_csv(str(path))
    assert np.array_equal(back.window.sites, sites)
    assert np.array_equal(back.values, values)


def test_estimate_matches_library(capsys, tmp_path):
    from latblock import (
        Covariogram,
        Region,
        SubsampleSpec,
        Template,
        build_generator,
        ol_estimate,
        sample_field,
        substream,
    )
    from latblock.estimators import mean_statistic
    from latblock.geometry import lattice_sites

    region = Region(Template.hypercube(2), (10, 10))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), lattice_sites(region))
    sample = sample_field(gen, substream(9, 0))
    path = tmp_path / "field.csv"
    write_field_csv(sample, str(path))

    expected = ol_estimate(
        sample, region, SubsampleSpec(Template.hypercube(2), 3.0, "ol"), mean_statistic()
    )
    code, out, _ = run(
        [
            "estimate",
            "--data",
            str(path),
            "--template",
            "hypercube:d=2",
            "--scheme",
            "ol",
            "--scale",
            "3",
            "--stat",
            "mean",
        ],
        capsys,
    )
    assert code == 0
    kv = dict(line.split(": ") for line in out.strip().split("\n"))
    assert float(kv["tau_hat_sq"]) == expected.tau_hat_sq
    assert int(kv["n_subsamples"]) == expected.n_subsamples


def test_estimate_with_sub_template(capsys, tmp_path):
    from latblock import Covariogram, Region, Template, build_generator, sample_field, substream
    from latblock.geometry import lattice_sites

    region = Region(Template.hypercube(2), (16, 16))
    gen = build_generator(Covariogram.white(2), lattice_sites(region))
    path = tmp_path / "f.csv"
    write_field_csv(sample_field(gen, substream(4, 0)), str(path))
    code, out, _ = run(
        [
            "estimate",
            "--data",
            str(path),
            "--template",
            "hypercube:d=2",
            "--sub-template",
            "circle:r=0.5",
            "--scheme",
            "ol",
            "--scale",
            "4",
            "--stat",
            "mean",
        ],
        capsys,
    )
    assert code == 0
    kv = dict(line.split(": ") for line in out.strip().split("\n"))
    assert int(kv["subsample_sites"]) == 13  # lattice disk of radius 2


def test_estimate_degenerate_exit_1(capsys, tmp_path):
    from latblock import Covariogram, Region, Template, build_generator, sample_field, substream
    from latblock.geometry import lattice_sites

    region = Region(Template.hypercube(2), (6, 6))
    gen = build_generator(Covariogram.white(2), lattice_sites(region))
    path = tmp_path / "f.csv"
    write_field_csv(sample_field(gen, substream(1, 0)), str(path))
    code, _, err = run(
        [
            "estimate",
            "--data",
            str(path),
            "--template",
            "hypercube:d=2",
            "--scheme",
            "ol",
            "--scale",
            "6",
            "--stat",
            "mean",
        ],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_scale_theory_command(capsys):
    code, out, _ = run(
        [
            "scale",
            "--method",
            "theory",
            "--template",
            "hypercube:d=2",
            "--det-delta",
            "1260",
            "--cov",
            "expsep:b1=1,b2=1",
            "--scheme",
            "ol",
        ],
        capsys,
    )
    assert code == 0
    kv = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    assert int(kv["lambda_opt_int"]) == 8


def test_scale_npi_from_file(capsys, tmp_path):
    from latblock import Covariogram, Region, Template, build_generator, sample_field, substream
    from latblock.geometry import lattice_sites

    region = Region(Template.hypercube(2), (14, 18))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), lattice_sites(region))
    path = tmp_path / "f.csv"
    write_field_csv(sample_field(gen, substream(77, 0)), str(path))
    code, out, _ = run(
        [
            "scale",
            "--method",
            "npi",
            "--data",
            str(path),
            "--template",
            "hypercube:d=2",
            "--c1",
            "0.5",
            "--c2",
            "0.5",
        ],
        capsys,
    )
    assert code == 0
    kv = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    assert int(kv["lambda_opt_int"]) in (3, 4, 5)


def test_study_command(capsys, tmp_path):
    config = {
        "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [10, 10]}],
        "covariograms": [{"name": "white", "spec": "white"}],
        "statistic": "mean",
        "schemes": ["ol"],
        "s_lambda_grid": [1, 2],
        "replicates": 100,
        "seed": 3,
        "outputs": {"mse_csv": str(tmp_path / "mse.csv")},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert (tmp_path / "mse.csv").exists()


def test_study_bad_config_exit_2(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"regions": []}))
    code, _, _ = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    code, _, _ = run(["study", "--config", str(tmp_path / "missing.json")], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "bad, flags",
    [
        ({"workers": -3}, []),
        ({"selectors": {"npi": {"c1": [0.5], "c2": [0.5]}, "scheme": "bogus"}}, []),
        ({}, ["--workers", "0"]),
    ],
)
def test_study_rejects_bad_workers_and_selector_scheme(capsys, tmp_path, bad, flags):
    config = {
        "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [10, 10]}],
        "covariograms": [{"name": "white", "spec": "white"}],
        "s_lambda_grid": [1, 2],
        "replicates": 100,
        "seed": 3,
        "outputs": {"mse_csv": str(tmp_path / "mse.csv")},
        **bad,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run(["study", "--config", str(cfg_path), *flags], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "mse.csv").exists()


def study_config(tmp_path, **overrides):
    config = {
        "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [10, 10]}],
        "covariograms": [{"name": "white", "spec": "white"}],
        "s_lambda_grid": [1, 2],
        "replicates": 100,
        "seed": 3,
        "outputs": {"mse_csv": str(tmp_path / "mse.csv")},
    }
    config.update(overrides)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"workers": "two"}, "workers"),
        ({"replicates": "many"}, "replicates"),
        ({"seed": 1.5}, "seed"),
        ({"selectors": {"hj": {"lambda_m": ["x"]}}}, "selectors.hj.lambda_m"),
        ({"tau_n_sq": {"a": "b"}}, "tau_n_sq"),
        ({"s_lambda_grid": [2.7]}, "s_lambda_grid"),
        ({"regions": [{"template": "hypercube:d=2", "scale": ["ten"]}]}, "region.scale"),
    ],
)
def test_study_rejects_non_numeric_values(capsys, tmp_path, bad, key):
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert code == 2
    assert err.startswith(f"error: {key}")
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"replicate": 100},
        {"regions": [{"name": "r", "template": "hypercube:d=2", "scale": [10, 10], "shift": 0}]},
        {"covariograms": [{"name": "white", "spec": "white", "range": 2}]},
        {"sub_templates": [{"spec": "circle:r=0.5", "label": "c"}]},
        {"selectors": {"npi": {"c1": [0.5], "c2": [0.5]}, "schem": "ol"}},
        {"selectors": {"npi": {"c1": [0.5], "c3": [0.5]}}},
        {"selectors": {"hj": {"lambda_m": [5], "candidate": [2, 3]}}},
        {"outputs": {"mse_cvs": "mse.csv"}},
    ],
)
def test_study_rejects_unknown_keys(capsys, tmp_path, bad):
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert code == 2
    assert err.startswith("error: unknown key")
    assert not (tmp_path / "mse.csv").exists()


def test_study_rejects_statistic_without_lift(capsys, tmp_path):
    cfg_path = study_config(tmp_path, statistic="ratio", tau_n_sq={"r|white": 1.0})
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "no scalar-field lift" in err


@pytest.mark.parametrize(
    "rows, line, reason",
    [
        (["0,0,1.5", "0,1,2.5", "0,0,3.5"], 4, "repeats line 2"),
        (["0,0,1.5", "0.7,1,2.5"], 3, "must be integers"),
        (["0,0,1.5", "0,1,abc"], 3, "bad row"),
    ],
)
def test_field_csv_rejects_bad_rows(tmp_path, rows, line, reason):
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["s1,s2,v1", *rows]) + "\n")
    with pytest.raises(ConfigError, match=f"line {line}: .*{reason}"):
        read_field_csv(str(path))
