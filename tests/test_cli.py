"""Command-line interface behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from brute_force import hj_scaling_reference, npi_scaling_reference

import latblock.cli
import latblock.harness
from latblock.cli import main, read_field_csv, write_field_csv
from latblock.errors import ConfigError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env() -> dict:
    """The environment of a ``latblock`` subprocess: this checkout's sources
    and no PATH, with ``PYTHONDONTWRITEBYTECODE`` passed on when it is set."""
    src = Path(latblock.cli.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), "PATH": ""}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


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
    window = LatticeWindow(sites)
    values = np.array([[0.1], [0.2], [0.3], [1.0 / 3.0]])
    path = tmp_path / "field.csv"
    write_field_csv(FieldSample(window, values), str(path))
    back = read_field_csv(str(path))
    assert np.array_equal(back.window.sites, sites)
    assert np.array_equal(back.values, values)


def test_field_csv_text_is_pinned(tmp_path):
    from latblock.estimators import FieldSample
    from latblock.geometry import LatticeWindow

    sites = np.array([[-1, 0, 2], [0, -3, 1]])
    window = LatticeWindow(sites)
    values = np.array([[0.1, -2.5e-300], [1.0 / 3.0, 7e300]])
    path = tmp_path / "field.csv"
    write_field_csv(FieldSample(window, values), str(path))
    assert path.read_bytes() == (
        b"s1,s2,s3,v1,v2\n"
        b"-1,0,2,0.10000000000000001,-2.5e-300\n"
        b"0,-3,1,0.33333333333333331,6.9999999999999998e+300\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]  # no temp file left


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


@pytest.fixture
def field_csv(tmp_path):
    from latblock import Covariogram, Region, Template, build_generator, sample_field, substream
    from latblock.geometry import lattice_sites

    region = Region(Template.hypercube(2), (14, 18))
    gen = build_generator(Covariogram.exp_separable(1.0, 1.0), lattice_sites(region))
    path = tmp_path / "f.csv"
    write_field_csv(sample_field(gen, substream(77, 0)), str(path))
    return str(path)


def test_scale_npi_from_file(capsys, field_csv):
    code, out, _ = run(
        [
            "scale",
            "--method",
            "npi",
            "--data",
            field_csv,
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



@pytest.fixture
def pair_csv(tmp_path, field_csv):
    """The ``field_csv`` field as p = 2 columns (x, x^2)."""
    sample = read_field_csv(field_csv)
    x = sample.values[:, 0]
    path = tmp_path / "pairs.csv"
    write_field_csv(type(sample)(sample.window, np.stack([x, x * x], axis=-1)), str(path))
    return str(path)


@pytest.mark.parametrize("scheme", ["ol", "nol"])
@pytest.mark.parametrize("stat_name", ["mean", "momvar"])
@pytest.mark.parametrize("method", ["npi", "hj"])
def test_scale_prints_the_reference_plan(capsys, field_csv, pair_csv, method, stat_name, scheme):
    from latblock import Region, Template, parse_statistic

    data = field_csv if stat_name == "mean" else pair_csv
    argv = ["scale", "--method", method, "--data", data, "--template", "hypercube:d=2"]
    argv += ["--stat", stat_name, "--scheme", scheme]
    sample, stat = read_field_csv(data), parse_statistic(stat_name)
    region = Region(Template.hypercube(2), (14, 18))
    if method == "npi":
        plan = npi_scaling_reference(sample, region, stat, scheme=scheme)
    else:
        argv += ["--lambda-m", "6", "--min-candidates", "3"]
        plan = hj_scaling_reference(sample, region, stat, 6, scheme=scheme, min_candidates=3)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    want = [
        f"method: {method}",
        f"scheme: {scheme}",
        f"lambda_opt_real: {plan.lambda_opt_real:.17g}",
        f"lambda_opt_int: {plan.lambda_opt_int}",
    ]
    want += [f"diag.{key}: {val}" for key, val in sorted(plan.diagnostics.items())]
    assert out.splitlines() == want


def test_a_closed_stdout_ends_the_command_without_a_traceback(field_csv):
    # the reader is gone before the command starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    argv = ["scale", "--method", "hj", "--lambda-m", "8", "--data", field_csv]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "latblock.cli", *argv, "--template", "hypercube:d=2"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env=cli_env(),
        )
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (1, "")

def test_scale_npi_refuses_pilot_scales_past_the_float_range(field_csv):
    # the region's volume, and so each pilot scale, overflows to inf
    argv = ["--data", field_csv, "--template", "hypercube:d=2", "--region-scale", "1e200,1e200"]
    done = subprocess.run(
        [sys.executable, "-m", "latblock.cli", "scale", "--method", "npi", *argv],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: npi pilot scales are out of range: s1 = inf, s2 = inf (region volume inf)\n"
    )


ESTIMATE = ["estimate", "--stat", "mean"]


@pytest.mark.parametrize(
    "argv",
    [
        [*ESTIMATE, "--scheme", "ol", "--scale", "1e15"],
        [*ESTIMATE, "--scheme", "ol", "--scale", "2", "--region-scale", "1e15,1e15"],
        [*ESTIMATE, "--scheme", "nol", "--scale", "2", "--region-scale", "1e15,1e15"],
        ["scale", "--method", "npi", "--region-scale", "1e15,1e15"],
        ["scale", "--method", "hj", "--lambda-m", "8", "--region-scale", "1e15,1e15"],
        [*ESTIMATE, "--scheme", "ol", "--scale", "1e300"],
        ["scale", "--method", "hj", "--lambda-m", "8", "--region-scale", "1e200,1e200"],
        [*ESTIMATE, "--scheme", "nol", "--scale", "1e-300"],
        [*ESTIMATE, "--scheme", "nol", "--scale", "1e300"],
        "far site",
        "study",
    ],
    ids=[
        "ol-sub-1e15", "ol-region-1e15", "nol-region-1e15", "npi-region-1e15", "hj-region-1e15",
        "ol-sub-1e300", "hj-region-1e200", "nol-sub-1e-300", "nol-sub-1e300", "far-site", "study",
    ],
)
def test_a_lattice_box_past_int64_or_memory_is_refused(capsys, tmp_path, field_csv, argv):
    # a window, subsample copy, cube index box or site table with a corner past
    # int64, or more points than memory holds: one error line, exit 2, no CSV
    out_csv = tmp_path / "out.csv"
    if argv == "far site":
        far = tmp_path / "far.csv"
        rows = [f"{i},{j},0.5" for i in (-1, 0, 1) for j in (-1, 0, 1)]
        far.write_text("\n".join(["s1,s2,v1", *rows, "3000000000,3000000000,0.5"]) + "\n")
        argv = [*ESTIMATE, "--data", str(far), "--template", "hypercube:d=2"]
        argv += ["--region-scale", "3,3", "--scheme", "ol", "--scale", "2", "--csv", str(out_csv)]
    elif argv == "study":
        region = {"name": "r", "template": "hypercube:d=2", "scale": [1e15, 1e15]}
        outputs = {"mse_csv": str(out_csv)}
        argv = ["study", "--config", str(study_config(tmp_path, regions=[region], outputs=outputs))]
    else:
        argv = [*argv, "--data", field_csv, "--template", "hypercube:d=2", "--csv", str(out_csv)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lattice box" in err
    assert not out_csv.exists()


SIMULATE = ["simulate", "--cov", "white", "--template", "hypercube:d=2", "--scale", "4,4", "--seed", "1"]
ON_FIELD = ["--data", "{field}", "--template", "hypercube:d=2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--template", "circle:r=0.5", "--csv", "{dir}"],
        [*ESTIMATE, "--scheme", "ol", "--scale", "4", *ON_FIELD, "--csv", "{dir}"],
        ["scale", "--method", "npi", *ON_FIELD, "--csv", "{dir}"],
        [*SIMULATE, "--out", "{dir}"],
        ["constants", "--template", "circle:r=0.5", "--csv", "{nodir}"],
        [*SIMULATE, "--out", "{nodir}"],
        [*ESTIMATE, "--scheme", "ol", "--scale", "4", "--data", "{dir}", "--template", "hypercube:d=2"],
        ["study", "--config", "{dir}"],
        ["constants", "--template", "hypercube:d=2", "--cov", "table:@{dir}"],
        ["study", "--config", "{bad}"],
        [*ESTIMATE, "--scheme", "ol", "--scale", "4", "--data", "{bad}", "--template", "hypercube:d=2"],
        ["constants", "--template", "hypercube:d=2", "--cov", "table:@{bad}"],
    ],
    ids=[
        "constants-csv-dir", "estimate-csv-dir", "scale-csv-dir", "simulate-out-dir",
        "constants-csv-nodir", "simulate-out-nodir", "estimate-data-dir", "study-config-dir",
        "table-dir", "study-config-not-utf8", "estimate-data-not-utf8", "table-not-utf8",
    ],
)
def test_an_unusable_file_path_is_refused_with_one_error_line(capsys, tmp_path, field_csv, argv):
    # an output path is refused before any work: no stdout, no file, no .tmp file;
    # an input that is a directory, or not UTF-8, is refused naming the file
    (tmp_path / "d").mkdir()
    (tmp_path / "bad").write_bytes(b"s1,s2,v1\n0,0,\xff\n")
    paths = {"dir": tmp_path / "d", "nodir": tmp_path / "nodir" / "k.csv",
             "bad": tmp_path / "bad", "field": field_csv}
    argv = [arg.format(**paths) for arg in argv]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert any(str(paths[key]) in err for key in ("dir", "nodir", "bad"))


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
        # numbers written as text
        ({"replicates": "100"}, "replicates"),
        ({"seed": "7"}, "seed"),
        ({"regions": [{"template": "hypercube:d=2", "scale": ["14", "18"]}]}, "region.scale"),
        ({"selectors": {"npi": {"c1": ["0.5"], "c2": [0.5]}}}, "selectors.npi.c1"),
    ],
)
def test_study_rejects_non_numeric_values(capsys, tmp_path, bad, key):
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert code == 2
    assert err.startswith(f"error: {key}")
    assert not (tmp_path / "mse.csv").exists()


def test_study_with_a_dead_oracle_column_writes_the_grid_but_no_phi(capsys, tmp_path):
    # one NOL cube fits the 10 x 10 box at scales 6 and 9: every cell of the
    # oracle column is dead, which only building its designs finds
    outputs = {f"{name}_csv": str(tmp_path / f"{name}.csv") for name in ("mse", "scaling", "phi")}
    cfg_path = study_config(
        tmp_path,
        covariograms=[{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        schemes=["nol"],
        s_lambda_grid=[6, 9],
        selectors={"npi": {"c1": [0.5], "c2": [0.5]}, "scheme": "nol"},
        outputs=outputs,
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("error: no oracle scale for cell 'r|E'")
    assert (tmp_path / "mse.csv").exists() and (tmp_path / "scaling.csv").exists()
    assert not (tmp_path / "phi.csv").exists()


def count_draws(monkeypatch) -> list:
    """The replicate streams that the study draws from."""
    draws, sample_fields = [], latblock.harness.sample_fields
    monkeypatch.setattr(
        latblock.harness,
        "sample_fields",
        lambda gen, streams: draws.extend(streams) or sample_fields(gen, streams),
    )
    return draws


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seed": 2**64 + 3}, "seed must be in [0, 2^64), got 18446744073709551619"),
        (
            {
                "regions": [{"name": "r", "template": "hypercube:d=3", "scale": [6, 6, 6]}],
                "covariograms": [{"name": "E", "spec": "expsep:b1=1,b2=1"}],
            },
            "covariogram 'expsep:b1=1,b2=1' is 2-dimensional, expected 3",
        ),
    ],
)
def test_a_study_with_an_unusable_seed_or_covariogram_exits_2_before_any_draw(
    capsys, tmp_path, monkeypatch, overrides, message
):
    draws = count_draws(monkeypatch)
    code, out, err = run(["study", "--config", str(study_config(tmp_path, **overrides))], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert draws == []
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"regions": [{"name": "r", "template": "circle:r=0.5,r=0.1", "scale": [10, 10]}]},
            "parameter 'r' is given twice for template 'circle'",
        ),
        (
            {"covariograms": [{"name": "E", "spec": "expsep:b1=1,b1=2,b2=1"}]},
            "covariogram parameter 'b1' is given twice",
        ),
        ({"covariograms": ["white:b=1"]}, "white takes no parameters, got 'b=1'"),
        (
            {"replicates": 2**62, "covariograms": ["white", "expsep:b1=1,b2=1"]},
            "replicates times region|model pairs must be below 2^63, got 4611686018427387904 x 2",
        ),
    ],
)
def test_a_study_with_a_repeated_parameter_or_unindexable_replicates_exits_2_before_any_draw(
    capsys, tmp_path, monkeypatch, overrides, message
):
    draws = count_draws(monkeypatch)
    code, out, err = run(["study", "--config", str(study_config(tmp_path, **overrides))], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert draws == []
    assert not (tmp_path / "mse.csv").exists()


def test_the_largest_indexable_replicate_count_is_accepted(tmp_path):
    two_pairs = ["white", "expsep:b1=1,b2=1"]
    cfg_path = study_config(tmp_path, replicates=2**62 - 1, covariograms=two_pairs)
    cfg = json.loads(cfg_path.read_text())
    assert latblock.harness.config_from_dict(cfg).replicates == 2**62 - 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["circle:r=0.5,r=0.1"], "parameter 'r' is given twice for template 'circle'"),
        (["hypercube:d=2,d=3"], "parameter 'd' is given twice for template 'hypercube'"),
        (["hypercube:d=2", "--cov", "expsep:b1=1,b1=2,b2=1"], "covariogram parameter 'b1'"),
        (["hypercube:d=2", "--cov", "gaussiso:b=1,b=2"], "covariogram parameter 'b'"),
        (["hypercube:d=2", "--cov", "white:b=1"], "white takes no parameters, got 'b=1'"),
    ],
)
def test_constants_refuses_repeated_or_unused_parameters(capsys, argv, message):
    code, out, err = run(["constants", "--template", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_a_study_with_unindexable_replicates_exits_2_without_a_traceback(tmp_path):
    cfg = study_config(tmp_path, replicates=2**63)
    done = subprocess.run(
        [sys.executable, "-m", "latblock.cli", "study", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120, env=cli_env(),
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == 2
    assert done.stderr.startswith("error: replicates times region|model pairs must be below 2^63")
    assert not (tmp_path / "mse.csv").exists()


def test_constants_with_a_covariogram_of_another_dimension_exits_2(capsys):
    argv = ["constants", "--template", "hypercube:d=2", "--cov", "expsep:b1=1,b2=1,b3=1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: covariogram 'expsep:b1=1,b2=1,b3=1' is 3-dimensional, expected 2\n"


@pytest.mark.parametrize("key", [["--seed", str(2**64 + 3)], ["--seed", "3", "--replicate", str(2**64)]])
def test_simulate_refuses_a_key_past_64_bits(capsys, tmp_path, key):
    out = tmp_path / "f.csv"
    argv = ["simulate", "--cov", "white", "--template", "hypercube:d=2", "--scale", "6,6"]
    code, _, err = run([*argv, *key, "--out", str(out)], capsys)
    assert (code, err) == (2, "error: seed and replicate index must be in [0, 2^64)\n")
    assert not out.exists()


def test_a_selector_study_over_a_dead_oracle_column_draws_no_field(capsys, tmp_path, monkeypatch):
    # 'dead' is the 10 x 10 box above with every oracle cell dead; 'live' comes
    # first, so a study that found the dead column only by running it would
    # draw live's 100 replicates before refusing
    draws = count_draws(monkeypatch)
    box = {"template": "hypercube:d=2", "scale": [10, 10]}
    cfg_path = study_config(
        tmp_path,
        regions=[{"name": "live", **box}, {"name": "dead", **box}],
        covariograms=[{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        schemes=["nol"],
        s_lambda_grid={"live": [2, 3], "dead": [6, 9]},
        selectors={"npi": {"c1": [0.5], "c2": [0.5]}, "scheme": "nol"},
        outputs={"phi_csv": str(tmp_path / "phi.csv")},
    )
    code, out, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: no oracle scale for cell 'dead|E': its oracle MSE cells are dead\n"
    assert draws == []
    assert not (tmp_path / "phi.csv").exists()


def test_a_momvar_study_missing_a_pair_tau_n_sq_draws_no_field(capsys, tmp_path, monkeypatch):
    draws = count_draws(monkeypatch)
    cfg_path = study_config(
        tmp_path,
        covariograms=[
            {"name": "white", "spec": "white"},
            {"name": "E", "spec": "expsep:b1=1,b2=1"},
        ],
        statistic="momvar",
        tau_n_sq={"r|white": 2.0},  # none for r|E
    )
    code, out, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: normalized MSE needs tau_n_sq overrides for nonlinear statistics\n"
    assert draws == []
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "outputs, message",
    [
        (
            {"mse_csv": "a.csv", "scaling_csv": "./a.csv"},
            "outputs.mse_csv and outputs.scaling_csv name the same file './a.csv'",
        ),
        (
            {"scaling_csv": "out/../s.csv", "mse_csv": "m.csv", "phi_csv": "s.csv"},
            "outputs.scaling_csv and outputs.phi_csv name the same file 's.csv'",
        ),
        (
            {"mse_csv": "nodir/mse.csv"},
            "outputs.mse_csv: the directory of 'nodir/mse.csv' does not exist",
        ),
        ({"mse_csv": "out"}, "outputs.mse_csv: 'out' is a directory"),
    ],
)
def test_study_refuses_outputs_it_cannot_write_before_any_draw(
    capsys, tmp_path, monkeypatch, outputs, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    draws = count_draws(monkeypatch)
    selectors = {"npi": {"c1": [0.5], "c2": [0.5]}}
    cfg_path = study_config(tmp_path, outputs=outputs, selectors=selectors)
    code, out, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert draws == []
    assert not list(tmp_path.rglob("*.csv"))


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


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"regions": []}, "config needs at least one region"),
        ({"covariograms": []}, "config needs at least one covariogram"),
        ({"sub_templates": ["circle:r=0.5", "circle:r=0.5"]}, "sub-template names must be unique"),
        ({"s_lambda_grid": [0]}, "subsample scales must be positive integers"),
        ({"tau_n_sq": [1.0]}, "tau_n_sq must be a map of region|model -> number"),
        ({"selectors": [{"npi": {"c1": [0.5], "c2": [0.5]}}]}, "selectors must be a JSON object"),
    ],
)
def test_study_refuses_configs_that_name_no_study(capsys, tmp_path, bad, message):
    code, out, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "mse.csv").exists()


def test_study_refuses_a_config_that_is_not_json(capsys, tmp_path):
    path = study_config(tmp_path)
    path.write_text(path.read_text()[:-1])  # the closing brace is cut off
    code, out, err = run(["study", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {str(path)!r} is not valid JSON: ")
    assert len(err.splitlines()) == 1
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


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "data file not found: {path}"),
        ("", "empty data file: {path}"),
        ("\n  \n", "empty data file: {path}"),
        ("s1,s2,v1\n", "no data rows in {path}"),
    ],
)
def test_estimate_refuses_a_field_csv_without_data(capsys, tmp_path, text, message):
    path = tmp_path / "field.csv"
    if text is not None:
        path.write_text(text)
    argv = ["--template", "hypercube:d=2", "--scheme", "ol", "--scale", "2", "--stat", "mean"]
    code, out, err = run(["estimate", "--data", str(path), *argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("header", ["v1,s1,s2", "s2,s1,v1", "s1,s2,v2"])
def test_field_csv_refuses_columns_out_of_order(tmp_path, header):
    path = tmp_path / "field.csv"
    path.write_text(f"{header}\n0,0,1.5\n0,1,2.5\n")
    with pytest.raises(ConfigError, match="header must be s1,...,sd,v1,...,vp"):
        read_field_csv(str(path))
    # case and spaces around the names do not matter
    path.write_text(" S1, s2 ,V1\n0,0,1.5\n0,1,2.5\n")
    assert read_field_csv(str(path)).values.tolist() == [[1.5], [2.5]]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("expsep:b1=abc,b2=1", "covariogram b1 must be a number"),
        ("gaussiso:b=x", "covariogram b must be a number"),
        ("expsep:b1=nan,b2=1", "covariogram b1 must be positive and finite"),
        ("gaussiso:b=inf", "covariogram b must be positive and finite"),
    ],
)
def test_bad_covariogram_parameters_exit_2(capsys, tmp_path, spec, message):
    code, _, err = run(["constants", "--template", "hypercube:d=2", "--cov", spec], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    cfg_path = study_config(tmp_path, covariograms=[{"name": "bad", "spec": spec}])
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,0,1.0", "0.5,0,0.25"], "line 3: lags must be integers"),
        (["0,0,1.0", "1,0,inf", "-1,0,inf"], "line 3: sigma must be finite"),
        (["0,0,1.0", "1,0,abc", "-1,0,abc"], "line 3: sigma must be a number"),
        (["0,0,1.0", "1,0.5"], "line 3: row has 2 fields, header has 3"),
        (["0,0,1.0", "1,0,0.5,7"], "line 3: row has 4 fields, header has 3"),
    ],
)
def test_bad_covariogram_table_rows_exit_2(capsys, tmp_path, rows, message):
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(["k1,k2,sigma", *rows]) + "\n")
    code, _, err = run(
        ["constants", "--template", "hypercube:d=2", "--cov", f"table:@{path}"], capsys
    )
    assert code == 2
    assert err.startswith(f"error: {path} {message}")


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"regions": 5}, "regions"),
        ({"covariograms": 7}, "covariograms"),
        ({"regions": [{"template": 5, "scale": [10, 10]}]}, "region.template"),
        ({"covariograms": [{"name": "c", "spec": 3}]}, "covariogram.spec"),
        ({"sub_templates": [{"spec": 2}]}, "sub_template.spec"),
        ({"sub_templates": "same"}, "sub_templates"),
        ({"schemes": "ol"}, "schemes"),
        ({"outputs": {"mse_csv": 5}}, "outputs.mse_csv"),
    ],
)
def test_study_rejects_values_of_the_wrong_shape(capsys, tmp_path, bad, key):
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert code == 2
    assert err.startswith(f"error: {key} must be a")
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "selectors, regions",
    [
        ({"hj": {"lambda_m": [1]}}, None),  # lambda_m below 2
        ({"hj": {"lambda_m": [10]}}, None),  # not below the region's scale
        ({"hj": {"lambda_m": [8]}}, [[10, 10], [7, 12]]),  # not below the second region's
        ({"hj": {"lambda_m": [7], "candidates": [0, 2, 3, 4, 5]}}, None),
        ({"hj": {"lambda_m": [7], "candidates": [2, 3, 4, 5, 7]}}, None),
        ({"hj": {"lambda_m": [7], "candidates": [2, 3, 4]}}, None),  # fewer than 5
        ({"hj": {"lambda_m": [5]}}, None),  # the default range(2, 5) holds 3
        ({"hj": {"lambda_m": [7], "candidates": [2, 3], "min_candidates": 3}}, None),
        ({"npi": {"c1": [0.5, 0.0], "c2": [0.5]}}, None),
        ({"npi": {"c1": [0.5], "c2": [-1.0]}}, None),
    ],
)
def test_study_refuses_selector_settings_before_any_work(capsys, tmp_path, selectors, regions):
    regions = regions or [[10, 10]]
    outputs = {"mse_csv": str(tmp_path / "mse.csv"), "phi_csv": str(tmp_path / "phi.csv")}
    cfg_path = study_config(
        tmp_path,
        regions=[
            {"name": f"r{i}", "template": "hypercube:d=2", "scale": scale}
            for i, scale in enumerate(regions)
        ],
        selectors=selectors,
        outputs=outputs,
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("error: selectors")
    assert not any(tmp_path.glob("*.csv"))


def test_study_refuses_s_lambda_opt_keys_that_name_no_pair(capsys, tmp_path):
    cfg_path = study_config(
        tmp_path,
        covariograms=[{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        selectors={
            "npi": {"c1": [0.5], "c2": [0.5]},
            "s_lambda_opt": {"r|E": 4, "r|EE": 3, "typo": 2},
        },
        outputs={"mse_csv": str(tmp_path / "mse.csv"), "phi_csv": str(tmp_path / "phi.csv")},
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith(
        "error: selectors.s_lambda_opt names no region|model pair: 'r|EE', 'typo'"
    )
    assert not any(tmp_path.glob("*.csv"))


HJ = {"lambda_m": [8], "candidates": [2, 3, 4, 5, 6, 7]}
NPI = {"c1": [0.5], "c2": [0.5]}


@pytest.mark.parametrize(
    "selectors, message",
    [
        ({"npi": {"c1": [0.5, 0.5], "c2": [0.5]}}, "selectors.npi.c1 repeats an entry"),
        ({"npi": {"c1": [0.5], "c2": [0.5, 1.0, 0.5]}}, "selectors.npi.c2 repeats an entry"),
        ({"hj": {**HJ, "lambda_m": [8, 8]}}, "selectors.hj.lambda_m repeats an entry"),
        ({"hj": {**HJ, "candidates": [2, 2, 3, 3, 4]}}, "selectors.hj.candidates repeats"),
        (
            {"hj": {**HJ, "min_candidates": -3}},
            "selectors on region 'r': min_candidates must be at least 1, got -3",
        ),
        (
            {"hj": {**HJ, "candidates": [], "min_candidates": 0}},
            "selectors on region 'r': min_candidates must be at least 1, got 0",
        ),
        (
            {"npi": {"c1": [0.5], "c2": [0.5]}, "s_lambda_opt": {"r|E": 40}},
            "selectors.s_lambda_opt['r|E'] must be at least 1 and below 14, got 40",
        ),
        (
            {"npi": {"c1": [0.5], "c2": [0.5]}, "s_lambda_opt": {"r|E": 14}},
            "selectors.s_lambda_opt['r|E'] must be at least 1 and below 14, got 14",
        ),
        (
            {"npi": {"c1": [0.5], "c2": [0.5]}, "s_lambda_opt": {"r|E": 0}},
            "selectors.s_lambda_opt['r|E'] must be at least 1",
        ),
        # keys that make no setting
        ({"npi": {"c1": [0.5, 1.0]}}, "selectors.npi.c1 needs selectors.npi.c2"),
        ({"npi": {"c1": [0.5], "c2": []}, "hj": HJ}, "selectors.npi.c1 needs selectors.npi.c2"),
        ({"npi": {"c2": [0.5]}, "hj": HJ}, "selectors.npi.c2 needs selectors.npi.c1"),
        (
            {"hj": {"candidates": [-3, 40], "min_candidates": 1}},
            "selectors.hj.candidates needs selectors.hj.lambda_m",
        ),
        (
            {"npi": NPI, "hj": {"min_candidates": 2}},
            "selectors.hj.min_candidates needs selectors.hj.lambda_m",
        ),
        (
            {"npi": NPI, "hj": {"lambda_m": [], "candidates": [2, 3]}},
            "selectors.hj.candidates needs selectors.hj.lambda_m",
        ),
    ],
)
def test_study_refuses_repeated_or_out_of_range_selector_settings(
    capsys, tmp_path, selectors, message
):
    cfg_path = study_config(
        tmp_path,
        regions=[{"name": "r", "template": "hypercube:d=2", "scale": [14, 18]}],
        covariograms=[{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        selectors={"s_lambda_opt": {"r|E": 4}, **selectors},
        outputs={"phi_csv": str(tmp_path / "phi.csv")},
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "npi, message",
    [
        ({"c1": [0.5, 4.0], "c2": [0.5]}, "s1 = 16 and 2*s2 = 2 (c1 = 4.0, c2 = 0.5)"),
        ({"c1": [0.5], "c2": [3.0]}, "s1 = 2 and 2*s2 = 16 (c1 = 0.5, c2 = 3.0)"),
    ],
)
def test_study_refuses_npi_pilot_scales_outside_the_region(capsys, tmp_path, npi, message):
    cfg_path = study_config(
        tmp_path,
        regions=[{"name": "r", "template": "hypercube:d=2", "scale": [14, 18]}],
        covariograms=[{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        selectors={"s_lambda_opt": {"r|E": 4}, "npi": npi},
        outputs={"phi_csv": str(tmp_path / "phi.csv")},
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: selectors on region 'r': npi pilot scales {message}")
    assert "below min(region scale) = 14" in err
    assert not any(tmp_path.glob("*.csv"))


TWO_MODELS = [{"name": "E", "spec": "expsep:b1=1,b2=1"}, {"name": "white", "spec": "white"}]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"selectors": {}}, "phi study needs at least one selector setting"),
        ({"selectors": {"scheme": "nol"}}, "phi study needs at least one selector setting"),
        (
            {"covariograms": TWO_MODELS, "selectors": {"npi": NPI, "s_lambda_opt": {"r|E": 4}}},
            "no oracle scale for cell 'r|white': selectors.s_lambda_opt does not name it",
        ),
        (
            {"schemes": ["ol"], "selectors": {"npi": NPI, "scheme": "nol"}},
            "no oracle scale for cell 'r|E': no MSE cell runs selector scheme 'nol'"
            " on sub_template 'same'",
        ),
        (
            {"sub_templates": ["circle:r=0.5"], "selectors": {"npi": NPI}},
            "no oracle scale for cell 'r|E': no MSE cell runs selector scheme 'ol'"
            " on sub_template 'same'",
        ),
        (
            {"s_lambda_grid": {}, "selectors": {"npi": NPI}},
            "no oracle scale for cell 'r|E': the s_lambda_grid of region 'r' is empty",
        ),
    ],
)
def test_study_refuses_a_selector_study_that_cannot_run(capsys, tmp_path, bad, message):
    outputs = {"mse_csv": str(tmp_path / "mse.csv"), "phi_csv": str(tmp_path / "phi.csv")}
    config = {
        "regions": [{"name": "r", "template": "hypercube:d=2", "scale": [14, 18]}],
        "covariograms": [{"name": "E", "spec": "expsep:b1=1,b2=1"}],
        "s_lambda_grid": [2, 3, 4],
        "outputs": outputs,
        **bad,
    }
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **config))], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", [["--c1", "4"], ["--c2", "3"]])
def test_scale_npi_refuses_pilot_scales_outside_the_region(capsys, field_csv, flags):
    argv = ["scale", "--method", "npi", "--data", field_csv, "--template", "hypercube:d=2"]
    code, out, err = run([*argv, *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: npi pilot scales")


@pytest.mark.parametrize(
    "candidates, message",
    [
        ("3,3,3,3,3", "candidates repeat [3]: [3, 3, 3, 3, 3]"),
        ("7,2,5,3,5,2,6", "candidates repeat [2, 5]: [2, 2, 3, 5, 5, 6, 7]"),
    ],
)
def test_scale_hj_refuses_repeated_candidates(capsys, field_csv, candidates, message):
    argv = ["scale", "--method", "hj", "--lambda-m", "8", "--data", field_csv]
    code, out, err = run([*argv, "--template", "hypercube:d=2", "--candidates", candidates], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


THEORY = ["scale", "--method", "theory", "--template", "hypercube:d=2"]
ON_FILE = ["--data", "DATA", "--template", "hypercube:d=2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*THEORY, "--cov", "expsep:b1=1,b2=1", "--det-delta", "nan"], "det_delta must be"),
        ([*THEORY, "--cov", "expsep:b1=1,b2=1", "--det-delta", "inf"], "det_delta must be"),
        (
            [*THEORY, "--det-delta", "1e308", "--b0", "100", "--tau2", "1"],
            "the optimal scale is out of range",
        ),
        (
            [*THEORY, "--det-delta", "1", "--b0", "1e200", "--tau2", "1"],
            "the optimal scale is out of range",
        ),
        (
            [*THEORY, "--det-delta", "1", "--b0", "1", "--tau2", "1e-200"],
            "the optimal scale is out of range",
        ),
        (["scale", "--method", "npi", *ON_FILE, "--c1", "nan"], "pilot constants must be"),
        (["scale", "--method", "npi", *ON_FILE, "--c2", "inf"], "pilot constants must be"),
        (
            ["scale", "--method", "hj", "--lambda-m", "8", *ON_FILE, "--min-candidates", "-3"],
            "min_candidates must be at least 1, got -3",
        ),
        (
            ["estimate", *ON_FILE, "--scheme", "ol", "--scale", "inf", "--stat", "mean"],
            "subsample scale must be positive and finite",
        ),
        (
            ["estimate", *ON_FILE, "--scheme", "ol", "--scale", "nan", "--stat", "mean"],
            "subsample scale must be positive and finite",
        ),
        (
            ["simulate", "--cov", "expsep:b1=1,b2=1", "--template", "hypercube:d=2",
             "--scale", "14,nan", "--seed", "7", "--out", "OUT"],
            "scaling entries must be positive and finite",
        ),
    ],
)
def test_cli_refuses_numbers_no_setting_can_use(capsys, tmp_path, field_csv, argv, message):
    out_path = tmp_path / "out.csv"
    argv = [{"DATA": field_csv, "OUT": str(out_path)}.get(a, a) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert not out_path.exists()


def test_commands_that_draw_no_field_load_no_scipy(field_csv, tmp_path):
    csv = str(tmp_path / "out.csv")
    commands = [
        ["constants", "--template", "circle:r=0.5", "--cov", "expsep:b1=1,b2=1"],
        ["estimate", *ON_FILE, "--scheme", "ol", "--scale", "4", "--stat", "mean"],
        [*THEORY, "--det-delta", "1260", "--cov", "expsep:b1=1,b2=1"],
        ["scale", "--method", "npi", *ON_FILE],
        ["scale", "--method", "hj", "--lambda-m", "8", *ON_FILE],
    ]
    commands += [argv + ["--csv", csv] for argv in commands[:4]]
    commands = [[field_csv if a == "DATA" else a for a in argv] for argv in commands]
    script = "\n".join([
        "import contextlib, io, json, os, sys",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "import latblock",
        "steps = {'import latblock': scipy_modules()}",
        "import latblock.cli",
        "steps['import latblock.cli'] = scipy_modules()",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert latblock.cli.main(argv) == 0, argv",
        "    steps[' '.join(argv[:3]) + ' --csv' * ('--csv' in argv)] = scipy_modules()",
        "    if '--csv' in argv:",
        "        os.remove(argv[-1])  # written, and the next command writes it again",
        "steps['harness'] = latblock.harness.__name__",
        "print(json.dumps(steps))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, check=True, env=cli_env(),
    )
    steps = json.loads(out.stdout)
    assert steps.pop("harness") == "latblock.harness"
    assert list(steps) == [
        "import latblock",
        "import latblock.cli",
        "constants --template circle:r=0.5",
        "estimate --data " + field_csv,
        "scale --method theory",
        "scale --method npi",
        "scale --method hj",
        "constants --template circle:r=0.5 --csv",
        "estimate --data " + field_csv + " --csv",
        "scale --method theory --csv",
        "scale --method npi --csv",
    ]
    assert steps == {step: [] for step in steps}


def test_study_accepts_and_ignores_workers_flag(capsys, tmp_path):
    cfg_path = study_config(tmp_path)
    assert run(["study", "--config", str(cfg_path)], capsys)[0] == 0
    serial = (tmp_path / "mse.csv").read_bytes()
    assert run(["study", "--config", str(cfg_path), "--workers", "3"], capsys)[0] == 0
    assert (tmp_path / "mse.csv").read_bytes() == serial


def test_study_refuses_regions_of_different_dimensions(capsys, tmp_path):
    cfg_path = study_config(
        tmp_path,
        regions=[
            {"name": "square", "template": "hypercube:d=2", "scale": [10, 10]},
            {"name": "ball", "template": "sphere:r=0.5", "scale": [6, 6, 6]},
        ],
    )
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("error: regions must share one dimension")
    assert not (tmp_path / "mse.csv").exists()


def test_study_refuses_a_sub_template_of_another_dimension(capsys, tmp_path):
    cfg_path = study_config(tmp_path, sub_templates=["same", "sphere:r=0.5"])
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("error: sub-template 'sphere:r=0.5' has d = 3")
    assert "the regions have d = 2" in err
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"s_lambda_grid": [2, 2, 3]}, "s_lambda_grid for region 'r' repeats a scale"),
        ({"s_lambda_grid": {"rr": [2, 3]}}, "s_lambda_grid names no region: 'rr'"),
        ({"s_lambda_grid": {"r": [1, 2], "rr": [2]}}, "s_lambda_grid names no region: 'rr'"),
        ({"schemes": ["ol", "OL"]}, "schemes must not repeat a scheme"),
        ({"tau_n_sq": {"r|whit": 1.0}}, "tau_n_sq names no region|model pair: 'r|whit'"),
        ({"tau_n_sq": {"r|white": -1.0}}, "tau_n_sq['r|white'] must be positive"),
        ({"tau_n_sq": {"r|white": 0}}, "tau_n_sq['r|white'] must be positive"),
        ({"outputs": {"mse_csv": ""}}, "outputs.mse_csv must not be empty"),
    ],
)
def test_study_refuses_configs_that_would_run_wrongly(capsys, tmp_path, bad, message):
    code, _, err = run(["study", "--config", str(study_config(tmp_path, **bad))], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize(
    "bad, message",
    [
        (
            {"covariograms": [
                {"name": "E", "spec": "expsep:b1=1,b2=1"},
                {"name": "E", "spec": "gausssep:b1=0.5,b2=0.3"},
            ]},
            "covariogram names must be unique",
        ),
        ({"covariograms": ["white", "white"]}, "covariogram names must be unique"),
        (
            {"covariograms": [{"name": {"x": 1}, "spec": "white"}]},
            "covariogram.name must be a string, got {'x': 1}",
        ),
        (
            {"covariograms": [{"name": ["a"], "spec": "white"}]},
            "covariogram.name must be a string, got ['a']",
        ),
        (
            {"regions": [{"name": 7, "template": "hypercube:d=2", "scale": [10, 10]}],
             "s_lambda_grid": {"7": [1, 2]}},
            "region.name must be a string, got 7",
        ),
        (
            {"regions": [{"name": ["a"], "template": "hypercube:d=2", "scale": [10, 10]}]},
            "region.name must be a string, got ['a']",
        ),
        (
            {"sub_templates": ["same", {"name": 7, "spec": "circle:r=0.5"}]},
            "sub_template.name must be a string, got 7",
        ),
        (
            {"sub_templates": [{"name": {"x": 1}, "spec": "circle:r=0.5"}]},
            "sub_template.name must be a string, got {'x': 1}",
        ),
    ],
)
def test_study_refuses_names_that_are_not_unique_strings(capsys, tmp_path, bad, message):
    outputs = {
        "mse_csv": str(tmp_path / "mse.csv"),
        "scaling_csv": str(tmp_path / "scaling.csv"),
    }
    cfg_path = study_config(tmp_path, outputs=outputs, **bad)
    code, _, err = run(["study", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not any(tmp_path.glob("*.csv"))
