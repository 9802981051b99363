"""Workload definitions: inputs generated from the seed, and the calls that run them.

Every workload maps its seed to one of ``SLOTS`` input sets.  Each slot has
output values recorded at the reference commit (``reference/<name>.json``),
which is what lets every run check its outputs, whatever seed it is given.
The module imports only the standard library; latblock is imported inside
the functions that need it, so that the parent process never loads it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SLOTS = 16

STUDY = "study"
CONSTANTS = "constants"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # STUDY or CONSTANTS
    make_config: callable  # slot -> JSON-able dict


def study_seed(slot: int) -> int:
    return 20260810 + 7919 * slot


def _mse_rect(slot: int) -> dict:
    return {
        "regions": [{"name": "rect30x42", "template": "hypercube:d=2", "scale": [30, 42]}],
        "covariograms": [
            {"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"},
            {"name": "G(0.5,0.3)", "spec": "gausssep:b1=0.5,b2=0.3"},
        ],
        "statistic": "mean",
        "schemes": ["ol", "nol"],
        "sub_templates": ["same"],
        "s_lambda_grid": list(range(2, 11)),
        "replicates": 300,
        "seed": study_seed(slot),
        "workers": 2,
        "outputs": {"mse_csv": "mse.csv", "scaling_csv": "scaling.csv"},
    }


def _mse_disk(slot: int) -> dict:
    return {
        "regions": [{"name": "disk40", "template": "circle:r=0.5", "scale": [40, 40]}],
        "covariograms": [{"name": "GI(0.5)", "spec": "gaussiso:b=0.5"}],
        "statistic": "mean",
        "schemes": ["ol", "nol"],
        "sub_templates": ["same", "hypercube:d=2"],
        "s_lambda_grid": list(range(3, 9)),
        "replicates": 200,
        "seed": study_seed(slot),
        "workers": 1,
        "outputs": {"mse_csv": "mse.csv"},
    }


def _phi_select(slot: int) -> dict:
    return {
        "regions": [{"name": "rect14x18", "template": "hypercube:d=2", "scale": [14, 18]}],
        "covariograms": [{"name": "E(1,1)", "spec": "expsep:b1=1,b2=1"}],
        "statistic": "mean",
        "schemes": ["ol"],
        "replicates": 100,
        "seed": study_seed(slot),
        "workers": 1,
        "selectors": {
            "npi": {"c1": [0.5, 1.0], "c2": [0.5]},
            "hj": {"lambda_m": [8], "candidates": [2, 3, 4, 5, 6, 7]},
            "scheme": "ol",
            "s_lambda_opt": {"rect14x18|E(1,1)": 4},
        },
        "outputs": {"phi_csv": "phi.csv"},
    }


TEMPLATES = (
    "hypercube:d=2",
    "circle:r=0.5",
    "righttri",
    "isotri",
    "trapezoid:b1=0.5,b2=1",
    "hex:l=0.5",
    "parallelogram:gamma=1.2,l1=0.6,l2=0.5",
    "rotrect:theta=0.7854,l1=0.7071,l2=0.7071",
    "sphere:r=0.5",
)


def _shape_constants(slot: int) -> dict:
    # The seed shuffles the template order and moves each decay rate by at
    # most 1%: a wider band changes how many lattice shells b0 sums, and with
    # it the run time, so different seeds would not time the same work.
    rng = random.Random(slot)
    order = list(TEMPLATES)
    rng.shuffle(order)
    items = []
    for spec in order:
        d = 3 if spec.startswith("sphere") else 2
        betas = ",".join(f"b{i + 1}={rng.uniform(0.99, 1.01):.4f}" for i in range(d))
        items.append({"template": spec, "cov": f"expsep:{betas}"})
    return {"templates": items}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mse_rect", STUDY, _mse_rect),
        Workload("mse_disk", STUDY, _mse_disk),
        Workload("phi_select", STUDY, _phi_select),
        Workload("shape_constants", CONSTANTS, _shape_constants),
    )
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def load_reference(name: str, slot: int) -> dict:
    data = json.loads((HERE / "reference" / f"{name}.json").read_text())
    return data["slots"][str(slot)]


def operations_per_call(workload: Workload, raw: dict) -> int:
    """Replicate-model pairs for a study, templates for the constants sweep."""
    if workload.kind == CONSTANTS:
        return len(raw["templates"])
    return raw["replicates"] * len(raw["regions"]) * len(raw["covariograms"])


# ---------------------------------------------------------------------------
# calls into latblock (import it first)
# ---------------------------------------------------------------------------


def validate(kind: str, raw: dict):
    """Parse the generated inputs the way the program does before any work."""
    from latblock.covariance import parse_covariogram
    from latblock.geometry import parse_template
    from latblock.harness import config_from_dict

    if kind == STUDY:
        return config_from_dict(raw)
    for item in raw["templates"]:
        parse_covariogram(item["cov"], d=parse_template(item["template"]).d)
    return raw


def run_call(kind: str, raw: dict, config_path: Path):
    """The timed end-to-end call, made in the current directory.

    A study returns the CLI exit code; the constants sweep returns one record
    per template, holding the values ``latblock constants`` printed, the
    quadrature k0, and the CLI exit code (or the error that was raised).
    """
    import latblock.cli
    import latblock.constants
    import latblock.geometry

    if kind == STUDY:
        with contextlib.redirect_stdout(io.StringIO()):
            return latblock.cli.main(["study", "--config", str(config_path)])
    records = {}
    for item in raw["templates"]:
        spec = item["template"]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = latblock.cli.main(["constants", "--template", spec, "--cov", item["cov"]])
            printed = dict(
                line.split(": ", 1) for line in buf.getvalue().splitlines() if ": " in line
            )
            record = {k: float(printed[k]) for k in ("volume", "k0", "k1", "tau_sq", "b0") if k in printed}
            record["k0_numeric"] = latblock.constants.k0_numeric(latblock.geometry.parse_template(spec))
            record["rc"] = rc
        except Exception as exc:  # one template's failure must not hide the others
            record = {"error": f"{type(exc).__name__}: {exc}"}
        records[spec] = record
    return records


def oracle_values(config) -> dict:
    """Exact tau_n^2 of every (region, model) pair by the lag and the pair sums."""
    from latblock.covariance import exact_tau_n_sq_window
    from latblock.geometry import lattice_sites

    out = {}
    for reg in config.regions:
        window = lattice_sites(reg.region())
        for name, cov in config.covariograms:
            out[f"{reg.name}|{name}"] = [
                exact_tau_n_sq_window(window, cov, "lags"),
                exact_tau_n_sq_window(window, cov, "pairs"),
            ]
    return out
