"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per input slot, in this process, and writes
``perfbench/reference/<workload>.json``.  The files hold the outputs of the
commit they were recorded at (named inside them); re-recording after a
change to latblock would make the checks compare the change with itself,
so do it only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONSTANT_KEYS = ("volume", "k0", "k1", "tau_sq", "b0")


def record_slot(workload, slot: int, workdir: Path) -> dict:
    raw = workload.make_config(slot)
    config = workloads.validate(workload.kind, raw)
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(raw))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        outcome = workloads.run_call(workload.kind, raw, config_path)
    finally:
        os.chdir(cwd)
    if workload.kind == workloads.CONSTANTS:
        reference = {spec: {k: rec[k] for k in CONSTANT_KEYS} for spec, rec in outcome.items()}
        _, failures = checks.check_constants(reference, outcome)
    else:
        if outcome != 0:
            raise SystemExit(f"{workload.name} slot {slot}: latblock study exited {outcome}")
        reference = {name: checks.read_csv(workdir / name) for name in raw["outputs"].values()}
        _, failures = checks.check_study(reference, workdir, workloads.oracle_values(config))
    if failures:
        raise SystemExit(f"{workload.name} slot {slot}: {failures[0]}")
    return reference


def main(names) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        slots = {}
        for slot in range(workloads.SLOTS):
            slots[str(slot)] = record_slot(workload, slot, ROOT / ".perfbench" / "reference" / f"{name}-{slot}")
            print(f"{name}: slot {slot} recorded", flush=True)
        out = {"workload": name, "recorded_at_commit": commit, "slots": slots}
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
