"""latblock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(child.py) that imports latblock from ``src/``, validates the generated
inputs, warms BLAS and FFT, and makes one end-to-end call.  Samples run
one after another until ``--seconds`` is spent (at least ``MIN_UNTRACED``),
and every sample's outputs are checked.  With ``--trace 1``, untraced and
traced samples alternate and per-layer metrics are reported instead.

Times are reported at a fixed machine speed.  A shared host runs this code
faster or slower by tens of percent for minutes at a time, so each sample
also times a fixed calibration kernel just before and just after its call,
and its ``wall_s`` and ``setup_s`` are multiplied by
``REFERENCE_CALIBRATION_S`` over the median of the kernel times nearest to
it (``speed_factors``).  The record keeps every sample's unscaled times,
kernel times and factor.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment and every sample, goes to
``.perfbench/<workload>-seed<N>-trace<T>-<pid>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNTRACED = 4  # setup_s and wall_s are medians of at least this many samples
CHILD_TIMEOUT_S = 120
# Seconds child.calibrate() takes when the reference machine, a 2-core x86_64
# VM, runs at its usual speed; reported times are scaled to that speed.
REFERENCE_CALIBRATION_S = 0.4
END_TO_END = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(seed: int, slot: int) -> dict:
    commit = None  # a checkout without git history; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "input_slot": slot,
    }


def run_sample(workload, config_path: Path, workdir: Path, trace: bool) -> dict:
    """Run one child; returns its result, or {"error": ...} if it did not finish."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--kind", workload.kind,
           "--config", str(config_path), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "elapsed_s": CHILD_TIMEOUT_S}
    elapsed = time.perf_counter() - started
    result_file = workdir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}", "elapsed_s": elapsed}
    result = json.loads(result_file.read_text())
    result["elapsed_s"] = elapsed
    return result


def speed_factors(samples: list) -> list:
    """Per sample, the multiplier that brings its times to the reference speed.

    A sample's factor uses the kernel times nearest to it: its own two and
    those of the samples just before and after it.  One kernel time varies
    more than one call does, so pooling steadies the factor, and a window of
    three samples still follows the machine when its speed changes mid-run.
    """
    factors = []
    for i in range(len(samples)):
        near = [t for s in samples[max(0, i - 1):i + 2] for t in s["calibration_s"]]
        factors.append(REFERENCE_CALIBRATION_S / statistics.median(near))
    return factors


def check_sample(workload, reference: dict, result: dict, workdir: Path) -> tuple:
    """(attempted, failure messages) for one sample."""
    expected = len(reference) if workload.kind == workloads.CONSTANTS else sum(
        len(table) - 1 for table in reference.values()
    )
    if "error" in result:
        return expected, [result["error"]] * expected
    if workload.kind == workloads.CONSTANTS:
        return checks.check_constants(reference, result["records"])
    if result["rc"] != 0:
        return expected, [f"latblock study exited {result['rc']}"] * expected
    return checks.check_study(reference, workdir, result["oracle"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latblock" / "__init__.py").is_file():
        print(f"error: no latblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    slot = workloads.slot_of(args.seed)
    raw = workload.make_config(slot)
    reference = workloads.load_reference(workload.name, slot)
    run_dir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(raw, indent=1))

    # A traced run alternates untraced and traced samples, so the overhead
    # compares samples taken while the machine ran at the same speed.
    kinds = [False, True] if args.trace else [False]
    deadline = time.perf_counter() + args.seconds
    samples = []
    longest = 0.0
    attempted = 0
    failures = []
    while True:
        traced = kinds[len(samples) % len(kinds)]
        done_min = len(samples) >= (2 if args.trace else MIN_UNTRACED)
        if done_min and time.perf_counter() + longest > deadline:
            break
        workdir = run_dir / f"sample{len(samples):03d}{'-traced' if traced else ''}"
        result = run_sample(workload, config_path, workdir, traced)
        longest = max(longest, result["elapsed_s"])
        n, failed = check_sample(workload, reference, result, workdir)
        attempted += n
        failures += failed
        result.update(traced=traced, attempted=n, failed=len(failed))
        samples.append(result)

    good = [s for s in samples if "error" not in s]
    plain = [s for s in good if not s["traced"]]
    traced_ok = [s for s in good if s["traced"]]
    for group in (plain, traced_ok):
        for sample, factor in zip(group, speed_factors(group)):
            sample["speed_factor"] = factor

    def scaled(group, name):
        return statistics.median(s[name] * s["speed_factor"] for s in group)

    metrics = {}
    if args.trace:
        units = spans.metric_units()
        for name in units:
            values = [s["layers"][name] for s in traced_ok if name in s.get("layers", {})]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": units[name]}
        if plain and traced_ok:
            untraced = scaled(plain, "wall_s")
            traced_wall = scaled(traced_ok, "wall_s")
            metrics["trace.untraced_wall_s"]["value"] = untraced
            metrics["trace.traced_wall_s"]["value"] = traced_wall
            metrics["trace.overhead_s"]["value"] = traced_wall - untraced
    elif plain:
        values = {name: scaled(plain, name) for name in ("wall_s", "setup_s")}
        values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain)
        values["reps_per_s"] = workloads.operations_per_call(workload, raw) / values["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    not_applicable = traced_ok[0]["not_applicable"] if traced_ok else []

    env = environment(args.seed, slot)
    if good:
        env.update(good[0]["versions"])
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": [
            {k: v for k, v in s.items() if k not in ("layers", "not_applicable", "records", "oracle")}
            for s in samples
        ],
        "failures": failures,
        "not_applicable": not_applicable,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"samples: {len(plain)} untraced, {len(traced_ok)} traced, {len(samples) - len(good)} failed to run")
    if plain:
        print("unscaled medians: wall_s {:.4f}, setup_s {:.4f}; speed factor {:.4f}".format(
            *(statistics.median(s[k] for s in plain) for k in ("wall_s", "setup_s", "speed_factor"))))
    for message in failures[:10]:
        print(f"check failed: {message}")
    if not_applicable:
        print(f"not applicable to {workload.name} (reported as 0): {', '.join(not_applicable)}")
    print(f"record: {run_dir.relative_to(ROOT) / 'result.json'}")
    complete = bool(metrics) and (not args.trace or bool(plain and traced_ok))
    print(json.dumps({
        "correct": complete and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
