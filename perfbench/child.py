"""One sample: a fresh interpreter that imports latblock, warms BLAS and FFT, and
makes one end-to-end call between two timings of a fixed calibration kernel.
run.py starts it; its result goes to ``<workdir>/result.json``.

Usage: child.py --kind study|constants --config CFG.json --workdir DIR [--trace]
"""

import time

T0 = time.perf_counter()  # before numpy, scipy and latblock are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def warm_up() -> None:
    """Start BLAS threads and FFT plans without touching latblock code.

    A cold first Cholesky costs about ten times a warm one, which would
    otherwise land on whichever call happens to factor first.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    np.linalg.cholesky(a @ a.T + 384.0 * np.eye(384))
    np.fft.fftn(rng.standard_normal((64, 64)) + 0j)


def calibrate() -> float:
    """Seconds taken by a fixed kernel that calls no latblock code.

    Interpreter loops plus small single-threaded numpy FFT and elementwise
    work, all cache-resident, so its time follows the speed the machine runs
    at that moment and not anything the program under test can change: no
    BLAS (its thread settings are the program's to change) and no large
    arrays (they would raise the sample's peak memory).
    """
    import numpy as np

    x = np.random.default_rng(1).standard_normal((64, 64)) + 0j
    start = time.perf_counter()
    for _ in range(54):
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        for _ in range(20):
            np.fft.fftn(x)
            np.exp(x.real).sum()
    return time.perf_counter() - start


def library_versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import latblock
    import latblock.cli  # what the `latblock` entry point loads; the package does not

    if not Path(latblock.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"latblock imported from {latblock.__file__}, not from {ROOT / 'src'}")
    import workloads

    config_path = Path(args.config).resolve()
    raw = json.loads(config_path.read_text())
    config = workloads.validate(args.kind, raw)
    setup_s = time.perf_counter() - T0

    warm_up()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    os.chdir(args.workdir)
    calibration_s = [calibrate()]
    start = time.perf_counter()
    outcome = workloads.run_call(args.kind, raw, config_path)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    calibration_s.append(calibrate())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
        "versions": library_versions(),
    }
    if args.kind == workloads.STUDY:
        result["rc"] = outcome
    else:
        result["records"] = outcome
    if tracer is not None:
        recorded = list(tracer.spans)
        result["layers"], result["not_applicable"] = spans.layer_metrics(recorded, tracer.facts)
        Path("spans.json").write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": recorded})
        )
    if args.kind == workloads.STUDY:
        result["oracle"] = workloads.oracle_values(config)
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
