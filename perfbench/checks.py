"""Output checks.  Each function returns one message per failed operation.

An operation is one MSE cell, one scaling row, one phi row, or one
template's constants.  Study tables are compared with the values recorded
at the reference commit: identifying columns, ``freq``, ``reps`` and
``note`` must be identical, and floats must agree within ``FLOAT_RTOL``.
That is far below any change of an estimator, selector or generator, and
far above the last-digit drift that batching replicates through one GEMM
or FFT may bring.
"""

from __future__ import annotations

import csv
from pathlib import Path

FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-14
ORACLE_RTOL = 1e-12  # lag-count and pair-sum tau_n^2 (acceptance criterion 06)
K0_RTOL = 1e-3  # quadrature k0 against the registered value
CONST_RTOL = 1e-9  # printed constants against the recorded ones (12 digits)

KEY_COLUMNS = {
    "mse.csv": ("region", "model", "scheme", "sub_template", "s_lambda"),
    "scaling.csv": ("region", "model", "scheme", "sub_template"),
    "phi.csv": ("region", "model", "scheme", "method", "c1", "c2", "lambda_m"),
}
FLOAT_COLUMNS = frozenset({"mse", "mc_se", "mse_at_opt", "e_phi_sq"})


def close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)  # False for NaN


def read_csv(path: Path):
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def _cells_agree(column: str, got: str, want: str) -> bool:
    if column in FLOAT_COLUMNS and "NA" not in (got, want):
        try:
            return close(float(got), float(want), FLOAT_RTOL, FLOAT_ATOL)
        except ValueError:
            return False
    return got == want


def check_table(name: str, reference: list, observed, bad_pairs=frozenset()) -> list:
    """Compare a CSV (header plus rows) with its reference, one operation per reference row.

    ``bad_pairs`` holds the "region|model" keys whose tau_n oracle failed;
    every row of such a pair fails, since its values are normalised by it.
    """
    header, *ref_rows = reference
    keys = KEY_COLUMNS[name]
    key_idx = [header.index(k) for k in keys]
    if not observed or observed[0] != header:
        why = "missing" if not observed else f"header {observed[0]}"
        return [f"{name}: {why}" for _ in ref_rows]
    got_rows = {tuple(row[i] for i in key_idx): row for row in observed[1:]}
    if len(got_rows) != len(observed) - 1 or len(got_rows) != len(ref_rows):
        return [f"{name}: {len(observed) - 1} rows, {len(ref_rows)} expected" for _ in ref_rows]
    failures = []
    for want in ref_rows:
        key = tuple(want[i] for i in key_idx)
        got = got_rows.get(key)
        if got is None:
            failures.append(f"{name} {key}: row missing")
            continue
        pair = f"{want[header.index('region')]}|{want[header.index('model')]}"
        if pair in bad_pairs:
            failures.append(f"{name} {key}: lag and pair tau_n oracles disagree for {pair}")
            continue
        diff = [c for c, g, w in zip(header, got, want) if not _cells_agree(c, g, w)]
        if diff or len(got) != len(header):
            failures.append(f"{name} {key}: {', '.join(diff) or 'row length'} differ from the reference")
    return failures


def bad_oracle_pairs(oracle: dict) -> set:
    """The "region|model" pairs whose lag-count and pair-sum tau_n^2 disagree."""
    return {pair for pair, (lags, pairs) in oracle.items() if not close(lags, pairs, ORACLE_RTOL)}


def check_study(reference: dict, workdir: Path, oracle: dict) -> tuple:
    """(attempted, failure messages) for one study call's output directory."""
    bad = bad_oracle_pairs(oracle)
    attempted = 0
    failures = []
    for name, table in reference.items():
        attempted += len(table) - 1
        failures += check_table(name, table, read_csv(workdir / name), frozenset(bad))
    return attempted, failures


def check_constants(reference: dict, records: dict) -> tuple:
    """(attempted, failure messages) for one constants sweep."""
    failures = []
    for spec, want in reference.items():
        got = (records or {}).get(spec)
        if got is None or "error" in got:
            failures.append(f"{spec}: {got['error'] if got else 'not run'}")
        elif got.get("rc") != 0:
            failures.append(f"{spec}: latblock constants exited {got.get('rc')}")
        elif any(k not in got for k in (*want, "k0_numeric")):
            failures.append(f"{spec}: output lacks {sorted(set(want) - set(got))}")
        elif not abs(got["k0_numeric"] - got["k0"]) < K0_RTOL * abs(got["k0"]):
            failures.append(f"{spec}: k0_numeric {got['k0_numeric']} vs k0 {got['k0']}")
        elif not 0.0 < got["k1"] < 1.0:
            failures.append(f"{spec}: K1 = {got['k1']} outside (0, 1)")
        else:
            diff = [k for k, v in want.items() if not close(got[k], v, CONST_RTOL)]
            if diff:
                failures.append(f"{spec}: {', '.join(diff)} differ from the reference")
    return len(reference), failures
