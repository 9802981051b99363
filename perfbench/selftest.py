"""Self-test of the benchmark: every output check can fail, and every input is valid.

    python3 perfbench/selftest.py

Each check is fed the recorded outputs against a reference with one value
perturbed, and must count exactly the affected operations as failed.  A
smoke pass validates the generated inputs of every workload and slot the
way the program does (``config_from_dict`` for studies).  Runs in seconds
and starts no study.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

STUDY_WORKLOADS = [w for w in workloads.WORKLOADS.values() if w.kind == workloads.STUDY]


def write_tables(tables: dict, directory: Path) -> None:
    for name, rows in tables.items():
        with open(directory / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def agreeing_oracle(reference: dict) -> dict:
    pairs = set()
    for table in reference.values():
        header = table[0]
        for row in table[1:]:
            pairs.add(f"{row[header.index('region')]}|{row[header.index('model')]}")
    return {pair: [2.0, 2.0] for pair in pairs}


class StudyChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def outcome(self, workload, edit=None, oracle_edit=None):
        """Failures when the true outputs meet a reference changed by ``edit``."""
        truth = workloads.load_reference(workload.name, 0)
        write_tables(truth, self.dir)
        reference = copy.deepcopy(truth)
        if edit:
            edit(reference)
        oracle = agreeing_oracle(truth)
        if oracle_edit:
            oracle_edit(oracle)
        attempted, failures = checks.check_study(reference, self.dir, oracle)
        self.assertEqual(attempted, sum(len(t) - 1 for t in reference.values()))
        return failures

    def edit_cell(self, table: str, column: str, change, row: int = 1):
        def edit(reference):
            header = reference[table][0]
            cells = reference[table][row]
            cells[header.index(column)] = change(cells[header.index(column)])

        return edit

    def test_unchanged_outputs_pass(self):
        for workload in STUDY_WORKLOADS:
            self.assertEqual(self.outcome(workload), [], workload.name)

    def test_float_columns_fail_beyond_tolerance_only(self):
        cases = [("mse_rect", "mse.csv", "mse"), ("mse_rect", "mse.csv", "mc_se"),
                 ("mse_rect", "scaling.csv", "mse_at_opt"), ("mse_disk", "mse.csv", "mse"),
                 ("phi_select", "phi.csv", "e_phi_sq"), ("phi_select", "phi.csv", "mc_se")]
        for name, table, column in cases:
            workload = workloads.WORKLOADS[name]
            drift = self.edit_cell(table, column, lambda v: repr(float(v) * (1 + 1e-12)))
            self.assertEqual(self.outcome(workload, drift), [], (name, column))
            changed = self.edit_cell(table, column, lambda v: repr(float(v) * (1 + 1e-6)))
            self.assertEqual(len(self.outcome(workload, changed)), 1, (name, column))

    def test_exact_columns_fail_on_any_change(self):
        phi = workloads.WORKLOADS["phi_select"]
        self.assertEqual(len(self.outcome(phi, self.edit_cell("phi.csv", "freq", lambda v: v + ";99:1"))), 1)
        self.assertEqual(len(self.outcome(phi, self.edit_cell("phi.csv", "note", lambda v: "x"))), 1)
        rect = workloads.WORKLOADS["mse_rect"]
        self.assertEqual(len(self.outcome(rect, self.edit_cell("mse.csv", "mse", lambda v: "NA"))), 1)
        self.assertEqual(len(self.outcome(rect, self.edit_cell("scaling.csv", "s_lambda_opt", lambda v: "1"))), 1)

    def test_missing_output_fails_every_row(self):
        rect = workloads.WORKLOADS["mse_rect"]
        truth = workloads.load_reference("mse_rect", 0)
        attempted, failures = checks.check_study(truth, self.dir, agreeing_oracle(truth))
        self.assertEqual(len(failures), attempted)
        rows = len(truth["mse.csv"]) - 1
        self.assertEqual(len(self.outcome(rect, lambda ref: ref["mse.csv"].pop())), rows - 1)

    def test_oracle_disagreement_fails_its_rows(self):
        disk = workloads.WORKLOADS["mse_disk"]
        rows = len(workloads.load_reference("mse_disk", 0)["mse.csv"]) - 1

        def skew(oracle):
            for pair in oracle:
                oracle[pair][1] *= 1 + 1e-10

        self.assertEqual(len(self.outcome(disk, oracle_edit=skew)), rows)

    def test_study_that_did_not_finish_fails_every_row(self):
        reference = workloads.load_reference("phi_select", 0)
        workload = workloads.WORKLOADS["phi_select"]
        for result in ({"error": "exit 1"}, {"rc": 2}):
            attempted, failures = run.check_sample(workload, reference, result, self.dir)
            self.assertEqual(len(failures), attempted)
            self.assertEqual(attempted, len(reference["phi.csv"]) - 1)


class ConstantsChecks(unittest.TestCase):
    def setUp(self):
        self.reference = workloads.load_reference("shape_constants", 0)
        self.records = {
            spec: dict(want, k0_numeric=want["k0"] * (1 + 3e-5), rc=0)
            for spec, want in self.reference.items()
        }

    def failures(self, reference=None, records=None):
        attempted, failures = checks.check_constants(reference or self.reference, records or self.records)
        self.assertEqual(attempted, len(self.reference))
        return failures

    def test_unchanged_outputs_pass(self):
        self.assertEqual(self.failures(), [])

    def test_each_check_fails(self):
        spec = next(iter(self.reference))
        for key in ("volume", "k0", "k1", "tau_sq", "b0"):
            reference = copy.deepcopy(self.reference)
            reference[spec][key] *= 1 + 1e-6
            self.assertEqual(len(self.failures(reference=reference)), 1, key)
        edits = [
            {"k0_numeric": self.records[spec]["k0"] * (1 + 2e-3)},
            {"k1": 1.0},
            {"k1": 0.0},
            {"rc": 1},
            {"error": "ValueError: boom"},
        ]
        for edit in edits:
            records = copy.deepcopy(self.records)
            records[spec].update(edit)
            self.assertEqual(len(self.failures(records=records)), 1, edit)
        records = copy.deepcopy(self.records)
        del records[spec]["b0"]
        self.assertEqual(len(self.failures(records=records)), 1)
        del records[spec]
        self.assertEqual(len(self.failures(records=records)), 1)


class Inputs(unittest.TestCase):
    def test_every_generated_input_validates(self):
        for workload in workloads.WORKLOADS.values():
            for slot in range(workloads.SLOTS):
                raw = workload.make_config(slot)
                self.assertEqual(raw, workload.make_config(slot))
                config = workloads.validate(workload.kind, raw)
                if workload.kind == workloads.STUDY:
                    self.assertEqual(config.seed, workloads.study_seed(slot))
                self.assertTrue(workloads.load_reference(workload.name, slot))

    def test_seed_selects_slot(self):
        self.assertEqual(workloads.slot_of(3), workloads.slot_of(3 + workloads.SLOTS))
        self.assertNotEqual(workloads.slot_of(3), workloads.slot_of(4))


class Spans(unittest.TestCase):
    def test_self_time_and_parallelism(self):
        records = [
            (1, "estimators.build_plan", 2.0, 5.0, 0, 1),
            (0, "harness.mse_study", 0.0, 10.0, None, 1),
            (2, "fieldsim.sample_field", 1.0, 3.0, None, 2),
            (3, "fieldsim.sample_field", 2.0, 4.0, None, 3),
        ]
        facts = {"estimators.build_plan": ["design-a"]}
        values, absent = spans.layer_metrics(records, facts)
        self.assertAlmostEqual(values["harness.mse_study.self_s"], 7.0)
        self.assertAlmostEqual(values["estimators.build_plan.self_s"], 3.0)
        self.assertEqual(values["fieldsim.sample_field.calls"], 2)
        self.assertAlmostEqual(values["harness.replicate_parallelism"], 4.0 / 3.0)
        self.assertEqual(values["estimators.build_plan.distinct_ratio"], 1.0)
        self.assertIn("constants.b0.calls", absent)
        self.assertNotIn("fieldsim.sample_field.p50_us", absent)
        self.assertEqual(set(values) | {n for n, _ in spans.OVERHEAD}, set(spans.metric_units()))


class SpeedScaling(unittest.TestCase):
    def test_times_scale_to_reference_speed(self):
        # A machine running at half the reference speed takes twice as long
        # over the calibration kernel, so its times are halved.  A sample's
        # factor pools its kernel times with its neighbours', so one outlier
        # does not count, and samples three apart do not share any.
        ref = run.REFERENCE_CALIBRATION_S
        times = [[2, 2], [2, 9], [2, 2], [1, 1], [1, 1]]
        factors = run.speed_factors([{"calibration_s": [t * ref for t in pair]} for pair in times])
        self.assertEqual(len(factors), 5)
        for got, want in zip(factors, [0.5, 0.5, 0.5, 1.0, 1.0]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(run.speed_factors([{"calibration_s": [2 * ref, 2 * ref]}])[0], 0.5)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["per_layer"]], list(spans.metric_units()))
        self.assertEqual({m["name"] for m in declared["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
