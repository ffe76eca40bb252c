"""Tests of the benchmark itself: every workload runs clean in a short mode,
and each check rejects a corrupted output while accepting the real one.

    python3 perfbench/selftest.py

Not named test_*.py, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import unittest

import run  # noqa: I001  (sets the BLAS thread count before numpy loads)

run.import_gramkit()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def first_outputs(name: str):
    work = workloads.make_workload(name, SEED)
    return work, [work.op(case) for case in work.cases]


class ShortRuns(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(name, SEED, seconds=0.0, trace=trace, min_ops=1,
                                     setup_probes=0)
                    self.assertEqual(result["problems"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    listed = spec["per_layer"] if trace else spec["end_to_end"]
                    expected = {m["name"]: m["unit"] for m in listed}
                    if not trace:
                        del expected["setup_s"]  # measured only with setup probes
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_setup_probe(self):
        self.assertGreater(run.setup_probe("general_lti", SEED), 0.0)

    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracer.per_layer_metric_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_tracer_restores_originals(self):
        import gramkit

        before = gramkit.cli.finite_horizon_gramian
        t = tracer.Tracer(gramkit)
        t.install()
        self.assertIsNot(gramkit.cli.finite_horizon_gramian, before)
        t.restore()
        self.assertIs(gramkit.cli.finite_horizon_gramian, before)


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {name: first_outputs(name) for name in workloads.WORKLOADS}

    def assert_rejected(self, check, case, output):
        with self.assertRaises(oracle.CheckFailed):
            check(case, output)

    def test_sweep_gramian_entry(self):
        work, (output,) = self.outputs["sweep_table"]
        case = work.cases[0]
        oracle.check_sweep(case, output)
        finite_csv, infinite_csv = output
        lines = finite_csv.split("\n")
        cells = lines[7].split(",")
        w11 = oracle.CSV_COLUMNS.index("w11")
        cells[w11] = format(float(cells[w11]) * (1 + 1e-6), ".17g")
        lines[7] = ",".join(cells)
        self.assert_rejected(oracle.check_sweep, case, ("\n".join(lines), infinite_csv))

    def test_general_gramian_entry(self):
        work, (output,) = self.outputs["general_lti"]
        case = work.cases[0]
        oracle.check_general(case, output)
        for key in ("lyapunov", "finite"):
            with self.subTest(gramian=key):
                gram = output["systems"][2][key]
                W = gram.matrix.copy()
                W[3, 3] *= 1 + 1e-6
                systems = [dict(s) for s in output["systems"]]
                systems[2][key] = dataclasses.replace(gram, matrix=W)
                self.assert_rejected(oracle.check_general, case, {**output, "systems": systems})

    def test_general_energy_shift(self):
        work, (output,) = self.outputs["general_lti"]
        systems = [dict(s) for s in output["systems"]]
        systems[1]["energy_finite"] *= 1 + 1e-6
        self.assert_rejected(oracle.check_general, work.cases[0], {**output, "systems": systems})

    def test_transfer_energy_shift(self):
        work, outputs = self.outputs["transfer"]
        for case, (profile, report) in zip(work.cases, outputs):
            oracle.check_transfer(case, (profile, report))
        case, (profile, report) = work.cases[5], outputs[5]
        shifted = dataclasses.replace(profile, predicted_energy=profile.predicted_energy * (1 + 1e-6))
        self.assert_rejected(oracle.check_transfer, case, (shifted, report))

    def test_transfer_wrong_final_state(self):
        work, outputs = self.outputs["transfer"]
        case, (profile, report) = work.cases[10], outputs[10]
        x = np.array(report.achieved_final_state)
        x[0] += 1e-4 * np.linalg.norm(case.x_f)
        wrong = dataclasses.replace(report, achieved_final_state=x)
        self.assert_rejected(oracle.check_transfer, case, (profile, wrong))

    def test_rerun_mismatch_is_detected(self):
        work, (output,) = self.outputs["sweep_table"]
        self.assertTrue(workloads.same_output(output, workloads.sweep_op(work.cases[0])))
        self.assertFalse(workloads.same_output(output, (output[0] + " ", output[1])))


if __name__ == "__main__":
    unittest.main()
