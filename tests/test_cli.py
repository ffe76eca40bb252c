import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ANALYZE_KEYS = {
    "schema_version",
    "zeta",
    "omega_n",
    "regime",
    "a_matrix",
    "b_matrix",
    "horizon",
    "horizon_seconds",
    "gramian_method",
    "gramian",
    "det_wc",
    "eigenvalues",
    "trace",
    "condition_number",
    "duality_constant",
    "det_i",
    "differential_entropy_nats",
    "differential_entropy_bits",
    "boltzmann_constant",
    "thermodynamic_entropy",
    "entropy_index",
}

CSV_HEADER = (
    "zeta,omega_n,regime,horizon,horizon_seconds,w11,w12,w22,det_wc,"
    "lambda_min,lambda_max,trace,condition_number,det_i,"
    "differential_entropy_nats,thermodynamic_entropy,entropy_index"
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "gramkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestAnalyze:
    def test_infinite_horizon_json(self):
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "2", "--horizon", "infinite")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["det_wc"] == 0.015625
        assert report["regime"] == "underdamped"
        assert report["horizon"] == "infinite"
        assert report["gramian"] == [[0.0625, 0.0], [0.0, 0.25]]
        assert report["det_i"] == 64.0
        assert report["schema_version"] == 1
        assert set(report) == ANALYZE_KEYS

    def test_validation_failure_names_parameter(self):
        result = run_cli("analyze", "--zeta", "-1", "--omega-n", "1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "zeta" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_physical_triple(self):
        result = run_cli("analyze", "--m", "1", "--c", "2", "--k", "1")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["regime"] == "critically_damped"
        assert report["det_wc"] == 0.0625

    def test_undamped_infinite_reports_adopted_convention(self):
        result = run_cli("analyze", "--zeta", "0", "--omega-n", "2")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["horizon"] == "paper_adopted_undamped"
        assert report["gramian"] == [[0.25, 0.0], [0.0, 1.0]]
        assert report["det_wc"] == 0.25

    def test_finite_horizon(self):
        result = run_cli(
            "analyze", "--zeta", "0.5", "--omega-n", "1", "--horizon", "finite", "--T", "60"
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["horizon"] == "finite"
        assert report["horizon_seconds"] == 60.0
        assert report["gramian_method"] == "augmented_expm"
        assert report["det_wc"] == pytest.approx(0.25, rel=1e-6)

    def test_finite_horizon_needs_time(self):
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "1", "--horizon", "finite")
        assert result.returncode == 2
        assert "--T" in result.stderr

    def test_time_flag_requires_finite_horizon(self):
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "1", "--T", "5")
        assert result.returncode == 2

    def test_mixed_parameterizations_rejected(self):
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "1", "--m", "1")
        assert result.returncode == 2

    def test_unknown_flag_rejected(self):
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "1", "--frobnicate", "3")
        assert result.returncode == 2

    def test_flag_abbreviations_rejected(self):
        # Prefix matching would let --zet silently stand in for --zeta.
        result = run_cli("analyze", "--zet", "0.5", "--omega-n", "1")
        assert result.returncode == 2

    def test_convention_flags_thread_through(self):
        result = run_cli(
            "analyze", "--zeta", "0.5", "--omega-n", "2", "--duality-c", "2", "--kb", "3"
        )
        report = json.loads(result.stdout)
        assert report["det_i"] == 128.0
        assert report["duality_constant"] == 2.0
        assert report["boltzmann_constant"] == 3.0
        assert report["thermodynamic_entropy"] == pytest.approx(
            3.0 * report["differential_entropy_nats"], rel=1e-15
        )

    def test_csv_and_text_formats(self):
        csv_result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "2", "--format", "csv")
        lines = csv_result.stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[8]) == 0.015625
        text_result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "2", "--format", "text")
        assert "det_wc: 0.015625" in text_result.stdout

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "2", "--out", str(path))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(path.read_text())["det_wc"] == 0.015625


    @pytest.mark.parametrize("omega_n", ["1e120", "1e-120"])
    def test_range_failure_is_numerical_failure(self, omega_n):
        # The closed-form Gramian overflows (1e120) or divides by an
        # underflowed zero (1e-120): exit 3 with one diagnostic line.
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", omega_n)
        assert result.returncode == 3
        assert len(result.stderr.strip().splitlines()) == 1
        assert "numerical range failure" in result.stderr
        assert "Traceback" not in result.stderr


class TestSweep:
    def test_grid_product_row_count_and_order(self):
        result = run_cli("sweep", "--zeta-grid", "0.25,0.5,1", "--omega-n-grid", "1,2")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        zetas = [float(line.split(",")[0]) for line in lines[1:]]
        assert zetas == [0.25, 0.25, 0.5, 0.5, 1.0, 1.0]

    def test_determinant_decreases_with_damping(self):
        result = run_cli("sweep", "--zeta-grid", "0.25,0.5,1,2", "--omega-n-grid", "1,2")
        rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
        for omega in ("1", "2"):
            dets = [float(r[8]) for r in rows if r[1] == omega]
            assert all(a > b for a, b in zip(dets, dets[1:]))

    def test_rerun_is_byte_identical(self):
        args = ("sweep", "--zeta-grid", "0.25,0.5,1", "--omega-n-grid", "1,2")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_horizon_grid_is_innermost(self):
        result = run_cli(
            "sweep", "--zeta", "0.5", "--omega-n", "1", "--T-grid", "1,2,4"
        )
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 4
        horizons = [float(line.split(",")[4]) for line in lines[1:]]
        assert horizons == [1.0, 2.0, 4.0]
        dets = [float(line.split(",")[8]) for line in lines[1:]]
        assert all(a < b for a, b in zip(dets, dets[1:]))

    def test_requires_a_grid(self):
        result = run_cli("sweep", "--zeta", "0.5", "--omega-n", "1")
        assert result.returncode == 2
        assert "grid" in result.stderr

    def test_rejects_non_increasing_grid(self):
        result = run_cli("sweep", "--zeta-grid", "1,0.5", "--omega-n-grid", "1")
        assert result.returncode == 2
        assert "increasing" in result.stderr

    def test_full_roundtrip_precision(self):
        # Every CSV cell must reparse to the exact double the library
        # produced; the JSON report for the same point is the reference.
        result = run_cli("sweep", "--zeta-grid", "0.3,0.7", "--omega-n-grid", "1.1")
        rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
        for row in rows:
            reference = json.loads(
                run_cli("analyze", "--zeta", row[0], "--omega-n", row[1]).stdout
            )
            assert float(row[8]) == reference["det_wc"]
            assert float(row[16]) == reference["entropy_index"]
            assert float(row[14]) == reference["differential_entropy_nats"]


class TestSynthesize:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        result = run_cli(
            "synthesize",
            "--zeta", "0.5", "--omega-n", "1",
            "--T", "5", "--xf", "1,0", "--steps", "2000",
            "--out", str(path),
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["final_state_error"] < 1e-4
        assert report["energy_mismatch"] < 1e-3
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u"
        assert len(lines) == 2002
        t0, u0 = lines[1].split(",")
        assert float(t0) == 0.0
        assert math.isfinite(float(u0))

    def test_zero_target(self, tmp_path):
        path = tmp_path / "profile.csv"
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "5", "--xf", "0,0", "--out", str(path),
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["predicted_energy"] == 0.0
        values = [float(line.split(",")[1]) for line in path.read_text().strip().splitlines()[1:]]
        assert all(v == 0.0 for v in values)

    def test_zero_horizon_is_validation_failure(self, tmp_path):
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "0", "--xf", "1,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 2
        assert "T" in result.stderr

    def test_degenerate_horizon_is_numerical_failure(self, tmp_path):
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "1e-8", "--xf", "1,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 3
        assert "singular" in result.stderr.lower()

    def test_coarse_grid_is_verification_failure(self, tmp_path):
        # 100 steps over T=30 degrades the simulated transfer past the
        # 1e-3 gate; the profile is still written and reported.
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "30", "--xf", "1,0", "--steps", "100",
            "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 4
        assert "verification failed" in result.stderr
        report = json.loads(result.stdout)
        assert report["final_state_error"] >= 1e-3
        assert (tmp_path / "p.csv").exists()

    def test_bad_target_rejected(self, tmp_path):
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "5", "--xf", "1,0,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 2
        assert "xf" in result.stderr

    def test_unparseable_target_names_flag(self, tmp_path):
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "5", "--xf", "a,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 2
        assert "xf" in result.stderr

    def test_overdamped_long_horizon_ends_with_documented_exit(self, tmp_path):
        # 2*mu*t reaches ~2.8e3 here, past the range of exp; the closed-form
        # exponential must stay finite so the run ends in a documented way.
        result = run_cli(
            "synthesize", "--zeta", "3", "--omega-n", "10",
            "--T", "50", "--xf", "1,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode in (0, 3, 4)
        assert len(result.stderr.strip().splitlines()) <= 1
        assert "Traceback" not in result.stderr
