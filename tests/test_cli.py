import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gramkit import cli
from gramkit.energy import synthesize_min_energy_control
from gramkit.entropy import info_entropy_report
from gramkit.gramian import GramianResult, Horizon, gramian_determinant
from gramkit.lti import OscillatorParams, make_oscillator

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
        [sys.executable, "-m", "gramkit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


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
        assert report["det_wc"] == pytest.approx(0.25, rel=1e-6, abs=0.0)

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
            3.0 * report["differential_entropy_nats"], rel=1e-15, abs=0.0
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


    @pytest.mark.parametrize(
        "zeta, omega_n",
        [
            pytest.param("0.5", "1e120", id="1e120"),
            pytest.param("0.5", "1e-120", id="1e-120"),
            pytest.param("0.5", "1e-160", id="1e-160"),
            pytest.param("1e-200", "1e-50", id="zeta1e-200-1e-50"),
            pytest.param("0", "1e-170", id="undamped-1e-170"),
        ],
    )
    def test_range_failure_is_numerical_failure(self, zeta, omega_n):
        # The closed-form Gramian overflows (omega_n^3 = 1e360) or divides by
        # an underflowed zero (4*zeta*omega_n^3, or omega_n^2 when undamped):
        # exit 3 with one diagnostic line that names the parameters.
        result = run_cli("analyze", "--zeta", zeta, "--omega-n", omega_n)
        assert result.returncode == 3
        assert len(result.stderr.strip().splitlines()) == 1
        assert "numerical range failure" in result.stderr
        assert "omega_n" in result.stderr
        assert "Traceback" not in result.stderr

    def test_finite_entry_overflowing_determinant_is_one_line(self):
        # w11 = 1/(4*zeta*omega_n^3) = 1.198e308 is finite; symmetrizing it as
        # 0.5*(W + W^T) overflowed to inf with a RuntimeWarning.
        result = run_cli("analyze", "--zeta", "0.5", "--omega-n", "1.61e-103")
        assert result.returncode == 3
        assert result.stderr.count("\n") == 1
        assert "determinant overflows" in result.stderr
        assert "1.1980980911661594e+308" in result.stderr

    @pytest.mark.parametrize(
        "triple, zeta, omega_n, regime",
        [
            # m*k overflows: zeta is 5e-201, not 0.
            (("1e200", "1", "1e200"), 5e-201, 1.0, "underdamped"),
            # m*k underflows: zeta = 0 and omega_n = 1 are exact.
            (("1e-200", "0", "1e-200"), 0.0, 1.0, "undamped"),
        ],
    )
    def test_physical_triple_beyond_the_product_range(self, triple, zeta, omega_n, regime):
        m, c, k = triple
        result = run_cli(
            "analyze", "--m", m, "--c", c, "--k", k, "--horizon", "finite", "--T", "1"
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["zeta"] == pytest.approx(zeta, rel=1e-15, abs=0.0)
        assert report["omega_n"] == omega_n
        assert report["regime"] == regime

    @pytest.mark.parametrize(
        "args",
        [
            # omega_n^2 or 2*zeta*omega_n overflows while building A.
            ["--zeta", "0.5", "--omega-n", "1e200"],
            ["--zeta", "1e300", "--omega-n", "1e10"],
            # 1/(4*zeta*omega_n^3) overflows in the closed-form Gramian.
            ["--zeta", "1e-320", "--omega-n", "1"],
            # The Gramian entries are finite but their product is not.
            ["--zeta", "5e-324", "--omega-n", "8.67e15"],
            # The finite-horizon Gramian overflows: w11 ~ 1/(4*zeta*omega_n^3) = 5e329.
            ["--zeta", "0.5", "--omega-n", "1e-110", "--horizon", "finite", "--T", "1e300"],
            # S = k_B * H overflows.
            ["--zeta", "0.5", "--omega-n", "1e-5", "--kb", "1e308"],
            # det(I) = c / det(W) overflows.
            ["--zeta", "0.5", "--omega-n", "100", "--duality-c", "1e300"],
            # det(W) of a positive diagonal underflows to 0.
            ["--zeta", "1e300", "--omega-n", "1"],
            # The finite-horizon Gramian's entries underflow, so det(W) = 0.
            ["--zeta", "0.5", "--omega-n", "1", "--horizon", "finite", "--T", "1e-300"],
            # w11 = 1.79e308 and w22 = 0.5 are finite; lambda_max / lambda_min is not.
            ["--zeta", "1e132", "--omega-n", "5e-133", "--horizon", "finite", "--T", "1.79e308"],
            # omega_n = sqrt(k/m) = 1e-300 is representable; its closed-form Gramian is not.
            ["--m", "1e300", "--c", "1", "--k", "1e-300"],
            # zeta = c / (2*sqrt(m*k)) = 1e300 / (2 * 1e-150) overflows.
            ["--m", "1", "--c", "1e300", "--k", "1e-300"],
        ],
    )
    def test_overflow_is_one_line_numerical_failure(self, args):
        result = run_cli("analyze", *args)
        assert result.returncode == 3
        assert len(result.stderr.strip().splitlines()) == 1
        assert "numerical range failure" in result.stderr

    @pytest.mark.parametrize("T", [1e-8, 1e-20])
    def test_small_horizon(self, T):
        # To first order in T: w11 = T^3/3 (1 - 3 zeta omega_n T / 2) and
        # det W = T^4/12 (1 - 2 zeta omega_n T); the next terms are O(T^2)
        # relative.  A whole-matrix stopping rule on the exponential's series
        # cuts off the O(T^3) block.
        result = run_cli(
            "analyze", "--zeta", "0.5", "--omega-n", "1", "--horizon", "finite", "--T", repr(T)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        w11, det = T**3 / 3.0 * (1.0 - 0.75 * T), T**4 / 12.0 * (1.0 - T)
        assert report["gramian"][0][0] == pytest.approx(w11, rel=1e-12, abs=0.0)
        assert report["det_wc"] == pytest.approx(det, rel=1e-12, abs=0.0)


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

    def test_kernel_stack_is_make_oscillator_bit_for_bit(self, monkeypatch):
        # The sweep stacks A and B from its grids without building models;
        # row i holds point i // len(T-grid), as make_oscillator builds it.
        calls = []
        kernel = cli._finite_horizon_gramians

        def spy(A, B, horizons):
            calls.append((A, B, list(horizons)))
            return kernel(A, B, horizons)

        monkeypatch.setattr(cli, "_finite_horizon_gramians", spy)
        zetas, omegas = [0.0, 1e-320, 0.5, 1.0, 4.0], [1e-3, 1.0, 3e102]
        run_in_process("sweep", "--zeta-grid", ",".join(map(repr, zetas)),
                       "--omega-n-grid", ",".join(map(repr, omegas)), "--T-grid", "1,2")
        [(A, B, horizons)] = calls
        assert A.shape == (30, 2, 2) and B.shape == (30, 2, 1)
        assert A.dtype == B.dtype == np.float64 and horizons == [1.0, 2.0] * 15
        points = [(zeta, omega_n) for zeta in zetas for omega_n in omegas]
        for i, (zeta, omega_n) in enumerate(p for p in points for _ in range(2)):
            model = make_oscillator(OscillatorParams(zeta, omega_n))
            assert np.array_equal(A[i], model.A) and np.array_equal(B[i], model.B)
            assert A[i].tobytes() == model.A.tobytes() and B[i].tobytes() == model.B.tobytes()

    def test_requires_a_grid(self):
        result = run_cli("sweep", "--zeta", "0.5", "--omega-n", "1")
        assert result.returncode == 2
        assert "grid" in result.stderr

    @pytest.mark.parametrize("flag, args", [
        ("omega-n", ["--zeta", "0.3", "--omega-n-grid", "1", "--omega-n", "7"]),
        ("zeta", ["--zeta-grid", "0.3", "--zeta", "1", "--omega-n", "7"]),
    ])
    def test_rejects_a_grid_and_its_scalar_together(self, flag, args):
        # Neither flag may win silently over the other.
        assert run_in_process("sweep", *args) == (2, "", f"error: give either --{flag}-grid or --{flag}, not both\n")

    def test_rejects_non_increasing_grid(self):
        result = run_cli("sweep", "--zeta-grid", "1,0.5", "--omega-n-grid", "1")
        assert result.returncode == 2
        assert "increasing" in result.stderr
        # A nan between two values does not hide their decrease.
        for name, args in (("zeta-grid", ["--zeta-grid", "2,nan,1", "--omega-n", "1"]),
                           ("T-grid", ["--zeta", "0.5", "--omega-n", "1", "--T-grid", "1,nan,0.5"])):
            assert run_in_process("sweep", *args) == (2, "", f"error: {name} must be strictly increasing\n")
        # nan itself is left to the point's validator.
        assert run_in_process("sweep", "--zeta-grid", "0.5,nan", "--omega-n", "1") == (
            2, "", "error: zeta must be finite, got nan\n")

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

    @pytest.mark.parametrize("finite", [True, False])
    def test_rows_match_analyze(self, finite):
        # The sweep and analyze share the Gramian kernel (a stacked call
        # against analyze's k = 1 call) and the report pass, so every row is
        # byte-identical to analyze --format csv at its point.
        args = ["--zeta-grid", "0,0.4,1,1.6", "--omega-n-grid", "0.5,3,20"]
        if finite:
            args += ["--T-grid", "1e-8,0.5,20,1000"]
        code, out, _ = run_in_process("sweep", *args)
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == (48 if finite else 12)
        for row in rows:
            zeta, omega_n, _, _, seconds = row.split(",")[:5]
            point = ["analyze", "--zeta", zeta, "--omega-n", omega_n, "--format", "csv"]
            if finite:
                point += ["--horizon", "finite", "--T", seconds]
            code, single, _ = run_in_process(*point)
            assert code == 0
            assert single.splitlines() == [header, row]

    @pytest.mark.parametrize(
        "grids",
        [
            # Row (0.5, 1e-110, 1e300) fails in the Gramian kernel (exit 3).
            ["--omega-n-grid", "1e-110,1", "--T-grid", "1,1e300"],
            # Model (0.5, 1e200) overflows when it is built (exit 3).
            ["--omega-n-grid", "1,1e200", "--T-grid", "1"],
            ["--omega-n-grid", "1,1e200"],
            # ||A|| T of row (0.5, 1e100, 1e300) overflows in the kernel's
            # setup, which is refused for that row alone (exit 3).
            ["--omega-n-grid", "1,1e100", "--T-grid", "1e300"],
        ],
    )
    def test_first_failure_in_table_order_is_reported(self, grids):
        # The first row fails the duality-constant check (exit 2) before the
        # later numerical failure is reached, so its error is the one reported.
        code, out, err = run_in_process("sweep", "--zeta-grid", "0.5", *grids, "--duality-c", "-1")
        assert (code, out) == (2, "")
        assert err == "error: c must be > 0, got -1.0\n"


@pytest.mark.parametrize(
    "args, name, text",
    [
        (["sweep", "--zeta-grid", "0.5,,1", "--omega-n", "1"], "zeta-grid", "0.5,,1"),
        (["sweep", "--zeta-grid", "0.5,1,", "--omega-n", "1"], "zeta-grid", "0.5,1,"),
        (["sweep", "--zeta-grid", ",0.5", "--omega-n", "1"], "zeta-grid", ",0.5"),
        (["sweep", "--zeta-grid", "", "--omega-n", "1"], "zeta-grid", ""),
        (["sweep", "--zeta", "0.5", "--omega-n-grid", "1, ,2"], "omega-n-grid", "1, ,2"),
        (["sweep", "--zeta", "0.5", "--omega-n", "1", "--T-grid", "1,2,"], "T-grid", "1,2,"),
        (["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "1,,0"], "xf", "1,,0"),
        (["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "1,0,"], "xf", "1,0,"),
        (["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", ""], "xf", ""),
    ],
)
def test_rejects_an_empty_list_item(tmp_path, args, name, text):
    # Grids and --xf share one list rule: every item is a number.
    out = tmp_path / "p.csv"
    message = f"error: {name} must be a comma-separated list of numbers, got {text!r}\n"
    assert run_in_process(*args, "--out", str(out)) == (2, "", message)
    assert not out.exists()


# 2 x 2 Gramians and the message start of the report check each fails
# first at c = 1, k_B = 1e307 (None: it passes them all).
REPORT_POOL = {
    "passes": ([[2.0, 0.3], [0.3, 1.5]], None),
    "passes once symmetrized": ([[2.0, 0.3], [0.5, 1.5]], None),
    "det(W) overflow": ([[1e200, 0.0], [0.0, 1e200]], "Gramian determinant overflows"),
    "det(W) underflow": ([[1e-200, 0.0], [0.0, 1e-200]], "Gramian determinant underflows"),
    # a subnormal det(W) = 1e-310 that c = 1e-10 would bring into range
    "det(W) underflow, nonzero": ([[1e-155, 0.0], [0.0, 1e-155]], "Gramian determinant underflows"),
    "det(W) > 0": ([[1.0, 2.0], [2.0, 1.0]], "det(W) = -3.0 is not positive"),
    # a cofactor det(W) below 0 where eigvalsh finds lambda_min > 0
    "det(W) > 0, positive eigenvalues": (
        [[1.0777284863394088, 0.9054687237465944], [0.9054687237465944, 0.7607422649354411]],
        "det(W) = -1.1102230246251565e-16 is not positive",
    ),
    # a normal diagonal product, a subnormal det(W) = 4e-313
    "det(I) range": ([[2e-154, 1.99999e-154], [1.99999e-154, 2e-154]], "det(I) = c / det(W)"),
    "S range": ([[1e-10, 0.0], [0.0, 1e-10]], "S = k_B * H overflows"),
    "condition number": ([[-1.0, 0.0], [0.0, -2.0]], "condition number of the Gramian"),
}
REPORT_LEADS = [(float(i), 1.0, "underdamped", "finite", "1") for i in range(7)]


def report_outcome(leads, W, c, k_b):
    """The rows of a report pass, or the type and message of its error."""
    try:
        return cli._report_rows(leads, W, c, k_b)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", REPORT_POOL)
def test_report_pool_fails_its_named_check(name):
    W, message = REPORT_POOL[name]
    outcome = report_outcome(REPORT_LEADS[:1], np.array([W]), 1.0, 1e307)
    if message is None:
        assert isinstance(outcome, list), outcome
    else:
        assert outcome[1].startswith(message), outcome


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(REPORT_POOL)), min_size=1, max_size=6),
    c=st.sampled_from([1.0, 2, 1e-10, 1e307, 0.0, -1.0, math.nan, math.inf]),
    k_b=st.sampled_from([1.0, 0.7, 1e307, 0.0, -1.0, math.nan, math.inf]),
)
def test_report_pass_is_its_one_row_calls_in_order(names, c, k_b):
    # The stacked pass gives the one-row calls' rows concatenated, bit for
    # bit, or raises the first failing one-row call's error: a row that
    # fails a late check beats a later row that fails an early one.  One
    # lead more than there are Gramians is not reported.
    W = np.array([REPORT_POOL[name][0] for name in names])
    rows = []
    for i in range(len(W)):
        outcome = report_outcome(REPORT_LEADS[i : i + 1], W[i : i + 1], c, k_b)
        if isinstance(outcome, tuple):
            expected = outcome
            break
        rows += outcome
    else:
        expected = rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = report_outcome(REPORT_LEADS[: len(W) + 1], W, c, k_b)
    # repr tells every double apart, the sign of zero included.
    assert repr(stacked) == repr(expected)


@pytest.mark.parametrize("name", [name for name in REPORT_POOL if name != "condition number"])
def test_library_chain_is_the_report_chain(name):
    # gramian_determinant and info_entropy_report are the one-row chain a
    # failing report raises through: at every c and k_B they raise the
    # report's error type and message, or give its numbers bit for bit.
    W = np.array(REPORT_POOL[name][0])
    gram = GramianResult(W, Horizon.infinite(), "lyapunov")
    for c in [1.0, 2, 1e-10, 1e307, 0.0, -1.0, math.nan, math.inf]:
        for k_b in [1.0, 0.7, 1e307, 0.0, -1.0, math.nan, math.inf]:
            try:
                gramian_determinant(gram)
                chain = info_entropy_report(gram, c=c, k_b=k_b)
            except (ValueError, ArithmeticError) as exc:
                library = type(exc), str(exc)
            else:
                library = [(chain.det_wc, chain.det_i, chain.differential_entropy_nats,
                            chain.thermodynamic_entropy, chain.entropy_index)]
            report = report_outcome(REPORT_LEADS[:1], W[None], c, k_b)
            if isinstance(report, list):
                report = [row[8:9] + row[13:] for row in report]
            assert repr(report) == repr(library), (c, k_b)


def test_parser_reuse_matches_fresh_process(monkeypatch):
    # main builds its parser once per process: in-process calls that
    # alternate analyze, a malformed flag (exit 2), sweep and --help give,
    # call by call, the bytes of a fresh process.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("analyze", "--zeta", "0.5", "--omega-n", "2", "--format", "text"),
        ("analyze", "--zeta", "0.5", "--omega-n", "2", "--horizon", "sometimes"),
        ("sweep", "--zeta-grid", "0,0.5", "--omega-n-grid", "1,2", "--T-grid", "0.5,3"),
        ("sweep", "--zeta-grid", "0.5", "--bogus"),
        ("--help",),
        ("sweep", "--help"),
    ]
    fresh = {args: run_cli(*args) for args in calls}
    for args in calls + calls:
        expected = (fresh[args].returncode, fresh[args].stdout, fresh[args].stderr)
        assert run_in_process(*args) == expected, args


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

    @pytest.mark.parametrize("steps", [[], ["--steps", "301"]], ids=["default", "301"])
    def test_profile_cells_parse_back_exactly(self, tmp_path, steps):
        # Every t,u cell is the library's double at round-trip precision.
        path = tmp_path / "profile.csv"
        code, _, _ = run_in_process(
            "synthesize", "--zeta", "0.3", "--omega-n", "2", "--T", "10", "--xf", "1,0",
            *steps, "--out", str(path),
        )
        assert code == 0
        profile = synthesize_min_energy_control(
            make_oscillator(OscillatorParams(0.3, 2.0)), 10.0, np.array([1.0, 0.0]),
            int(steps[1]) if steps else 2000,
        )
        header, *rows = path.read_text().splitlines()
        assert header == "t,u"
        cells = [[float(cell) for cell in row.split(",")] for row in rows]
        assert cells == np.column_stack([profile.times, profile.values[:, 0]]).tolist()

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

    def test_overflowing_energy_is_one_line_numerical_failure(self, tmp_path):
        # x_f^T W^-1 x_f overflows at |x_f| = 1e300.
        result = run_cli(
            "synthesize", "--zeta", "0.5", "--omega-n", "1",
            "--T", "5", "--xf", "1e300,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 3
        assert len(result.stderr.strip().splitlines()) == 1
        assert "numerical range failure" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            # h * rho(A) is 3.4 and 5.8: near T the control's fast mode
            # changes by e^3.4 and e^5.8 within one step, so its samples
            # joined linearly miss the target by 0.223 and 1.04, and the
            # verifier's exact response reports that miss.
            ["--zeta", "15", "--omega-n", "15", "--T", "15"],
            ["--zeta", "3", "--omega-n", "10", "--T", "50", "--steps", "500"],
        ],
    )
    def test_coarse_sampling_of_a_fast_mode_is_verification_failure(self, tmp_path, args):
        result = run_cli(
            "synthesize", *args, "--xf", "1,0", "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == 4
        assert len(result.stderr.strip().splitlines()) == 1
        assert "verification failed" in result.stderr
        assert 0.2 < json.loads(result.stdout)["final_state_error"] < 1.1
