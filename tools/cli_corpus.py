"""Run a fixed corpus of gramkit CLI invocations in-process and fingerprint them.

Usage: python tools/cli_corpus.py

Each invocation runs through ``gramkit.cli.main`` from a temporary working
directory with a relative ``--out`` path, so the reported ``profile_path``
does not depend on where the script runs.  One line is printed per
invocation: the argv, the exit code, and the sha256 of stdout, stderr and
the written file ("-" when none was written).  Diffing the output of two
checkouts shows every invocation whose CLI bytes changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gramkit import cli  # noqa: E402

OUT = "out.txt"

ZETAS = ["0", "1e-320", "0.01", "0.5", "1", "4", "1e300"]
OMEGAS = ["1e-3", "1", "2", "3e102", "1e200"]
HORIZONS = [[], ["--T", "1e-8"], ["--T", "3"], ["--T", "1000"], ["--T", "1e20"], ["--T", "1e-300"]]
TRIPLES = [
    ("1", "1", "1"),
    ("2", "0.5", "8"),
    ("1e-3", "2", "1e3"),
    ("1", "0", "4"),
    ("1e150", "1", "1e-150"),
    ("1e-300", "1e-300", "1e300"),
]
# Points whose trace overflows along with det(W).
RANGE_POINTS = [["--zeta", "2e-309", "--omega-n", "1"]]
# A point whose omega_n^3 overflows while its Gramian is in range.
SCALED_CUBE_POINT = ["--zeta", "1e-300", "--omega-n", "1e103"]
# Sweeps that fail after their first row, each run as is and with --duality-c -1,
# which makes the first row fail instead.
FAILING_SWEEPS = [
    # kernel range: the Gramian of row 1 leaves the double range
    ["--zeta-grid", "0.5", "--omega-n-grid", "1e-110,1", "--T-grid", "1,1e300"],
    # model build: the oscillator matrix of row 1 overflows
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e200", "--T-grid", "1"],
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e200"],
    # row 0 fails the duality constant; row 1 (||A|| T far above the double
    # range) would fail only at its det(W) = 2.5e-401 underflow
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e100", "--T-grid", "1e300", "--duality-c", "0"],
    # closed form: omega_n^3 overflows
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e103"],
    # closed form: 4 zeta omega_n^3 overflows at point 2
    ["--zeta-grid", "1,1e200", "--omega-n-grid", "1e50"],
    # point 3 refuses its zeta, after the rows of zeta 0.5
    ["--zeta-grid", "0.5,nan", "--omega-n-grid", "1,2"],
    # det(W) overflow
    ["--zeta-grid", "0,0.5", "--omega-n-grid", "1e-80"],
    # det(W) underflow
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e77"],
    # det(I) = c / det(W) range
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e3", "--duality-c", "1e300"],
    # S = k_B * H overflow
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e10", "--kb", "1e307"],
    # row order: row 0 fails the late S range check, row 1 alone the early
    # det(W) underflow check, and row 0 is reported
    ["--zeta-grid", "0.5", "--omega-n-grid", "1e10,1e77", "--kb", "1e307"],
    # condition number
    ["--zeta-grid", "1e132", "--omega-n-grid", "5e-133", "--T-grid", "1,1.79e308"],
    # det(W) and the trace of row 1 overflow
    ["--zeta-grid", "0,2e-309", "--omega-n-grid", "1"],
    # a later refused T ends the table after point 1's rows, before the
    # oscillator matrix of point 2 overflows
    ["--zeta-grid", "0.5", "--omega-n-grid", "1,1e160", "--T-grid", "1,nan"],
]
LARGE_SWEEP = [
    "--zeta-grid", "0,0.05,0.1,0.3,0.5,0.7,0.9,1,1.5,3",
    "--omega-n-grid", "0.1,0.5,1,2,5,10",
    "--T-grid", "0.1,1,3,10,100",
]
# The last point misses the 1e-3 verification gate at the default steps (exit 4).
SYNTH_POINTS = [["--zeta", z, "--omega-n", "1", "--T", "3"] for z in ("0", "0.5", "1", "3")]
SYNTH_POINTS.append(["--zeta", "0.5", "--omega-n", "1", "--T", "200"])
TARGETS = ["1,0", "0,1", "1e300,0", "0,0"]
STEPS = [[], ["--steps", "500"], ["--steps", "301"]]
# Samples near 1e154, whose squares overflow although the integral of u^2
# does not; the integral of the last one overflows (exit 3).
ENERGY_RANGE_TARGETS = ["1e148,0", "3e148,0", "1e149,0", "1.2239598694680114e149,0"]
# Coarse steps on fast or lightly damped modes: the control, its samples joined
# linearly, misses the gate by 2.35 and 0.275 (exit 4, finite reports).
COARSE_TRANSFERS = [
    ["--zeta", "1.6", "--omega-n", "15", "--T", "50", "--steps", "500"],
    ["--zeta", "0.05", "--omega-n", "8", "--T", "400"],
]

# Lists refused as a whole: a nan does not hide a decrease, no item is empty,
# and a grid is not given together with its scalar.
LIST_REFUSALS = [
    ["sweep", "--zeta-grid", "2,nan,1", "--omega-n", "1"],
    ["sweep", "--zeta-grid", "0.5,,1", "--omega-n", "1"],
    ["sweep", "--zeta", "0.5", "--omega-n", "1", "--T-grid", "1,2,"],
    ["sweep", "--zeta", "0.3", "--omega-n-grid", "1", "--omega-n", "7"],
    ["sweep", "--zeta-grid", "0.3", "--zeta", "1", "--omega-n", "7"],
    ["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "1,,0", "--out", OUT],
]
# Each flag and its value as separate tokens: a list that starts with a minus
# sign is its flag's value; usage errors (an unknown flag, a missing --out)
# print one line and exit 2.
SEPARATE_TOKENS = [
    ["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "-1,0", "--out", OUT],
    ["sweep", "--zeta-grid", "-1,0.5", "--omega-n", "1"],
    ["analyze", "--bogus"],
    ["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "1,0"],
]
# The verifier's step exponential overflows at h = 5e36: the simulated state
# is not finite (exit 3).
NON_FINITE_STATE = ["synthesize", "--zeta", "0", "--omega-n", "1", "--T", "1e40", "--xf", "1,0",
                    "--out", OUT]


def corpus() -> list[list[str]]:
    runs = []
    for fmt in ("json", "csv", "text"):
        for zeta in ZETAS:
            for omega_n in OMEGAS:
                for horizon in HORIZONS:
                    finite = ["--horizon", "finite"] if horizon else []
                    runs.append(["analyze", "--zeta", zeta, "--omega-n", omega_n,
                                 *finite, *horizon, "--format", fmt])
        for m, c, k in TRIPLES:
            for horizon in ([], ["--horizon", "finite", "--T", "3"]):
                runs.append(["analyze", "--m", m, "--c", c, "--k", k, *horizon, "--format", fmt])
        for point in RANGE_POINTS:
            runs.append(["analyze", *point, "--format", fmt])
    runs.append(["analyze", "--zeta", "0.5", "--omega-n", "2", "--out", OUT])
    for grids in FAILING_SWEEPS:
        runs.append(["sweep", *grids])
        runs.append(["sweep", *grids, "--duality-c", "-1"])
    runs.append(["sweep", *LARGE_SWEEP])
    runs.append(["sweep", *LARGE_SWEEP, "--out", OUT])
    runs.append(["analyze", *SCALED_CUBE_POINT])
    # The first sweep ends at its row 0, whose det(W) overflows; the second
    # prints both rows.
    runs.append(["sweep", "--zeta-grid", "1e-300", "--omega-n-grid", "1,1e103"])
    runs.append(["sweep", "--zeta-grid", "1e-300", "--omega-n-grid", "1e100,1e103"])
    for fmt in ("json", "text"):
        for point in SYNTH_POINTS:
            for steps in STEPS:
                for target in TARGETS:
                    runs.append(["synthesize", *point, "--xf", target, *steps,
                                 "--out", OUT, "--format", fmt])
    for target in ENERGY_RANGE_TARGETS:
        runs.append(["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "0.001",
                     "--xf", target, "--out", OUT])
    for point in COARSE_TRANSFERS:
        runs.append(["synthesize", *point, "--xf", "1,0", "--out", OUT])
    runs.extend(LIST_REFUSALS)
    runs.extend(SEPARATE_TOKENS)
    runs.append(NON_FINITE_STATE)
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")  # every invocation shows its own warnings
        code = cli.main(argv)
    written = Path(OUT)
    profile = _sha(written.read_bytes()) if written.exists() else "-"
    written.unlink(missing_ok=True)
    return "\t".join([" ".join(argv), str(code), _sha(out.getvalue().encode()),
                      _sha(err.getvalue().encode()), profile])


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for argv in corpus():
                print(run(argv))
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
