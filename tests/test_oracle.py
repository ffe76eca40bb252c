"""Every number the CLI prints for an infinite horizon, against mpmath.

The oracle Gramian is diag(1/(4 zeta omega_n^3), 1/(4 zeta omega_n)), or the
adopted diag(1/omega_n^2, 1) at zeta = 0, evaluated at 40 and 60 digits from
the exact binary inputs, with the chain det(W) -> det(I) = c / det(W) ->
H = ln(2 pi e) - ln(det I) / 2 -> S = k_B H and ln det(W) on top.  Each
(zeta, omega_n) point runs through ``analyze --format csv`` and through one
sweep over the same grid, and ends one of two ways:

- exit 0, each printed number within the bound below of its oracle value;
- exit 3, where the oracle's own value of the quantity the message names is
  not a normal double.
"""

import contextlib
import io
import sys

import mpmath
import numpy as np
import pytest

from gramkit import cli

C, K_B = 2.5, 0.7
U = 2.0**-53
# Worst errors, in units of U, over the in-range grid below (400 points,
# seed 2027, numpy on OpenBLAS ``Core: SkylakeX``): det_i 3.78, H 3.77,
# condition number 3.29, det_wc 3.25, S 2.48, trace 2.28, w11 and lambda_max
# 2.07, lambda_min 2.05, w22 1.48, ln det(W) 1.47.  Each bound is that worst
# error with about half as much again for room.  H, S and ln det(W) are
# scaled by max(1, |value|); every other number is relative; w12 is exactly 0.
BOUNDS = {
    "w11": 3.0, "w22": 2.5, "det_wc": 5.0, "lambda_min": 3.0, "lambda_max": 3.0,
    "trace": 3.5, "condition_number": 5.0, "det_i": 6.0,
    "differential_entropy_nats": 6.0, "thermodynamic_entropy": 4.0, "entropy_index": 2.5,
}
SCALED = {"differential_entropy_nats", "thermodynamic_entropy", "entropy_index"}
# The quantity each range message names.
RANGE_MESSAGES = {
    "closed-form Gramian overflows": ("w11", "w22"),
    "Gramian determinant overflows": ("det_wc",),
    "Gramian determinant underflows": ("det_wc",),
    "det(I) = c / det(W)": ("det_i",),
    "S = k_B * H overflows": ("thermodynamic_entropy",),
    "condition number of the Gramian is not finite": ("condition_number",),
}

# The in-range grid: zeta 0 (10% of the points) and nine draws from
# 10^U(-12, 6), omega_n forty draws from 10^U(-6, 6).
_rng = np.random.default_rng(2027)
ZETAS = [0.0] + sorted((10.0 ** _rng.uniform(-12.0, 6.0, 9)).tolist())
OMEGAS = sorted((10.0 ** _rng.uniform(-6.0, 6.0, 40)).tolist())
EDGE_ZETAS = [0.0, 1e-320, 1.0, 1e300]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def oracle(zeta: float, omega_n: float) -> dict:
    """The printed numbers of the point at the working precision."""
    z, w = mpmath.mpf(zeta), mpmath.mpf(omega_n)
    w11, w22 = (1 / (4 * z * w**3), 1 / (4 * z * w)) if z else (1 / w**2, mpmath.mpf(1))
    det = w11 * w22
    h = mpmath.log(2 * mpmath.pi * mpmath.e) - mpmath.log(C / det) / 2
    return {
        "w11": w11, "w22": w22, "det_wc": det, "lambda_min": min(w11, w22),
        "lambda_max": max(w11, w22), "trace": w11 + w22,
        "condition_number": max(w11, w22) / min(w11, w22), "det_i": C / det,
        "differential_entropy_nats": h, "thermodynamic_entropy": K_B * h,
        "entropy_index": mpmath.log(det),
    }


def checked_oracle(zeta: float, omega_n: float) -> dict:
    """The 40-digit oracle, checked against the 60-digit one."""
    with mpmath.workdps(60):
        fine = oracle(zeta, omega_n)
    with mpmath.workdps(40):
        ref = oracle(zeta, omega_n)
        for name, value in ref.items():
            assert abs(value - fine[name]) <= mpmath.mpf(10) ** -35 * max(1, abs(fine[name])), name
    return ref


def normal(value) -> bool:
    return sys.float_info.min <= abs(value) <= sys.float_info.max


def errors(row: str, ref: dict) -> dict:
    """Each printed number's error against the oracle, in units of U."""
    cells = dict(zip(cli.CSV_COLUMNS, row.split(",")))
    assert float(cells["w12"]) == 0.0
    with mpmath.workdps(40):
        return {
            name: float(abs(mpmath.mpf(cells[name]) - value)
                        / (max(1, abs(value)) if name in SCALED else abs(value)) / U)
            for name, value in ref.items()
        }


def check_point(zeta: float, omega_n: float, code: int, row: str, err: str) -> None:
    """An exit 0 within the bounds, or an exit 3 the oracle's range backs."""
    ref = checked_oracle(zeta, omega_n)
    if code == 0:
        found = errors(row, ref)
        assert all(found[name] <= bound for name, bound in BOUNDS.items()), (zeta, omega_n, found)
        return
    assert code == 3, (zeta, omega_n, err)
    named = [names for message, names in RANGE_MESSAGES.items() if message in err]
    assert len(named) == 1, err
    assert not all(normal(ref[name]) for name in named[0]), (zeta, omega_n, err)


def analyze(zeta: float, omega_n: float) -> tuple[int, str, str]:
    code, out, err = run(["analyze", f"--zeta={zeta!r}", f"--omega-n={omega_n!r}", "--format=csv",
                          f"--duality-c={C!r}", f"--kb={K_B!r}"])
    return code, out.splitlines()[1] if code == 0 else "", err


def sweep(zetas: list, omegas: list) -> tuple[int, str, str]:
    return run(["sweep", "--zeta-grid=" + ",".join(map(repr, zetas)),
                "--omega-n-grid=" + ",".join(map(repr, omegas)),
                f"--duality-c={C!r}", f"--kb={K_B!r}"])


def test_in_range_points_print_the_oracle_numbers():
    points = [(z, w) for z in ZETAS for w in OMEGAS]
    ends = [analyze(z, w) for z, w in points]
    assert all(code == 0 for code, _, _ in ends), [end for end in ends if end[0]]
    for (z, w), end in zip(points, ends):
        check_point(z, w, *end)
    # The sweep over the same grid prints the same rows.
    code, out, err = sweep(ZETAS, OMEGAS)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [row for _, row, _ in ends]


@pytest.mark.parametrize("zeta", EDGE_ZETAS)
def test_edge_zetas_print_the_oracle_numbers_or_refuse_out_of_range(zeta):
    for omega_n in OMEGAS[::4]:
        check_point(zeta, omega_n, *analyze(zeta, omega_n))


def test_a_sweep_over_the_edges_ends_as_analyze_at_its_first_refused_point():
    omegas = OMEGAS[::4]
    ends = [analyze(z, w) for z in EDGE_ZETAS for w in omegas]
    first = next(end for end in ends if end[0] != 0)
    code, out, err = sweep(EDGE_ZETAS, omegas)
    assert (code, out, err) == (first[0], "", first[2])
