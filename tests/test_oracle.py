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

``synthesize``'s predicted energy x_f^T W_T^-1 x_f is checked as well, with
W_T = W_inf - Phi(T) W_inf Phi(T)^T in mpmath at adaptive precision.
"""

import contextlib
import io
import json
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
    "closed-form Gramian underflows": ("w11", "w22"),
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
# Forty draws past the omega_n^3 overflow at 5.6e102: omega_n from
# 10^U(102, 154.1), below the omega_n^2 overflow at 1.3e154, and zeta from
# 10^U(-300, 140 - 2 log10 omega_n), which keeps every printed number normal.
_far = np.random.default_rng(2028)
FAR_POINTS = [(10.0 ** _far.uniform(-300.0, 140.0 - 2.0 * x), 10.0**x)
              for x in _far.uniform(102.0, 154.1, 40).tolist()]
# Points whose 1/(4 zeta omega_n^3) is a normal double although omega_n^3
# overflows (the first two; zeta is subnormal in the second), 4 zeta
# omega_n^3 underflows to 0 (the third), or omega_n^3 is subnormal while
# 4 zeta omega_n^3 is normal (the last three).
SCALED_CUBE_POINTS = [(1e-300, 1e103), (1e-310, 1e103), (1e100, 1e-110),
                      (1e100, 1e-105), (1e90, 1e-104), (1e60, 1e-103)]
# Undamped points whose omega_n^2 is subnormal (omega_n below 1.49e-154) while
# 1/omega_n^2 is a normal double (omega_n above 7.46e-155): a known point and
# eight draws from that band.  det(W) = 1/omega_n^2 is then above 4e307, so
# c = 1e10 keeps det(I) = c / det(W) normal.
_band = np.random.default_rng(2029)
SUBNORMAL_SQUARE_OMEGAS = sorted([7.843682514843243e-155]
                                 + _band.uniform(7.46e-155, 1.5e-154, 8).tolist())
SUBNORMAL_SQUARE_C = 1e10

# synthesize's predicted energy x_f^T W_T^-1 x_f at zeta = 0.5, omega_n = 1,
# where cond(W_T) reaches about 1e13 at T = 1e-6: worst relative error over
# the horizons and targets below, in units of U, 11.0 on OpenBLAS
# ``Core: SkylakeX`` and 10.9 on Haswell (both at T = 1e-6), 20.7 on
# SandyBridge (T = 1e-4).  The bound is the worst with about half as much
# again for room.
ENERGY_BOUND = 30.0
HORIZONS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
TARGETS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.3, 2.0)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def oracle(zeta: float, omega_n: float, c: float = C) -> dict:
    """The printed numbers of the point at the working precision."""
    z, w = mpmath.mpf(zeta), mpmath.mpf(omega_n)
    w11, w22 = (1 / (4 * z * w**3), 1 / (4 * z * w)) if z else (1 / w**2, mpmath.mpf(1))
    det = w11 * w22
    h = mpmath.log(2 * mpmath.pi * mpmath.e) - mpmath.log(c / det) / 2
    return {
        "w11": w11, "w22": w22, "det_wc": det, "lambda_min": min(w11, w22),
        "lambda_max": max(w11, w22), "trace": w11 + w22,
        "condition_number": max(w11, w22) / min(w11, w22), "det_i": c / det,
        "differential_entropy_nats": h, "thermodynamic_entropy": K_B * h,
        "entropy_index": mpmath.log(det),
    }


def checked_oracle(zeta: float, omega_n: float, c: float = C) -> dict:
    """The 40-digit oracle, checked against the 60-digit one."""
    with mpmath.workdps(60):
        fine = oracle(zeta, omega_n, c)
    with mpmath.workdps(40):
        ref = oracle(zeta, omega_n, c)
        for name, value in ref.items():
            assert abs(value - fine[name]) <= mpmath.mpf(10) ** -35 * max(1, abs(fine[name])), name
    return ref


def energy_oracle(zeta: float, omega_n: float, T: float, x_f: tuple) -> mpmath.mpf:
    """x_f^T W_T^-1 x_f with W_T = W_inf - Phi(T) W_inf Phi(T)^T, whose
    difference cancels about log10(1 / (omega_n T)^3) digits: the precision
    doubles from 30 digits until it and its double agree to 1e-25."""
    def at(dps):
        with mpmath.workdps(dps):
            z, w = mpmath.mpf(zeta), mpmath.mpf(omega_n)
            W_inf = mpmath.diag([1 / (4 * z * w**3), 1 / (4 * z * w)])
            Phi = mpmath.expm(mpmath.matrix([[0, 1], [-w * w, -2 * z * w]]) * mpmath.mpf(T))
            x = mpmath.matrix(list(x_f))
            return (x.T * mpmath.inverse(W_inf - Phi * W_inf * Phi.T) * x)[0]

    dps = 30
    while True:
        coarse, fine = at(dps), at(2 * dps)
        if abs(coarse - fine) <= mpmath.mpf(10) ** -25 * abs(fine):
            return fine
        dps *= 2


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


def analyze(zeta: float, omega_n: float, c: float = C) -> tuple[int, str, str]:
    code, out, err = run(["analyze", f"--zeta={zeta!r}", f"--omega-n={omega_n!r}", "--format=csv",
                          f"--duality-c={c!r}", f"--kb={K_B!r}"])
    return code, out.splitlines()[1] if code == 0 else "", err


def sweep(zetas: list, omegas: list, c: float = C) -> tuple[int, str, str]:
    return run(["sweep", "--zeta-grid=" + ",".join(map(repr, zetas)),
                "--omega-n-grid=" + ",".join(map(repr, omegas)),
                f"--duality-c={c!r}", f"--kb={K_B!r}"])


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


def test_points_past_the_cube_range_print_the_oracle_numbers():
    for z, w in FAR_POINTS + SCALED_CUBE_POINTS:
        end = analyze(z, w)
        assert end[0] == 0, (z, w, end)
        check_point(z, w, *end)
        code, out, err = sweep([z], [w])
        assert (code, err) == (0, "") and out.splitlines()[1] == end[1]


def test_undamped_points_with_a_subnormal_square_print_the_oracle_numbers():
    ends = [analyze(0.0, w, SUBNORMAL_SQUARE_C) for w in SUBNORMAL_SQUARE_OMEGAS]
    for w, (code, row, err) in zip(SUBNORMAL_SQUARE_OMEGAS, ends):
        assert (code, err) == (0, ""), (w, err)
        found = errors(row, checked_oracle(0.0, w, SUBNORMAL_SQUARE_C))
        assert all(found[name] <= bound for name, bound in BOUNDS.items()), (w, found)
    code, out, err = sweep([0.0], SUBNORMAL_SQUARE_OMEGAS, SUBNORMAL_SQUARE_C)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [row for _, row, _ in ends]


def test_synthesize_predicts_the_oracle_energy(tmp_path):
    for T in HORIZONS:
        for x_f in TARGETS:
            code, out, err = run(["synthesize", "--zeta=0.5", "--omega-n=1", f"--T={T!r}",
                                  f"--xf={x_f[0]!r},{x_f[1]!r}", "--steps=100",
                                  f"--out={tmp_path / 'profile.csv'}"])
            assert (code, err) == (0, ""), (T, x_f, err)
            ref = energy_oracle(0.5, 1.0, T, x_f)
            with mpmath.workdps(40):
                found = float(abs(mpmath.mpf(json.loads(out)["predicted_energy"]) - ref) / ref / U)
            assert found <= ENERGY_BOUND, (T, x_f, found)
