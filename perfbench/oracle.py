"""Checks of gramkit's outputs against computations made apart from gramkit.

Every reference value comes from scipy, a closed form, or an identity the
output must satisfy; nothing is compared against a stored copy.  Importing
this module imports scipy, so the benchmark imports it only after reading
its memory high-water mark.

A Gramian entry W_ij is compared on the scale sqrt(W_ii * W_jj) of the
reference, which is the size an off-diagonal entry of a positive definite
matrix can reach; a diagonal entry is thus held to its own relative error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import cho_factor, cho_solve, eigh, expm, solve_continuous_lyapunov, svdvals

from workloads import GENERAL_T, QUADRATURE_CASES, SWEEP_C, SWEEP_KB, TRANSFER_STEPS

LN_2PI_E = math.log(2.0 * math.pi * math.e)

# Tolerances, set from the errors observed on these inputs with margin.
GRAMIAN_RTOL = 1e-9
QUADRATURE_RTOL = 1e-8  # the documented agreement of the two finite paths
CHAIN_RTOL = 1e-13  # identities computed from the reported determinant
ENERGY_RTOL = 1e-9
FINAL_STATE_GATE = 1e-3  # the CLI's verification gate
RK4_VS_EXACT = 1e-6  # RK4 against exact propagation of the same sampled input
SAMPLED_ENERGY_RTOL = 1e-5  # Simpson on the 2000-step grid

CSV_COLUMNS = [
    "zeta", "omega_n", "regime", "horizon", "horizon_seconds", "w11", "w12", "w22",
    "det_wc", "lambda_min", "lambda_max", "trace", "condition_number", "det_i",
    "differential_entropy_nats", "thermodynamic_entropy", "entropy_index",
]


class CheckFailed(Exception):
    """A gramkit output disagrees with its independent reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(name: str, got: float, want: float, rtol: float, scale: float | None = None) -> None:
    scale = abs(want) if scale is None else scale
    _require(
        math.isfinite(got) and abs(got - want) <= rtol * scale,
        f"{name}: got {got!r}, expected {want!r} (rtol {rtol:g} on scale {scale:g})",
    )


def check_gramian(name: str, W: np.ndarray, W_ref: np.ndarray, rtol: float) -> None:
    W = np.asarray(W, dtype=float)
    _require(W.shape == W_ref.shape, f"{name}: shape {W.shape}, expected {W_ref.shape}")
    d = np.sqrt(np.diag(W_ref))
    err = np.abs(W - W_ref) / np.outer(d, d)
    i, j = np.unravel_index(np.argmax(err), err.shape)
    _require(
        bool(np.all(np.isfinite(W))) and err[i, j] <= rtol,
        f"{name}: entry ({i},{j}) is {W[i, j]!r}, expected {W_ref[i, j]!r} "
        f"(scaled error {err[i, j]:.3e} > {rtol:g})",
    )


def oscillator(zeta: float, omega_n: float) -> tuple[np.ndarray, np.ndarray]:
    A = np.array([[0.0, 1.0], [-omega_n * omega_n, -2.0 * zeta * omega_n]])
    return A, np.array([[0.0], [1.0]])


def undamped_finite_gramian(omega_n: float, T: float) -> np.ndarray:
    """Closed form of the zeta = 0 Gramian; exp(At)B = (sin(wt)/w, cos(wt))."""
    w = omega_n
    s2 = math.sin(2.0 * w * T) / (4.0 * w)
    w12 = math.sin(w * T) ** 2 / (2.0 * w * w)
    return np.array([[(0.5 * T - s2) / (w * w), w12], [w12, 0.5 * T + s2]])


def stable_finite_gramian(A: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """W_T = W_inf - e^{AT} W_inf e^{A^T T} for Hurwitz A."""
    W_inf = solve_continuous_lyapunov(A, -B @ B.T)
    E = expm(A * T)
    W = W_inf - E @ W_inf @ E.T
    return 0.5 * (W + W.T)


def oscillator_finite_gramian(zeta: float, omega_n: float, T: float) -> np.ndarray:
    if zeta == 0.0:
        return undamped_finite_gramian(omega_n, T)
    return stable_finite_gramian(*oscillator(zeta, omega_n), T)


def _regime(zeta: float) -> str:
    if zeta == 0.0:
        return "undamped"
    if abs(zeta - 1.0) < 1e-9:
        return "critically_damped"
    return "underdamped" if zeta < 1.0 else "overdamped"


def _check_spectrum(name: str, lam_min, lam_max, trace, cond, W_ref: np.ndarray) -> None:
    lam = eigh(W_ref, eigvals_only=True)
    cond_ref = lam[-1] / lam[0]
    _close(f"{name} lambda_min", lam_min, lam[0], GRAMIAN_RTOL, lam[-1])
    _close(f"{name} lambda_max", lam_max, lam[-1], GRAMIAN_RTOL)
    _close(f"{name} trace", trace, float(np.trace(W_ref)), GRAMIAN_RTOL)
    _close(f"{name} condition_number", cond, cond_ref, GRAMIAN_RTOL * cond_ref, cond_ref)


# ----------------------------------------------------------------- sweep_table


def _parse_csv(text: str, expected_rows: int) -> list[dict]:
    lines = text.rstrip("\n").split("\n")
    _require(lines[0].split(",") == CSV_COLUMNS, f"CSV header is {lines[0]!r}")
    _require(len(lines) - 1 == expected_rows, f"{len(lines) - 1} CSV rows, expected {expected_rows}")
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]


def _check_sweep_row(name: str, row: dict, zeta: float, omega_n: float, T: float | None,
                     W_ref: np.ndarray, horizon: str) -> None:
    _require(float(row["zeta"]) == zeta and float(row["omega_n"]) == omega_n,
             f"{name}: parameters {row['zeta']}, {row['omega_n']}")
    _require(row["regime"] == _regime(zeta), f"{name}: regime {row['regime']}")
    _require(row["horizon"] == horizon, f"{name}: horizon {row['horizon']}")
    if T is None:
        _require(row["horizon_seconds"] == "", f"{name}: horizon_seconds {row['horizon_seconds']!r}")
    else:
        _require(float(row["horizon_seconds"]) == T, f"{name}: horizon_seconds {row['horizon_seconds']}")
    v = {k: float(row[k]) for k in CSV_COLUMNS[5:]}
    W = np.array([[v["w11"], v["w12"]], [v["w12"], v["w22"]]])
    check_gramian(name, W, W_ref, GRAMIAN_RTOL)
    det = v["det_wc"]
    det_ref = W_ref[0, 0] * W_ref[1, 1] - W_ref[0, 1] ** 2
    _close(f"{name} det_wc", det, det_ref, GRAMIAN_RTOL, W_ref[0, 0] * W_ref[1, 1])
    _check_spectrum(name, v["lambda_min"], v["lambda_max"], v["trace"], v["condition_number"], W_ref)
    # det(W) * det(I) = c and the entropy chain, from the reported determinant.
    _close(f"{name} det_wc * det_i", det * v["det_i"], SWEEP_C, CHAIN_RTOL)
    h = LN_2PI_E - 0.5 * math.log(SWEEP_C / det)
    _close(f"{name} differential_entropy_nats", v["differential_entropy_nats"], h, CHAIN_RTOL, max(1.0, abs(h)))
    _close(f"{name} thermodynamic_entropy", v["thermodynamic_entropy"], SWEEP_KB * h, CHAIN_RTOL,
           max(1.0, abs(SWEEP_KB * h)))
    _close(f"{name} entropy_index", v["entropy_index"], math.log(det), CHAIN_RTOL, max(1.0, abs(math.log(det))))


def check_sweep(case, output) -> None:
    finite_csv, infinite_csv = output
    grid = [(z, w) for z in case.zetas for w in case.omegas]
    rows = iter(_parse_csv(finite_csv, len(grid) * len(case.horizons)))
    for zeta, omega_n in grid:
        for T in case.horizons:
            W_ref = oscillator_finite_gramian(zeta, omega_n, T)
            _check_sweep_row(f"finite row zeta={zeta} omega_n={omega_n} T={T}", next(rows),
                             zeta, omega_n, T, W_ref, "finite")
    rows = iter(_parse_csv(infinite_csv, len(grid)))
    for zeta, omega_n in grid:
        name = f"infinite row zeta={zeta} omega_n={omega_n}"
        if zeta == 0.0:
            W_ref = np.diag([1.0 / omega_n ** 2, 1.0])
            horizon = "paper_adopted_undamped"
        else:
            W_ref = np.diag([1.0 / (4.0 * zeta * omega_n ** 3), 1.0 / (4.0 * zeta * omega_n)])
            A, B = oscillator(zeta, omega_n)
            check_gramian(f"{name} closed form vs Lyapunov", W_ref,
                          solve_continuous_lyapunov(A, -B @ B.T), GRAMIAN_RTOL)
            horizon = "infinite"
        row = next(rows)
        _check_sweep_row(name, row, zeta, omega_n, None, W_ref, horizon)
        det_law = 1.0 / omega_n ** 2 if zeta == 0.0 else 1.0 / (16.0 * zeta ** 2 * omega_n ** 4)
        _close(f"{name} determinant law", float(row["det_wc"]), det_law, 1e-12)


# -------------------------------------------------------------------- transfer


def foh_final_state(A: np.ndarray, B: np.ndarray, u: np.ndarray, T: float) -> np.ndarray:
    """Exact propagation from x(0) = 0 of the piecewise-linear input through
    u's samples on the uniform grid, by one exponential of the augmented
    system (x' = Ax + Bu, u' = v, v' = 0)."""
    n, m = B.shape
    steps = len(u) - 1
    h = T / steps
    M = np.zeros((n + 2 * m, n + 2 * m))
    M[:n, :n] = A
    M[:n, n:n + m] = B
    M[n:n + m, n + m:] = np.eye(m)
    F = expm(M * h)
    phi, g0, g1 = F[:n, :n], F[:n, n:n + m], F[:n, n + m:] / h
    x = np.zeros(n)
    for k in range(steps):
        x = phi @ x + g0 @ u[k] + g1 @ (u[k + 1] - u[k])
    return x


def check_transfer(case, output) -> None:
    profile, report = output
    name = f"transfer zeta={case.zeta} omega_n={case.omega_n} T={case.T}"
    A, B = oscillator(case.zeta, case.omega_n)
    x_f = np.array(case.x_f)
    times, u = profile.times, profile.values
    _require(len(times) == TRANSFER_STEPS + 1 and times[0] == 0.0 and abs(times[-1] - case.T) <= 1e-12 * case.T,
             f"{name}: time grid")
    _require(np.array_equal(profile.target, x_f), f"{name}: target {profile.target}")

    W_ref = oscillator_finite_gramian(case.zeta, case.omega_n, case.T)
    p = cho_solve(cho_factor(W_ref), x_f)
    _close(f"{name} predicted_energy", profile.predicted_energy, float(x_f @ p), ENERGY_RTOL)
    u_scale = float(np.abs(u).max())
    _close(f"{name} u(T) = B^T W^-1 x_f", float(u[-1, 0]), float((B.T @ p)[0]), ENERGY_RTOL, u_scale)
    u0 = float((B.T @ expm(A.T * case.T) @ p)[0])
    _close(f"{name} u(0)", float(u[0, 0]), u0, ENERGY_RTOL, u_scale)

    x_exact = foh_final_state(A, B, u, case.T)
    target_norm = float(np.linalg.norm(x_f))
    gap = float(np.linalg.norm(x_exact - x_f)) / target_norm
    _require(gap < FINAL_STATE_GATE, f"{name}: exact propagation misses x_f by {gap:.3e}")
    achieved = report.achieved_final_state
    drift = float(np.linalg.norm(achieved - x_exact)) / target_norm
    _require(drift <= RK4_VS_EXACT,
             f"{name}: achieved final state {achieved} is {drift:.3e} from exact propagation {x_exact}")
    error = float(np.linalg.norm(achieved - x_f)) / target_norm
    _close(f"{name} final_state_error", report.final_state_error, error, 1e-12, max(error, 1e-15))
    _require(report.final_state_error < FINAL_STATE_GATE, f"{name}: final_state_error {report.final_state_error:.3e}")

    measured = float(simpson(u[:, 0] ** 2, x=times))
    _close(f"{name} measured_energy", report.measured_energy, measured, 1e-10)
    _close(f"{name} measured vs predicted energy", report.measured_energy, float(x_f @ p), SAMPLED_ENERGY_RTOL)
    mismatch = abs(report.measured_energy - profile.predicted_energy) / profile.predicted_energy
    _close(f"{name} energy_mismatch", report.energy_mismatch, mismatch, 1e-12, max(mismatch, 1e-15))


# ----------------------------------------------------------------- general_lti


def check_general(case, output) -> None:
    for (A, B, x_f), got in zip(case.systems, output["systems"], strict=True):
        n = A.shape[0]
        name = f"general n={n}"
        Q = B @ B.T
        W_inf_ref = solve_continuous_lyapunov(A, -Q)
        lyap = got["lyapunov"]
        _require((lyap.horizon.kind, lyap.method) == ("infinite", "lyapunov"), f"{name}: Lyapunov tags")
        check_gramian(f"{name} Lyapunov Gramian", lyap.matrix, W_inf_ref, GRAMIAN_RTOL)
        W = lyap.matrix
        residual = float(np.linalg.norm(A @ W + W @ A.T + Q, "fro"))
        bound = 1e-12 * (2.0 * np.linalg.norm(A, "fro") * np.linalg.norm(W, "fro") + np.linalg.norm(Q, "fro"))
        _require(residual <= bound and lyap.residual <= bound and abs(lyap.residual - residual) <= bound,
                 f"{name}: residual reported {lyap.residual:.3e}, recomputed {residual:.3e}, bound {bound:.3e}")

        fin = got["finite"]
        _require((fin.horizon.kind, fin.horizon.seconds, fin.method) == ("finite", GENERAL_T, "augmented_expm"),
                 f"{name}: finite Gramian tags")
        W_fin_ref = stable_finite_gramian(A, B, GENERAL_T)
        check_gramian(f"{name} finite Gramian", fin.matrix, W_fin_ref, GRAMIAN_RTOL)
        spec = got["spectrum"]
        _check_spectrum(name, spec.eigenvalues[0], spec.eigenvalues[-1], spec.trace, spec.condition_number, W_fin_ref)
        lam = eigh(W_fin_ref, eigvals_only=True)
        _require(np.abs(spec.eigenvalues - lam).max() <= GRAMIAN_RTOL * lam[-1], f"{name}: eigenvalues")
        _require(spec.uncontrollable_direction is False, f"{name}: flagged uncontrollable")

        for key, W_ref in (("energy_finite", W_fin_ref), ("energy_infinite", W_inf_ref)):
            want = float(x_f @ cho_solve(cho_factor(W_ref), x_f))
            _close(f"{name} {key}", got[key], want, ENERGY_RTOL)

        _require(got["rank"] == n, f"{name}: controllability rank {got['rank']}, expected {n}")
        sigma = svdvals(np.hstack([B, A @ B]))
        _require(sigma[n - 1] > 1e-8 * sigma[0], f"{name}: [B, AB] is not of full rank")

    for (zeta, omega_n, T), got in zip(QUADRATURE_CASES, output["oscillators"], strict=True):
        name = f"oscillator zeta={zeta} omega_n={omega_n} T={T}"
        quad, aug = got["quadrature"].matrix, got["augmented"].matrix
        _require(np.linalg.norm(quad - aug) <= QUADRATURE_RTOL * np.linalg.norm(aug),
                 f"{name}: quadrature and augmented_expm differ by {np.linalg.norm(quad - aug):.3e}")
        W_ref = oscillator_finite_gramian(zeta, omega_n, T)
        check_gramian(f"{name} augmented_expm", aug, W_ref, GRAMIAN_RTOL)
        check_gramian(f"{name} quadrature", quad, W_ref, QUADRATURE_RTOL)


CHECKS = {
    "sweep_table": check_sweep,
    "transfer": check_transfer,
    "general_lti": check_general,
}


def check(workload, outputs: list) -> None:
    """Check the first output of every case; raises CheckFailed.  A case
    whose every op failed has no output; the failures are counted apart."""
    for case, output in zip(workload.cases, outputs, strict=True):
        if output is not None:
            CHECKS[workload.name](case, output)
