"""Controllability Gramians: finite and infinite horizon, closed forms for
the oscillator, and scalar controllability metrics.

The finite-horizon Gramian is the integral of exp(A t) B B^T exp(A^T t) over
[0, T]; the infinite-horizon Gramian of a strictly stable system is the
unique symmetric positive definite solution of A W + W A^T = -B B^T.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonHurwitzError, QuadratureConvergenceError
from .lti import (
    OscillatorParams,
    StateSpaceModel,
    _readonly,
    _require_nonnegative,
    _require_square,
    expm_scaling_squaring,
    matrix_exponential,
)

# Real parts of every eigenvalue must sit below this for the Lyapunov path;
# marginally stable inputs error rather than return garbage.
HURWITZ_THRESHOLD = -1e-12

# Adaptive Simpson: absolute tolerance per matrix entry and leaf-panel cap.
QUADRATURE_TOL = 1e-10
QUADRATURE_PANEL_CAP = 2 ** 20

# lambda_min / lambda_max at or below this marks a numerically uncontrollable
# direction: flagged by gramian_spectrum, refused by the minimum-energy solve.
SPD_RATIO_FLOOR = 1e-14

_HORIZON_KINDS = ("finite", "infinite", "paper_adopted_undamped")
_METHODS = ("closed_form", "lyapunov", "augmented_expm", "quadrature")


@dataclass(frozen=True)
class Horizon:
    """Integration horizon of a Gramian.

    ``finite`` carries the horizon length in seconds.  ``infinite`` marks a
    convergent limit.  ``paper_adopted_undamped`` marks the conventional
    fixed matrix used for the undamped oscillator, whose defining integral
    diverges; callers opt in to that convention knowingly.
    """

    kind: str
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _HORIZON_KINDS:
            raise ValueError(f"unknown horizon kind {self.kind!r}")
        if self.kind == "finite":
            if self.seconds is None or not math.isfinite(self.seconds) or self.seconds < 0.0:
                raise ValueError(f"finite horizon needs seconds >= 0, got {self.seconds}")
        elif self.seconds is not None:
            raise ValueError(f"{self.kind} horizon takes no seconds value")

    @classmethod
    def finite(cls, seconds: float) -> "Horizon":
        return cls(kind="finite", seconds=float(seconds))

    @classmethod
    def infinite(cls) -> "Horizon":
        return cls(kind="infinite")

    @classmethod
    def adopted_undamped(cls) -> "Horizon":
        return cls(kind="paper_adopted_undamped")


@dataclass(frozen=True)
class GramianResult:
    """A controllability Gramian with its horizon and computation method.

    The matrix is symmetrized on construction.  ``residual`` holds the
    Frobenius norm of A W + W A^T + B B^T when the Lyapunov path produced
    the result.
    """

    matrix: np.ndarray
    horizon: Horizon
    method: str
    residual: float | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        W = _require_square("Gramian", self.matrix)
        W = 0.5 * (W + W.T)
        object.__setattr__(self, "matrix", _readonly(W))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _augmented_expm_gramian(A: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """Gramian over [0, T] from the block-matrix exponential.

    One exponential of [[-A, B B^T], [0, A^T]] at a base step gives the
    Gramian there (transposed lower-right block times upper-right block);
    interval doubling W <- W + Phi W Phi^T, Phi <- Phi^2 then reaches T.
    Doubling keeps the -A block from amplifying roundoff exponentially on
    long horizons, where the one-shot evaluation loses all precision.
    """
    n = A.shape[0]
    doublings = 0
    norm = float(np.linalg.norm(A, 1))
    while norm * T / (2.0 ** doublings) > 1.0:
        doublings += 1
    h = T / (2.0 ** doublings)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -A
    M[:n, n:] = B @ B.T
    M[n:, n:] = A.T
    with np.errstate(over="raise", invalid="raise"):
        F = expm_scaling_squaring(M * h).matrix
        W = F[n:, n:].T @ F[:n, n:]
        W = 0.5 * (W + W.T)
        phi = F[n:, n:].T
        for _ in range(doublings):
            W = W + phi @ W @ phi.T
            W = 0.5 * (W + W.T)
            phi = phi @ phi
    return W


def _adaptive_simpson_gramian(
    A: np.ndarray, B: np.ndarray, T: float, tol: float, panel_cap: int
) -> np.ndarray:
    """Adaptive Simpson on the Gramian integrand, entrywise tolerance.

    Level-synchronous: the panels still open at one bisection level share
    their tolerance and remaining forced depth, so one batched integrand
    call refines them all.  The forced minimum depth guards against
    spuriously small error estimates on the oscillatory integrand.
    """

    def f(t: np.ndarray) -> np.ndarray:
        col = matrix_exponential(A, t) @ B
        return col @ col.swapaxes(-1, -2)

    # Open panels: nodes (a, mid, b), the integrand there, Simpson estimate.
    x = np.array([[0.0, 0.5 * T, T]])
    fx = f(x)
    whole = (T / 6.0) * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])
    total, panels, depth = 0.0, 0, 6
    while len(x):
        # Bisect every panel into nodes (a, lm, mid, rm, b).
        x5 = np.insert(x, [1, 2], 0.5 * (x[:, :-1] + x[:, 1:]), axis=1)
        f5 = np.insert(fx, [1, 2], f(x5[:, 1::2]), axis=1)
        width = (x5[:, 2::2] - x5[:, :3:2]) / 6.0
        halves = width[..., None, None] * (f5[:, :3:2] + 4.0 * f5[:, 1::2] + f5[:, 2::2])
        err = halves[:, 0] + halves[:, 1] - whole
        done = (np.abs(err).max(axis=(1, 2)) <= 15.0 * tol) & (depth <= 0)
        total = total + np.sum((halves[:, 0] + halves[:, 1] + err / 15.0)[done], axis=0)
        keep = ~done
        panels += 2 * int(np.count_nonzero(keep))
        if panels > panel_cap:
            raise QuadratureConvergenceError(
                f"adaptive Simpson exceeded {panel_cap} panels on [0, {T}]"
            )
        x = np.concatenate([x5[keep, :3], x5[keep, 2:]])
        fx = np.concatenate([f5[keep, :3], f5[keep, 2:]])
        whole = np.concatenate([halves[keep, 0], halves[keep, 1]])
        tol, depth = 0.5 * tol, depth - 1
    return total


def finite_horizon_gramian(
    model: StateSpaceModel, T: float, method: str = "augmented_expm"
) -> GramianResult:
    """Controllability Gramian over [0, T].

    Parameters
    ----------
    model : StateSpaceModel
    T : float
        Horizon in seconds, >= 0.  T = 0 yields the zero matrix.
    method : {"augmented_expm", "quadrature"}
        ``augmented_expm`` integrates through the block-matrix exponential;
        ``quadrature`` runs adaptive Simpson with absolute per-entry
        tolerance ``QUADRATURE_TOL``.  The two agree to relative 1e-8 in
        Frobenius norm.

    Raises
    ------
    QuadratureConvergenceError
        If adaptive Simpson does not converge within the panel cap.
    """
    T = _require_nonnegative("T", T)
    if method not in ("augmented_expm", "quadrature"):
        raise ValueError(f"method must be 'augmented_expm' or 'quadrature', got {method!r}")
    if T == 0.0:
        W = np.zeros((model.n, model.n))
    elif method == "augmented_expm":
        W = _augmented_expm_gramian(model.A, model.B, T)
    else:
        W = _adaptive_simpson_gramian(
            model.A, model.B, T, QUADRATURE_TOL, QUADRATURE_PANEL_CAP
        )
    return GramianResult(matrix=W, horizon=Horizon.finite(T), method=method)


def infinite_horizon_gramian_lyapunov(model: StateSpaceModel) -> GramianResult:
    """Infinite-horizon Gramian as the solution of A W + W A^T = -B B^T.

    Solved directly (LU) on the n(n+1)/2 unknowns W_kl, k <= l, of the
    symmetric solution: row (p, q), p <= q, of the operator is
    sum_k A_pk W_kq + A_qk W_pk, scattered onto the column of each
    unknown.  Both triangles of W are filled from the one solution, so W is
    exactly symmetric.  The Frobenius residual of the solve is recorded on
    the result.

    Raises
    ------
    NonHurwitzError
        If any eigenvalue of A has real part >= ``HURWITZ_THRESHOLD``; the
        defining integral does not converge for such systems.
    """
    A, B = model.A, model.B
    n = model.n
    real_parts = np.linalg.eigvals(A).real
    if real_parts.max() >= HURWITZ_THRESHOLD:
        raise NonHurwitzError(
            "dynamics matrix is not strictly Hurwitz "
            f"(max eigenvalue real part {real_parts.max():.3e}); "
            "the infinite-horizon Gramian does not exist"
        )
    Q = B @ B.T
    p, q = np.triu_indices(n)
    m = p.size
    # idx[k, l] = idx[l, k] is the unknown holding W_kl.
    idx = np.empty((n, n), dtype=np.intp)
    idx[p, q] = idx[q, p] = np.arange(m)
    # Row (p, q): A_pk at the column of W_kq, A_qk at the column of W_pk.
    cols = np.concatenate([idx[:, q].T, idx[p]], axis=1)
    cols += np.arange(0, m * m, m)[:, None]
    values = np.concatenate([A[p], A[q]], axis=1)
    coeff = np.bincount(cols.ravel(), weights=values.ravel(), minlength=m * m)
    W = np.linalg.solve(coeff.reshape(m, m), -Q[p, q])[idx]
    residual = float(np.linalg.norm(A @ W + W @ A.T + Q, "fro"))
    return GramianResult(
        matrix=W, horizon=Horizon.infinite(), method="lyapunov", residual=residual
    )


def oscillator_gramian_closed_form(params: OscillatorParams) -> GramianResult:
    """Analytical infinite-horizon Gramian of the oscillator.

    For zeta > 0 this is diag(1/(4*zeta*omega_n^3), 1/(4*zeta*omega_n)).
    For zeta = 0 the defining integral diverges; the conventional matrix
    diag(1/omega_n^2, 1) is returned under the distinct
    ``paper_adopted_undamped`` horizon tag so callers opt in knowingly.
    """
    wn, z = params.omega_n, params.zeta
    if z > 0.0:
        diagonal = [1.0 / (4.0 * z * wn ** 3), 1.0 / (4.0 * z * wn)]
        horizon = Horizon.infinite()
    else:
        diagonal = [1.0 / (wn * wn), 1.0]
        horizon = Horizon.adopted_undamped()
    if not all(map(math.isfinite, diagonal)):
        raise OverflowError(f"closed-form Gramian overflows at zeta={z}, omega_n={wn}")
    return GramianResult(matrix=np.diag(diagonal), horizon=horizon, method="closed_form")


def gramian_determinant(g: GramianResult) -> float:
    """det(W); an aggregate inverse measure of the control effort.

    The 2x2 case uses the cofactor formula directly: LAPACK's LU path
    injects an avoidable ulp of noise, and the closed-form oscillator
    determinants are expected exactly.  There, ``OverflowError`` is raised
    when det(W) overflows, and ``ArithmeticError`` when the product of two
    nonzero diagonal entries falls below the normal double range.  For
    n > 2, ``OverflowError`` is raised when det(W) overflows, and
    ``ArithmeticError`` when it is 0 or subnormal while ``slogdet`` finds
    W nonsingular.
    """
    if g.n > 2:
        with np.errstate(over="ignore", under="ignore"):
            det = float(np.linalg.det(g.matrix))
        if sys.float_info.min <= abs(det) < math.inf:
            return det
        sign, logdet = np.linalg.slogdet(g.matrix)
        if not math.isfinite(det):
            raise OverflowError(f"Gramian determinant overflows (ln|det W| = {logdet})")
        if sign != 0.0:
            raise ArithmeticError(f"Gramian determinant underflows (ln|det W| = {logdet})")
        return det
    W = g.matrix.tolist()
    if g.n == 1:
        return W[0][0]
    diagonal = W[0][0] * W[1][1]
    det = diagonal - W[0][1] * W[1][0]
    if not math.isfinite(det):
        raise OverflowError(f"Gramian determinant overflows (entries {W})")
    if W[0][0] and W[1][1] and abs(diagonal) < sys.float_info.min:
        raise ArithmeticError(f"Gramian determinant underflows (entries {W})")
    return det


@dataclass(frozen=True)
class GramianSpectrum:
    """Eigenvalues (ascending), trace, and condition number of a Gramian.

    ``uncontrollable_direction`` flags lambda_min <= SPD_RATIO_FLOOR *
    lambda_max: an eigendirection numerically unreachable with finite energy.
    """

    eigenvalues: np.ndarray
    trace: float
    condition_number: float
    uncontrollable_direction: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))


def gramian_spectrum(g: GramianResult) -> GramianSpectrum:
    """Symmetric eigendecomposition summary of a Gramian."""
    eigenvalues = np.linalg.eigvalsh(g.matrix)
    lam_min = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    flagged = lam_min <= SPD_RATIO_FLOOR * lam_max
    condition = math.inf if lam_min <= 0.0 else lam_max / lam_min
    return GramianSpectrum(
        eigenvalues=eigenvalues,
        trace=float(np.trace(g.matrix)),
        condition_number=condition,
        uncontrollable_direction=flagged,
    )
