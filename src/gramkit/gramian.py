"""Controllability Gramians: finite and infinite horizon, closed forms for
the oscillator, and scalar controllability metrics.

The finite-horizon Gramian is the integral of exp(A t) B B^T exp(A^T t) over
[0, T]; the infinite-horizon Gramian of a strictly stable system is the
unique symmetric positive definite solution of A W + W A^T = -B B^T.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NonHurwitzError, QuadratureConvergenceError
from .lti import (
    OscillatorParams,
    StateSpaceModel,
    _expm_stack,
    _norm1,
    _readonly,
    _require_nonnegative,
    _require_square,
    matrix_exponential,
)

# Real parts of every eigenvalue must sit below this for the Lyapunov path;
# marginally stable inputs error rather than return garbage.
HURWITZ_THRESHOLD = -1e-12

# Adaptive Simpson: absolute tolerance per matrix entry and leaf-panel cap.
QUADRATURE_TOL = 1e-10
QUADRATURE_PANEL_CAP = 2 ** 20

# Newton sign iteration of the Lyapunov solve: determinantally scaled steps,
# the relative 1-norm step at which it has converged, and the step cap.
SIGN_SCALED_STEPS = 6
SIGN_TOL = 1e-13
SIGN_STEP_CAP = 100

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

    The matrix is symmetrized on construction: entries that differ from
    their transpose become 0.5 W + 0.5 W^T, which cannot overflow, and the
    rest are kept bit for bit at any magnitude.  ``residual`` holds the
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
        # _symmetrize returns a new array, so it is frozen in place.
        W = _symmetrize(_require_square("Gramian", self.matrix))
        W.setflags(write=False)
        object.__setattr__(self, "matrix", W)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _symmetrize(W: np.ndarray) -> np.ndarray:
    """W, or a stack of them, with each entry that differs from its
    transpose replaced by 0.5 W + 0.5 W^T."""
    Wt = W.swapaxes(-1, -2)
    return np.where(W == Wt, W, 0.5 * W + 0.5 * Wt)


def _balancing_exponents(A: np.ndarray) -> np.ndarray:
    """Exponents e (k, n) such that D = diag(2**e) balances each matrix of A.

    Osborne's iteration (Parlett & Reinsch, Numer. Math. 13, 1969) in radix
    2 scales index i by about sqrt(r_i / c_i), the ratio of its off-diagonal
    row and column 1-norms.  Here every index of every matrix moves at once,
    by 2**(E >> 2) where r_i / c_i = m * 2**E with 1/2 <= m < 1: about half
    of Osborne's step, because indices that move together overshoot with the
    full step (for n = 2 it swaps the two off-diagonal magnitudes).
    Iterations stop when no index moves, with every ratio in [1/2, 8); a
    2 x 2 matrix needs one move, which leaves both ratios in [1/2, 2).  D = I
    when every ratio is already within [1/2, 2), and D^-1 A D is formed
    without rounding.
    """
    k, n, _ = A.shape
    off = np.abs(A)
    off.reshape(k, -1)[:, :: n + 1] = 0.0
    e = np.zeros((k, n), dtype=np.int32)
    # A zero row or column norm gives a ratio of 0, inf or NaN, whose frexp
    # exponent 0 leaves that index alone.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(64):
            step = np.frexp(np.add.reduce(off, 2) / np.add.reduce(off, 1))[1] >> 2
            if not np.count_nonzero(step):
                break
            e += step
            off = np.ldexp(off, step[:, None, :] - step[:, :, None])
    return e


def _finite_horizon_gramians(
    A: np.ndarray, B: np.ndarray, horizons: Sequence[float]
) -> tuple[np.ndarray, ArithmeticError | None]:
    """Augmented-expm Gramians of the rows (A_i, B_i, T_i) from one stacked kernel call.

    A is a finite (k, n, n) stack, B a finite (k, n, m) stack and
    ``horizons`` k finite floats >= 0, as the callers validate them.
    Returns the Gramians, not yet symmetrized, of the rows before the first
    row whose Gramian leaves the double range (an entry overflows, or a
    nonzero entry underflows to 0), in row order, and that row's
    ``ArithmeticError`` (None when no row fails).

    Each system is first balanced, A_s = D^-1 A D and B_s = D^-1 B with D a
    power of two per state, and W = D W_s D.  One exponential of
    [[-A_s h, 2**-c Q h], [0, A_s^T h]], Q = B' B'^T with B' = 2**-b B_s, at
    a base step h = T / 2**d with ||A_s h||_1 < 2 gives
    W' = 2**-(c + 2b) W_s(h) (transposed lower-right block times upper-right
    block); interval doubling W' <- W' + Phi W' Phi^T, Phi <- Phi^2 then
    reaches T.

    - Doubling keeps the -A block from amplifying roundoff exponentially on
      long horizons, where the one-shot evaluation loses all precision.
    - Balancing keeps the base step on the time scale of the dynamics when
      the entries of A span many orders of magnitude.
    - d is taken from the exponents of ||A_s||_1 and T, not from their
      product, so it is defined where the product or the norm itself
      overflows; wherever the product is a normal double,
      d = frexp(||A_s||_1 T)[1] - 1 (at least 0).
    - The power of two 2**-b brings max|B'| into [1/2, 1), so Q cannot
      overflow and its largest entries cannot underflow, and 2**-c brings
      ||2**-c Q h||_1 into [1/4, 1), so the Q block cannot force squarings:
      a large Q h would otherwise scale the A_s blocks far below unit
      roundoff before squaring them back.  Powers of two change no rounding
      where no entry is subnormal.

    Rows are doubled in order of decreasing d, so the rows still doubling
    form a leading slice.  Phi and, per level, Phi^T are contiguous copies,
    so that no product in the loop takes a transposed view; the bits are
    those of the views.
    """
    T = np.array(horizons, dtype=float)
    k, n, _ = A.shape
    e = _balancing_exponents(A)
    row, col = e[:, :, None], e[:, None, :]
    M = np.zeros((k, 2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.ldexp(A, col - row)
        B = np.ldexp(B, -row)
        # frexp(x) = (m, E) with x = m * 2**E, 1/2 <= m < 1.
        b = np.frexp(np.abs(B).max(axis=(1, 2)))[1]
        B = np.ldexp(B, -b[:, None, None])
        Q = B @ B.swapaxes(1, 2)
        # ||A_s||_1 = m_A * 2**(E_A + a) from the column sums of 2**-a A_s,
        # a the exponent of max|A_s|, which cannot overflow.
        a = np.frexp(np.abs(A).max(axis=(1, 2)))[1]
        (m_A, E_A), (m_T, E_T) = np.frexp(_norm1(np.ldexp(A, -a[:, None, None]))), np.frexp(T)
        m, E = np.frexp(m_A * m_T)
        d = np.where(m == 0.0, 0, np.maximum(E + E_A + a + E_T - 1, 0))
        h = np.ldexp(T, -d)
        c = np.frexp(_norm1(Q))[1] + np.frexp(h)[1]
        M[:, :n, :n] = -A
        M[:, :n, n:] = np.ldexp(Q, -c[:, None, None])
        M[:, n:, n:] = A.swapaxes(1, 2)
        M *= h[:, None, None]
        order = (-d).argsort(kind="stable")
        M, d = M[order], d[order]
        F = _expm_stack(M)[0]
        phi = F[:, n:, n:].swapaxes(1, 2).copy()
        W = phi @ F[:, :n, n:]
        for active in (-d).searchsorted(-np.arange(d[0])).tolist():
            w, p = W[:active], phi[:active]
            w += p @ w @ p.swapaxes(1, 2).copy()
            np.matmul(p, p, out=p)
        W = W[order.argsort()]
        scaled = np.ldexp(W, row + col + (c + 2 * b)[:, None, None])  # D (2**(c + 2b) W') D
    kept = np.isfinite(scaled) & ((scaled != 0.0) | (W == 0.0))
    lost = ~np.logical_and.reduce(kept, axis=(1, 2))
    if not np.count_nonzero(lost):
        return scaled, None
    i = int(lost.argmax())
    return scaled[:i], ArithmeticError(f"the Gramian over [0, {float(T[i])}] leaves the double range")


def _adaptive_simpson_gramian(A: np.ndarray, B: np.ndarray, T: float) -> np.ndarray:
    """Adaptive Simpson on the Gramian integrand, entrywise ``QUADRATURE_TOL``.

    Level-synchronous: a panel (a, m, b) with Simpson estimate ``whole`` is
    bisected at lm and rm, and it finishes when its two halves differ from
    ``whole`` by at most 15 tol; the panels still open at one level share
    their tol, halved per level, so one batched integrand call refines them
    all.  No panel may finish before the seventh bisection, a forced depth
    that guards against spuriously small error estimates on the oscillatory
    integrand.  The six forced levels therefore leave 64 panels of [0, T]
    (126 panels counted against ``QUADRATURE_PANEL_CAP``), and those panels
    with their lm and rm form one grid of 257 nodes, evaluated in one
    integrand call.
    Those 64 panels start in grid order; each further level keeps the left
    halves of its open panels before the right halves, and the finished
    panels of a level are summed in that order.
    """

    def f(t: np.ndarray) -> np.ndarray:
        # One 2-D product with the shared B over the whole stack.
        col = (matrix_exponential(A, t).reshape(-1, len(B)) @ B).reshape(t.shape + B.shape)
        return col @ col.swapaxes(-1, -2)

    def midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Not 0.5 (a + b): the sum overflows next to a T near the largest double.
        return 0.5 * a + 0.5 * b

    t = np.array([0.0, T])
    for _ in range(8):
        grid = np.empty(2 * len(t) - 1)
        grid[::2], grid[1::2] = t, midpoints(t[:-1], t[1:])
        t = grid
    ft = f(t)
    # Open panels in grid order, panel j on nodes 4j..4j+4: a, lm, m, rm, b
    # and the integrand there.
    a, lm, m, rm, b = (t[i : i + 253 : 4] for i in range(5))
    fa, flm, fm, frm, fb = (ft[i : i + 253 : 4] for i in range(5))
    whole = ((b - a) / 6.0)[:, None, None] * (fa + 4.0 * fm + fb)
    total, panels, tol = 0.0, 126, QUADRATURE_TOL / 2 ** 6
    while True:
        left = ((m - a) / 6.0)[:, None, None] * (fa + 4.0 * flm + fm)
        right = ((b - m) / 6.0)[:, None, None] * (fm + 4.0 * frm + fb)
        err = left + right - whole
        done = np.abs(err).max(axis=(1, 2)) <= 15.0 * tol
        total = total + np.sum((left + right + err / 15.0)[done], axis=0)
        keep = ~done
        panels += 2 * int(np.count_nonzero(keep))
        if panels > QUADRATURE_PANEL_CAP:
            raise QuadratureConvergenceError(
                f"adaptive Simpson exceeded {QUADRATURE_PANEL_CAP} panels on [0, {T}]"
            )
        if not keep.any():
            return total
        # Left halves (a, lm, m) first, then right halves (m, rm, b).
        a, m, b = (np.concatenate([u[keep], v[keep]]) for u, v in ((a, m), (lm, rm), (m, b)))
        fa, fm, fb = (np.concatenate([u[keep], v[keep]]) for u, v in ((fa, fm), (flm, frm), (fm, fb)))
        whole = np.concatenate([left[keep], right[keep]])
        lm, rm = midpoints(a, m), midpoints(m, b)
        flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
        tol = 0.5 * tol


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
        ``augmented_expm`` integrates through the balanced block-matrix
        exponential (the k = 1 call of the stacked kernel); ``quadrature``
        runs adaptive Simpson with absolute per-entry tolerance
        ``QUADRATURE_TOL``.  The two agree to relative 1e-8 in Frobenius
        norm.

    Raises
    ------
    ArithmeticError
        If the ``augmented_expm`` Gramian leaves the double range: an entry
        overflows, or a nonzero entry underflows to 0.  ||A|| T and
        ||B B^T|| may lie outside the double range.
    QuadratureConvergenceError
        If adaptive Simpson does not converge within the panel cap.
    """
    T = _require_nonnegative("T", T)
    if method not in ("augmented_expm", "quadrature"):
        raise ValueError(f"method must be 'augmented_expm' or 'quadrature', got {method!r}")
    if method == "augmented_expm":
        W, failure = _finite_horizon_gramians(model.A[None], model.B[None], [T])
        if failure is not None:
            raise failure
        W = W[0]
    else:
        W = _adaptive_simpson_gramian(model.A, model.B, T)
    return GramianResult(matrix=W, horizon=Horizon.finite(T), method=method)


def infinite_horizon_gramian_lyapunov(model: StateSpaceModel) -> GramianResult:
    """Infinite-horizon Gramian as the solution of A W + W A^T = -B B^T.

    Solved by the Newton iteration for the matrix sign function (Roberts,
    Int. J. Control 32, 1980) on [[A, Q], [0, -A^T]], Q = B B^T, whose sign
    is [[-I, 2W], [0, I]] for a Hurwitz A.  Only A is iterated,
    A <- (c A + A^-1 / c) / 2, with determinantal scaling (Byers, Linear
    Algebra Appl. 85, 1987) for the first steps; the Q block follows
    Q <- (c Q + A^-1 Q A^-T / c) / 2, which is linear in Q, so the stored
    (c, A^-1) of each step give W = L(Q) by matmuls alone.  One refinement
    step W <- W + L(A W + W A^T + Q) through the same steps brings the
    residual to the order of unit roundoff even for slowly decaying modes.
    W is then symmetrized, and the Frobenius residual of that W is recorded
    on the result; it is formed on R scaled by a power of two, so it is
    finite whenever every entry of R is.

    Raises
    ------
    NonHurwitzError
        If any eigenvalue of A has real part >= ``HURWITZ_THRESHOLD``; the
        defining integral does not converge for such systems.
    ArithmeticError
        If a sign iterate or W leaves the double range (``OverflowError``
        for W), or the iteration does not converge within
        ``SIGN_STEP_CAP`` steps.
    """
    A = model.A
    real_parts = np.linalg.eigvals(A).real
    if real_parts.max() >= HURWITZ_THRESHOLD:
        raise NonHurwitzError(
            "dynamics matrix is not strictly Hurwitz "
            f"(max eigenvalue real part {real_parts.max():.3e}); "
            "the infinite-horizon Gramian does not exist"
        )
    At = A.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _sign_steps(A)
        Q = model.B @ model.B.T
        W = _replay(steps, Q)
        W = _symmetrize(W + _replay(steps, A @ W + W @ At + Q))
        if not np.isfinite(W).all():
            raise OverflowError("the Lyapunov Gramian leaves the double range")
        R = A @ W + W @ At + Q
        # The norm of R scaled by a power of two near 1 / max|R|: its sum of
        # squares cannot overflow where the entries are finite.
        e = int(np.frexp(np.abs(R).max())[1])
        residual = float(np.ldexp(np.linalg.norm(np.ldexp(R, -e), "fro"), e))
    return GramianResult(
        matrix=W, horizon=Horizon.infinite(), method="lyapunov", residual=residual
    )


def _sign_steps(A: np.ndarray) -> list[tuple[float, np.ndarray, np.ndarray, float]]:
    """(c_k, S_k = 2**e_k A_k^-1, S_k^T, 4**e_k c_k) of each Newton step
    A_{k+1} = (c_k A_k + A_k^-1 / c_k) / 2 towards sign(A) = -I of a Hurwitz A.

    c_k = |det A_k|^(-1/n) for the first ``SIGN_SCALED_STEPS`` steps and 1
    after them.  The iteration stops once a step moves A_k by at most
    ``SIGN_TOL`` relative in the 1-norm, after at least two steps.  The
    power of two 2**e_k ~ c_k^(-1/2) keeps A^-1 Q A^-T from underflowing
    where c_k is small, as for A = -1e300 I, and changes no rounding.  S_k^T
    is stored as a contiguous copy for ``_replay``.
    """
    n = A.shape[0]
    steps = []
    for k in range(SIGN_STEP_CAP):
        inv = np.linalg.inv(A)
        c = math.exp(-np.linalg.slogdet(A)[1] / n) if k < SIGN_SCALED_STEPS else 1.0
        e = -math.frexp(c)[1] // 2
        S = inv * 2.0**e
        steps.append((c, S, S.T.copy(), math.ldexp(c, 2 * e)))
        A_next = 0.5 * (c * A + inv / c)
        size = _norm1(A_next)  # inf or NaN when an entry is
        if not math.isfinite(size):
            raise ArithmeticError(f"sign iterate {k + 1} of A leaves the double range")
        if k and _norm1(A_next - A) <= SIGN_TOL * size:
            return steps
        A = A_next
    raise ArithmeticError(f"sign iteration of A did not converge in {SIGN_STEP_CAP} steps")


def _replay(steps: list[tuple[float, np.ndarray, np.ndarray, float]], X: np.ndarray) -> np.ndarray:
    """L(X), the solution W of A W + W A^T = -X, by the Q recurrence
    X <- (c X + A^-1 X A^-T / c) / 2 of the stored sign steps: W is half
    its limit.  The right factor is the stored contiguous S^T, never a
    transposed view, which numpy multiplies by a slower path with the same
    bits."""
    for c, S, St, scaled_c in steps:
        X = 0.5 * (c * X + S @ X @ St / scaled_c)
    return 0.5 * X


def oscillator_gramian_closed_form(params: OscillatorParams) -> GramianResult:
    """Analytical infinite-horizon Gramian of the oscillator.

    For zeta > 0 this is diag(1/(4*zeta*omega_n^3), 1/(4*zeta*omega_n)).
    For zeta = 0 the defining integral diverges; the conventional matrix
    diag(1/omega_n^2, 1) is returned under the distinct
    ``paper_adopted_undamped`` horizon tag so callers opt in knowingly.
    Raises ``OverflowError`` when an entry is not a positive double.
    """
    diagonal, horizon = _closed_form(params)
    return GramianResult(matrix=np.diag(diagonal), horizon=horizon, method="closed_form")


def _closed_form(params: OscillatorParams) -> tuple[list[float], Horizon]:
    """Diagonal and horizon of ``oscillator_gramian_closed_form``."""
    wn, z = params.omega_n, params.zeta
    horizon = Horizon.infinite() if z > 0.0 else Horizon.adopted_undamped()
    try:
        if z > 0.0:
            diagonal = [1.0 / (4.0 * z * wn ** 3), 1.0 / (4.0 * z * wn)]
        else:
            diagonal = [1.0 / (wn * wn), 1.0]
    except ArithmeticError:  # wn ** 3 overflows, or a denominator underflows to 0
        diagonal = [math.inf]
    if not all(0.0 < d < math.inf for d in diagonal):
        raise OverflowError(f"closed-form Gramian overflows at zeta={z}, omega_n={wn}")
    return diagonal, horizon


def gramian_determinant(g: GramianResult) -> float:
    """det(W); an aggregate inverse measure of the control effort.

    The 2x2 case uses the cofactor formula directly: LAPACK's LU path
    injects an avoidable ulp of noise, and the closed-form oscillator
    determinants are expected exactly.  There, ``OverflowError`` is raised
    when det(W) overflows, and ``ArithmeticError`` when the product of two
    nonzero diagonal entries falls below the normal double range.  The 1x1
    case returns the entry exactly, and raises ``ArithmeticError`` when it
    is nonzero and below the normal double range.  For n > 2,
    ``OverflowError`` is raised when det(W) overflows, and
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
    if g.n == 1:
        det = float(g.matrix[0, 0])
        if det and abs(det) < sys.float_info.min:
            raise ArithmeticError(f"Gramian determinant underflows (entries {g.matrix.tolist()})")
        return det
    return _cofactor_determinant(g.matrix.tolist())


def _cofactor_determinant(W: list[list[float]]) -> float:
    """Cofactor det(W) of a 2x2 matrix given as nested lists of floats.

    Raises ``OverflowError`` when det(W) overflows, and ``ArithmeticError``
    when the product of two nonzero diagonal entries falls below the normal
    double range.
    """
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
    eigenvalues, trace = _spectra(g.matrix)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    return GramianSpectrum(
        eigenvalues=eigenvalues,
        trace=float(trace),
        condition_number=float(_condition_number(eigenvalues[None])[0]),
        uncontrollable_direction=lam_min <= SPD_RATIO_FLOOR * lam_max,
    )


def _spectra(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and trace of a symmetric matrix, or of each
    matrix in a (k, n, n) stack.  A trace that overflows is inf, without a
    warning."""
    with np.errstate(over="ignore"):
        return np.linalg.eigvalsh(W), W.trace(axis1=-2, axis2=-1)


def _condition_number(eigenvalues: np.ndarray) -> np.ndarray:
    """lambda_max / lambda_min of each row of a (k, n) stack of ascending
    eigenvalues, or inf where lambda_min <= 0."""
    lam_min, lam_max = eigenvalues[:, 0], eigenvalues[:, -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(lam_min <= 0.0, math.inf, lam_max / lam_min)
