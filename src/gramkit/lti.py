"""LTI system types, damping-regime classification, matrix exponentials,
and fixed-step state-space simulation.

The model of interest is the normalized damped harmonic oscillator

    x'' + 2*zeta*omega_n*x' + omega_n**2 * x = u(t)

written in first-order form ``xdot = A x + B u`` with state (position,
velocity).  Everything here is a pure function of its inputs; all container
types are frozen and hold read-only arrays, so values are safe to share
between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# |zeta - 1| below CRITICAL_BAND classifies as critically damped.  The
# exponential itself needs no band: zeta^2 - 1 is formed as (1-zeta)(1+zeta),
# exact near 1, and the damped sine sin(omega_d t) / omega_d tends to t as
# omega_d -> 0, so both regime forms reduce continuously to the critical one
# (C = 1, S = t) at zeta = 1.
CRITICAL_BAND = 1e-9


class DampingRegime(Enum):
    UNDAMPED = "undamped"
    UNDERDAMPED = "underdamped"
    CRITICALLY_DAMPED = "critically_damped"
    OVERDAMPED = "overdamped"


def _require_finite_scalar(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# A valid value passes the range checks after one comparison.
def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        _require_finite_scalar(name, value)
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value < math.inf:
        _require_finite_scalar(name, value)
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _require_finite(name: str, a: np.ndarray) -> np.ndarray:
    """``a`` as a float array; raises on its first non-finite entry."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        _require_finite_scalar(name, a[~np.isfinite(a)][0])
    return a


def _require_square(name: str, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return _require_finite(name, M)


def _require_state(name: str, x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    return _require_finite(name, x)


def classify_regime(zeta: float) -> DampingRegime:
    """Classify the damping regime of a dimensionless damping factor.

    ``zeta == 0`` is undamped, ``0 < zeta < 1`` underdamped, ``zeta > 1``
    overdamped; values within ``CRITICAL_BAND`` of 1 count as critically
    damped so the classification stays stable under roundoff.
    """
    zeta = _require_nonnegative("zeta", zeta)
    if zeta == 0.0:
        return DampingRegime.UNDAMPED
    if abs(zeta - 1.0) < CRITICAL_BAND:
        return DampingRegime.CRITICALLY_DAMPED
    if zeta < 1.0:
        return DampingRegime.UNDERDAMPED
    return DampingRegime.OVERDAMPED


@dataclass(frozen=True)
class OscillatorParams:
    """Normalized oscillator parameters.

    zeta    : dimensionless damping factor, >= 0.
    omega_n : undamped natural frequency in rad/s, > 0.

    ``from_physical`` builds them from a physical triple (m, c, k).
    """

    zeta: float
    omega_n: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeta", _require_nonnegative("zeta", self.zeta))
        object.__setattr__(self, "omega_n", _require_positive("omega_n", self.omega_n))

    @classmethod
    def from_physical(cls, mass: float, damping: float, stiffness: float) -> "OscillatorParams":
        """Build from the physical triple (m, c, k): zeta = c / (2*sqrt(m*k))
        and omega_n = sqrt(k/m).

        The powers of two of m, c and k go through the square roots separately,
        so m*k and k/m are never formed and no intermediate under- or overflows;
        while zeta and omega_n are normal this is bit for bit the formulas as
        written.  Raises ``OverflowError`` when zeta or omega_n itself
        overflows, or zeta underflows to 0 with c > 0.
        """
        m = _require_positive("mass", mass)
        c = _require_nonnegative("damping", damping)
        k = _require_positive("stiffness", stiffness)
        # x = fx * 2**ex with 1/2 <= fx < 1; m*k = (fm*fk * 2**r) * 4**p and
        # k/m = (fk/fm * 2**s) * 4**q with r, s in {0, 1}.
        (fm, em), (fc, ec), (fk, ek) = math.frexp(m), math.frexp(c), math.frexp(k)
        p, r = divmod(em + ek, 2)
        q, s = divmod(ek - em, 2)
        try:
            omega_n = math.ldexp(math.sqrt(math.ldexp(fk / fm, s)), q)
            zeta = math.ldexp(fc / (2.0 * math.sqrt(math.ldexp(fm * fk, r))), ec - p)
        except OverflowError:
            zeta = omega_n = math.inf
        if math.inf in (zeta, omega_n) or (zeta == 0.0 and c > 0.0):
            raise OverflowError(f"zeta or omega_n leaves the double range at m={m}, c={c}, k={k}")
        return cls(zeta=zeta, omega_n=omega_n)

    @property
    def regime(self) -> DampingRegime:
        return classify_regime(self.zeta)

    @property
    def omega_d(self) -> float | None:
        """Damped frequency omega_n*sqrt((1 - zeta)(1 + zeta)), the form that
        does not cancel near zeta = 1; None unless 0 <= zeta < 1."""
        if self.zeta < 1.0:
            return self.omega_n * math.sqrt((1.0 - self.zeta) * (1.0 + self.zeta))
        return None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateSpaceModel:
    """State-space pair ``xdot = A x + B u`` with A (n, n) and B (n, m)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        A = _require_square("A", self.A)
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must be 2-D with {A.shape[0]} rows, got shape {B.shape}"
            )
        B = _require_finite("B", B)
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def make_oscillator(params: OscillatorParams) -> StateSpaceModel:
    """State-space form of the normalized oscillator.

    A = [[0, 1], [-omega_n^2, -2*zeta*omega_n]], B = [[0], [1]]: the input is
    the normalized force acting directly on the acceleration.
    """
    a10, a11 = _oscillator_entries(params.zeta, params.omega_n)
    return StateSpaceModel(A=np.array([[0.0, 1.0], [a10, a11]]), B=np.array([[0.0], [1.0]]))


def _oscillator_entries(zeta: float, omega_n: float) -> tuple[float, float]:
    """(-omega_n^2, -2*zeta*omega_n), the second row of the oscillator's A.

    Raises ``OverflowError`` when either entry leaves the double range.
    """
    a10, a11 = -omega_n * omega_n, -2.0 * zeta * omega_n
    if not (math.isfinite(a10) and math.isfinite(a11)):
        raise OverflowError(f"oscillator matrix overflows at zeta={zeta}, omega_n={omega_n}")
    return a10, a11


class ExpmResult(NamedTuple):
    """Matrix exponential with the squaring count of the scaled evaluation."""

    matrix: np.ndarray
    squarings: int


# Padé-13 (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005): with numerator
# coefficients b_0..b_13, U = X (X6 C0 + C1) and V = X6 C2 + C3, where row j
# of _PADE13_EVEN holds the coefficients of (X6, X4, X2, I) in C_j.  _THETA13
# is the 1-norm up to which exp(X) = (V - U)^-1 (V + U) to unit roundoff.
_PADE13_EVEN = np.array([
    [1.0, 16380.0, 40840800.0, 0.0],
    [33522128640.0, 10559470521600.0, 1187353796428800.0, 32382376266240000.0],
    [182.0, 960960.0, 1323241920.0, 0.0],
    [670442572800.0, 129060195264000.0, 7771770303897600.0, 64764752532480000.0],
])
_THETA13 = 5.371920351148152


def _norm1(M: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of a matrix, or of each matrix in
    a stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(M), -2), -1)


def _expm_stack(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp of every matrix in a finite (k, N, N) stack, and each row's squarings.

    Padé-13 scaling and squaring: row i is scaled by 2**-s_i, s_i the fewest
    squarings that bring its 1-norm below theta_13, so every row runs the
    same fixed sequence of products and one solve.  The approximant is
    formed as R = I + (V - U)^-1 2U, which is exactly I when the row is
    zero.  Rows are then squared in order of decreasing s_i, so the rows
    still squaring form a leading slice.
    """
    # frexp's exponent E of norm / theta_13 = m * 2**E, 1/2 <= m < 1.
    s = np.maximum(np.frexp(_norm1(M) / _THETA13)[1], 0)
    k, N, _ = M.shape
    X = np.ldexp(M, -s[:, None, None])
    powers = np.empty((k, 4, N, N))  # X6, X4, X2, I of each row
    np.matmul(X, X, out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 2], out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 2], out=powers[:, 0])
    powers[:, 3] = np.eye(N)
    C = (_PADE13_EVEN @ powers.reshape(k, 4, N * N)).reshape(k, 4, N, N)
    U = X @ (powers[:, 0] @ C[:, 0] + C[:, 1])
    V = powers[:, 0] @ C[:, 2] + C[:, 3]
    R = powers[:, 3] + np.linalg.solve(V - U, U + U)
    if np.count_nonzero(s):
        order = (-s).argsort(kind="stable")
        squared = R[order]
        for active in (-s[order]).searchsorted(-np.arange(s.max())).tolist():
            np.matmul(squared[:active], squared[:active], out=squared[:active])
        R[order] = squared
    return R, s


def expm_scaling_squaring(M: np.ndarray) -> ExpmResult:
    """exp(M) by Padé-13 scaling and squaring (Higham 2005).

    The k = 1 call of the stacked kernel that also evaluates
    ``matrix_exponential`` on general matrices and the balanced augmented-expm
    Gramian, which ``sweep`` runs on every finite-horizon row in one pass.
    Nothing in the library calls it: it is that kernel's public one-matrix
    form, with its squaring count.  It is not an independent reference for
    the regime closed forms: it shares its Padé kernel with
    ``matrix_exponential``, and the tests check both against scipy's
    ``expm`` (and against mpmath near zeta = 1).

    Parameters
    ----------
    M : (n, n) ndarray
        Square matrix with finite entries.

    Returns
    -------
    ExpmResult
        ``matrix`` holds exp(M); ``squarings`` the number of squarings used.
        An overflow of exp(M) raises ``FloatingPointError`` without a warning.
    """
    M = _require_square("M", M)
    with np.errstate(over="raise", invalid="raise"):
        E, s = _expm_stack(M[None])
    return ExpmResult(matrix=E[0], squarings=int(s[0]))


def _damped_cos_sin(zeta: float, omega_n: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped kernel pair (e^{-zeta*omega_n*t} * C, e^{-zeta*omega_n*t} * S).

    C and S solve C'' = s*C, S'' = s*S with s = omega_n^2*(zeta^2 - 1),
    C(0)=1, S(0)=0, S'(0)=1; the regime exponential is then
    exp(A t) = Cd*I + Sd*(A + zeta*omega_n*I).  For zeta <= 1 they are
    C = cos(omega_d t) and S = sin(omega_d t) / omega_d, in phase at every t,
    with S = t where the phase omega_d t is subnormal (sin(omega_d t) / omega_d
    would keep only its few bits there), omega_d = 0 (zeta == 1) included.
    """
    decay = zeta * omega_n * t
    if zeta <= 1.0:
        wd = omega_n * math.sqrt((1.0 - zeta) * (1.0 + zeta))
        env = np.exp(-decay)
        if wd == 0.0:  # every phase is +-0: C = 1 and S = t
            return env, env * t
        phase = wd * t
        tiny = np.abs(phase) < sys.float_info.min
        s_d = np.where(tiny, env * t, env * np.sin(phase) / wd)
        return env * np.cos(phase), s_d
    # Overdamped: combine the decay with cosh/sinh so no intermediate
    # overflows; the small-mu*t cancellation goes through expm1 at a
    # non-positive argument, factored on the larger of hi and lo.  The slow
    # rate zeta*omega_n - mu is formed as omega_n / (zeta + root), which
    # does not cancel at large zeta.
    root = math.sqrt((zeta - 1.0) * (zeta + 1.0))
    mu = omega_n * root
    lo = np.exp(-(mu * t) - decay)
    hi = np.exp(-(omega_n / (zeta + root)) * t)
    s_d = np.where(t >= 0.0, hi, -lo) * -np.expm1(-2.0 * mu * np.abs(t)) / (2.0 * mu)
    return 0.5 * (hi + lo), s_d


def oscillator_expm(zeta: float, omega_n: float, t: float | np.ndarray) -> np.ndarray:
    """Closed-form exp(A t) for the oscillator dynamics matrix.

    Trigonometric for zeta <= 1 (exactly the critical form at zeta == 1),
    exponential/hyperbolic for zeta > 1.  ``t`` may be a scalar or an
    array; the result has shape ``t.shape + (2, 2)``.
    """
    zeta = _require_nonnegative("zeta", zeta)
    omega_n = _require_positive("omega_n", omega_n)
    t = _require_finite("t", t)
    with np.errstate(over="raise", invalid="raise"):
        c_d, s_d = _damped_cos_sin(zeta, omega_n, t)
    zw = zeta * omega_n
    # A + zw*I = [[zw, 1], [-omega_n^2, -zw]]
    out = np.empty(t.shape + (4,))
    out[..., 0] = c_d + s_d * zw
    out[..., 1] = s_d
    out[..., 2] = -s_d * omega_n * omega_n
    out[..., 3] = c_d - s_d * zw
    return out.reshape(t.shape + (2, 2))


def _oscillator_shape(A: np.ndarray) -> tuple[float, float] | None:
    """Recover (zeta, omega_n) when A has the oscillator companion shape."""
    if A.shape != (2, 2):
        return None
    if A[0, 0] != 0.0 or A[0, 1] != 1.0 or A[1, 0] >= 0.0 or A[1, 1] > 0.0:
        return None
    omega_n = math.sqrt(-A[1, 0])
    zeta = -A[1, 1] / (2.0 * omega_n)
    return zeta, omega_n


def matrix_exponential(A: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(A t) for a finite square matrix; t may be negative.

    ``t`` may be a scalar or an array; the result has shape
    ``t.shape + A.shape``.  Oscillator-shaped matrices take the per-regime
    closed form; everything else goes through one stacked scaling-and-squaring
    evaluation of every ``A t``.  The two paths agree to 1e-9 elementwise
    wherever both apply.  The general path raises ``FloatingPointError``, an
    ``ArithmeticError``, without a warning when ``A t`` or exp(A t) overflows.
    """
    A = _require_square("A", A)
    shape = _oscillator_shape(A)
    if shape is not None:
        return oscillator_expm(shape[0], shape[1], t)
    t = _require_finite("t", t)
    with np.errstate(over="raise", invalid="raise"):
        return _expm_stack(A * t.reshape(-1, 1, 1))[0].reshape(t.shape + A.shape)


def _foh_step(model: StateSpaceModel, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact step ``x_i+1 = x_i + E x_i + S0 u_i + S1 u_i+1`` of an input linear between samples.

    One exponential F of [[A h, I h, 0], [0, 0, I], [0, 0, 0]] (Van Loan,
    IEEE TAC 23, 1978) gives G0 = F[:n, n:2n], the integral of e^{A s} over
    [0, h], and G1 = F[:n, 2n:], that of e^{A (h - s)} s / h.  Then
    E = A G0 = e^{A h} - I, which keeps the low bits that rounding e^{A h}
    drops, S0 = (G0 - G1) B and S1 = G1 B; no block depends on B's scale.
    """
    A, n = model.A, model.n
    M = np.zeros((1, 3 * n, 3 * n))
    M[0, :n, :n] = A * h
    M[0, :n, n : 2 * n] = h * np.eye(n)
    M[0, n : 2 * n, 2 * n :] = np.eye(n)
    F = _expm_stack(M)[0][0]
    G0, G1 = F[:n, n : 2 * n], F[:n, 2 * n :]
    return A @ G0, (G0 - G1) @ model.B, G1 @ model.B


def simulate(
    model: StateSpaceModel,
    u: np.ndarray,
    x0: np.ndarray,
    T: float,
) -> np.ndarray:
    """Propagate ``xdot = A x + B u`` exactly for the input linear between samples.

    The input is the piecewise-linear interpolant of its samples, and each
    step is that input's exact response, the affine map
    ``x_i+1 = R x_i + d_i`` with R = e^{A h} (see ``_foh_step``): there is
    no order of accuracy in h and no stability limit on it.  The states are
    computed as a prefix scan in ceil(log2(steps)) levels of matrix
    products.  Each product over the grid takes a contiguous copy of the
    transposed step block: numpy multiplies rows by a transposed view
    through a path about three times slower (2,000 rows by a 2 x 2 factor),
    with the same bits.

    Parameters
    ----------
    model : StateSpaceModel
    u : ndarray, shape (steps + 1,) or (steps + 1, m)
        Input samples on the uniform grid of steps >= 1 intervals, joined
        linearly; the step count is taken from its length.
    x0 : ndarray, shape (n,)
        Initial state.
    T : float
        Horizon, > 0.

    Returns
    -------
    ndarray, shape (steps + 1, n)
        The states on the grid, x0 first.
    """
    T = _require_positive("T", T)
    n, m = model.n, model.m
    x0 = _require_state("x0", x0, n)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or len(u) < 2 or u.shape[1] != m:
        raise ValueError(f"u must have shape (steps + 1, m) with steps >= 1, got {u.shape}")
    u = _require_finite("u", u)
    steps = len(u) - 1

    E, S0, S1 = _foh_step(model, T / steps)
    # Hillis-Steele / Kogge-Stone scan over the affine maps: after the level
    # of stride s, row i of states[1:] holds the sum of R^j c_i-j over j < 2s,
    # where c_0 = R x0 + d_0 and c_i = d_i.  E holds R^s - I (R^2s - I =
    # 2 E + E^2), which keeps the low bits that rounding R itself drops.
    states = np.empty((steps + 1, n))
    states[0] = x0
    states[1:] = u[:-1] @ S0.T.copy() + u[1:] @ S1.T.copy()
    states[1] += x0 + E @ x0
    s = 1
    while s < steps:
        prev = states[1 : steps + 1 - s]
        states[s + 1 :] += prev + prev @ E.T.copy()
        s *= 2
        if s < steps:  # one squaring past the last level could overflow
            E = 2.0 * E + E @ E
    return states


def controllability_rank(model: StateSpaceModel) -> int:
    """Dimension of the controllable subspace, by the orthogonal staircase
    reduction (Van Dooren, IEEE TAC 26, 1981).

    Each step takes the SVD U S V^T of the current input block and counts the
    rho singular values above tol: in the basis U the first rho states are
    reached, and the others are driven by (U^T A U)[rho:, :rho] through
    (U^T A U)[rho:, rho:], the next step's input block and A.  The steps stop
    when rho = 0 or the reached states fill the space.

    tol = n^2 * eps * max(||A||_1, ||B||_1), the 1-norm of [A, B].  Every
    step is an orthogonal similarity, so it rounds on the scale of A and B,
    not of the block.  A bound of n * eps * max(...) read full rank 6 on a
    seeded n = 6, m = 1 system of integer entries whose Krylov matrix has
    sigma_min = 1.7e-17: its last step left sigma = 8.5e-15 against that
    bound's 2.7e-15.  The n^2 bound gives the Krylov matrix's rank on 3,000
    seeded systems with n <= 8, half of them rank-deficient.

    The rank of the Krylov matrix [B, AB, ..., A^(n-1)B] is not used: its
    columns line up with the dominant eigenvectors (Paige, IEEE TAC 26,
    1981).  On 200 random single-input Hurwitz systems per size (spectral
    abscissa -0.5, ||A||_1 = 2) it read rank < n on 7 at n = 16 and on all
    200 at n = 20 and 30; the staircase reads n on all of them.
    """
    A, B = model.A, model.B
    tol = len(A) ** 2 * sys.float_info.epsilon * _norm1(np.concatenate((A, B), 1)) if B.size else 0.0
    rank = 0
    while B.size:
        # A block with no more rows than columns may reach every state left;
        # its singular values alone show that, and U is taken only if not.
        if len(B) <= B.shape[1] and np.count_nonzero(np.linalg.svd(B, compute_uv=False) > tol) == len(B):
            return rank + len(B)
        U, sigma, _ = np.linalg.svd(B)
        rho = int(np.count_nonzero(sigma > tol))
        T = U[:, rho:].T @ A @ U
        A, B, rank = T[:, rho:], T[:, :rho], rank + rho
    return rank
