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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# |zeta - 1| below CRITICAL_BAND classifies as critically damped; within
# SERIES_BAND the exponential is evaluated by a series in omega_n^2*(zeta^2-1)
# because the trigonometric/hyperbolic forms divide by omega_n*sqrt(|zeta^2-1|)
# and cancel catastrophically as the damped frequency goes to zero.
CRITICAL_BAND = 1e-9
SERIES_BAND = 1e-6


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


def _require_positive(name: str, value: float) -> float:
    value = _require_finite_scalar(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite_scalar(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _require_square(name: str, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    return M


def _require_uniform_grid(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("times must be a 1-D grid with at least two nodes")
    steps = np.diff(times)
    if not np.all(steps > 0.0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("times must be strictly increasing with constant step")
    return times


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


def _physical_triple(mass: float, damping: float, stiffness: float) -> tuple[float, float, float]:
    return (
        _require_positive("mass", mass),
        _require_nonnegative("damping", damping),
        _require_positive("stiffness", stiffness),
    )


@dataclass(frozen=True)
class OscillatorParams:
    """Normalized oscillator parameters, optionally tied to a physical triple.

    zeta      : dimensionless damping factor, >= 0.
    omega_n   : undamped natural frequency in rad/s, > 0.
    mass, damping, stiffness : optional physical (m, c, k) source; when
        present, zeta = c / (2*sqrt(m*k)) and omega_n = sqrt(k/m) must match
        the stored values to relative 1e-12.
    """

    zeta: float
    omega_n: float
    mass: float | None = None
    damping: float | None = None
    stiffness: float | None = None

    def __post_init__(self) -> None:
        zeta = _require_nonnegative("zeta", self.zeta)
        omega_n = _require_positive("omega_n", self.omega_n)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "omega_n", omega_n)

        physical = (self.mass, self.damping, self.stiffness)
        if any(v is not None for v in physical):
            if any(v is None for v in physical):
                raise ValueError("mass, damping, and stiffness must be given together")
            m, c, k = _physical_triple(self.mass, self.damping, self.stiffness)
            zeta_drv = c / (2.0 * math.sqrt(m * k))
            omega_drv = math.sqrt(k / m)
            if not math.isclose(zeta_drv, zeta, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(
                    f"zeta {zeta} inconsistent with physical triple (derived {zeta_drv})"
                )
            if not math.isclose(omega_drv, omega_n, rel_tol=1e-12):
                raise ValueError(
                    f"omega_n {omega_n} inconsistent with physical triple (derived {omega_drv})"
                )
            object.__setattr__(self, "mass", m)
            object.__setattr__(self, "damping", c)
            object.__setattr__(self, "stiffness", k)

    @classmethod
    def from_physical(cls, mass: float, damping: float, stiffness: float) -> "OscillatorParams":
        """Build from the physical triple (m, c, k)."""
        m, c, k = _physical_triple(mass, damping, stiffness)
        return cls(
            zeta=c / (2.0 * math.sqrt(m * k)),
            omega_n=math.sqrt(k / m),
            mass=m,
            damping=c,
            stiffness=k,
        )

    @property
    def regime(self) -> DampingRegime:
        return classify_regime(self.zeta)

    @property
    def omega_d(self) -> float | None:
        """Damped frequency omega_n*sqrt(1 - zeta^2); None unless 0 <= zeta < 1."""
        if self.zeta < 1.0:
            return self.omega_n * math.sqrt(1.0 - self.zeta * self.zeta)
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
        if not np.all(np.isfinite(B)):
            raise ValueError("B must have finite entries")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """States and inputs sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self) -> None:
        times = _require_uniform_grid(self.times)
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if len(states) != len(times) or len(inputs) != len(times):
            raise ValueError("times, states, and inputs must have equal length")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "states", _readonly(states))
        object.__setattr__(self, "inputs", _readonly(inputs))


def make_oscillator(params: OscillatorParams) -> StateSpaceModel:
    """State-space form of the normalized oscillator.

    A = [[0, 1], [-omega_n^2, -2*zeta*omega_n]], B = [[0], [1]]: the input is
    the normalized force acting directly on the acceleration.
    """
    wn = params.omega_n
    A = np.array([[0.0, 1.0], [-wn * wn, -2.0 * params.zeta * wn]])
    B = np.array([[0.0], [1.0]])
    return StateSpaceModel(A=A, B=B)


class ExpmResult(NamedTuple):
    """Matrix exponential with the squaring count of the scaled evaluation."""

    matrix: np.ndarray
    squarings: int


def expm_scaling_squaring(M: np.ndarray) -> ExpmResult:
    """exp(M) by truncated Taylor series with scaling and squaring.

    The matrix is scaled by a power of two so its 1-norm is at most 0.5, the
    series is summed to convergence at working precision, and the result is
    squared back up.  Self-contained on purpose: this is the reference path
    the regime closed forms are checked against.

    Parameters
    ----------
    M : (n, n) ndarray
        Square matrix with finite entries.

    Returns
    -------
    ExpmResult
        ``matrix`` holds exp(M); ``squarings`` the number of squarings used.
    """
    M = _require_square("M", M)
    n = M.shape[0]
    norm = float(np.linalg.norm(M, 1))
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    X = M / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ X / k
        out = out + term
        if np.abs(term).max() <= np.finfo(float).eps * np.abs(out).max():
            break
    for _ in range(squarings):
        out = out @ out
    return ExpmResult(matrix=out, squarings=squarings)


def _damped_cos_sin(zeta: float, omega_n: float, t: float) -> tuple[float, float]:
    """Damped kernel pair (e^{-zeta*omega_n*t} * C, e^{-zeta*omega_n*t} * S).

    C and S solve C'' = s*C, S'' = s*S with s = omega_n^2*(zeta^2 - 1),
    C(0)=1, S(0)=0, S'(0)=1; the regime exponential is then
    exp(A t) = Cd*I + Sd*(A + zeta*omega_n*I).
    """
    s = (zeta * zeta - 1.0) * omega_n * omega_n
    decay = zeta * omega_n * t
    st2 = s * t * t
    if abs(zeta - 1.0) <= SERIES_BAND and abs(st2) <= 4.0:
        # Series in s*t^2; at zeta == 1 only the leading terms survive and
        # this reduces to the critical form C = 1, S = t.  The |s*t^2| guard
        # keeps the sum convergent; beyond it the decay envelope has long
        # since flattened the trig/hyperbolic cancellation.
        c_term, s_term = 1.0, t
        c_sum, s_sum = c_term, s_term
        for k in range(1, 30):
            c_term *= st2 / ((2 * k - 1) * (2 * k))
            s_term *= st2 / ((2 * k) * (2 * k + 1))
            c_sum += c_term
            s_sum += s_term
            if abs(c_term) <= 1e-18 * abs(c_sum) and abs(s_term) <= 1e-18 * max(abs(s_sum), 1e-300):
                break
        env = math.exp(-decay)
        return env * c_sum, env * s_sum
    if zeta < 1.0:
        wd = omega_n * math.sqrt(1.0 - zeta * zeta)
        env = math.exp(-decay)
        return env * math.cos(wd * t), env * math.sin(wd * t) / wd
    # Overdamped: combine the decay with cosh/sinh so no intermediate
    # overflows; the small-mu*t cancellation goes through expm1 at a
    # non-positive argument (factored on hi for t >= 0, on lo for t < 0).
    mu = omega_n * math.sqrt(zeta * zeta - 1.0)
    lo = math.exp(-(mu * t) - decay)
    hi = math.exp(mu * t - decay)
    c_d = 0.5 * (hi + lo)
    if t >= 0.0:
        s_d = hi * -math.expm1(-2.0 * mu * t) / (2.0 * mu)
    else:
        s_d = lo * math.expm1(2.0 * mu * t) / (2.0 * mu)
    return c_d, s_d


def oscillator_expm(zeta: float, omega_n: float, t: float) -> np.ndarray:
    """Closed-form exp(A t) for the oscillator dynamics matrix.

    Dispatches on the damping regime: trigonometric for zeta < 1, series
    within the near-critical band, exponential/hyperbolic for zeta > 1.
    """
    zeta = _require_nonnegative("zeta", zeta)
    omega_n = _require_positive("omega_n", omega_n)
    t = _require_finite_scalar("t", t)
    c_d, s_d = _damped_cos_sin(zeta, omega_n, t)
    zw = zeta * omega_n
    # A + zw*I = [[zw, 1], [-omega_n^2, -zw]]
    return np.array(
        [
            [c_d + s_d * zw, s_d],
            [-s_d * omega_n * omega_n, c_d - s_d * zw],
        ]
    )


def _oscillator_shape(A: np.ndarray) -> tuple[float, float] | None:
    """Recover (zeta, omega_n) when A has the oscillator companion shape."""
    if A.shape != (2, 2):
        return None
    if A[0, 0] != 0.0 or A[0, 1] != 1.0 or A[1, 0] >= 0.0 or A[1, 1] > 0.0:
        return None
    omega_n = math.sqrt(-A[1, 0])
    zeta = -A[1, 1] / (2.0 * omega_n)
    return zeta, omega_n


def matrix_exponential(A: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) for a finite square matrix; t may be negative.

    Oscillator-shaped matrices take the per-regime closed form; everything
    else goes through the scaling-and-squaring evaluation.  The two paths
    agree to 1e-9 elementwise wherever both apply.
    """
    A = _require_square("A", A)
    t = _require_finite_scalar("t", t)
    shape = _oscillator_shape(A)
    if shape is not None:
        return oscillator_expm(shape[0], shape[1], t)
    return expm_scaling_squaring(A * t).matrix


def simulate(
    model: StateSpaceModel,
    u: np.ndarray,
    x0: np.ndarray,
    T: float,
    steps: int,
) -> Trajectory:
    """Integrate ``xdot = A x + B u`` with classical fixed-step RK4.

    Parameters
    ----------
    model : StateSpaceModel
    u : ndarray, shape (steps + 1,) or (steps + 1, m)
        Input samples on the uniform grid.  Stage values at interval
        midpoints use linear interpolation between neighboring samples, so
        order-4 accuracy holds only for smooth inputs.
    x0 : ndarray, shape (n,)
        Initial state.
    T : float
        Horizon, > 0.
    steps : int
        Number of RK4 steps, >= 1.

    Returns
    -------
    Trajectory
        times (steps+1,), states (steps+1, n), inputs (steps+1, m).
    """
    T = _require_positive("T", T)
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n, m = model.n, model.m
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != (steps + 1, m):
        raise ValueError(f"u must have shape ({steps + 1}, {m}), got {u.shape}")
    if not np.all(np.isfinite(x0)) or not np.all(np.isfinite(u)):
        raise ValueError("x0 and u must have finite entries")

    A, B = model.A, model.B
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1, n))
    states[0] = x0
    x = x0.copy()
    for i in range(steps):
        u0 = u[i]
        u1 = u[i + 1]
        um = 0.5 * (u0 + u1)
        k1 = A @ x + B @ u0
        k2 = A @ (x + 0.5 * h * k1) + B @ um
        k3 = A @ (x + 0.5 * h * k2) + B @ um
        k4 = A @ (x + h * k3) + B @ u1
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return Trajectory(times=times, states=states, inputs=u)


def controllability_rank(model: StateSpaceModel) -> int:
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B].

    Singular values below max(n, m) * machine epsilon * sigma_max count as
    zero, the usual numerical-rank convention.
    """
    A, B = model.A, model.B
    n, m = model.n, model.m
    blocks = [B]
    for _ in range(1, n):
        blocks.append(A @ blocks[-1])
    K = np.hstack(blocks)
    sigma = np.linalg.svd(K, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    tol = max(n, m) * np.finfo(float).eps * sigma[0]
    return int(np.count_nonzero(sigma > tol))
