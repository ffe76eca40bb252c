"""Minimum control energy: the quadratic form, open-loop synthesis of the
standard minimizer, and simulation-based verification.

The least input energy that drives the state from the origin to a target
x_f in time T is x_f^T W_T^{-1} x_f, and it is achieved by the open-loop
control u*(t) = B^T exp(A^T (T - t)) W_T^{-1} x_f.  Synthesis always uses
the finite-horizon Gramian for the requested T: only W_T yields an
exact-final-state minimizer on [0, T].  Infinite-horizon Gramians may be
passed to :func:`min_control_energy` as horizon-limit references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularGramianError
from .gramian import SPD_RATIO_FLOOR, GramianResult, finite_horizon_gramian
from .lti import (
    StateSpaceModel,
    _readonly,
    _require_positive,
    _require_uniform_grid,
    matrix_exponential,
    simulate,
)


@dataclass(frozen=True)
class ControlProfile:
    """An open-loop control sampled on a uniform grid over [0, T].

    values has shape (len(times), m); target is the intended final state;
    predicted_energy is the quadratic form x_f^T W_T^{-1} x_f.
    """

    times: np.ndarray
    values: np.ndarray
    target: np.ndarray
    predicted_energy: float

    def __post_init__(self) -> None:
        times = _require_uniform_grid(self.times)
        values = np.asarray(self.values, dtype=float)
        target = np.asarray(self.target, dtype=float)
        if times[0] != 0.0:
            raise ValueError("times must be a grid starting at 0")
        if values.ndim != 2 or len(values) != len(times):
            raise ValueError("values must be 2-D with one row per grid node")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(target)):
            raise ValueError("values and target must have finite entries")
        if self.predicted_energy < 0.0 or not math.isfinite(self.predicted_energy):
            raise ValueError(f"predicted_energy must be finite and >= 0, got {self.predicted_energy}")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "target", _readonly(target))


@dataclass(frozen=True)
class EnergyVerificationReport:
    """Outcome of simulating a control profile from the origin.

    final_state_error is relative to ||target|| (absolute when the target is
    zero); measured_energy integrates ||u||^2 over the grid by composite
    Simpson; energy_mismatch compares it with the profile's prediction.
    """

    achieved_final_state: np.ndarray
    final_state_error: float
    measured_energy: float
    energy_mismatch: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "achieved_final_state", _readonly(self.achieved_final_state))


def _spd_solve(W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve W x = rhs for symmetric positive definite W via Cholesky.

    Raises SingularGramianError when W is not numerically positive definite
    (eigenvalue ratio at most SPD_RATIO_FLOOR, or a failed factorization).
    No pseudo-inverse fallback: silent regularization would corrupt the
    energy semantics.
    """
    eigenvalues = np.linalg.eigvalsh(W)
    if eigenvalues[0] <= SPD_RATIO_FLOOR * eigenvalues[-1]:
        raise SingularGramianError(
            f"Gramian is numerically singular (eigenvalues {eigenvalues[0]:.3e} "
            f".. {eigenvalues[-1]:.3e}); an uncontrollable direction is present"
        )
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError as exc:
        raise SingularGramianError(f"Cholesky factorization failed: {exc}") from exc
    y = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, y)


def _require_target(x_f: np.ndarray, n: int) -> np.ndarray:
    x_f = np.asarray(x_f, dtype=float)
    if x_f.shape != (n,):
        raise ValueError(f"x_f must have shape ({n},), got {x_f.shape}")
    if not np.all(np.isfinite(x_f)):
        raise ValueError("x_f must have finite entries")
    return x_f


def min_control_energy(g: GramianResult, x_f: np.ndarray) -> float:
    """Minimum energy x_f^T W^{-1} x_f to reach x_f from the origin.

    Computed through a symmetric factorization solve, never an explicit
    inverse.  Raises SingularGramianError when the Gramian is not
    numerically positive definite.
    """
    x_f = _require_target(x_f, g.n)
    energy = float(x_f @ _spd_solve(g.matrix, x_f))
    return max(energy, 0.0)


def synthesize_min_energy_control(
    model: StateSpaceModel, T: float, x_f: np.ndarray, steps: int
) -> ControlProfile:
    """Sample the minimum-energy open-loop control on a uniform grid.

    Parameters
    ----------
    model : StateSpaceModel
    T : float
        Transfer horizon, > 0.
    x_f : ndarray, shape (n,)
        Target state, reached from x(0) = 0.
    steps : int
        Grid intervals, >= 100.

    Returns
    -------
    ControlProfile
        u*(t_i) on steps + 1 nodes, the target, and the predicted energy.
        The control is linear in x_f, so u*(a * x_f) = a * u*(x_f) exactly.

    Raises
    ------
    SingularGramianError
        When the finite-horizon Gramian is not positive definite.
    """
    T = _require_positive("T", T)
    steps = int(steps)
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    x_f = _require_target(x_f, model.n)

    gram = finite_horizon_gramian(model, T, method="augmented_expm")
    p = _spd_solve(gram.matrix, x_f)
    predicted = max(float(x_f @ p), 0.0)

    times = np.linspace(0.0, T, steps + 1)
    values = np.empty((steps + 1, model.m))
    for i, t in enumerate(times):
        phi = matrix_exponential(model.A, T - t)
        values[i] = model.B.T @ (phi.T @ p)
    return ControlProfile(times=times, values=values, target=x_f, predicted_energy=predicted)


def _integrate_squared_norm(values: np.ndarray, h: float) -> float:
    """Composite Simpson of ||u(t)||^2 over a uniform grid with step h.

    An odd interval count is handled with the 3/8 rule on the last three
    panels (plain trapezoid when only one interval exists).
    """
    y = np.sum(values * values, axis=1)
    intervals = len(y) - 1
    if intervals == 1:
        return 0.5 * h * (y[0] + y[1])
    total = 0.0
    if intervals % 2 == 1:
        # 3/8 rule on the trailing three panels, Simpson on the rest.
        total += 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[:-3]
        intervals -= 3
    if intervals > 0:
        weights = np.ones(intervals + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += h / 3.0 * float(weights @ y)
    return total


def verify_control(model: StateSpaceModel, profile: ControlProfile) -> EnergyVerificationReport:
    """Simulate a profile from x(0) = 0 and compare against its promises."""
    steps = len(profile.times) - 1
    T = float(profile.times[-1])
    trajectory = simulate(model, profile.values, np.zeros(model.n), T, steps)
    final = trajectory.states[-1]
    target_norm = float(np.linalg.norm(profile.target))
    gap = float(np.linalg.norm(final - profile.target))
    final_error = gap / target_norm if target_norm > 0.0 else gap
    measured = _integrate_squared_norm(profile.values, T / steps)
    if profile.predicted_energy > 0.0:
        mismatch = abs(measured - profile.predicted_energy) / profile.predicted_energy
    else:
        mismatch = measured
    return EnergyVerificationReport(
        achieved_final_state=final,
        final_state_error=final_error,
        measured_energy=measured,
        energy_mismatch=mismatch,
    )
