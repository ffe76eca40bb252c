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
from .gramian import SPD_RATIO_FLOOR, GramianResult, finite_horizon_gramian, gramian_spectrum
from .lti import (
    StateSpaceModel,
    _readonly,
    _require_finite,
    _require_finite_scalar,
    _require_nonnegative,
    _require_positive,
    _require_state,
    matrix_exponential,
    simulate,
)


@dataclass(frozen=True)
class ControlProfile:
    """An open-loop control sampled on a uniform grid over [0, T].

    values has one row per node of the grid ``times`` and one column per
    input; target is the intended final state; predicted_energy is the
    quadratic form x_f^T W_T^{-1} x_f.
    """

    T: float
    values: np.ndarray
    target: np.ndarray
    predicted_energy: float

    def __post_init__(self) -> None:
        T = _require_positive("T", self.T)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or len(values) < 2:
            raise ValueError(f"values must be 2-D with at least two rows, got shape {values.shape}")
        values = _require_finite("values", values)
        target = _require_finite("target", self.target)
        predicted_energy = _require_nonnegative("predicted_energy", self.predicted_energy)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "target", _readonly(target))
        object.__setattr__(self, "predicted_energy", predicted_energy)

    @property
    def times(self) -> np.ndarray:
        """The grid ``linspace(0, T, len(values))``, read-only: one node per row."""
        times = np.linspace(0.0, self.T, len(self.values))
        times.setflags(write=False)
        return times


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


def _energy_solve(g: GramianResult, x_f: np.ndarray) -> tuple[np.ndarray, float]:
    """W^{-1} x_f by Cholesky, and the energy x_f^T W^{-1} x_f.

    Raises SingularGramianError when W is numerically singular (the
    ``uncontrollable_direction`` flag of ``gramian_spectrum``, lambda_min <=
    SPD_RATIO_FLOOR * lambda_max) or the factorization fails; no pseudo-inverse
    fallback, since silent regularization would corrupt the energy
    semantics.  A non-finite W^{-1} x_f or energy raises ``OverflowError``;
    ``np.linalg.solve`` ignores the floating-point flags, so both are
    checked after the solve.
    """
    spectrum = gramian_spectrum(g)
    if spectrum.uncontrollable_direction:
        eigenvalues = spectrum.eigenvalues
        raise SingularGramianError(
            f"Gramian is numerically singular: lambda_min / lambda_max <= {SPD_RATIO_FLOOR:g} "
            f"(eigenvalues {eigenvalues[0]:.3e} .. {eigenvalues[-1]:.3e})"
        )
    try:
        L = np.linalg.cholesky(g.matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularGramianError(f"Cholesky factorization failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.linalg.solve(L.T, np.linalg.solve(L, x_f))
        energy = float(x_f @ p)
    if not (math.isfinite(energy) and np.isfinite(p).all()):
        raise OverflowError(f"x_f^T W^-1 x_f overflows (x_f={x_f.tolist()})")
    return p, max(energy, 0.0)


def min_control_energy(g: GramianResult, x_f: np.ndarray) -> float:
    """Minimum energy x_f^T W^{-1} x_f to reach x_f from the origin.

    Computed through a Cholesky solve, never an explicit inverse.  Raises
    SingularGramianError when the Gramian is not numerically positive
    definite, and ``ArithmeticError`` when the energy overflows.
    """
    return _energy_solve(g, _require_state("x_f", x_f, g.n))[1]


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
        Grid intervals, an integer >= 100.

    Returns
    -------
    ControlProfile
        u*(t_i) on steps + 1 nodes, the target, and the predicted energy.
        The control is linear in x_f, so u*(a * x_f) = a * u*(x_f) exactly.

    Raises
    ------
    SingularGramianError
        When the finite-horizon Gramian is not positive definite.
    OverflowError
        When x_f^T W_T^{-1} x_f leaves the double range.
    """
    T = _require_positive("T", T)
    if not _require_finite_scalar("steps", steps).is_integer():
        raise ValueError(f"steps must be an integer, got {steps}")
    steps = int(steps)
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    x_f = _require_state("x_f", x_f, model.n)

    p, predicted = _energy_solve(finite_horizon_gramian(model, T), x_f)
    times = np.linspace(0.0, T, steps + 1)
    n, m = model.n, model.m
    # u_i = p^T (Phi_i B): one 2-D product with the shared B, then n scaled
    # adds.  numpy sends a stacked p @ Phi to BLAS once per node.  This order
    # rounds differently (1 ulp of max|u| on oscillators) and is as accurate
    # against a 30-digit reference.  The sum starts from +0, as BLAS does, so
    # a zero target gives +0 samples and never -0.
    with np.errstate(over="raise", invalid="raise"):
        Phi = matrix_exponential(model.A, T - times)
        PhiB = (Phi.reshape(-1, n) @ model.B).reshape(steps + 1, n, m)
        values = np.zeros((steps + 1, m))
        for k in range(n):
            values += p[k] * PhiB[:, k]
    return ControlProfile(T=T, values=values, target=x_f, predicted_energy=predicted)


def _integrate_squared_norm(values: np.ndarray, h: float) -> float:
    """Composite Simpson of ||u(t)||^2 over a uniform grid with step h.

    An odd interval count is handled with the 3/8 rule on the last three
    panels (plain trapezoid when only one interval exists).  The samples are
    scaled by 2**-e, e the exponent of max|u|, before they are squared, and
    the integral by 4**e after it is formed, which is exact wherever nothing
    under- or overflows: u^2 cannot overflow where the integral does not.
    An integral that still overflows raises ``OverflowError``.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    values = np.ldexp(values, -e)
    y = np.sum(values * values, axis=1)
    intervals = len(y) - 1
    total = 0.0
    if intervals == 1:
        total = 0.5 * h * (y[0] + y[1])
    elif intervals % 2 == 1:
        # 3/8 rule on the trailing three panels, Simpson on the rest.
        total += 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[:-3]
        intervals -= 3
    if intervals > 1:
        weights = np.ones(intervals + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += h / 3.0 * float(weights @ y)
    try:
        return math.ldexp(total, 2 * e)
    except OverflowError:
        raise OverflowError("the measured energy, the integral of ||u||^2 dt, overflows") from None


def verify_control(model: StateSpaceModel, profile: ControlProfile) -> EnergyVerificationReport:
    """Simulate a profile from x(0) = 0 and compare against its promises.

    Raises ``ArithmeticError`` naming the step size h when the simulated
    final state is not finite, and ``OverflowError`` when the measured
    energy, the integral of ||u||^2, leaves the double range.
    """
    target = _require_state("target", profile.target, model.n)
    T, steps = profile.T, len(profile.values) - 1
    # The profile's exact response, its samples joined linearly.  Both norms
    # are taken on 2**-e times their vectors, e the exponent of max|target|,
    # so that a representable target's norm cannot overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        final = simulate(model, profile.values, np.zeros(model.n), T)[-1]
        if not np.isfinite(final).all():
            raise ArithmeticError(
                f"the simulated final state is not finite at step size h = {T / steps!r}"
            )
        e = math.frexp(float(np.abs(target).max()))[1]
        target_norm = float(np.linalg.norm(np.ldexp(target, -e)))
        gap = float(np.linalg.norm(np.ldexp(final - target, -e)))
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
