"""Workload inputs, generated from a seed, and the op each workload times.

An op is a fixed bundle of calls into gramkit's public functions, so every
op of a workload costs about the same and latency percentiles show jitter
rather than the input mix.  A round is one op per case; a run attempts only
whole rounds.  All calls go through module attributes (``cli.main``, not a
bound name) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from typing import Callable

import numpy as np

from gramkit import cli, energy, gramian, lti

# Sweep conventions away from the defaults, so the det/entropy chain carries
# both constants through.
SWEEP_C = 2.5
SWEEP_KB = 0.7

# Steps per transfer: the CLI default.
TRANSFER_STEPS = 2000

# general_lti: state sizes, horizon, and the 1-norm every random A is scaled
# to, which fixes the doubling count of the augmented exponential.
GENERAL_SIZES = (4, 12, 30)
GENERAL_T = 3.0
GENERAL_A_NORM = 2.0
# Fixed n=2 oscillator cases run by both finite-horizon methods.
QUADRATURE_CASES = ((0.3, 2.0, 2.0), (0.0, 1.0, 1.0))


class OpFailed(RuntimeError):
    """An op ended without a result, e.g. the CLI returned a non-zero code."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """A round is ``op(case)`` for every case, in order."""

    name: str
    cases: list
    op: Callable


def _jitter(rng: np.random.Generator, value: float, spread: float) -> float:
    """value scaled by a factor in [1 - spread, 1 + spread], to 4 digits."""
    return float(f"{value * rng.uniform(1.0 - spread, 1.0 + spread):.4g}")


# ----------------------------------------------------------------- sweep_table


@dataclasses.dataclass(frozen=True)
class SweepCase:
    zetas: tuple
    omegas: tuple
    horizons: tuple

    def argv(self, finite: bool) -> list[str]:
        argv = [
            "sweep",
            "--zeta-grid", ",".join(map(repr, self.zetas)),
            "--omega-n-grid", ",".join(map(repr, self.omegas)),
            "--duality-c", repr(SWEEP_C),
            "--kb", repr(SWEEP_KB),
        ]
        if finite:
            argv += ["--T-grid", ",".join(map(repr, self.horizons))]
        return argv


def sweep_cases(seed: int) -> list[SweepCase]:
    """One 6 x 4 x 5 grid: zeta 0 and 1 exactly, two underdamped and two
    overdamped values; omega_n 0.5..5; T 0.5..1000.  Bands are disjoint, so
    every grid stays strictly increasing under the jitter."""
    rng = np.random.default_rng([seed, 1])
    zetas = (0.0, _jitter(rng, 0.05, 0.1), _jitter(rng, 0.4, 0.1), 1.0,
             _jitter(rng, 1.6, 0.1), _jitter(rng, 3.0, 0.1))
    omegas = tuple(_jitter(rng, w, 0.1) for w in (0.5, 1.0, 2.0, 5.0))
    horizons = tuple(_jitter(rng, t, 0.1) for t in (0.5, 3.0, 20.0, 120.0, 1000.0))
    return [SweepCase(zetas, omegas, horizons)]


def sweep_op(case: SweepCase) -> tuple[str, str]:
    """Finite-horizon sweep then the infinite-horizon sweep of the same grid."""
    out = []
    for finite in (True, False):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(case.argv(finite))
        if code != 0:
            raise OpFailed(f"gramkit sweep exited {code}")
        out.append(buf.getvalue())
    return tuple(out)


# -------------------------------------------------------------------- transfer

# (zeta, omega_n, T): every regime, zeta = 0 and zeta = 1 exactly, and
# omega_n * T <= 40 so the 1e-3 final-state gate holds at 2000 steps.  The
# overdamped cases keep 2 * mu * T far below the expm1 overflow at ~709.
TRANSFER_BASE = (
    (0.0, 1.0, 8.0), (0.0, 4.0, 5.0), (0.02, 2.0, 15.0), (0.05, 8.0, 4.0),
    (0.1, 0.5, 30.0), (0.3, 1.0, 10.0), (0.4, 0.3, 40.0), (0.5, 2.5, 8.0),
    (0.7, 1.0, 25.0), (0.9, 6.0, 3.0), (1.0, 1.0, 6.0), (1.0, 3.0, 4.0),
    (1.2, 2.0, 5.0), (1.5, 0.8, 12.0), (2.0, 3.0, 4.0), (2.5, 1.5, 8.0),
)


@dataclasses.dataclass(frozen=True)
class TransferCase:
    zeta: float
    omega_n: float
    T: float
    x_f: tuple


def transfer_cases(seed: int) -> list[TransferCase]:
    rng = np.random.default_rng([seed, 2])
    cases = []
    for zeta, omega_n, T in TRANSFER_BASE:
        if zeta not in (0.0, 1.0):
            zeta = _jitter(rng, zeta, 0.05)
        omega_n = _jitter(rng, omega_n, 0.1)
        T = _jitter(rng, T, 0.1)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        # Position and velocity on the oscillator's own scale.
        x_f = (float(np.cos(theta)), float(omega_n * np.sin(theta)))
        cases.append(TransferCase(zeta, omega_n, T, x_f))
    return cases


def transfer_op(case: TransferCase):
    model = lti.make_oscillator(lti.OscillatorParams(zeta=case.zeta, omega_n=case.omega_n))
    profile = energy.synthesize_min_energy_control(
        model, case.T, np.array(case.x_f), TRANSFER_STEPS
    )
    return profile, energy.verify_control(model, profile)


# ----------------------------------------------------------------- general_lti


@dataclasses.dataclass(frozen=True)
class GeneralCase:
    systems: tuple  # of (A, B, x_f) ndarrays


def random_hurwitz(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A shifted to spectral abscissa -0.5 then scaled to 1-norm
    GENERAL_A_NORM; B with about n/2 columns, scaled so ||B B^T||_1 = 1."""
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    A = G - (np.linalg.eigvals(G).real.max() + 0.5) * np.eye(n)
    A *= GENERAL_A_NORM / np.linalg.norm(A, 1)
    B = rng.standard_normal((n, max(1, n // 2)))
    B /= np.sqrt(np.linalg.norm(B @ B.T, 1))
    return A, B


def general_cases(seed: int) -> list[GeneralCase]:
    rng = np.random.default_rng([seed, 3])
    systems = []
    for n in GENERAL_SIZES:
        A, B = random_hurwitz(rng, n)
        systems.append((A, B, rng.standard_normal(n)))
    return [GeneralCase(tuple(systems))]


def general_op(case: GeneralCase) -> dict:
    out = {"systems": [], "oscillators": []}
    for A, B, x_f in case.systems:
        model = lti.StateSpaceModel(A=A, B=B)
        w_inf = gramian.infinite_horizon_gramian_lyapunov(model)
        w_fin = gramian.finite_horizon_gramian(model, GENERAL_T)
        out["systems"].append({
            "lyapunov": w_inf,
            "finite": w_fin,
            "spectrum": gramian.gramian_spectrum(w_fin),
            "energy_finite": energy.min_control_energy(w_fin, x_f),
            "energy_infinite": energy.min_control_energy(w_inf, x_f),
            "rank": lti.controllability_rank(model),
        })
    for zeta, omega_n, T in QUADRATURE_CASES:
        model = lti.make_oscillator(lti.OscillatorParams(zeta=zeta, omega_n=omega_n))
        out["oscillators"].append({
            "quadrature": gramian.finite_horizon_gramian(model, T, method="quadrature"),
            "augmented": gramian.finite_horizon_gramian(model, T, method="augmented_expm"),
        })
    return out


# ------------------------------------------------------------------------------

WORKLOADS = {
    "sweep_table": (sweep_cases, sweep_op),
    "transfer": (transfer_cases, transfer_op),
    "general_lti": (general_cases, general_op),
}


def make_workload(name: str, seed: int) -> Workload:
    cases, op = WORKLOADS[name]
    return Workload(name, cases(seed), op)


def same_output(a, b) -> bool:
    """Exact equality of two op outputs: strings, floats, arrays, records."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_output(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b
