"""Raw-byte pins of library outputs.

Each case below is computed and compared with the sha256 of its bytes (or,
for a few scalars and small matrices, with float.hex), as captured before
the products in loops and over node grids were rewritten on contiguous
operands.  Those rewrites keep every bit, and a change that moves one fails
here.  The m > 1 cases cover the reshaped products with several inputs, and
the simulations at 1 and 129 steps the products of a single row, which numpy
evaluates as matrix-vector products.

The two synthesis pins were captured again after one deliberate
re-association: the control is evaluated as p^T (Phi B), one 2-D product
with the shared B and n scaled adds, in place of the stacked (p @ Phi) @ B.
It moves the samples by 1 ulp of max|u| on the oscillator case and 2.1 on
the 3 x 2 case, and against a 30-digit mpmath evaluation of p^T exp(A tau) B
on those systems and on oscillators in every regime it is no less accurate.

The oscillator pins that run oscillator_expm at |omega_d t| >= 1
(synthesize_oscillator and the (0.3, 2, 2) quadrature case) were captured
again when its sine entry became sin(omega_d t) / omega_d there, in place of
t sinc(omega_d t / pi), whose phase drifts from the cosine's.  Against a
40-digit mpmath reference they moved by at most 1 ulp of their largest
entry.

The pins hold for one machine and BLAS kernel: they were captured with
numpy 2.4 on OpenBLAS 0.3.31 (x86-64), whose runtime dispatch picked its
SkylakeX kernels (``OPENBLAS_VERBOSE=2`` prints the kernel as numpy loads).
Every pin passes there.  With ``OPENBLAS_CORETYPE=Haswell`` five fail
(synthesize_3x2, kernel_stack_120 and the three Lyapunov cases), because
other kernels accumulate products in another order.
"""

import hashlib

import numpy as np
import pytest

from gramkit.energy import synthesize_min_energy_control
from gramkit.gramian import (
    _finite_horizon_gramians,
    finite_horizon_gramian,
    infinite_horizon_gramian_lyapunov,
)
from gramkit.lti import OscillatorParams, StateSpaceModel, make_oscillator, simulate


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:24]


def hurwitz(seed: int, n: int, m: int) -> StateSpaceModel:
    rng = np.random.default_rng([seed, n, m])
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    A = G - (np.linalg.eigvals(G).real.max() + 0.5) * np.eye(n)
    return StateSpaceModel(A=A, B=rng.standard_normal((n, m)))


def simulated(model: StateSpaceModel, steps: int) -> np.ndarray:
    rng = np.random.default_rng([steps, model.n, model.m])
    u = rng.standard_normal((steps + 1, model.m))
    return simulate(model, u, rng.standard_normal(model.n), 3.0, steps).states


def synthesized(model: StateSpaceModel, T: float) -> np.ndarray:
    x_f = np.linspace(1.0, -0.5, model.n)
    return synthesize_min_energy_control(model, T, x_f, 2000).values


def kernel_stack() -> np.ndarray:
    # A sweep-sized stack: 6 zeta x 4 omega_n x 5 horizons.
    zeta = np.repeat([0.0, 0.05, 0.4, 1.0, 1.6, 3.0], 20)
    omega_n = np.tile(np.repeat([0.5, 1.0, 2.0, 5.0], 5), 6)
    A = np.zeros((120, 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = -omega_n * omega_n
    A[:, 1, 1] = -2.0 * zeta * omega_n
    B = np.zeros((120, 2, 1))
    B[:, 1, 0] = 1.0
    W, failure = _finite_horizon_gramians(A, B, np.tile([0.5, 3.0, 20.0, 120.0, 1000.0], 24).tolist())
    assert failure is None
    return W


OSCILLATOR = make_oscillator(OscillatorParams(0.3, 1.0))

CASES = {
    "simulate_oscillator_2000": lambda: simulated(OSCILLATOR, 2000),
    "simulate_oscillator_129": lambda: simulated(OSCILLATOR, 129),
    "simulate_3x2_2000": lambda: simulated(hurwitz(1, 3, 2), 2000),
    "simulate_3x2_129": lambda: simulated(hurwitz(1, 3, 2), 129),
    "simulate_3x2_1": lambda: simulated(hurwitz(1, 3, 2), 1),
    "synthesize_oscillator": lambda: synthesized(OSCILLATOR, 8.0),
    "synthesize_3x2": lambda: synthesized(hurwitz(2, 3, 2), 2.0),
    "kernel_stack_120": kernel_stack,
    "lyapunov_4": lambda: infinite_horizon_gramian_lyapunov(hurwitz(3, 4, 2)).matrix,
    "lyapunov_12": lambda: infinite_horizon_gramian_lyapunov(hurwitz(3, 12, 6)).matrix,
    "lyapunov_30": lambda: infinite_horizon_gramian_lyapunov(hurwitz(3, 30, 15)).matrix,
    "quadrature_4x3": lambda: finite_horizon_gramian(hurwitz(4, 4, 3), 2.0, "quadrature").matrix,
}

PINS = {
    "simulate_oscillator_2000": "f8b96b9569652689c1e03d63",
    "simulate_oscillator_129": "9ba995023505fba5129b818b",
    "simulate_3x2_2000": "abdadbfbda0d3b71cba2550d",
    "simulate_3x2_129": "82a4aabcfc076f85902463e8",
    "simulate_3x2_1": "2811c7f2353136148d1cdfe9",
    "synthesize_oscillator": "8fffb07aacc05b504a0450d1",
    "synthesize_3x2": "7cf42506089e2dcca10fe4e1",
    "kernel_stack_120": "073c59a780a19390f38c7ef7",
    "lyapunov_4": "c002ac15648bad1fdc16ae7f",
    "lyapunov_12": "9836699954eee061e24bb428",
    "lyapunov_30": "fa3f9addb7a4f443ee07170a",
    "quadrature_4x3": "76482a7e13d344485b105dc1",
}

# The two quadrature cases of the general_lti benchmark, (zeta, omega_n, T).
QUADRATURE_PINS = {
    (0.3, 2.0, 2.0): [
        ["0x1.751ab1677ee5bp-4", "0x1.3e3cca9a3bf58p-8"],
        ["0x1.3e3cca9a3bf58p-8", "0x1.8cd976127c481p-2"],
    ],
    (0.0, 1.0, 1.0): [
        ["0x1.173848a9725dep-2", "0x1.6a88995d4dc7bp-2"],
        ["0x1.6a88995d4dc7bp-2", "0x1.7463dbab46d0fp-1"],
    ],
}


@pytest.mark.parametrize("case", list(CASES))
def test_bytes_are_pinned(case):
    assert digest(CASES[case]()) == PINS[case]


@pytest.mark.parametrize("case", list(QUADRATURE_PINS), ids=str)
def test_quadrature_bits_are_pinned(case):
    zeta, omega_n, T = case
    W = finite_horizon_gramian(make_oscillator(OscillatorParams(zeta, omega_n)), T, "quadrature").matrix
    assert [[float.hex(v) for v in row] for row in W.tolist()] == QUADRATURE_PINS[case]
