"""Raw-byte pins of library outputs, one table per BLAS kernel set.

Each case below is computed and compared with the sha256 of its bytes (or,
for the two quadrature Gramians, with float.hex).  A change that moves one
bit fails here; a deliberate change captures the pins again after checking
the new values against a high-precision reference.  The m > 1 cases cover
the reshaped products with several inputs, and the simulations at 1 and 129
steps the scan levels of a single row.

The bits depend on the BLAS kernels: OpenBLAS picks a kernel set at run
time, and the sets accumulate products in different orders.  The pins are
keyed by the set that ``OPENBLAS_VERBOSE=2`` names as numpy loads (the
``blas_core`` fixture).  They were captured with numpy 2.4 on OpenBLAS 0.3.31
(x86-64): SkylakeX, which run-time dispatch picks on an AVX-512 machine, and
Haswell and Sandybridge, forced with ``OPENBLAS_CORETYPE=Haswell`` and
``OPENBLAS_CORETYPE=SandyBridge`` (``OPENBLAS_CORETYPE=Zen`` also runs the
Haswell set).  Under a kernel set with no table every pin test fails with
one message that names the set.

Captured again, each under an accuracy check:
- the five simulation pins, when each step became the exact response to the
  linearly interpolated input (within 1e-14 of max|x| of a 30-digit
  evaluation of that response);
- the two synthesis pins, when the control became p^T (Phi B), one 2-D
  product with the shared B (no less accurate against a 30-digit
  p^T exp(A tau) B);
- synthesize_oscillator, when oscillator_expm formed its sine entry as
  sin(omega_d t) / omega_d at every t (no worst node error rose by more than
  4.2e-17 of max|u| against a 40-digit p^T exp(A tau) B with the same p);
- the quadrature pins, when adaptive Simpson took its 64 forced panels in
  grid order (within 4 ulps of max|W| of the values before).
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

# Pins per OpenBLAS kernel set, as ``Core: <name>`` names it (see the
# ``blas_core`` fixture); OPENBLAS_CORETYPE=Zen runs the Haswell kernels.
PINS = {
    "SkylakeX": {
        "simulate_oscillator_2000": "19eff5bf07e2f943ae9166d3",
        "simulate_oscillator_129": "e34a335581d76d6cea4f8f02",
        "simulate_3x2_2000": "bd2e6a82c9b9cca65e881f45",
        "simulate_3x2_129": "34627185cb849477d825a463",
        "simulate_3x2_1": "3fbcd0921163ad9b41e6b843",
        "synthesize_oscillator": "92424ae31600d6b749766f24",
        "synthesize_3x2": "7cf42506089e2dcca10fe4e1",
        "kernel_stack_120": "073c59a780a19390f38c7ef7",
        "lyapunov_4": "c002ac15648bad1fdc16ae7f",
        "lyapunov_12": "9836699954eee061e24bb428",
        "lyapunov_30": "fa3f9addb7a4f443ee07170a",
        "quadrature_4x3": "bbf1d8c997db3032ceba5405",
    },
    "Haswell": {
        "simulate_oscillator_2000": "3e570b352fb19aad95848cd3",
        "simulate_oscillator_129": "ca9049fa4576f3e9bac8c940",
        "simulate_3x2_2000": "992a85377ed57efdec840585",
        "simulate_3x2_129": "37125699273e89cee0018d42",
        "simulate_3x2_1": "3fbcd0921163ad9b41e6b843",
        "synthesize_oscillator": "92424ae31600d6b749766f24",
        "synthesize_3x2": "5ec805aabf8f8226679eeb02",
        "kernel_stack_120": "2e8c1d1378c4d469f15997a5",
        "lyapunov_4": "6bc6348e73c746de5eeda85e",
        "lyapunov_12": "ebeac072241816c2d806353a",
        "lyapunov_30": "69c3d3b2881ff16401a75190",
        "quadrature_4x3": "33e40bfbba00b7dbdbaf76f1",
    },
    "Sandybridge": {
        "simulate_oscillator_2000": "459c8e9a7601c45ab62f5045",
        "simulate_oscillator_129": "74b19a9fb45cdfaea652301b",
        "simulate_3x2_2000": "bc86ed4df8c952e383ea0ba9",
        "simulate_3x2_129": "7d76b1ebc62e8453ce574a29",
        "simulate_3x2_1": "cde4a1ea9cbad4568680a751",
        "synthesize_oscillator": "3e29f128b1df32903c46f72d",
        "synthesize_3x2": "68388dc9770d571a7ff2b65f",
        "kernel_stack_120": "ad1b45b0cb5ad06682149885",
        "lyapunov_4": "ff590a15b21f74be429123a8",
        "lyapunov_12": "b7d8fff6f60e4108bd1738f2",
        "lyapunov_30": "47e9e44ef3397f4be48e8a14",
        "quadrature_4x3": "deda5b3eaf2d83db3e50d6d2",
    },
}

# The two quadrature cases of the general_lti benchmark, (zeta, omega_n, T).
# These read the same on all three kernel sets.
QUADRATURE_BITS = {
    (0.3, 2.0, 2.0): [
        ["0x1.751ab1677ee5ap-4", "0x1.3e3cca9a3bf38p-8"],
        ["0x1.3e3cca9a3bf38p-8", "0x1.8cd976127c480p-2"],
    ],
    (0.0, 1.0, 1.0): [
        ["0x1.173848a9725dep-2", "0x1.6a88995d4dc7ep-2"],
        ["0x1.6a88995d4dc7ep-2", "0x1.7463dbab46d0fp-1"],
    ],
}
QUADRATURE_PINS = dict.fromkeys(PINS, QUADRATURE_BITS)


@pytest.mark.parametrize("case", list(CASES))
def test_bytes_are_pinned(case, pins):
    assert digest(CASES[case]()) == pins(PINS)[case]


@pytest.mark.parametrize("case", list(QUADRATURE_BITS), ids=str)
def test_quadrature_bits_are_pinned(case, pins):
    zeta, omega_n, T = case
    W = finite_horizon_gramian(make_oscillator(OscillatorParams(zeta, omega_n)), T, "quadrature").matrix
    assert [[float.hex(v) for v in row] for row in W.tolist()] == pins(QUADRATURE_PINS)[case]
