"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else loosened.  Reference values
come from the analytical oscillator results and from oracles that are
independent of the code paths they check (scaling-and-squaring for the
closed-form exponentials, the analytic diagonal for the Lyapunov solve,
exact propagation of the linearly interpolated samples plus composite
Simpson for the synthesized control).
"""

import math
import time

import numpy as np
import pytest

from gramkit.energy import (
    min_control_energy,
    synthesize_min_energy_control,
    verify_control,
)
from gramkit.entropy import LN_2PI_E, info_entropy_report, oscillator_entropy_index
from gramkit.gramian import (
    finite_horizon_gramian,
    gramian_determinant,
    infinite_horizon_gramian_lyapunov,
    oscillator_gramian_closed_form,
)
from gramkit.lti import (
    OscillatorParams,
    expm_scaling_squaring,
    make_oscillator,
    matrix_exponential,
    oscillator_expm,
)

ZETA_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
OMEGA_GRID = (0.5, 1.0, 2.0)


def osc_model(zeta, omega_n):
    return make_oscillator(OscillatorParams(zeta=zeta, omega_n=omega_n))


def analytic_infinite(zeta, omega_n):
    return np.diag([1.0 / (4.0 * zeta * omega_n**3), 1.0 / (4.0 * zeta * omega_n)])


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_analytical_gramian_reproduction():
    started = time.perf_counter()
    for zeta in ZETA_GRID:
        for omega_n in OMEGA_GRID:
            g = infinite_horizon_gramian_lyapunov(osc_model(zeta, omega_n))
            expected = analytic_infinite(zeta, omega_n)
            rel = np.linalg.norm(g.matrix - expected) / np.linalg.norm(expected)
            assert rel < 1e-10, f"zeta={zeta} omega_n={omega_n}: rel {rel:.2e}"
            assert g.residual < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("analytical Gramian reproduction (Lyapunov path, 18-point grid)")


def test_determinant_law():
    for zeta in ZETA_GRID:
        for omega_n in OMEGA_GRID:
            expected = 1.0 / (16.0 * zeta**2 * omega_n**4)
            closed = gramian_determinant(
                oscillator_gramian_closed_form(OscillatorParams(zeta, omega_n))
            )
            assert closed == pytest.approx(expected, rel=1e-12, abs=0.0)
            solved = gramian_determinant(infinite_horizon_gramian_lyapunov(osc_model(zeta, omega_n)))
            assert solved == pytest.approx(expected, rel=1e-12, abs=0.0)
    for omega_n in OMEGA_GRID:
        undamped = oscillator_gramian_closed_form(OscillatorParams(0.0, omega_n))
        assert gramian_determinant(undamped) == 1.0 / (omega_n * omega_n)
    report("determinant law (damped grid at 1e-12, undamped branch exact)")


def test_finite_to_infinite_convergence():
    started = time.perf_counter()
    for zeta in (0.25, 0.5, 1.0):
        model = osc_model(zeta, 1.0)
        horizon = 30.0 / zeta
        w_aug = finite_horizon_gramian(model, horizon, "augmented_expm").matrix
        w_quad = finite_horizon_gramian(model, horizon, "quadrature").matrix
        w_inf = analytic_infinite(zeta, 1.0)
        rel_conv = np.linalg.norm(w_aug - w_inf) / np.linalg.norm(w_inf)
        assert rel_conv < 1e-6, f"zeta={zeta}: convergence {rel_conv:.2e}"
        rel_agree = np.linalg.norm(w_aug - w_quad) / np.linalg.norm(w_aug)
        assert rel_agree < 1e-8, f"zeta={zeta}: method agreement {rel_agree:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("finite-to-infinite convergence and method agreement")


def test_energy_round_trip():
    started = time.perf_counter()
    model = osc_model(0.5, 1.0)
    gram = finite_horizon_gramian(model, 5.0)
    for target in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        x_f = np.array(target)
        profile = synthesize_min_energy_control(model, 5.0, x_f, 2000)
        result = verify_control(model, profile)
        assert result.final_state_error < 1e-4, f"x_f={target}: {result.final_state_error:.2e}"
        predicted = min_control_energy(gram, x_f)
        mismatch = abs(result.measured_energy - predicted) / predicted
        assert mismatch < 1e-3, f"x_f={target}: energy mismatch {mismatch:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report("energy round trip (simulated transfer and measured integral)")


def test_matrix_exponential_oracle():
    for zeta in (0.0, 0.3, 1.0 - 1e-4, 1.0, 1.0 + 1e-4, 3.0):
        for omega_n in OMEGA_GRID:
            A = osc_model(zeta, omega_n).A
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                closed = oscillator_expm(zeta, omega_n, t)
                reference = expm_scaling_squaring(A * t).matrix
                gap = np.abs(closed - reference).max()
                assert gap < 1e-9, f"zeta={zeta} omega_n={omega_n} t={t}: {gap:.2e}"
    report("matrix-exponential oracle (closed forms vs scaling-and-squaring)")


def test_entropy_chain():
    assert oscillator_entropy_index(1.0, 1.0) == pytest.approx(-math.log(16.0), abs=1e-12)
    assert oscillator_entropy_index(1.0, 1.0) == pytest.approx(-2.772589, abs=5e-7)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        zeta = rng.uniform(0.02, 5.0)
        omega_n = rng.uniform(0.1, 4.0)
        chain = info_entropy_report(oscillator_gramian_closed_form(OscillatorParams(zeta, omega_n)), c=1.0)
        index = oscillator_entropy_index(zeta, omega_n)
        assert index == pytest.approx(
            2.0 * (chain.differential_entropy_nats - LN_2PI_E), abs=1e-12
        )
        assert index == pytest.approx(-math.log(chain.det_i), abs=1e-12)
    for omega_n in OMEGA_GRID:
        indices = [oscillator_entropy_index(z, omega_n) for z in ZETA_GRID]
        assert all(a > b for a, b in zip(indices, indices[1:]))
    for zeta in ZETA_GRID:
        indices = [oscillator_entropy_index(zeta, w) for w in OMEGA_GRID]
        assert all(a > b for a, b in zip(indices, indices[1:]))
    report("entropy chain (value, 100-sample identity, monotonicity)")


def test_randomized_property_suites():
    rng = np.random.default_rng(99)

    # Gramian symmetry and positive semidefiniteness.
    for _ in range(100):
        model = osc_model(rng.uniform(0.0, 3.0), rng.uniform(0.2, 2.5))
        g = finite_horizon_gramian(model, rng.uniform(0.0, 10.0))
        assert np.array_equal(g.matrix, g.matrix.T)
        assert np.linalg.eigvalsh(g.matrix).min() >= -1e-12

    # Horizon monotonicity: the Gramian only grows with T.
    for _ in range(100):
        model = osc_model(rng.uniform(0.05, 2.0), rng.uniform(0.3, 2.0))
        t1, t2 = np.sort(rng.uniform(0.1, 8.0, size=2))
        w1 = finite_horizon_gramian(model, t1).matrix
        w2 = finite_horizon_gramian(model, t2).matrix
        assert np.linalg.eigvalsh(w2 - w1).min() >= -1e-12

    # Quadratic scaling of the minimum energy.
    for _ in range(100):
        g = infinite_horizon_gramian_lyapunov(
            osc_model(rng.uniform(0.05, 3.0), rng.uniform(0.3, 2.5))
        )
        x_f = rng.normal(size=2)
        alpha = rng.uniform(0.1, 10.0)
        assert min_control_energy(g, alpha * x_f) == pytest.approx(
            alpha**2 * min_control_energy(g, x_f), rel=5e-13, abs=0.0
        )

    # Shannon entropy bounds.
    from gramkit.entropy import shannon_entropy

    for _ in range(100):
        size = int(rng.integers(1, 15))
        h = shannon_entropy(rng.dirichlet(np.ones(size)))
        assert -1e-15 <= h <= math.log(size) + 1e-12
    assert shannon_entropy(np.ones(8) / 8.0) == pytest.approx(math.log(8.0), rel=1e-14, abs=0.0)
    assert shannon_entropy(np.eye(5)[0]) == 0.0

    # Semigroup and inverse identities of the exponential (parameters kept
    # where kappa(exp(A t)) leaves the 1e-9 tolerance meaningful).
    for _ in range(100):
        zeta = rng.uniform(0.0, 1.2)
        omega_n = rng.uniform(0.3, 1.2)
        t, s = rng.uniform(-5.0, 5.0, size=2)
        A = osc_model(zeta, omega_n).A
        Et = matrix_exponential(A, t)
        assert np.abs(matrix_exponential(A, t + s) - Et @ matrix_exponential(A, s)).max() < 1e-9
        assert np.abs(Et @ matrix_exponential(A, -t) - np.eye(2)).max() < 1e-9

    report("randomized property suites (5 families x 100 cases)")


def test_convention_identities_only():
    # The duality constant and the entropy calibration are conventions: the
    # identities below hold for any positive choice, and no result depends
    # on a physical value for either.
    rng = np.random.default_rng(7)
    params = OscillatorParams(0.8, 1.3)
    baseline = info_entropy_report(oscillator_gramian_closed_form(params), c=1.0, k_b=1.0)
    for _ in range(50):
        c = rng.uniform(1e-3, 1e3)
        k_b = rng.uniform(1e-3, 1e3)
        chain = info_entropy_report(oscillator_gramian_closed_form(params), c=c, k_b=k_b)
        assert chain.det_wc * chain.det_i == pytest.approx(c, rel=1e-12, abs=0.0)
        assert chain.thermodynamic_entropy == pytest.approx(
            k_b * chain.differential_entropy_nats, rel=1e-15, abs=0.0
        )
        # Rescaling the conventions never moves the Gramian-side quantities.
        assert chain.det_wc == baseline.det_wc
        assert chain.entropy_index == baseline.entropy_index
    report("duality constant and entropy scale enter as conventions only")
