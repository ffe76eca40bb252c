import math

import numpy as np
import pytest
import scipy.linalg

from gramkit.entropy import (
    BOLTZMANN_SI,
    LN_2PI_E,
    bits_to_nats,
    boltzmann_entropy,
    fisher_dual_determinant,
    gaussian_entropy_from_covariance,
    gaussian_entropy_from_fim,
    info_entropy_report,
    nats_to_bits,
    oscillator_entropy_index,
    shannon_entropy,
    thermodynamic_entropy,
)
from gramkit.gramian import (
    GramianResult,
    Horizon,
    infinite_horizon_gramian_lyapunov,
    oscillator_gramian_closed_form,
)
from gramkit.lti import OscillatorParams, StateSpaceModel


class TestFisherDuality:
    def test_reference_values(self):
        assert fisher_dual_determinant(0.015625) == 64.0
        assert fisher_dual_determinant(1.0) == 1.0
        assert fisher_dual_determinant(0.25) == 4.0

    def test_constant_threads_through(self):
        assert fisher_dual_determinant(0.5, c=3.0) == 6.0

    @pytest.mark.parametrize("det,c", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, det, c):
        with pytest.raises(ValueError):
            fisher_dual_determinant(det, c)

    @pytest.mark.parametrize("det,c", [(2.5e-9, 1e300), (1e300, 1e-30)])
    def test_out_of_range_quotient_is_a_range_failure(self, det, c):
        with pytest.raises(ArithmeticError, match="double range"):
            fisher_dual_determinant(det, c)


class TestGaussianEntropy:
    def test_unit_covariance(self):
        assert gaussian_entropy_from_covariance(1.0, 2) == pytest.approx(
            2.837877066409345, rel=1e-12, abs=0.0
        )
        assert gaussian_entropy_from_covariance(1.0, 1) == pytest.approx(
            1.418938533204673, rel=1e-12, abs=0.0
        )

    def test_fim_entry_point(self):
        # ln(2*pi*e) - ln(64)/2
        assert gaussian_entropy_from_fim(64.0, 2) == pytest.approx(0.7584355247295096, rel=1e-12, abs=0.0)

    def test_entry_points_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            det = rng.uniform(1e-6, 1e6)
            n = int(rng.integers(1, 6))
            assert gaussian_entropy_from_fim(det, n) == pytest.approx(
                gaussian_entropy_from_covariance(1.0 / det, n), abs=1e-12
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_entropy_from_covariance(0.0, 2)
        with pytest.raises(ValueError):
            gaussian_entropy_from_fim(-3.0, 2)
        with pytest.raises(ValueError):
            gaussian_entropy_from_covariance(1.0, 0)


class TestShannonEntropy:
    def test_reference_values(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15, abs=0.0)
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(0.5623351446188083, rel=1e-14, abs=0.0)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            size = int(rng.integers(1, 12))
            p = rng.dirichlet(np.ones(size))
            h = shannon_entropy(p)
            assert -1e-15 <= h <= math.log(size) + 1e-12

    def test_rejects_invalid_distributions(self):
        with pytest.raises(ValueError, match="nonnegative"):
            shannon_entropy([1.2, -0.2])
        with pytest.raises(ValueError, match="sum to 1"):
            shannon_entropy([0.5, 0.4])
        with pytest.raises(ValueError):
            shannon_entropy([[0.5, 0.5]])


class TestThermodynamicEntropy:
    def test_scaling(self):
        assert thermodynamic_entropy(math.log(2.0)) == pytest.approx(0.6931471805599453)
        assert thermodynamic_entropy(2.0, k_b=BOLTZMANN_SI) == pytest.approx(
            2 * BOLTZMANN_SI, rel=1e-12, abs=0.0
        )

    def test_boltzmann_form(self):
        assert boltzmann_entropy(1.0) == 0.0
        assert boltzmann_entropy(math.e**2) == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=">= 1"):
            boltzmann_entropy(0.5)
        with pytest.raises(ValueError, match="k_b"):
            thermodynamic_entropy(1.0, k_b=0.0)

    def test_overflow_is_a_range_failure(self):
        with pytest.raises(OverflowError, match="k_B"):
            thermodynamic_entropy(25.0, k_b=1e308)
        with pytest.raises(OverflowError, match="k_B"):
            boltzmann_entropy(1e300, k_b=1e307)


class TestEntropyIndex:
    def test_reference_values(self):
        assert oscillator_entropy_index(1.0, 1.0) == pytest.approx(-math.log(16.0), abs=1e-12)
        assert oscillator_entropy_index(0.0, 1.0) == 0.0
        assert oscillator_entropy_index(0.5, 2.0) == pytest.approx(math.log(1.0 / 64.0), abs=1e-12)

    def test_equals_log_of_analytic_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            zeta = rng.uniform(0.05, 5.0)
            omega_n = rng.uniform(0.2, 4.0)
            expected = -math.log(16.0) - 2.0 * math.log(zeta) - 4.0 * math.log(omega_n)
            assert oscillator_entropy_index(zeta, omega_n) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing(self):
        zetas = np.linspace(0.1, 4.0, 25)
        idx_by_zeta = [oscillator_entropy_index(z, 1.3) for z in zetas]
        assert all(a > b for a, b in zip(idx_by_zeta, idx_by_zeta[1:]))
        omegas = np.linspace(0.3, 3.0, 25)
        idx_by_omega = [oscillator_entropy_index(0.7, w) for w in omegas]
        assert all(a > b for a, b in zip(idx_by_omega, idx_by_omega[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oscillator_entropy_index(-0.1, 1.0)
        with pytest.raises(ValueError):
            oscillator_entropy_index(0.5, 0.0)


class TestReport:
    def test_constructed_identities(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            params = OscillatorParams(rng.uniform(0.05, 4.0), rng.uniform(0.2, 3.0))
            c = rng.uniform(0.1, 10.0)
            k_b = rng.uniform(0.1, 5.0)
            report = info_entropy_report(oscillator_gramian_closed_form(params), c=c, k_b=k_b)
            assert report.det_wc * report.det_i == pytest.approx(c, rel=1e-12, abs=0.0)
            assert report.differential_entropy_nats == 0.5 * report.n * LN_2PI_E - 0.5 * math.log(
                report.det_i
            )
            assert report.thermodynamic_entropy == k_b * report.differential_entropy_nats

    def test_chain_identity(self):
        # entropy index, the dual determinant, and the Gaussian entropy all
        # express the same quantity when c = 1.
        rng = np.random.default_rng(14)
        for _ in range(50):
            params = OscillatorParams(rng.uniform(0.05, 4.0), rng.uniform(0.2, 3.0))
            report = info_entropy_report(oscillator_gramian_closed_form(params))
            assert report.entropy_index == pytest.approx(-math.log(report.det_i), abs=1e-12)
            assert report.entropy_index == pytest.approx(
                2.0 * (report.differential_entropy_nats - LN_2PI_E), abs=1e-12
            )

    def test_three_state_lyapunov_gramian(self):
        # n comes from the Gramian, so a 3-state system runs the same chain.
        # Companion form with poles -1, -2, -3, driven through the last state.
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
        B = np.array([[0.0], [0.0], [1.0]])
        gram = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=A, B=B))
        report = info_entropy_report(gram, c=2.5, k_b=0.7)
        assert report.n == 3
        reference = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
        assert report.det_wc == pytest.approx(np.linalg.det(reference), rel=1e-9, abs=0.0)
        assert report.det_wc * report.det_i == pytest.approx(2.5, rel=1e-12, abs=0.0)
        assert report.differential_entropy_nats == pytest.approx(
            1.5 * LN_2PI_E - 0.5 * math.log(report.det_i), abs=1e-12
        )
        assert report.thermodynamic_entropy == 0.7 * report.differential_entropy_nats

    def test_nonpositive_determinant_is_a_range_failure(self):
        # c / det(W) is not finite when det(W) <= 0, whether W is singular
        # or its positive determinant underflowed.
        singular = GramianResult(np.ones((2, 2)), Horizon.infinite(), "closed_form")
        tiny = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=-np.eye(3), B=1e-110 * np.eye(3)))
        for gram in (singular, tiny):
            with pytest.raises(ArithmeticError):
                info_entropy_report(gram)

    def test_undamped_branch_uses_adopted_convention(self):
        report = info_entropy_report(oscillator_gramian_closed_form(OscillatorParams(0.0, 2.0)))
        assert report.det_wc == 0.25
        assert report.entropy_index == pytest.approx(-2.0 * math.log(2.0), abs=1e-14)

    def test_bit_conversion_is_display_only(self):
        # Stored values stay in nats; converting for display and back agrees
        # to the last ulp of the multiply/divide pair.
        rng = np.random.default_rng(6)
        for _ in range(200):
            nats = rng.uniform(-40.0, 40.0)
            assert bits_to_nats(nats_to_bits(nats)) == pytest.approx(nats, rel=1e-15, abs=0.0)
        assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, rel=1e-15, abs=0.0)
