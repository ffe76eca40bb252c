import dataclasses
import math
import warnings

import numpy as np
import pytest

from gramkit.energy import (
    ControlProfile,
    min_control_energy,
    synthesize_min_energy_control,
    verify_control,
)
from gramkit.errors import SingularGramianError
from gramkit.gramian import (
    SPD_RATIO_FLOOR,
    GramianResult,
    Horizon,
    finite_horizon_gramian,
    gramian_spectrum,
    oscillator_gramian_closed_form,
)
from gramkit.lti import OscillatorParams, make_oscillator


def osc_model(zeta, omega_n):
    return make_oscillator(OscillatorParams(zeta=zeta, omega_n=omega_n))


def diag_gramian(d1, d2):
    return GramianResult(matrix=np.diag([d1, d2]), horizon=Horizon.infinite(), method="lyapunov")


class TestMinControlEnergy:
    def test_reference_values(self):
        assert min_control_energy(diag_gramian(0.5, 0.5), np.array([1.0, 0.0])) == pytest.approx(
            2.0, rel=1e-14, abs=0.0
        )
        assert min_control_energy(diag_gramian(1 / 16, 1 / 4), np.array([1.0, 1.0])) == pytest.approx(
            20.0, rel=1e-14, abs=0.0
        )

    def test_zero_target_is_free(self):
        assert min_control_energy(diag_gramian(0.3, 0.7), np.zeros(2)) == 0.0

    def test_singular_gramian_rejected(self):
        with pytest.raises(SingularGramianError, match="singular"):
            min_control_energy(diag_gramian(1e-16, 1.0), np.array([1.0, 0.0]))

    def test_refused_exactly_when_spectrum_flags(self):
        # The SPD floor is decided once, by gramian_spectrum.
        for lam_max in (1.0, 3.0, 7e-5):
            floor = SPD_RATIO_FLOOR * lam_max
            for lam_min in (np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0), 2.0 * floor):
                g = diag_gramian(lam_min, lam_max)
                flagged = gramian_spectrum(g).uncontrollable_direction
                assert flagged == (lam_min <= floor)
                if flagged:
                    with pytest.raises(SingularGramianError, match="singular"):
                        min_control_energy(g, np.array([1.0, 1.0]))
                else:
                    assert min_control_energy(g, np.array([1.0, 1.0])) > 0.0

    def test_overflowing_energy_is_a_range_failure(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                min_control_energy(g, np.array([1e300, 0.0]))

    def test_overflow_is_refused_by_name(self):
        # np.linalg.solve ignores the floating-point flags, so W^-1 x_f is
        # [inf, 0] in the first call and must be checked after the solve.
        named = r"x_f\^T W\^-1 x_f overflows \(x_f=\[{}, 0\.0\]\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=named.format(r"10000000000\.0")):
                min_control_energy(diag_gramian(1e-300, 1e-300), np.array([1e10, 0.0]))
            with pytest.raises(OverflowError, match=named.format(r"1e\+300")):
                synthesize_min_energy_control(osc_model(0.5, 1.0), 3.0, np.array([1e300, 0.0]), 200)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            min_control_energy(diag_gramian(1.0, 1.0), np.array([1.0, 0.0, 0.0]))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            root = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            g = GramianResult(
                matrix=root @ root.T, horizon=Horizon.infinite(), method="lyapunov"
            )
            x_f = rng.normal(size=2)
            alpha = rng.uniform(0.1, 5.0)
            base = min_control_energy(g, x_f)
            scaled = min_control_energy(g, alpha * x_f)
            assert scaled == pytest.approx(alpha**2 * base, rel=5e-13, abs=0.0)

    def test_energy_bounds_on_unit_sphere(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.5, 2.0))
        eigenvalues = np.linalg.eigvalsh(g.matrix)
        rng = np.random.default_rng(23)
        for _ in range(50):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            x_f = np.array([np.cos(angle), np.sin(angle)])
            energy = min_control_energy(g, x_f)
            assert 1.0 / eigenvalues[-1] - 1e-12 <= energy <= 1.0 / eigenvalues[0] + 1e-12
        # Equality at the eigenvectors of the diagonal Gramian.
        assert min_control_energy(g, np.array([1.0, 0.0])) == pytest.approx(
            1.0 / g.matrix[0, 0], rel=1e-14, abs=0.0
        )
        assert min_control_energy(g, np.array([0.0, 1.0])) == pytest.approx(
            1.0 / g.matrix[1, 1], rel=1e-14, abs=0.0
        )

    def test_damping_trend_with_infinite_horizon(self):
        # E* for x_f = [1, 0] is 4*zeta*omega_n^3: more damping, more energy.
        energies = [
            min_control_energy(
                oscillator_gramian_closed_form(OscillatorParams(z, 1.0)), np.array([1.0, 0.0])
            )
            for z in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        assert energies[0] == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert energies[-1] == pytest.approx(8.0, rel=1e-12, abs=0.0)


class TestSynthesis:
    def test_zero_target_gives_zero_profile(self):
        model = osc_model(0.5, 1.0)
        profile = synthesize_min_energy_control(model, 5.0, np.zeros(2), 200)
        assert np.all(profile.values == 0.0)
        assert profile.predicted_energy == 0.0

    def test_zero_target_gives_unsigned_zeros(self):
        # 0 * (a negative entry of Phi B) is -0; the CLI would print it as "-0".
        profile = synthesize_min_energy_control(osc_model(0.5, 1.0), 200.0, np.zeros(2), 2000)
        assert not np.signbit(profile.values).any()

    @pytest.mark.parametrize("x_f", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    def test_round_trip(self, x_f):
        model = osc_model(0.5, 1.0)
        profile = synthesize_min_energy_control(model, 5.0, np.array(x_f), 2000)
        report = verify_control(model, profile)
        assert report.final_state_error < 1e-4
        assert report.energy_mismatch < 1e-3

    def test_predicted_energy_matches_quadratic_form(self):
        model = osc_model(0.5, 1.0)
        x_f = np.array([1.0, 0.0])
        profile = synthesize_min_energy_control(model, 5.0, x_f, 500)
        gram = finite_horizon_gramian(model, 5.0)
        assert profile.predicted_energy == pytest.approx(
            min_control_energy(gram, x_f), rel=1e-14, abs=0.0
        )

    def test_scaling_linearity_is_exact(self):
        # Doubling the target is a power-of-two rescale of every solve, so
        # samples double and the energy quadruples with no rounding at all.
        model = osc_model(0.5, 1.0)
        x_f = np.array([1.0, 0.0])
        base = synthesize_min_energy_control(model, 5.0, x_f, 300)
        doubled = synthesize_min_energy_control(model, 5.0, 2.0 * x_f, 300)
        assert np.array_equal(doubled.values, 2.0 * base.values)
        assert doubled.predicted_energy == 4.0 * base.predicted_energy

    def test_multi_input_general_model(self):
        # The synthesis formula is dimension-agnostic; a 3-state, 2-input
        # system must round-trip the same way the oscillator does.
        from gramkit.lti import StateSpaceModel

        A = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.4], [0.2, -0.3, -1.0]])
        B = np.array([[0.0, 0.2], [1.0, 0.0], [0.1, 0.8]])
        model = StateSpaceModel(A=A, B=B)
        x_f = np.array([0.7, -0.2, 0.4])
        profile = synthesize_min_energy_control(model, 4.0, x_f, 1500)
        assert profile.values.shape == (1501, 2)
        result = verify_control(model, profile)
        assert result.final_state_error < 1e-4
        assert result.energy_mismatch < 1e-3

    @pytest.mark.parametrize(
        "A, B, x_f",
        [
            *(
                (osc_model(zeta, 1.0).A, osc_model(zeta, 1.0).B, np.array([0.7, -0.2]))
                for zeta in (0.0, 0.3, 1.0, 2.5)
            ),
            (
                np.diag([-0.5, -0.8, -1.1, -1.4, -1.7]) + np.diag([1.0, 1.0, 1.0, 1.0], 1),
                np.array([[0.0], [0.0], [0.0], [0.0], [1.0]]),
                np.array([0.7, -0.2, 0.4, 0.1, -0.3]),
            ),
            (
                np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.4], [0.2, -0.3, -1.0]]),
                np.array([[0.0, 0.2], [1.0, 0.0], [0.1, 0.8]]),
                np.array([0.7, -0.2, 0.4]),
            ),
        ],
        ids=[
            "oscillator-zeta0", "oscillator-zeta0.3", "oscillator-zeta1", "oscillator-zeta2.5",
            "5x1", "3x2",
        ],
    )
    def test_matches_per_sample_formula(self, A, B, x_f):
        # The batched synthesis, p^T (Phi B) summed over the n states, against
        # u*(t) = B^T exp(A^T (T - t)) W^-1 x_f evaluated one sample at a time.
        from gramkit.lti import StateSpaceModel, matrix_exponential

        model = StateSpaceModel(A=A, B=B)
        profile = synthesize_min_energy_control(model, 4.0, x_f, 200)
        p = np.linalg.solve(finite_horizon_gramian(model, 4.0).matrix, x_f)
        expected = np.array([B.T @ (matrix_exponential(A, 4.0 - t).T @ p) for t in profile.times])
        np.testing.assert_allclose(
            profile.values, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
        )

    def test_validation(self):
        model = osc_model(0.5, 1.0)
        with pytest.raises(ValueError, match="> 0"):
            synthesize_min_energy_control(model, 0.0, np.array([1.0, 0.0]), 200)
        with pytest.raises(ValueError, match=">= 100"):
            synthesize_min_energy_control(model, 5.0, np.array([1.0, 0.0]), 50)
        with pytest.raises(ValueError, match="shape"):
            synthesize_min_energy_control(model, 5.0, np.array([1.0, 0.0, 0.0]), 200)
        # A step count that is not an integer is refused by name, not truncated.
        with pytest.raises(ValueError, match=r"^steps must be an integer, got 150.9$"):
            synthesize_min_energy_control(model, 5.0, np.array([1.0, 0.0]), 150.9)
        for steps in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^steps must be finite, got {steps}$"):
                synthesize_min_energy_control(model, 5.0, np.array([1.0, 0.0]), steps)

    def test_short_horizon_is_numerically_singular(self):
        # W_T collapses like diag(T^3, T) as T -> 0; the eigenvalue-ratio
        # gate must refuse rather than return a garbage profile.
        with pytest.raises(SingularGramianError):
            synthesize_min_energy_control(osc_model(0.5, 1.0), 1e-8, np.array([1.0, 0.0]), 200)


class TestVerification:
    def test_zero_profile(self):
        model = osc_model(0.5, 1.0)
        profile = ControlProfile(
            T=1.0,
            values=np.zeros((101, 1)),
            target=np.zeros(2),
            predicted_energy=0.0,
        )
        report = verify_control(model, profile)
        assert np.all(report.achieved_final_state == 0.0)
        assert report.measured_energy == 0.0
        assert report.final_state_error == 0.0

    @pytest.mark.parametrize("target", [[1.0], [1.0, 0.0, 0.0]])
    def test_target_must_be_a_state_of_the_model(self, target):
        # The target is compared with the model's final state, so a target of
        # another shape is refused by name rather than broadcast.
        profile = ControlProfile(T=1.0, values=np.zeros((101, 1)), target=target, predicted_energy=1.0)
        with pytest.raises(ValueError, match=r"^target must have shape \(2,\), got \("):
            verify_control(osc_model(0.5, 1.0), profile)

    def test_one_interval_is_the_trapezoid(self):
        # One interval integrates ||u||^2 as h (u0^2 + u1^2) / 2, exact here.
        profile = ControlProfile(0.25, [[3.0], [-1.0]], [1.0, 0.0], 1.0)
        assert verify_control(osc_model(0.5, 1.0), profile).measured_energy == 1.25

    def test_amplified_profile_scales_energy_quadratically(self):
        model = osc_model(0.5, 1.0)
        profile = synthesize_min_energy_control(model, 5.0, np.array([1.0, 0.0]), 400)
        bumped = ControlProfile(
            T=profile.T,
            values=1.1 * profile.values,
            target=profile.target,
            predicted_energy=profile.predicted_energy,
        )
        measured = verify_control(model, profile).measured_energy
        measured_bumped = verify_control(model, bumped).measured_energy
        assert measured_bumped == pytest.approx(1.21 * measured, rel=1e-9, abs=0.0)

    def test_measured_energy_where_u_squared_overflows(self):
        # Samples near 1e154 square past the double range while the integral
        # of u^2 stays inside it.  The measured energy scales by exactly 4**k
        # with a 2**k scale of u, and one that leaves the range is refused by
        # name; neither warns.
        model = osc_model(0.5, 1.0)
        base = synthesize_min_energy_control(model, 1e-3, np.array([1.0, 0.0]), 2000)

        def measured(k):
            profile = ControlProfile(
                T=base.T,
                values=np.ldexp(base.values, k),
                target=np.ldexp(base.target, k),
                predicted_energy=0.0,
            )
            return verify_control(model, profile).measured_energy

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.abs(np.ldexp(base.values, 490)).max() > 1.35e154  # > sqrt(max double)
            assert measured(490) == np.ldexp(measured(0), 980)
            with pytest.raises(OverflowError, match=r"integral of \|\|u\|\|\^2 dt, overflows"):
                measured(520)

    def test_final_state_error_where_the_target_norm_overflows(self):
        # |x_f| = 2**530 = 3.5e159 squares past the double range, while a
        # slow oscillator keeps the energy inside it.  Profile and response
        # scale by exactly 2**530, so the relative error is the one at 2**0;
        # with unscaled norms it read NaN here, and 0.0 at 2**515.
        model = osc_model(0.5, 1e-5)
        base = synthesize_min_energy_control(model, 1e7, np.array([1.0, 0.0]), 2000)
        scaled = ControlProfile(
            T=base.T,
            values=np.ldexp(base.values, 530),
            target=np.ldexp(base.target, 530),
            predicted_energy=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = verify_control(model, scaled).final_state_error
        assert error == verify_control(model, base).final_state_error
        assert 0.0 < error < 1e-3

    def test_perturbed_controls_never_beat_the_minimum(self):
        # Any admissible control reaching the same target costs at least the
        # predicted energy: perturb, re-target the residual, and compare.
        model = osc_model(0.5, 1.0)
        T, steps = 5.0, 800
        x_f = np.array([1.0, 0.0])
        optimal = synthesize_min_energy_control(model, T, x_f, steps)
        grid = optimal.times
        rng = np.random.default_rng(31)
        for _ in range(20):
            coeffs = rng.normal(scale=0.05, size=3)
            delta = sum(
                c * np.sin((k + 1) * np.pi * grid / T) for k, c in enumerate(coeffs)
            )
            perturbed = ControlProfile(
                T=T,
                values=optimal.values + delta[:, None],
                target=x_f,
                predicted_energy=optimal.predicted_energy,
            )
            reached = verify_control(model, perturbed).achieved_final_state
            correction = synthesize_min_energy_control(model, T, x_f - reached, steps)
            total = ControlProfile(
                T=T,
                values=perturbed.values + correction.values,
                target=x_f,
                predicted_energy=optimal.predicted_energy,
            )
            report = verify_control(model, total)
            assert report.final_state_error < 1e-4
            assert report.measured_energy >= optimal.predicted_energy - 1e-6


class TestControlProfile:
    def test_is_T_and_samples_with_a_derived_grid(self):
        # The record holds T and its samples; its grid is linspace(0, T, rows),
        # bit for bit the grid synthesis samples on.
        T, steps = 3.0, 301
        profile = synthesize_min_energy_control(osc_model(0.5, 1.0), T, np.array([1.0, 0.0]), steps)
        fields = [f.name for f in dataclasses.fields(ControlProfile)]
        assert fields == ["T", "values", "target", "predicted_energy"]
        grid = np.linspace(0.0, T, steps + 1)
        assert profile.times.tobytes() == grid.tobytes()
        assert not profile.times.flags.writeable
        with pytest.raises(AttributeError):
            profile.times = grid
        replaced = dataclasses.replace(profile, predicted_energy=2.0)
        assert replaced.predicted_energy == 2.0
        assert replaced.T == T and np.array_equal(replaced.values, profile.values)
        with pytest.raises(ValueError, match=r"^values must be 2-D with at least two rows"):
            ControlProfile(T=T, values=np.zeros((1, 1)), target=np.zeros(2), predicted_energy=0.0)
        with pytest.raises(TypeError):
            ControlProfile(times=grid, values=profile.values, target=profile.target, predicted_energy=1.0)

    def test_stores_the_floats_it_validated(self):
        profile = ControlProfile(T=2, values=np.zeros((11, 1)), target=np.zeros(2), predicted_energy="2")
        assert type(profile.T) is float and profile.T == 2.0
        assert type(profile.predicted_energy) is float and profile.predicted_energy == 2.0
        assert verify_control(osc_model(0.5, 1.0), profile).energy_mismatch == 1.0

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="predicted_energy"):
            ControlProfile(
                T=1.0,
                values=np.zeros((11, 1)),
                target=np.zeros(2),
                predicted_energy=-1.0,
            )
