import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import gramkit.gramian as gramian_mod
from gramkit.errors import NonHurwitzError, QuadratureConvergenceError
from gramkit.gramian import (
    GramianResult,
    Horizon,
    finite_horizon_gramian,
    gramian_determinant,
    gramian_spectrum,
    infinite_horizon_gramian_lyapunov,
    oscillator_gramian_closed_form,
)
from gramkit.lti import OscillatorParams, StateSpaceModel, make_oscillator

# W_T for zeta=0.7, omega_n=1, T=1, frozen from a brute-force fixed-step
# composite Simpson rule with 1e5 panels before either Gramian path existed.
GRAMIAN_Z07_T1 = np.array(
    [
        [0.1110228229063836, 0.10371230666435531],
        [0.10371230666435531, 0.28192497351951579],
    ]
)

ZETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
OMEGA_GRID = (0.5, 1.0, 2.0)


def osc_model(zeta, omega_n):
    return make_oscillator(OscillatorParams(zeta=zeta, omega_n=omega_n))


def analytic_infinite(zeta, omega_n):
    return np.diag([1.0 / (4.0 * zeta * omega_n**3), 1.0 / (4.0 * zeta * omega_n)])


def closed_form_error(W, zeta, omega_n):
    """Largest entry error of W against W_inf, entry (i, j) taken on the
    scale sqrt(W_ii W_jj) of W_inf, so the small diagonal entry counts as
    the large one."""
    d = np.sqrt(np.diag(analytic_infinite(zeta, omega_n)))
    return float(np.abs(W / d[:, None] / d[None, :] - np.eye(2)).max())


def random_hurwitz(n, abscissa):
    """Random A shifted to the given spectral abscissa, B with >= 2 inputs."""
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    A = G - (np.linalg.eigvals(G).real.max() - abscissa) * np.eye(n)
    B = rng.standard_normal((n, max(2, n // 2)))
    return StateSpaceModel(A=A, B=B)


class TestClosedForm:
    def test_damped_values(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.5, 2.0))
        assert g.matrix.tolist() == [[1.0 / 16.0, 0.0], [0.0, 1.0 / 4.0]]
        assert g.horizon == Horizon.infinite()
        assert g.method == "closed_form"

    def test_critical_values(self):
        g = oscillator_gramian_closed_form(OscillatorParams(1.0, 1.0))
        assert g.matrix.tolist() == [[0.25, 0.0], [0.0, 0.25]]

    def test_undamped_is_tagged_distinctly(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.0, 2.0))
        assert g.matrix.tolist() == [[0.25, 0.0], [0.0, 1.0]]
        assert g.horizon.kind == "paper_adopted_undamped"

    def test_off_diagonal_exactly_zero(self):
        for zeta in ZETA_GRID:
            for omega_n in OMEGA_GRID:
                g = oscillator_gramian_closed_form(OscillatorParams(zeta, omega_n))
                assert g.matrix[0, 1] == 0.0
                assert g.matrix[1, 0] == 0.0


class TestLyapunov:
    def test_reference_point(self):
        g = infinite_horizon_gramian_lyapunov(osc_model(0.5, 1.0))
        np.testing.assert_allclose(g.matrix, np.diag([0.5, 0.5]), rtol=1e-10, atol=0)
        assert g.method == "lyapunov"
        assert g.horizon == Horizon.infinite()

    def test_critical_omega_two(self):
        g = infinite_horizon_gramian_lyapunov(osc_model(1.0, 2.0))
        np.testing.assert_allclose(g.matrix, np.diag([1.0 / 32.0, 1.0 / 8.0]), rtol=1e-12)

    def test_undamped_rejected(self):
        with pytest.raises(NonHurwitzError, match="Hurwitz"):
            infinite_horizon_gramian_lyapunov(osc_model(0.0, 1.0))

    def test_matches_closed_form_on_grid(self):
        for zeta in ZETA_GRID:
            for omega_n in OMEGA_GRID:
                g = infinite_horizon_gramian_lyapunov(osc_model(zeta, omega_n))
                expected = analytic_infinite(zeta, omega_n)
                rel = np.linalg.norm(g.matrix - expected) / np.linalg.norm(expected)
                assert rel < 1e-10
                assert g.residual is not None and g.residual < 1e-10

    def test_matches_scipy_solver(self):
        model = osc_model(0.8, 1.7)
        g = infinite_horizon_gramian_lyapunov(model)
        reference = scipy.linalg.solve_continuous_lyapunov(model.A, -(model.B @ model.B.T))
        np.testing.assert_allclose(g.matrix, reference, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "model, rtol",
        [
            pytest.param(random_hurwitz(1, -0.5), 1e-12, id="n1"),
            pytest.param(random_hurwitz(3, -0.5), 1e-12, id="n3"),
            pytest.param(random_hurwitz(12, -0.5), 1e-12, id="n12"),
            pytest.param(random_hurwitz(30, -0.5), 1e-12, id="n30"),
            # Defective: a double eigenvalue at -1 with a single eigenvector.
            pytest.param(osc_model(1.0, 1.0), 1e-12, id="critical"),
            # The slowest mode decays at rate 1e-4, so W and its sensitivity
            # to roundoff both grow like 1e4.
            pytest.param(random_hurwitz(12, -1e-4), 1e-10, id="abscissa-1e-4"),
        ],
    )
    def test_symmetric_solve(self, model, rtol):
        A, Q = model.A, model.B @ model.B.T
        g = infinite_horizon_gramian_lyapunov(model)
        W = g.matrix
        reference = scipy.linalg.solve_continuous_lyapunov(A, -Q)
        assert np.linalg.norm(W - reference) <= rtol * np.linalg.norm(reference)
        assert np.array_equal(W, W.T)
        scale = 2.0 * np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(Q)
        assert g.residual <= 1e-12 * scale
        assert g.residual == np.linalg.norm(A @ W + W @ A.T + Q)

    def test_residual_is_finite_where_its_sum_of_squares_overflows(self):
        # The entries of A W + W A^T + Q are rounding noise on terms near
        # 1e300 (4.2e282 at most under the SkylakeX kernels, 3.2e133 under
        # Sandybridge), so their squares can overflow; the norm is taken on
        # the residual scaled by a power of two.
        model = StateSpaceModel(A=np.array([[-1.0, 1e150], [0.0, -2.0]]), B=np.ones((2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = infinite_horizon_gramian_lyapunov(model)
        # The exact solution, [[1e300 / 12, 1e150 / 12], [1e150 / 12, 1 / 4]].
        assert g.matrix.tolist() == [[8.333333333333333e298, 8.333333333333333e148], [8.333333333333333e148, 0.25]]
        A, W = model.A, g.matrix
        R = A @ W + W @ A.T + model.B @ model.B.T
        # Scaling by 2^-e is exact, so the Frobenius norm of the scaled copy
        # times 2^e is the norm of R, whatever rounding noise R holds.
        e = math.frexp(np.abs(R).max())[1]
        assert math.isfinite(g.residual)
        assert g.residual == math.ldexp(np.linalg.norm(np.ldexp(R, -e)), e)
        # ||A|| ||W|| is about 8.3e448, so the relative residual is about 5e-167.
        assert math.log(g.residual) - math.log(1e150) - math.log(g.matrix[0, 0]) < math.log(1e-12)

    def test_residual_norm_is_scaled_on_every_kernel(self):
        # The input above overflows the sum of squares only where the BLAS
        # kernel leaves large rounding noise in R.  Here the exact residual
        # entries are far above 1.34e154: max|R| is 6.2e282 under the
        # SkylakeX, Haswell and Zen kernels and 1.9e283 under Sandybridge.
        A = np.array([[-1.0, 1e150, 0.0], [0.0, -3.0, 1.0], [0.0, 0.0, -5.0]])
        model = StateSpaceModel(A=A, B=np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = infinite_horizon_gramian_lyapunov(model)
        W = g.matrix
        # The triangular system solved from the last row up, in exact
        # rationals with c = 1e150 as the double holds it.
        c = Fraction(1e150)
        w33, w23, w22 = Fraction(1, 10), Fraction(11, 80), Fraction(17, 80)
        w13 = (1 + w23 * c) / 6
        w12 = (w22 * c + w13 + 1) / 4
        exact = [[c * w12 + Fraction(1, 2), w12, w13], [w12, w22, w23], [w13, w23, w33]]
        # Measured: 1.7e-16 (3.1e-16 under Sandybridge) at most.
        for i, j in np.ndindex(3, 3):
            assert abs(Fraction(W[i, j]) - exact[i][j]) <= Fraction(2e-15) * exact[i][j]
        R = A @ W + W @ A.T + model.B @ model.B.T
        with np.errstate(over="ignore"):
            assert np.linalg.norm(R) == math.inf
        e = math.frexp(np.abs(R).max())[1]
        assert math.isfinite(g.residual)
        assert g.residual == math.ldexp(np.linalg.norm(np.ldexp(R, -e)), e)
        # ||A|| w11 is about 5.9e448, so the relative residual is about 1e-166.
        assert math.log(g.residual) - math.log(1e150) - math.log(W[0, 0]) < math.log(1e-12)

    @pytest.mark.parametrize("s", [1e-10, 1e300])
    def test_time_scaling(self, s):
        # A -> s A gives W -> W / s.  At s = 1e300 the first A^-1 Q A^-T is
        # about 1e-600 and underflows, while W stays near 1e-300.
        model = random_hurwitz(3, -0.5)
        W = infinite_horizon_gramian_lyapunov(model).matrix
        scaled = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=s * model.A, B=model.B))
        np.testing.assert_allclose(scaled.matrix, W / s, rtol=1e-12, atol=0.0)

    def test_peak_allocation_at_n30(self):
        # The n^2 x n^2 Kronecker operator alone is 6.5 MB at n = 30.  The
        # sign iteration keeps one n x n inverse per step (7.2 kB each, 7
        # steps here) and replays them twice: the solve and its refinement.
        model = random_hurwitz(30, -0.5)
        tracemalloc.start()
        try:
            infinite_horizon_gramian_lyapunov(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        log_abscissa=st.floats(min_value=-6.0, max_value=0.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sign_solve_on_random_hurwitz(self, n, log_abscissa, seed):
        # The slowest mode decays at rate `abscissa`, so W and its
        # sensitivity to roundoff both grow like 1 / abscissa.
        abscissa = 10.0**log_abscissa
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        A = G - (np.linalg.eigvals(G).real.max() + abscissa) * np.eye(n)
        B = rng.standard_normal((n, max(1, n // 2)))
        Q = B @ B.T
        g = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=A, B=B))
        W = g.matrix
        assert np.array_equal(W, W.T)
        scale = 2.0 * np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(Q)
        assert g.residual <= 1e-12 * scale
        reference = scipy.linalg.solve_continuous_lyapunov(A, -Q)
        assert np.linalg.norm(W - reference) <= 1e-12 * np.linalg.norm(reference) / abscissa

    def test_oscillator_grid_matches_closed_form(self):
        # Entry (i, j) is compared on the scale sqrt(W_ii W_jj) of the
        # closed form, so the small diagonal entry counts as the large one.
        worst = 0.0
        for zeta in 10.0 ** np.arange(-6, 4):
            for omega_n in 10.0 ** np.arange(-3, 4):
                params = OscillatorParams(float(zeta), float(omega_n))
                W = infinite_horizon_gramian_lyapunov(make_oscillator(params)).matrix
                expected = oscillator_gramian_closed_form(params).matrix
                d = np.sqrt(np.diag(expected))
                worst = max(worst, float((np.abs(W - expected) / np.outer(d, d)).max()))
        assert worst <= 1e-14

    @pytest.mark.parametrize(
        "A, B, error",
        [
            # Q = B B^T overflows, so W does.
            pytest.param(-np.eye(3), 1e160 * np.eye(3), OverflowError, id="Q-overflows"),
            # The first inverse holds -1e300 / 1e-22.
            pytest.param(np.array([[-1e-11, 1e300], [0.0, -1e-11]]), np.ones((2, 1)),
                         ArithmeticError, id="iterate-overflows"),
        ],
    )
    def test_range_failure_is_arithmetic_error(self, A, B, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="double range"):
                infinite_horizon_gramian_lyapunov(StateSpaceModel(A=A, B=B))

    def test_step_cap_is_arithmetic_error(self, monkeypatch):
        # random_hurwitz(12, -1e-4) needs 17 sign steps.
        monkeypatch.setattr(gramian_mod, "SIGN_STEP_CAP", 10)
        with pytest.raises(ArithmeticError, match="did not converge in 10 steps"):
            infinite_horizon_gramian_lyapunov(random_hurwitz(12, -1e-4))


class TestFiniteHorizon:
    def test_zero_horizon_is_zero_matrix(self):
        for method in ("augmented_expm", "quadrature"):
            g = finite_horizon_gramian(osc_model(0.5, 1.0), 0.0, method)
            assert np.all(g.matrix == 0.0)
            assert g.horizon == Horizon.finite(0.0)

    def test_long_horizon_reaches_infinite_limit(self):
        g = finite_horizon_gramian(osc_model(0.5, 1.0), 60.0)
        expected = np.diag([0.5, 0.5])
        assert np.linalg.norm(g.matrix - expected) / np.linalg.norm(expected) < 1e-6

    @pytest.mark.parametrize("method", ["augmented_expm", "quadrature"])
    def test_frozen_simpson_reference(self, method):
        g = finite_horizon_gramian(osc_model(0.7, 1.0), 1.0, method)
        rel = np.linalg.norm(g.matrix - GRAMIAN_Z07_T1) / np.linalg.norm(GRAMIAN_Z07_T1)
        assert rel < 1e-10
        assert g.method == method

    def test_methods_agree(self):
        for zeta, omega_n, T in [
            (0.3, 1.0, 2.0), (1.5, 0.7, 4.0), (0.0, 1.0, 7.3), (1.0, 1.0, 5.0), (1.0 + 1e-7, 1.0, 3.0)
        ]:
            model = osc_model(zeta, omega_n)
            wa = finite_horizon_gramian(model, T, "augmented_expm").matrix
            wq = finite_horizon_gramian(model, T, "quadrature").matrix
            assert np.linalg.norm(wa - wq) / np.linalg.norm(wa) < 1e-8

    def test_works_for_general_models(self):
        # Non-oscillator dynamics exercise the dense exponential inside both
        # paths.
        from gramkit.lti import StateSpaceModel

        rng = np.random.default_rng(5)
        A = -np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        model = StateSpaceModel(A=A, B=B)
        wa = finite_horizon_gramian(model, 2.0, "augmented_expm").matrix
        wq = finite_horizon_gramian(model, 2.0, "quadrature").matrix
        assert np.linalg.norm(wa - wq) / np.linalg.norm(wa) < 1e-8

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = osc_model(rng.uniform(0.05, 2.0), rng.uniform(0.3, 2.0))
            t1, t2 = np.sort(rng.uniform(0.1, 8.0, size=2))
            if t1 == t2:
                continue
            w1 = finite_horizon_gramian(model, t1).matrix
            w2 = finite_horizon_gramian(model, t2).matrix
            assert np.linalg.eigvalsh(w2 - w1).min() >= -1e-12

    def test_convergence_rate_to_infinite(self):
        for zeta in (0.25, 0.5, 1.0):
            w_inf = analytic_infinite(zeta, 1.0)
            w_t = finite_horizon_gramian(osc_model(zeta, 1.0), 30.0 / zeta).matrix
            rel = np.linalg.norm(w_t - w_inf) / np.linalg.norm(w_inf)
            assert rel < 1e-6

    def test_rejects_negative_horizon_and_bad_method(self):
        with pytest.raises(ValueError, match=">= 0"):
            finite_horizon_gramian(osc_model(0.5, 1.0), -1.0)
        with pytest.raises(ValueError, match="method"):
            finite_horizon_gramian(osc_model(0.5, 1.0), 1.0, method="euler")

    def test_stacked_rows_equal_single_calls(self):
        # One stacked kernel call over rows with different balancing, doubling
        # counts and horizons gives each row bit for bit as its k = 1 call.
        models = [osc_model(z, w) for z in (0.0, 0.3, 1.0, 2.5) for w in (0.4, 1.0, 7.0)]
        horizons = [0.0, 1e-8, 0.5, 3.0, 40.0, 1000.0]
        rows = [(m, T) for m in models for T in horizons]
        A, B = np.array([m.A for m, _ in rows]), np.array([m.B for m, _ in rows])
        stacked, failure = gramian_mod._finite_horizon_gramians(A, B, [T for _, T in rows])
        assert failure is None and len(stacked) == len(rows)
        for (model, T), W in zip(rows, stacked):
            single = finite_horizon_gramian(model, T)
            assert np.array_equal(gramian_mod._symmetrize(W), single.matrix), (model.A, T)
            assert single.horizon == Horizon.finite(T) and single.method == "augmented_expm"

    def test_stacked_failure_is_raised_at_its_row(self):
        # Rows before an out-of-range row are still produced.
        models = [osc_model(0.5, 1.0), osc_model(0.5, 1e-110), osc_model(0.5, 1.0)]
        A, B = np.array([m.A for m in models]), np.array([m.B for m in models])
        stacked, failure = gramian_mod._finite_horizon_gramians(A, B, [2.0, 1e300, 2.0])
        assert len(stacked) == 1
        W = gramian_mod._symmetrize(stacked[0])
        assert np.array_equal(W, finite_horizon_gramian(models[0], 2.0).matrix)
        with pytest.raises(ArithmeticError, match="double range"):
            raise failure

    def test_range_is_decided_by_the_gramian_alone(self):
        # ||A|| T and ||B B^T|| may leave the double range where W does not:
        # those rows are returned.  Only a Gramian that leaves the range is
        # refused, at its row, with the rows before it still produced, and
        # nothing warns.
        wide = [osc_model(0.5, 1e10), osc_model(0.5, 1e100)]
        huge_b = StateSpaceModel(-np.eye(2), np.full((2, 1), 1e154))
        out_of_range = [StateSpaceModel(-np.eye(2), np.full((2, 1), b)) for b in (1e200, 1e-170)]
        models = [*wide, out_of_range[0], wide[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            singles = [finite_horizon_gramian(model, 1e300).matrix for model in wide]
            w11 = finite_horizon_gramian(huge_b, 1.0).matrix[0, 0]
            for model in out_of_range:
                with pytest.raises(ArithmeticError, match=r"^the Gramian over \[0, 1\.0\] leaves the double range$"):
                    finite_horizon_gramian(model, 1.0)
            A, B = np.array([m.A for m in models]), np.array([m.B for m in models])
            stacked, failure = gramian_mod._finite_horizon_gramians(A, B, [1e300, 1e300, 1.0, 2.0])
        for W, omega_n in zip(singles, (1e10, 1e100)):
            assert closed_form_error(W, 0.5, omega_n) <= 1e-14
        expected = 1e308 * (1.0 - math.exp(-2.0)) / 2.0
        assert abs(w11 - expected) <= 1e-14 * expected
        assert len(stacked) == 2
        for W, single in zip(stacked, singles):
            assert np.array_equal(gramian_mod._symmetrize(W), single)
        assert str(failure) == "the Gramian over [0, 1.0] leaves the double range"

    def test_norm_past_the_double_range_keeps_its_exponent(self):
        # ||A||_1 = 2.5e308 overflows, so d is taken from the column sums of
        # A scaled by the exponent of max|A|.  At T = 1 the system has long
        # settled: W_T is W_inf = [[1.1, 0.6], [0.6, 0.4]].
        model = StateSpaceModel(np.array([[-1e308, 1e308], [1e308, -1.5e308]]), np.array([[1e154], [0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = finite_horizon_gramian(model, 1.0).matrix
            W_inf = infinite_horizon_gramian_lyapunov(model).matrix
        assert np.abs(W - W_inf).max() <= 1e-14 * np.abs(W_inf).max()

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        zeta=st.floats(min_value=0.1, max_value=10.0),
        log_omega=st.floats(min_value=-100.0, max_value=100.0),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_representable_gramians_are_returned(self, zeta, log_omega, fraction):
        # Horizons on which the slowest mode has decayed by e^-50 or more, up
        # to T = 1e300: W_T is W_inf to double precision, and it is returned
        # however far ||A|| T lies outside the double range.
        omega_n = 10.0**log_omega
        w_inf = np.diag(analytic_infinite(zeta, omega_n))
        assume(np.all((sys.float_info.min <= w_inf) & (w_inf < math.inf)))
        slowest = zeta * omega_n if zeta <= 1.0 else omega_n / (zeta + math.sqrt(zeta * zeta - 1.0))
        shortest = math.log10(50.0 / slowest)
        T = 10.0 ** (shortest + fraction * (300.0 - shortest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = finite_horizon_gramian(osc_model(zeta, omega_n), T).matrix
        assert closed_form_error(W, zeta, omega_n) <= 1e-13

    def test_quadrature_panel_cap(self, monkeypatch):
        monkeypatch.setattr(gramian_mod, "QUADRATURE_PANEL_CAP", 8)
        with pytest.raises(QuadratureConvergenceError, match="panels"):
            finite_horizon_gramian(osc_model(0.5, 1.0), 10.0, "quadrature")


class TestDeterminant:
    def test_reference_values(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.5, 2.0))
        assert gramian_determinant(g) == 0.015625
        g0 = oscillator_gramian_closed_form(OscillatorParams(0.0, 2.0))
        assert gramian_determinant(g0) == 0.25

    def test_identity(self):
        g = GramianResult(matrix=np.eye(2), horizon=Horizon.infinite(), method="lyapunov")
        assert gramian_determinant(g) == 1.0

    @pytest.mark.parametrize("entry", [1e-300, 3.0])
    def test_one_by_one_entry_is_exact(self, entry):
        # LU gives 1.0000000000000237e-300 and 3.0000000000000004 for these entries.
        g = GramianResult(matrix=np.array([[entry]]), horizon=Horizon.infinite(), method="lyapunov")
        assert gramian_determinant(g) == entry

    def test_one_by_one_subnormal_entry_is_refused(self):
        g = GramianResult(matrix=np.array([[5e-320]]), horizon=Horizon.infinite(), method="lyapunov")
        with pytest.raises(ArithmeticError, match="underflows"):
            gramian_determinant(g)

    def test_matches_analytic_law(self):
        for zeta in ZETA_GRID:
            for omega_n in OMEGA_GRID:
                g = oscillator_gramian_closed_form(OscillatorParams(zeta, omega_n))
                expected = 1.0 / (16.0 * zeta**2 * omega_n**4)
                assert gramian_determinant(g) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_strictly_decreasing_in_parameters(self):
        dets_by_zeta = [
            gramian_determinant(oscillator_gramian_closed_form(OscillatorParams(z, 1.0)))
            for z in ZETA_GRID
        ]
        assert all(a > b for a, b in zip(dets_by_zeta, dets_by_zeta[1:]))
        dets_by_omega = [
            gramian_determinant(oscillator_gramian_closed_form(OscillatorParams(0.5, w)))
            for w in OMEGA_GRID
        ]
        assert all(a > b for a, b in zip(dets_by_omega, dets_by_omega[1:]))


class TestSpectrum:
    def test_reference_values(self):
        g = oscillator_gramian_closed_form(OscillatorParams(0.5, 2.0))
        spectrum = gramian_spectrum(g)
        np.testing.assert_allclose(spectrum.eigenvalues, [0.0625, 0.25], rtol=1e-14)
        assert spectrum.trace == pytest.approx(0.3125, rel=1e-14, abs=0.0)
        assert spectrum.condition_number == pytest.approx(4.0, rel=1e-12, abs=0.0)
        assert not spectrum.uncontrollable_direction

    def test_identity(self):
        g = GramianResult(matrix=np.eye(2), horizon=Horizon.infinite(), method="lyapunov")
        spectrum = gramian_spectrum(g)
        assert spectrum.condition_number == 1.0
        assert spectrum.trace == 2.0

    def test_eigenvalue_product_equals_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            root = rng.normal(size=(2, 2))
            g = GramianResult(matrix=root @ root.T, horizon=Horizon.finite(1.0), method="quadrature")
            spectrum = gramian_spectrum(g)
            product = float(np.prod(spectrum.eigenvalues))
            assert product == pytest.approx(gramian_determinant(g), rel=1e-12, abs=1e-300)
            assert spectrum.trace == pytest.approx(spectrum.eigenvalues.sum(), rel=1e-12, abs=0.0)

    def test_overflowing_trace_is_inf_without_warning(self):
        g = GramianResult(np.diag([1.2e308, 1.2e308]), Horizon.infinite(), "lyapunov")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = gramian_spectrum(g)
        assert spectrum.trace == math.inf
        assert spectrum.eigenvalues.tolist() == [1.2e308, 1.2e308]

    def test_stacked_spectra_equal_single_calls(self):
        # One stacked eigvalsh gives each row's eigenvalues and trace bit for
        # bit as the per-matrix calls do.
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 12):
            root = rng.normal(size=(40, n, n))
            W = root @ root.swapaxes(1, 2) * 10.0 ** rng.uniform(-300, 300, (40, 1, 1))
            eigenvalues, trace = gramian_mod._spectra(W)
            for i, w in enumerate(W):
                assert np.array_equal(eigenvalues[i], np.linalg.eigvalsh(w))
                assert trace[i] == float(np.trace(w))

    def test_flags_numerically_uncontrollable_direction(self):
        g = GramianResult(
            matrix=np.diag([1e-16, 1.0]), horizon=Horizon.infinite(), method="lyapunov"
        )
        assert gramian_spectrum(g).uncontrollable_direction


class TestGramianResult:
    def test_symmetrized_on_construction(self):
        raw = np.array([[1.0, 2e-13], [0.0, 1.0]])
        g = GramianResult(matrix=raw, horizon=Horizon.infinite(), method="lyapunov")
        assert g.matrix[0, 1] == g.matrix[1, 0]

    def test_symmetrization_cannot_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = GramianResult(np.diag([1.5e308, 1.0]), Horizon.infinite(), "closed_form")
            assert g.matrix[0, 0] == 1.5e308
            raw = np.array([[1.0, 1.7e308], [1.5e308, 1.0]])
            g = GramianResult(raw, Horizon.infinite(), "lyapunov")
            assert g.matrix[0, 1] == g.matrix[1, 0] == 1.6e308

    def test_symmetric_matrix_kept_bit_for_bit(self):
        rng = np.random.default_rng(3)
        root = rng.standard_normal((5, 5)) * 10.0 ** rng.uniform(-150, 150, size=(5, 1))
        W = root @ root.T
        g = GramianResult(W, Horizon.infinite(), "lyapunov")
        assert np.array_equal(g.matrix, W)

    def test_symmetric_subnormal_entries_kept(self):
        W = np.array([[5e-324, 3 * 5e-324], [3 * 5e-324, 1.0]])
        g = GramianResult(W, Horizon.infinite(), "closed_form")
        assert np.array_equal(g.matrix, W)

    def test_psd_up_to_roundoff_on_grid(self):
        for zeta in ZETA_GRID:
            for omega_n in OMEGA_GRID:
                g = finite_horizon_gramian(osc_model(zeta, omega_n), 3.0)
                assert np.linalg.eigvalsh(g.matrix).min() >= -1e-12

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Horizon(kind="eternal")
        with pytest.raises(ValueError, match="seconds"):
            Horizon(kind="finite")
        with pytest.raises(ValueError, match="seconds"):
            Horizon(kind="infinite", seconds=3.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            GramianResult(
                matrix=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                horizon=Horizon.infinite(),
                method="lyapunov",
            )


class TestRangeFailures:
    # Results that leave the double range raise an ArithmeticError naming
    # the computation, never ValueError (a caller's mistake) or a warning.
    def test_closed_form_overflow(self):
        with pytest.raises(OverflowError, match="zeta=1e-320"):
            oscillator_gramian_closed_form(OscillatorParams(1e-320, 1.0))

    def test_determinant_overflow(self):
        g = oscillator_gramian_closed_form(OscillatorParams(5e-324, 8.67e15))
        with pytest.raises(OverflowError, match="determinant"):
            gramian_determinant(g)

    def test_determinant_underflow(self):
        g = oscillator_gramian_closed_form(OscillatorParams(1e300, 1.0))
        with pytest.raises(ArithmeticError, match="underflows"):
            gramian_determinant(g)
        # Exact cancellation is a singular Gramian, not an underflow.
        singular = GramianResult(np.ones((2, 2)), Horizon.infinite(), "closed_form")
        assert gramian_determinant(singular) == 0.0

    def test_quadrature_integrand_overflow(self):
        A3 = np.array([[-1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -2.0]])
        model = StateSpaceModel(A3, np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                finite_horizon_gramian(model, 1e308, "quadrature")

    def test_quadrature_nodes_stay_finite_at_huge_horizon(self):
        # 0.5 * (mid + T) would overflow next to T = 1e308; the nodes stay
        # finite and the non-convergence is refused as documented.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureConvergenceError, match="panels"):
                finite_horizon_gramian(osc_model(0.5, 1.0), 1e308, "quadrature")

    def test_lyapunov_determinant_range(self):
        # n > 2: det(W) of a positive definite W that underflows to 0 or
        # overflows to inf is a range failure, raised without a warning.
        tiny = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=-np.eye(3), B=1e-110 * np.eye(3)))
        huge = infinite_horizon_gramian_lyapunov(StateSpaceModel(A=-1e-3 * np.eye(4), B=1e80 * np.eye(4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="underflows"):
                gramian_determinant(tiny)
            with pytest.raises(OverflowError, match="overflows"):
                gramian_determinant(huge)
        # A singular W keeps its exact 0.
        singular = GramianResult(np.ones((3, 3)), Horizon.infinite(), "lyapunov")
        assert gramian_determinant(singular) == 0.0

    def test_doubling_overflow(self):
        # w11 ~ 1/(4 zeta omega_n^3) = 5e329 is out of range: the kernel must
        # refuse rather than return a zero or non-finite Gramian.
        with pytest.raises(ArithmeticError):
            finite_horizon_gramian(osc_model(0.5, 1e-110), 1e300)

    def test_large_omega_matches_infinite_limit(self):
        # W_inf = diag(2.31e-51, 8.33e-18) is representable; only balancing
        # keeps the base step on the 1/omega_n time scale of the dynamics.
        w = finite_horizon_gramian(osc_model(0.5, 6e16), 6e16).matrix
        w_inf = analytic_infinite(0.5, 6e16)
        np.testing.assert_allclose(np.diag(w), np.diag(w_inf), rtol=1e-14)
        assert abs(w[0, 1]) <= 1e-14 * w_inf.max()

    @pytest.mark.parametrize("omega_n", [1e-150, 1e-110, 1e-50, 1e-5, 6e16, 1e150])
    def test_extreme_omega_emits_no_warning(self, omega_n):
        # Balancing and range checks run without a numpy warning at either end
        # of the omega_n range: each horizon gives a Gramian or a refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (1e-3 / omega_n, 1.0, 1e3 / omega_n):
                try:
                    w = finite_horizon_gramian(osc_model(0.5, omega_n), T).matrix
                except ArithmeticError:
                    continue
                assert np.all(np.isfinite(w)) and np.all(np.diag(w) > 0.0)

    def test_balancing_skips_zero_norms(self):
        # A zero row or column norm has no balancing scale; it must neither
        # warn nor move the index.
        stack = np.stack([np.zeros((3, 3)), 1e300 * np.triu(np.ones((3, 3)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not gramian_mod._balancing_exponents(stack).any()


class TestLevelSynchronousSimpson:
    def test_same_nodes_and_value_as_recursive_scheme(self, monkeypatch):
        # The recursive scheme: refine until a panel at depth <= 0 meets
        # 15 * tol, halving tol per level.
        model = osc_model(0.3, 2.0)
        A, B, T, tol = model.A, model.B, 3.0, 1e-9
        reference_nodes = []
        kernel = gramian_mod.matrix_exponential

        def f(t):
            reference_nodes.append(t)
            col = kernel(A, t) @ B
            return col @ col.T

        def recurse(a, fa, b, fb, mid, fmid, whole, tol, depth):
            lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
            flm, frm = f(lm), f(rm)
            left = ((mid - a) / 6.0) * (fa + 4.0 * flm + fmid)
            right = ((b - mid) / 6.0) * (fmid + 4.0 * frm + fb)
            err = left + right - whole
            if depth <= 0 and np.abs(err).max() <= 15.0 * tol:
                return left + right + err / 15.0
            return recurse(a, fa, mid, fmid, lm, flm, left, 0.5 * tol, depth - 1) + recurse(
                mid, fmid, b, fb, rm, frm, right, 0.5 * tol, depth - 1
            )

        fa, fmid, fb = f(0.0), f(0.5 * T), f(T)
        expected = recurse(0.0, fa, T, fb, 0.5 * T, fmid, (T / 6.0) * (fa + 4.0 * fmid + fb), tol, 6)

        nodes = []

        def recording_kernel(A, t):
            nodes.extend(np.ravel(t).tolist())
            return kernel(A, t)

        monkeypatch.setattr(gramian_mod, "matrix_exponential", recording_kernel)
        monkeypatch.setattr(gramian_mod, "QUADRATURE_TOL", tol)
        got = gramian_mod._adaptive_simpson_gramian(A, B, T)
        assert sorted(nodes) == sorted(reference_nodes)
        # The two schemes sum the same panels in different orders, so the
        # value is compared on the scale of max|W| (about 9 ulps of it), not
        # entry by entry: the off-diagonal entry is 400 times smaller.
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15 * np.abs(expected).max())

    # Adaptive Simpson Gramians as float.hex: oscillators with omega_n = 1
    # keyed by (zeta, T), a 3 x 3 system at T = 2 and the oscillator (0.3, 1)
    # at T = 1e-300, under the SkylakeX kernels.  They were captured again
    # when the forced panels came to be summed in grid order, in place of the
    # order of the retired level-by-level scheme, and moved by at most 4 ulps
    # of max|W|.  The Haswell kernels give the same bits, and the Sandybridge
    # kernels differ in general_3x3 only.
    BITS = {
        (0.0, 1.0): [
            ["0x1.173848a9725dep-2", "0x1.6a88995d4dc7ep-2"],
            ["0x1.6a88995d4dc7ep-2", "0x1.7463dbab46d0fp-1"],
        ],
        (0.0, 2.0): [
            ["0x1.306f73bbb83d6p+0", "0x1.a7553036d925ap-2"],
            ["0x1.a7553036d925ap-2", "0x1.9f2118888f854p-1"],
        ],
        (0.0, 7.3): [
            ["0x1.b691121a90399p+1", "0x1.724cd576c616fp-2"],
            ["0x1.724cd576c616fp-2", "0x1.efd5544bd62cdp+1"],
        ],
        (0.3, 1.0): [
            ["0x1.70c60992e6e43p-3", "0x1.9ae827e5693b6p-3"],
            ["0x1.9ae827e5693b6p-3", "0x1.ce5e89e5abf77p-2"],
        ],
        (0.3, 2.0): [
            ["0x1.2cbf241bca648p-1", "0x1.2dda452d5cdd2p-3"],
            ["0x1.2dda452d5cdd2p-3", "0x1.f4945827b1a7ep-2"],
        ],
        (0.3, 7.3): [
            ["0x1.a34296f0ea4eap-1", "0x1.6527b99406807p-9"],
            ["0x1.6527b99406807p-9", "0x1.a68c3e88a4d34p-1"],
        ],
        (1.0, 1.0): [
            ["0x1.4b15566a13bb2p-4", "0x1.152aaa3bf8184p-4"],
            ["0x1.152aaa3bf8184p-4", "0x1.bab5557101fc2p-3"],
        ],
        (1.0, 2.0): [
            ["0x1.861752d327f5cp-3", "0x1.2c155b8213b9ap-5"],
            ["0x1.2c155b8213b9ap-5", "0x1.d11ca9b3acf2ap-3"],
        ],
        (1.0, 7.3): [
            ["0x1.fff8b119992b4p-3", "0x1.9801727992000p-17"],
            ["0x1.9801727992000p-17", "0x1.fffa703abeefap-3"],
        ],
        (1.5, 1.0): [
            ["0x1.a2fbe95518e23p-5", "0x1.306596cdbeccfp-5"],
            ["0x1.306596cdbeccfp-5", "0x1.3ba2937f57185p-3"],
        ],
        (1.5, 2.0): [
            ["0x1.c351725dc09a2p-4", "0x1.5b746343ffa36p-6"],
            ["0x1.5b746343ffa36p-6", "0x1.45051ac388e40p-3"],
        ],
        (1.5, 7.3): [
            ["0x1.534dccc5ac7ccp-3", "0x1.8ce360174ed00p-12"],
            ["0x1.8ce360174ed00p-12", "0x1.550988d1539cdp-3"],
        ],
        "general_3x3": [
            ["0x1.91aefc5372d67p+1", "0x1.8fa630e51907ap+0", "0x1.354715a52161dp-1"],
            ["0x1.8fa630e51907ap+0", "0x1.c43a330b73b74p-1", "0x1.a90f754ced135p-2"],
            ["0x1.354715a52161dp-1", "0x1.a90f754ced135p-2", "0x1.ffd407bdf7e29p-3"],
        ],
        "tiny_T": [
            ["0x0.0p+0", "0x0.0p+0"],
            ["0x0.0p+0", "0x1.56e1fc2f8f359p-997"],
        ],
    }
    PINNED_BITS = {
        "SkylakeX": BITS,
        "Haswell": BITS,
        "Sandybridge": {
            **BITS,
            "general_3x3": [
                ["0x1.91aefc5372d67p+1", "0x1.8fa630e51907ap+0", "0x1.354715a52161ep-1"],
                ["0x1.8fa630e51907ap+0", "0x1.c43a330b73b75p-1", "0x1.a90f754ced135p-2"],
                ["0x1.354715a52161ep-1", "0x1.a90f754ced135p-2", "0x1.ffd407bdf7e29p-3"],
            ],
        },
    }

    @pytest.mark.parametrize("case", list(BITS), ids=str)
    def test_pinned_bits(self, case, pins):
        if case == "general_3x3":
            A3 = np.array([[-1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -2.0]])
            model, T = StateSpaceModel(A3, np.ones((3, 1))), 2.0
        elif case == "tiny_T":
            model, T = osc_model(0.3, 1.0), 1e-300
        else:
            model, T = osc_model(case[0], 1.0), case[1]
        expected = np.array([[float.fromhex(h) for h in row] for row in pins(self.PINNED_BITS)[case]])
        assert np.array_equal(finite_horizon_gramian(model, T, "quadrature").matrix, expected)

    def test_forced_levels_take_one_integrand_call(self, monkeypatch):
        # The six forced levels and the first adaptive one share a call;
        # evaluated level by level, this case took 10 calls.
        calls = []
        kernel = gramian_mod.matrix_exponential

        def counting_kernel(A, t):
            calls.append(np.size(t))
            return kernel(A, t)

        monkeypatch.setattr(gramian_mod, "matrix_exponential", counting_kernel)
        finite_horizon_gramian(osc_model(0.3, 2.0), 2.0, "quadrature")
        assert calls[0] == 257
        assert len(calls) <= 4

    def test_forced_panels_count_against_the_cap(self, monkeypatch):
        # 126 panels of the forced levels and 204 adaptive ones: the cap
        # boundary sits exactly at their sum.
        model = osc_model(0.3, 2.0)
        monkeypatch.setattr(gramian_mod, "QUADRATURE_PANEL_CAP", 330)
        finite_horizon_gramian(model, 2.0, "quadrature")
        monkeypatch.setattr(gramian_mod, "QUADRATURE_PANEL_CAP", 329)
        with pytest.raises(QuadratureConvergenceError, match="exceeded 329 panels"):
            finite_horizon_gramian(model, 2.0, "quadrature")

    def test_subnormal_horizon(self):
        # w22 = T + O(T^2) on [0, T].  At T = 1e-320 every node is subnormal
        # and the quadrature holds w22 within 0.8%; forming each midpoint as
        # 0.5 (a + b) gave 1.067e-320, 6.7% off.
        W = finite_horizon_gramian(osc_model(0.3, 2.0), 1e-320, "quadrature").matrix
        assert abs(W[1, 1] - 1e-320) <= 0.01 * 1e-320
