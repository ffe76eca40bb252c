import dataclasses
import inspect
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

import gramkit
from gramkit.energy import ControlProfile
from gramkit.lti import (
    DampingRegime,
    OscillatorParams,
    StateSpaceModel,
    classify_regime,
    controllability_rank,
    expm_scaling_squaring,
    make_oscillator,
    matrix_exponential,
    oscillator_expm,
    simulate,
    _expm_stack,
    _foh_step,
    _require_uniform_grid,
)

# exp(A) for zeta=0.5, omega_n=1, frozen from the scaling-and-squaring
# reference before the closed forms were written (cross-checked against
# scipy's Pade evaluation).
EXPM_HALF_DAMPED_T1 = np.array(
    [
        [0.65970015339170163, 0.53350719511469291],
        [-0.53350719511469302, 0.1261929582770086],
    ]
)


def osc_model(zeta, omega_n):
    return make_oscillator(OscillatorParams(zeta=zeta, omega_n=omega_n))


class TestOscillatorParams:
    def test_direct_substitution(self):
        model = osc_model(0.5, 2.0)
        assert model.A.tolist() == [[0.0, 1.0], [-4.0, -2.0]]
        assert model.B.tolist() == [[0.0], [1.0]]

    def test_undamped(self):
        model = osc_model(0.0, 1.0)
        assert model.A.tolist() == [[0.0, 1.0], [-1.0, 0.0]]

    def test_physical_triple(self):
        params = OscillatorParams.from_physical(mass=1.0, damping=2.0, stiffness=1.0)
        assert params.zeta == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert params.omega_n == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert params.regime is DampingRegime.CRITICALLY_DAMPED
        model = make_oscillator(params)
        assert model.A.tolist() == [[0.0, 1.0], [-1.0, -2.0]]

    def test_physical_triple_gives_the_same_value(self):
        # The value holds (zeta, omega_n) alone, however it was spelled.
        assert OscillatorParams.from_physical(1.0, 2.0, 1.0) == OscillatorParams(1.0, 1.0)
        assert [f.name for f in dataclasses.fields(OscillatorParams)] == ["zeta", "omega_n"]
        with pytest.raises(TypeError):
            OscillatorParams(0.5, 1.0, mass=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(zeta=-0.1, omega_n=1.0),
            dict(zeta=0.5, omega_n=0.0),
            dict(zeta=0.5, omega_n=-2.0),
            dict(zeta=float("nan"), omega_n=1.0),
            dict(zeta=0.5, omega_n=float("inf")),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            OscillatorParams(**kwargs)

    @pytest.mark.parametrize(
        "triple",
        [
            (1e200, 1.0, 1e200),  # m*k overflows
            (1e-200, 0.0, 1e-200),  # m*k underflows
            (1e300, 1.0, 1e-300),  # k/m underflows
            (1e-300, 1.0, 1e300),  # k/m overflows
            (5e-324, 3e-310, 2.0),  # subnormal m and c
        ],
    )
    def test_physical_triple_beyond_the_product_range(self, triple):
        # zeta and omega_n to one rounding of a 40-digit evaluation, although
        # m*k or k/m leaves the normal range.
        params = OscillatorParams.from_physical(*triple)
        m, c, k = (mpmath.mpf(v) for v in triple)
        with mpmath.workdps(40):
            zeta, omega_n = c / (2 * mpmath.sqrt(m * k)), mpmath.sqrt(k / m)
        assert params.zeta == pytest.approx(float(zeta), rel=2.3e-16, abs=0.0)
        assert params.omega_n == pytest.approx(float(omega_n), rel=2.3e-16, abs=0.0)

    def test_physical_triple_in_the_normal_range_is_the_plain_formula(self):
        rng = np.random.default_rng(5)
        for m, c, k in 10.0 ** rng.uniform(-100.0, 100.0, size=(200, 3)):
            params = OscillatorParams.from_physical(m, c, k)
            assert params.zeta == c / (2.0 * math.sqrt(m * k))
            assert params.omega_n == math.sqrt(k / m)

    @pytest.mark.parametrize(
        "triple",
        [
            (1.0, 1e300, 1e-300),  # zeta = 5e449
            (1e300, 1e-300, 1e300),  # zeta = 5e-601 underflows to 0 with c > 0
            (5e-324, 1.0, 1.7e308),  # omega_n = 5.9e315
        ],
    )
    def test_physical_triple_out_of_range_names_m_c_k(self, triple):
        m, c, k = triple
        with pytest.raises(OverflowError, match=re.escape(f"m={m}, c={c}, k={k}")):
            OscillatorParams.from_physical(*triple)

    def test_omega_d(self):
        assert OscillatorParams(0.0, 2.0).omega_d == pytest.approx(2.0)
        damped = OscillatorParams(0.6, 2.0).omega_d
        assert 0.0 < damped < 2.0
        assert damped == pytest.approx(2.0 * math.sqrt(1 - 0.36), rel=1e-15, abs=0.0)
        assert OscillatorParams(1.0, 2.0).omega_d is None
        assert OscillatorParams(3.0, 2.0).omega_d is None

    @pytest.mark.parametrize("zeta", [1 - 1e-9, 1 - 1e-12, 1 - 2.0**-40, 0.999999, 0.6, 0.0])
    def test_omega_d_near_critical_damping(self, zeta):
        # omega_n sqrt(1 - zeta^2) cancels near zeta = 1 (1.65e6 ulps off at
        # 1 - 1e-9); the damped frequency is within 1 ulp of 40-digit mpmath.
        omega_d = OscillatorParams(zeta, 2.0).omega_d
        with mpmath.workdps(40):
            exact = 2 * mpmath.sqrt(1 - mpmath.mpf(zeta) ** 2)
            error = abs(mpmath.mpf(omega_d) - exact)
        assert error <= math.ulp(float(exact))

    def test_arrays_are_immutable(self):
        model = osc_model(0.5, 1.0)
        with pytest.raises(ValueError):
            model.A[0, 0] = 5.0


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "zeta,expected",
        [
            (0.0, DampingRegime.UNDAMPED),
            (0.5, DampingRegime.UNDERDAMPED),
            (2.0, DampingRegime.OVERDAMPED),
            (1.0, DampingRegime.CRITICALLY_DAMPED),
            (1.0 + 5e-10, DampingRegime.CRITICALLY_DAMPED),
            (1.0 - 5e-10, DampingRegime.CRITICALLY_DAMPED),
            (1.0 + 1e-8, DampingRegime.OVERDAMPED),
        ],
    )
    def test_thresholds(self, zeta, expected):
        assert classify_regime(zeta) is expected

    @pytest.mark.parametrize("zeta", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_rejects(self, zeta):
        with pytest.raises(ValueError):
            classify_regime(zeta)


class TestMatrixExponential:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        assert np.array_equal(matrix_exponential(A, 0.0), np.eye(3))
        assert np.array_equal(matrix_exponential(osc_model(0.5, 2.0).A, 0.0), np.eye(2))

    def test_rotation_generator(self):
        E = matrix_exponential(osc_model(0.0, 1.0).A, math.pi / 2.0)
        np.testing.assert_allclose(E, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_frozen_reference_value(self):
        A = osc_model(0.5, 1.0).A
        np.testing.assert_allclose(matrix_exponential(A, 1.0), EXPM_HALF_DAMPED_T1, atol=1e-9)
        np.testing.assert_allclose(
            expm_scaling_squaring(A).matrix, EXPM_HALF_DAMPED_T1, atol=1e-12
        )

    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0 - 1e-4, 1.0, 1.0 + 1e-4, 3.0])
    @pytest.mark.parametrize("omega_n", [0.5, 1.0, 2.0])
    def test_closed_form_matches_general_path(self, zeta, omega_n):
        A = osc_model(zeta, omega_n).A
        for t in (0.1, 0.5, 1.0, 2.0, 5.0, -1.5):
            closed = oscillator_expm(zeta, omega_n, t)
            general = expm_scaling_squaring(A * t).matrix
            np.testing.assert_allclose(closed, general, atol=1e-9)

    @pytest.mark.parametrize(
        "zeta,omega_n,t", [(3.0, 10.0, 13.0), (2.0, 1.0, 700.0), (1.5, 2.0, -0.7)]
    )
    def test_overdamped_matches_scipy_where_2_mu_t_leaves_exp_range(self, zeta, omega_n, t):
        # 2*mu*t is ~735 and ~2425 in the first two cases, beyond exp's range,
        # while exp(A t) itself is tiny but representable; the last case
        # covers negative t.  Entries are far below 1, so compare relatively.
        A = osc_model(zeta, omega_n).A
        np.testing.assert_allclose(
            oscillator_expm(zeta, omega_n, t), scipy.linalg.expm(A * t), rtol=1e-9, atol=0.0
        )

    def test_dispatch_picks_closed_form(self):
        # Oscillator-shaped input goes through the closed form; the result
        # must still agree with the general path.
        A = osc_model(0.7, 1.3).A
        assert np.array_equal(matrix_exponential(A, 0.8), oscillator_expm(0.7, 1.3, 0.8))

    def test_near_critical_band_is_smooth(self):
        # The closed forms must not cancel as the damped frequency vanishes:
        # at every offset around zeta = 1 the dispatched form must track the
        # dense reference for the same dynamics matrix.
        for offset in (1e-4, 1e-6, 1e-7, 1e-8, 1e-10):
            for zeta in (1.0 - offset, 1.0 + offset):
                A = osc_model(zeta, 1.0).A
                for t in np.linspace(0.0, 5.0, 11):
                    closed = oscillator_expm(zeta, 1.0, t)
                    dense = expm_scaling_squaring(A * t).matrix
                    assert np.abs(closed - dense).max() < 1e-6

    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 3.0])
    def test_batched_equals_scalar_calls(self, zeta):
        # An array of t is the same kernel applied elementwise, bit for bit,
        # and the result has shape t.shape + (2, 2).
        t = np.linspace(-1.5, 40.0, 24).reshape(4, 6)
        batched = oscillator_expm(zeta, 1.3, t)
        assert batched.shape == (4, 6, 2, 2)
        scalar = np.array([oscillator_expm(zeta, 1.3, s) for s in t.ravel()])
        assert np.array_equal(batched, scalar.reshape(batched.shape))
        A = osc_model(zeta, 1.3).A
        assert np.array_equal(matrix_exponential(A, t), batched)

    def test_batched_general_matrix_equals_scalar_calls(self):
        A = np.array([[-1.0, 0.4, 0.0], [0.2, -0.5, 1.0], [0.0, -0.3, -2.0]])
        t = np.array([[0.0, 0.25], [1.5, -2.0]])
        batched = matrix_exponential(A, t)
        assert batched.shape == (2, 2, 3, 3)
        for idx in np.ndindex(t.shape):
            assert np.array_equal(batched[idx], matrix_exponential(A, t[idx]))
        with pytest.raises(ValueError, match="t must be finite, got -inf"):
            matrix_exponential(A, np.array([1.0, -np.inf]))
        with pytest.raises(ValueError, match="t must be finite, got nan"):
            oscillator_expm(0.5, 1.0, np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("omega_n", [0.5, 2.0])
    def test_near_critical_matches_40_digit_reference(self, omega_n):
        # scipy's expm is itself off by ~1e-10 here, so the reference is a
        # 40-digit mpmath exponential of the same (zeta, omega_n) matrix.
        with mpmath.workdps(40):
            for offset in (1e-12, 1e-9, 1e-8, 1e-6, 2e-6, 1e-4):
                for zeta in (1.0 - offset, 1.0 + offset):
                    A = mpmath.matrix(
                        [[0, 1], [-mpmath.mpf(omega_n) ** 2, -2 * mpmath.mpf(zeta) * omega_n]]
                    )
                    for t in (-1.5, 0.5, 5.0, 40.0, 200.0):
                        ref = np.array(mpmath.expm(A * t).tolist(), dtype=float)
                        got = oscillator_expm(zeta, omega_n, t)
                        scale = np.abs(ref).max()
                        assert np.abs(got - ref).max() <= 2e-13 * scale, (zeta, t)

    @pytest.mark.parametrize(
        "zeta, omega_n, t",
        [(1000.0, 1.0, 2e4), (1000.0, 1.0, 2000.0), (40.0, 1.0, 1000.0), (40.0, 1.0, 8.86),
         (3.0, 10.0, 13.0), (2.5, 1.5, 8.0)],
    )
    def test_overdamped_slow_mode_matches_40_digit_reference(self, zeta, omega_n, t):
        # The slow mode's rate zeta*omega_n - mu cancels at large zeta when
        # formed as a difference: (1000, 1, 2e4) was off by 3.3e-10 and
        # (40, 1, 1000) by 6.3e-12; the worst of these is now 1.9e-15.
        with mpmath.workdps(40):
            A = mpmath.matrix([[0, 1], [-mpmath.mpf(omega_n) ** 2, -2 * mpmath.mpf(zeta) * omega_n]])
            ref = np.array(mpmath.expm(A * t).tolist(), dtype=float)
        got = oscillator_expm(zeta, omega_n, t)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_general_path_matches_scipy(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = rng.integers(1, 6)
            A = rng.normal(scale=2.0, size=(n, n))
            np.testing.assert_allclose(
                expm_scaling_squaring(A).matrix, scipy.linalg.expm(A), atol=1e-10, rtol=1e-10
            )

    def test_stack_with_mixed_squaring_counts_matches_scipy(self):
        # Zero, tiny, moderate and large-norm rows share one call, so rows
        # with 0, 1, 3 and 6 squarings are squared side by side.
        rng = np.random.default_rng(3)
        rows = [np.zeros((3, 3)), 1e-300 * rng.normal(size=(3, 3)), 1e-9 * rng.normal(size=(3, 3))]
        rows.append(rng.normal(size=(3, 3)))
        S = rng.normal(size=(3, 3))
        rows.append(8.0 * (S - S.T) / np.abs(S - S.T).sum(axis=0).max())
        for scale in (8.0, 40.0, 300.0):
            G = rng.normal(size=(3, 3))
            rows.append(-scale * (G @ G.T) / np.abs(G @ G.T).sum(axis=0).max())
        E, squarings = _expm_stack(np.array(rows))
        assert set(squarings.tolist()) == {0, 1, 3, 6}
        for M, got in zip(rows, E):
            ref = scipy.linalg.expm(M)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(E[0], np.eye(3))

    def test_semigroup_inverse_determinant(self):
        # Parameter box keeps kappa(exp(A t)) ~ exp(2*mu*|t|) small enough
        # that the 1e-9 identity tolerance is meaningful in double precision.
        rng = np.random.default_rng(42)
        for _ in range(50):
            zeta = rng.uniform(0.0, 1.2)
            omega_n = rng.uniform(0.3, 1.2)
            t, s = rng.uniform(-5.0, 5.0, size=2)
            A = osc_model(zeta, omega_n).A
            Et = matrix_exponential(A, t)
            Es = matrix_exponential(A, s)
            Ets = matrix_exponential(A, t + s)
            assert np.abs(Ets - Et @ Es).max() < 1e-9
            assert np.abs(Et @ matrix_exponential(A, -t) - np.eye(2)).max() < 1e-9
            expected_det = math.exp(np.trace(A) * t)
            assert np.linalg.det(Et) == pytest.approx(expected_det, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("omega_n", [1e-3, 1.0, 7.0, 1e3])
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0, 1.5])
    def test_determinant_at_every_phase(self, zeta, omega_n):
        # det exp(A t) = exp(-2 zeta omega_n t) in every regime, on t up to
        # 1e15.  It is held to 8 units of 2**-53 on the scale |ad| + |bc| of
        # the cofactor products, so decayed and undamped rows count alike; a
        # sine entry whose phase drifts from the cosine's misses by about
        # omega_d t units.
        t = np.logspace(-6, 15, 400)
        E = oscillator_expm(zeta, omega_n, t)
        a, b, c, d = E[:, 0, 0], E[:, 0, 1], E[:, 1, 0], E[:, 1, 1]
        gap = np.abs(a * d - b * c - np.exp(-2.0 * zeta * omega_n * t))
        assert np.all(gap <= 8.0 * 2.0**-53 * (np.abs(a * d) + np.abs(b * c)))

    def test_sine_entry_below_one_radian(self):
        # e^{-zeta omega_n t} sin(omega_d t) / omega_d at |omega_d t| < 1
        # against 40-digit mpmath, with zeta at 0, across (0, 1) and within
        # 1e-9 of 1, and the decay zeta omega_n t at most 1.  The phase, the
        # sine and the division cost about 2.6 units of 2**-53 at worst and
        # the envelope about 1 more: the worst of 16,000 such draws read 3.7.
        rng = np.random.default_rng(18)
        near_one = 1.0 - 10.0 ** rng.uniform(-16, -9, 200)
        zetas = np.concatenate([np.zeros(100), rng.uniform(0.0, 1.0, 200), near_one])
        worst = 0.0
        with mpmath.workdps(40):
            for zeta in zetas.tolist():
                omega_n = 10.0 ** rng.uniform(-3, 3)
                root = math.sqrt((1.0 - zeta) * (1.0 + zeta))
                # omega_d t up to 1, and up to root / zeta so the decay stays at most 1.
                phase = 10.0 ** rng.uniform(-8, 0) * (1.0 if zeta == 0.0 else min(1.0, root / zeta))
                t = phase / (omega_n * root)
                z, w, tau = mpmath.mpf(zeta), mpmath.mpf(omega_n), mpmath.mpf(t)
                wd = w * mpmath.sqrt((1 - z) * (1 + z))
                exact = mpmath.exp(-z * w * tau) * mpmath.sin(wd * tau) / wd
                got = mpmath.mpf(float(oscillator_expm(zeta, omega_n, t)[0, 1]))
                worst = max(worst, abs(float((got - exact) / exact)))
        assert worst <= 5.0 * 2.0**-53

    @pytest.mark.parametrize("omega_n, t", [(1e-160, 1e-160), (1e-100, 1e-210)])
    def test_sine_entry_at_a_subnormal_phase(self, omega_n, t):
        # omega_d t is subnormal while t is not: sin(omega_d t) / omega_d
        # would keep only the phase's few bits (1.000106e-160 at the first).
        with mpmath.workdps(40):
            z, w, tau = mpmath.mpf(0.3), mpmath.mpf(omega_n), mpmath.mpf(t)
            wd = w * mpmath.sqrt((1 - z) * (1 + z))
            exact = mpmath.exp(-z * w * tau) * mpmath.sin(wd * tau) / wd
            error = abs(mpmath.mpf(float(oscillator_expm(0.3, omega_n, t)[0, 1])) - exact)
        assert error <= math.ulp(float(exact))

    def test_squaring_count_recorded(self):
        result = expm_scaling_squaring(np.array([[0.0, 1.0], [-16.0, -4.0]]))
        assert result.squarings >= 1
        tame = expm_scaling_squaring(np.array([[0.01, 0.0], [0.0, 0.01]]))
        assert tame.squarings == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exponential(np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError, match="finite"):
            matrix_exponential(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError):
            matrix_exponential(np.eye(2), float("inf"))

    def test_overflow_raises_without_warning(self):
        # exp(3000) overflows; so does A t at t = 1e308.  Both are range
        # failures of the general path, not invalid input.
        A = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                expm_scaling_squaring(1e3 * A)
            with pytest.raises(ArithmeticError):
                matrix_exponential(A, 1e3)
            with pytest.raises(ArithmeticError):
                matrix_exponential(A, np.array([0.0, 1e308]))


def exact_step_recurrence(model, u, x0, T, steps):
    """States of the exact response to the linearly interpolated input, in 30-digit arithmetic.

    The step blocks come from a 30-digit exponential of the block matrix
    [[A h, I h, 0], [0, 0, I], [0, 0, 0]] at simulate's float64 step h, and
    the recurrence x_i+1 = Phi x_i + S0 u_i + S1 u_i+1 runs at 30 digits, so
    nothing here shares simulate's float64 blocks.
    """
    n = model.n
    with mpmath.workdps(30):
        h = mpmath.mpf(T / steps)
        M = mpmath.zeros(3 * n, 3 * n)
        for i in range(n):
            for j in range(n):
                M[i, j] = mpmath.mpf(float(model.A[i, j])) * h
            M[i, n + i] = h
            M[n + i, 2 * n + i] = 1
        F = mpmath.expm(M)
        B = mpmath.matrix(model.B.tolist())
        G0, G1 = F[:n, n : 2 * n], F[:n, 2 * n :]
        S0, S1 = (G0 - G1) * B, G1 * B
        rows = [[F[i, j] for j in range(n)] + [S[i, k] for S in (S0, S1) for k in range(model.m)] for i in range(n)]
        samples = [[mpmath.mpf(v) for v in row] for row in u.tolist()]
        x = [mpmath.mpf(v) for v in x0.tolist()]
        out = [x]
        for i in range(steps):
            xu = x + samples[i] + samples[i + 1]
            x = [mpmath.fdot(row, xu) for row in rows]
            out.append(x)
        return np.array([[float(v) for v in row] for row in out])


def stepped_recurrence(model, u, x0, T, steps):
    """The per-step float64 loop x <- R x + d_i on simulate's step blocks."""
    E, S0, S1 = _foh_step(model, T / steps)
    R = np.eye(model.n) + E
    drive = u[:-1] @ S0.T + u[1:] @ S1.T
    states = [x0]
    for d in drive:
        states.append(R @ states[-1] + d)
    return np.array(states)


class TestSimulate:
    def test_matches_hold_of_the_input_block(self):
        # Against the other Van Loan construction, one scipy exponential of
        # [[A h, B h, 0], [0, 0, I], [0, 0, 0]], stepped in float64.
        rng = np.random.default_rng(8)
        model = StateSpaceModel(A=rng.normal(size=(3, 3)) - 2.0 * np.eye(3), B=rng.normal(size=(3, 2)))
        A, B, T, steps = model.A, model.B, 2.0, 50
        u = rng.normal(size=(steps + 1, 2))
        x0 = rng.normal(size=3)
        h = T / steps
        M = np.zeros((7, 7))
        M[:3, :3], M[:3, 3:5], M[3:5, 5:] = A, B, np.eye(2)
        F = scipy.linalg.expm(M * h)
        Phi, P0, P1 = F[:3, :3], F[:3, 3:5], F[:3, 5:] / h
        x, expected = x0, [x0]
        for i in range(steps):
            x = Phi @ x + (P0 - P1) @ u[i] + P1 @ u[i + 1]
            expected.append(x)
        states = simulate(model, u, x0, T)
        np.testing.assert_allclose(states, expected, rtol=0.0, atol=1e-14 * np.abs(expected).max())

    def test_scan_against_exact_recurrence(self):
        # Oscillators across regimes up to T = 200, two multi-input models
        # and one 20,000-step run, with white-noise input (the hardest case
        # for cancellation).  Each run stays within max(1e-14, 2 rho(A) T u)
        # of max|x| of the exact response, rho(A) the spectral radius
        # (omega_n on the oscillators) and u = 2^-53: rounding the step map
        # alone costs about rho(A) T u of phase over the horizon, and the
        # factor 2 leaves room for the scan's own rounding.  The worst run,
        # zeta = 0 at T = 200, reads 9.1e-15 under the SkylakeX kernels and
        # 1.49e-14 under Sandybridge, against 4.4e-14.  Over the grid the
        # scan's worst error is no worse than the per-step loop's (1.3e-13).
        # Per run the loop can win at the 1e-15 level (lightly damped, long
        # horizons), so that comparison is not made run by run.
        rng = np.random.default_rng(61)
        cases = [(osc_model(z, 1.0), T, 2000) for z in (0.0, 0.02, 1.0, 2.5, 3.0) for T in (1.0, 20.0, 200.0)]
        for n in (3, 12):
            A = rng.normal(size=(n, n))
            A -= (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
            cases.append((StateSpaceModel(A=A, B=rng.normal(size=(n, 2))), 10.0, 2000))
        cases.append((osc_model(0.0, 1.0), 200.0, 20_000))
        worst_scan = worst_loop = 0.0
        for model, T, steps in cases:
            u = rng.normal(size=(steps + 1, model.m))
            x0 = rng.normal(size=model.n)
            exact = exact_step_recurrence(model, u, x0, T, steps)
            scale = np.abs(exact).max()
            scan_error = np.abs(simulate(model, u, x0, T) - exact).max() / scale
            loop_error = np.abs(stepped_recurrence(model, u, x0, T, steps) - exact).max() / scale
            bound = max(1e-14, 2.0 * np.abs(np.linalg.eigvals(model.A)).max() * T * 2.0**-53)
            assert scan_error <= bound, (model.A.tolist(), T, steps, scan_error, bound)
            worst_scan, worst_loop = max(worst_scan, scan_error), max(worst_loop, loop_error)
        assert worst_scan <= worst_loop

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 1000])
    def test_step_counts_off_powers_of_two(self, steps):
        rng = np.random.default_rng(steps)
        model = StateSpaceModel(A=np.array([[0.0, 1.0], [-4.0, -0.4]]), B=rng.normal(size=(2, 2)))
        u = rng.normal(size=(steps + 1, 2))
        x0 = rng.normal(size=2)
        states = simulate(model, u, x0, 3.0)
        exact = exact_step_recurrence(model, u, x0, 3.0, steps)
        assert states.shape == (steps + 1, 2)
        assert states[0].tolist() == x0.tolist()
        np.testing.assert_allclose(states, exact, rtol=0.0, atol=1e-14 * np.abs(exact).max())

    def test_no_spurious_overflow(self):
        # R^2000 = e^700 = 1.0e304 is finite; R^4096 is not, so the scan must
        # not square its powers past the last level it uses.
        model = StateSpaceModel(A=np.array([[1.0]]), B=np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = simulate(model, np.zeros(2001), np.array([1.0]), 700.0)[-1, 0]
        assert final == pytest.approx(math.exp(700.0), rel=1e-12, abs=0.0)

    def test_equilibrium_stays_put(self):
        model = osc_model(0.5, 1.0)
        assert np.all(simulate(model, np.zeros(101), np.zeros(2), T=1.0) == 0.0)

    def test_undamped_energy_conservation(self):
        model = osc_model(0.0, 1.0)
        steps = 10_000
        states = simulate(model, np.zeros(steps + 1), np.array([1.0, 0.0]), T=10.0)
        energy = 0.5 * (states[:, 1] ** 2 + states[:, 0] ** 2)
        assert np.abs(energy - energy[0]).max() < 1e-6

    def test_matches_exponential_solution(self):
        model = osc_model(0.5, 1.0)
        x0 = np.array([1.0, 0.0])
        steps = 1000  # h = 5e-3 < 1e-3 * (2*pi / omega_n)
        states = simulate(model, np.zeros(steps + 1), x0, T=5.0)
        exact = np.array([matrix_exponential(model.A, t) @ x0 for t in np.linspace(0.0, 5.0, steps + 1)])
        assert np.abs(states - exact).max() < 1e-6

    def test_zero_input_response_is_the_exponential(self):
        # Each step is e^{A h} exactly, so without input the state at every
        # node is e^{A t_i} x0; the worst measured gap was 9.7e-15 of max|x|,
        # at zeta = 0, T = 50, where the phase error grows with omega_n t.
        x0 = np.array([1.0, -0.5])
        for zeta in (0.0, 0.5, 1.0, 3.0):
            for T, steps in ((5.0, 200), (50.0, 2000)):
                model = osc_model(zeta, 1.0)
                states = simulate(model, np.zeros(steps + 1), x0, T=T)
                exact = matrix_exponential(model.A, np.linspace(0.0, T, steps + 1)) @ x0
                error = np.abs(states - exact).max() / np.abs(exact).max()
                assert error <= 2e-14, (zeta, T, error)

    def test_validation(self):
        model = osc_model(0.5, 1.0)
        with pytest.raises(ValueError):
            simulate(model, np.zeros(11), np.zeros(2), T=0.0)
        with pytest.raises(ValueError, match=r"steps >= 1, got \(1, 1\)"):
            simulate(model, np.zeros(1), np.zeros(2), T=1.0)
        with pytest.raises(ValueError, match="shape"):
            simulate(model, np.zeros(11), np.zeros(3), T=1.0)
        with pytest.raises(ValueError, match=r"steps >= 1, got \(11, 2\)"):
            simulate(model, np.zeros((11, 2)), np.zeros(2), T=1.0)
        bad_u = np.zeros(11)
        bad_u[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            simulate(model, bad_u, np.zeros(2), T=1.0)

    def test_signature_is_model_u_x0_T(self):
        # The step count is the input's and the grid is the caller's, so
        # simulate returns the states alone.
        assert list(inspect.signature(simulate).parameters) == ["model", "u", "x0", "T"]
        assert not hasattr(gramkit.lti, "Trajectory")
        assert "Trajectory" not in gramkit.__all__
        states = simulate(osc_model(0.5, 1.0), np.zeros(8), np.array([1.0, 0.0]), 1.0)
        assert isinstance(states, np.ndarray) and states.shape == (8, 2)


class TestControllabilityRank:
    def test_oscillator_is_fully_controllable(self):
        for zeta in (0.0, 0.5, 1.0, 4.0):
            assert controllability_rank(osc_model(zeta, 1.5)) == 2

    def test_zero_input_column(self):
        model = StateSpaceModel(A=np.array([[0.0, 1.0], [-1.0, -1.0]]), B=np.zeros((2, 1)))
        assert controllability_rank(model) == 0

    def test_rank_deficient(self):
        model = StateSpaceModel(A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]))
        assert controllability_rank(model) == 1

    def test_tall_svd_agrees_with_wide_svd(self):
        # The rank comes from the singular values of the tall K^T; the wide K
        # gives the same rank on seeded systems, most of them with sparse
        # integer entries so that many are rank-deficient.
        rng = np.random.default_rng(14)
        deficient = 0
        for i in range(3000):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            if i % 3:
                A = rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.3)
                B = rng.integers(-1, 2, (n, m)) * (rng.random((n, m)) < 0.4)
            else:
                A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            model = StateSpaceModel(A=A, B=B)
            blocks = [model.B]
            for _ in range(1, n):
                blocks.append(model.A @ blocks[-1])
            K = np.hstack(blocks)
            sigma = np.linalg.svd(K, compute_uv=False)
            wide = 0 if sigma[0] == 0.0 else int(np.count_nonzero(sigma > max(n, m) * np.finfo(float).eps * sigma[0]))
            rank = controllability_rank(model)
            assert rank == wide, (A.tolist(), B.tolist())
            deficient += rank < n
        assert deficient >= 1000


class TestUniformGrid:
    # Among grids whose steps are finite, the grids np.allclose accepts.
    @pytest.mark.parametrize(
        "times, accepted",
        [
            ([0.0, math.inf], False),  # an infinite step, although np.isclose takes it as close
            ([-math.inf, 0.0], False),
            ([0.0, 1.0, 2.0 + 0.999e-9], True),  # step jitter just inside 1e-9
            ([0.0, 1.0, 2.0 + 1.001e-9], False),  # and just outside
            ([0.0, 1.0, 2.0 - 0.999e-9], True),
            ([0.0, 1.0, 2.0 - 1.001e-9], False),
            ([0.0, 1.0, math.nan], False),
            ([0.0, math.nan, 2.0], False),
            ([0.0, 1.0, math.inf], False),
            ([0.0, 1.0, 1.0], False),
            ([1.0, 0.0], False),
            ([math.inf, 0.0], False),
            ([0.0, -math.inf], False),
            ([-1.7e308, 1.7e308], False),  # finite nodes whose step overflows
        ],
    )
    def test_accepts_the_grids_allclose_accepts(self, times, accepted):
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(times)
            reference = (
                np.isfinite(steps).all()
                and np.all(steps > 0.0)
                and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
            )
        assert reference == accepted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if accepted:
                assert _require_uniform_grid(times).tolist() == times
            else:
                with pytest.raises(ValueError, match="constant step|finite steps"):
                    _require_uniform_grid(times)

    @pytest.mark.parametrize("times", [[0.0, math.inf], [-1.7e308, 1.7e308]])
    def test_control_profile_refuses_a_non_finite_step(self, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite steps"):
                ControlProfile(
                    times=np.array(times), values=np.zeros((2, 1)), target=np.ones(2), predicted_energy=1.0
                )


class TestStateSpaceModel:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="square"):
            StateSpaceModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="rows"):
            StateSpaceModel(A=np.zeros((2, 2)), B=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            StateSpaceModel(A=np.full((2, 2), np.inf), B=np.zeros((2, 1)))

    def test_oscillator_overflow_names_parameters(self):
        for zeta, omega_n in [(0.5, 1e200), (1e300, 1e10)]:
            with pytest.raises(OverflowError, match=r"zeta=.*omega_n="):
                make_oscillator(OscillatorParams(zeta, omega_n))
