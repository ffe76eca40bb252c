import math

import numpy as np
import pytest

from gramkit.energy import ControlProfile, min_control_energy, synthesize_min_energy_control
from gramkit.entropy import (
    boltzmann_entropy,
    fisher_dual_determinant,
    info_entropy_report,
    shannon_entropy,
    thermodynamic_entropy,
)
from gramkit.gramian import (
    GramianResult,
    Horizon,
    finite_horizon_gramian,
    oscillator_gramian_closed_form,
)
from gramkit.lti import (
    OscillatorParams,
    StateSpaceModel,
    _require_nonnegative,
    _require_positive,
    expm_scaling_squaring,
    make_oscillator,
    simulate,
)

MODEL = make_oscillator(OscillatorParams(0.5, 1.0))
GRAM = oscillator_gramian_closed_form(OscillatorParams(0.5, 1.0))

# (parameter name, public entry point, a finite value outside its range)
ENTRY_POINTS = [
    pytest.param("mass", lambda v: OscillatorParams.from_physical(v, 1.0, 1.0), 0.0,
                 id="mass-from_physical"),
    pytest.param("damping", lambda v: OscillatorParams.from_physical(1.0, v, 1.0), -1.0,
                 id="damping-from_physical"),
    pytest.param("stiffness", lambda v: OscillatorParams.from_physical(1.0, 1.0, v), 0.0,
                 id="stiffness-from_physical"),
    pytest.param("T", lambda v: simulate(MODEL, np.zeros(11), np.zeros(2), v), 0.0,
                 id="T-simulate"),
    pytest.param("T", lambda v: synthesize_min_energy_control(MODEL, v, np.ones(2), 100), -1.0,
                 id="T-synthesize_min_energy_control"),
    pytest.param("T", lambda v: finite_horizon_gramian(MODEL, v), -1.0,
                 id="T-finite_horizon_gramian"),
    pytest.param("T", lambda v: ControlProfile(v, np.zeros((3, 1)), np.ones(2), 1.0), 0.0,
                 id="T-ControlProfile"),
    pytest.param("predicted_energy", lambda v: ControlProfile(1.0, np.zeros((3, 1)), np.ones(2), v), -1.0,
                 id="predicted_energy-ControlProfile"),
    pytest.param("c", lambda v: fisher_dual_determinant(0.5, c=v), 0.0,
                 id="c-fisher_dual_determinant"),
    pytest.param("c", lambda v: info_entropy_report(GRAM, c=v), -2.0,
                 id="c-info_entropy_report"),
    pytest.param("k_b", lambda v: thermodynamic_entropy(1.0, k_b=v), 0.0,
                 id="k_b-thermodynamic_entropy"),
    pytest.param("k_b", lambda v: boltzmann_entropy(2.0, k_b=v), -1.0,
                 id="k_b-boltzmann_entropy"),
    pytest.param("k_b", lambda v: info_entropy_report(GRAM, k_b=v), 0.0,
                 id="k_b-info_entropy_report"),
]


@pytest.mark.parametrize("kind", ["nan", "inf", "out_of_range"])
@pytest.mark.parametrize("name,call,out_of_range", ENTRY_POINTS)
def test_bad_scalar_is_rejected_by_name(name, call, out_of_range, kind):
    value = {"nan": math.nan, "inf": math.inf, "out_of_range": out_of_range}[kind]
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(value)


# value: what _require_positive and _require_nonnegative return, or the
# message they raise after the parameter name.
RANGE_CASES = [
    (2.5, 2.5, 2.5),
    (np.float64(2.5), 2.5, 2.5),
    (3, 3.0, 3.0),
    (5e-324, 5e-324, 5e-324),
    (1.7976931348623157e308, 1.7976931348623157e308, 1.7976931348623157e308),
    (0.0, "must be > 0, got 0.0", 0.0),
    (-0.0, "must be > 0, got -0.0", -0.0),
    (-1.0, "must be > 0, got -1.0", "must be >= 0, got -1.0"),
    (math.inf, "must be finite, got inf", "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf", "must be finite, got -inf"),
    (math.nan, "must be finite, got nan", "must be finite, got nan"),
]


@pytest.mark.parametrize("value, positive, nonnegative", RANGE_CASES)
def test_range_checks(value, positive, nonnegative):
    for check, expected in ((_require_positive, positive), (_require_nonnegative, nonnegative)):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^x {expected}$"):
                check("x", value)
        else:
            result = check("x", value)
            assert type(result) is float and result == expected
            assert math.copysign(1.0, result) == math.copysign(1.0, expected)


# (array name, public entry point given one bad entry)
ARRAY_INPUTS = [
    pytest.param("u", lambda v: simulate(MODEL, np.full(11, v), np.zeros(2), 1.0),
                 id="u-simulate"),
    pytest.param("x0", lambda v: simulate(MODEL, np.zeros(11), np.array([0.0, v]), 1.0),
                 id="x0-simulate"),
    pytest.param("values", lambda v: ControlProfile(1.0, np.full((3, 1), v), np.ones(2), 1.0),
                 id="values-ControlProfile"),
    pytest.param("target", lambda v: ControlProfile(1.0, np.zeros((3, 1)), np.array([v, 0.0]), 1.0),
                 id="target-ControlProfile"),
    pytest.param("x_f", lambda v: min_control_energy(GRAM, np.array([1.0, v])),
                 id="x_f-min_control_energy"),
    pytest.param("x_f", lambda v: synthesize_min_energy_control(MODEL, 1.0, np.array([v, 0.0]), 100),
                 id="x_f-synthesize_min_energy_control"),
    pytest.param("B", lambda v: StateSpaceModel(MODEL.A, np.array([[0.0], [v]])),
                 id="B-StateSpaceModel"),
    pytest.param("A", lambda v: StateSpaceModel(np.array([[0.0, 1.0], [v, 0.0]]), MODEL.B),
                 id="A-StateSpaceModel"),
    pytest.param("M", lambda v: expm_scaling_squaring(np.array([[v, 0.0], [0.0, 1.0]])),
                 id="M-expm_scaling_squaring"),
    pytest.param("Gramian", lambda v: GramianResult(np.diag([1.0, v]), Horizon.infinite(), "lyapunov"),
                 id="Gramian-GramianResult"),
    pytest.param("p", lambda v: shannon_entropy(np.array([0.5, v])),
                 id="p-shannon_entropy"),
]


@pytest.mark.parametrize("kind", ["nan", "inf"])
@pytest.mark.parametrize("name,call", ARRAY_INPUTS)
def test_non_finite_array_entry_is_rejected_by_name(name, call, kind):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {kind}$"):
        call(float(kind))
