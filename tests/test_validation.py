import math

import numpy as np
import pytest

from gramkit.energy import synthesize_min_energy_control
from gramkit.entropy import (
    boltzmann_entropy,
    fisher_dual_determinant,
    info_entropy_report,
    thermodynamic_entropy,
)
from gramkit.gramian import finite_horizon_gramian, oscillator_gramian_closed_form
from gramkit.lti import OscillatorParams, make_oscillator, simulate

MODEL = make_oscillator(OscillatorParams(0.5, 1.0))
GRAM = oscillator_gramian_closed_form(OscillatorParams(0.5, 1.0))

# (parameter name, public entry point, a finite value outside its range)
ENTRY_POINTS = [
    pytest.param("mass", lambda v: OscillatorParams.from_physical(v, 1.0, 1.0), 0.0,
                 id="mass-from_physical"),
    pytest.param("mass", lambda v: OscillatorParams(0.5, 1.0, mass=v, damping=1.0, stiffness=1.0),
                 -1.0, id="mass-OscillatorParams"),
    pytest.param("damping", lambda v: OscillatorParams.from_physical(1.0, v, 1.0), -1.0,
                 id="damping-from_physical"),
    pytest.param("stiffness", lambda v: OscillatorParams.from_physical(1.0, 1.0, v), 0.0,
                 id="stiffness-from_physical"),
    pytest.param("T", lambda v: simulate(MODEL, np.zeros(11), np.zeros(2), v, 10), 0.0,
                 id="T-simulate"),
    pytest.param("T", lambda v: synthesize_min_energy_control(MODEL, v, np.ones(2), 100), -1.0,
                 id="T-synthesize_min_energy_control"),
    pytest.param("T", lambda v: finite_horizon_gramian(MODEL, v), -1.0,
                 id="T-finite_horizon_gramian"),
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
