"""Information and entropy metrics tied to the controllability Gramian.

The chain implemented here: the Gramian determinant and the Fisher
information determinant trade off as det(W) * det(I) = c for a fixed
convention constant c; a Gaussian with information matrix I has
differential entropy n/2 * ln(2*pi*e) - ln(det I)/2; and thermodynamic
entropy is k_B times an entropy in nats.  The constants c and k_B are
conventions threaded explicitly through every report: only the
proportionalities are principled, the scales are not, and nothing here
claims a physically calibrated entropy.

All entropies are in nats.  Bit values are display-only conversions; the
stored quantities never round-trip through bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gramian import GramianResult, gramian_determinant, oscillator_gramian_closed_form
from .lti import OscillatorParams, _Check, _raise_first_failure
from .lti import _require_finite, _require_finite_scalar, _require_positive

LN_2PI_E = math.log(2.0 * math.pi * math.e)

# Boltzmann constant in J/K, available for display; computations default to
# k_B = 1 so entropies come out in units of k_B.
BOLTZMANN_SI = 1.380649e-23


def fisher_dual_determinant(det_wc: float, c: float = 1.0) -> float:
    """Dual Fisher-information determinant c / det(W).

    Only the product det(W) * det(I) is fixed; c = 1 is this library's
    convention for the unspecified proportionality constant.  Raises
    ``ArithmeticError`` when the quotient leaves the double range.
    """
    det_i = _require_positive("c", c) / _require_positive("det_wc", det_wc)
    if not 0.0 < det_i < math.inf:
        raise ArithmeticError(f"det(I) = c / det(W) = {c} / {det_wc} leaves the double range")
    return det_i


def _check_entropy_args(det: float, n: int) -> tuple[float, int]:
    det = _require_positive("determinant", det)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return det, n


def gaussian_entropy_from_covariance(det_sigma: float, n: int) -> float:
    """Differential entropy ln((2*pi*e)^n * det_sigma) / 2 of an n-Gaussian, in nats."""
    det_sigma, n = _check_entropy_args(det_sigma, n)
    return 0.5 * (n * LN_2PI_E + math.log(det_sigma))


def gaussian_entropy_from_fim(det_fim: float, n: int) -> float:
    """Differential entropy n/2 * ln(2*pi*e) - ln(det_fim)/2, in nats.

    The information matrix is the inverse covariance, so this agrees with
    :func:`gaussian_entropy_from_covariance` at det_fim = 1/det_sigma.
    """
    det_fim, n = _check_entropy_args(det_fim, n)
    return 0.5 * n * LN_2PI_E - 0.5 * math.log(det_fim)


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum(p * ln p) of a probability vector, in nats.

    Zero entries contribute zero.  Entries must be nonnegative and sum to 1
    within 1e-12.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty 1-D probability vector")
    p = _require_finite("p", p)
    if np.any(p < 0.0):
        raise ValueError(f"p must be nonnegative, got min {p.min()}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"p must sum to 1 within 1e-12, got {total}")
    positive = p[p > 0.0]
    return float(-(positive @ np.log(positive)))


def thermodynamic_entropy(entropy_nats: float, k_b: float = 1.0) -> float:
    """S = k_B * H for an entropy H in nats; k_B defaults to 1.

    Raises ``OverflowError`` when k_B * H is not finite.
    """
    entropy_nats = _require_finite_scalar("entropy_nats", entropy_nats)
    s = _require_positive("k_b", k_b) * entropy_nats
    if not math.isfinite(s):
        raise OverflowError(f"S = k_B * H overflows (k_B={k_b}, H={entropy_nats})")
    return s


def boltzmann_entropy(microstates: float, k_b: float = 1.0) -> float:
    """Microstate-count entropy S = k_B * ln(microstates), microstates >= 1.

    Raises ``OverflowError`` when k_B * ln(microstates) is not finite.
    """
    microstates = _require_finite_scalar("microstates", microstates)
    if microstates < 1.0:
        raise ValueError(f"microstates must be >= 1, got {microstates}")
    return thermodynamic_entropy(math.log(microstates), k_b)


def oscillator_entropy_index(zeta: float, omega_n: float) -> float:
    """ln(det W) of the oscillator's closed-form Gramian.

    Equals -ln(16) - 2*ln(zeta) - 4*ln(omega_n) for zeta > 0 and
    -2*ln(omega_n) on the undamped branch.  Proportional to a thermodynamic
    entropy only up to an unspecified constant; strictly decreasing in both
    parameters on the damped branch.
    """
    params = OscillatorParams(zeta=zeta, omega_n=omega_n)
    return math.log(gramian_determinant(oscillator_gramian_closed_form(params)))


def nats_to_bits(entropy_nats: float) -> float:
    """Display conversion to bits (divide by ln 2)."""
    return entropy_nats / math.log(2.0)


def bits_to_nats(entropy_bits: float) -> float:
    """Display conversion back to nats (multiply by ln 2)."""
    return entropy_bits * math.log(2.0)


@dataclass(frozen=True)
class InfoEntropyReport:
    """The determinant-duality-entropy chain for one system.

    det_wc * det_i = duality_constant holds by construction to relative
    1e-12, and differential_entropy_nats is exactly
    n/2 * ln(2*pi*e) - ln(det_i)/2 as computed.
    """

    det_wc: float
    duality_constant: float
    det_i: float
    differential_entropy_nats: float
    thermodynamic_entropy: float
    entropy_index: float
    n: int


def info_entropy_report(
    gram: GramianResult, c: float = 1.0, k_b: float = 1.0
) -> InfoEntropyReport:
    """Assemble the chain det(W) -> det(I) = c / det(W) -> H -> S = k_B * H.

    Works for any Gramian: n is read from ``gram.n``.  Raises
    ``ArithmeticError`` when det(W) <= 0, where c / det(W) is not finite.
    """
    det_wc = gramian_determinant(gram)
    chain, checks = _entropy_chain(np.array([det_wc]), gram.n, c, k_b)
    _raise_first_failure(checks)
    det_i, h, s, entropy_index = (float(values[0]) for values in chain)
    return InfoEntropyReport(
        det_wc=det_wc,
        duality_constant=float(c),
        det_i=det_i,
        differential_entropy_nats=h,
        thermodynamic_entropy=s,
        entropy_index=entropy_index,
        n=gram.n,
    )


def _entropy_chain(
    det_wc: np.ndarray, n: int, c: float, k_b: float
) -> tuple[tuple[np.ndarray, ...], list[_Check]]:
    """(det(I), H, S, ln det(W)) for the determinants of a stack of n x n
    Gramians, and the chain's checks.

    One array pass: c and k_B are validated once for the whole stack, and
    both logs are ``math.log`` of each element, whose bits ``np.log`` does
    not always reproduce.  The checks, in order, for
    ``_raise_first_failure``: det(W) > 0, c, the det(I) range, k_B, the S
    range.  Messages name the caller's own c and k_B.
    """
    k = len(det_wc)
    c_value, c_check = _positive_check("c", c, k)
    k_value, k_check = _positive_check("k_b", k_b, k)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        det_i = c_value / det_wc
        in_range = (0.0 < det_i) & (det_i < math.inf)
        h = 0.5 * n * LN_2PI_E - 0.5 * _log(np.where(in_range, det_i, 1.0))
        s = k_value * h
    entropy_index = _log(np.where(det_wc > 0.0, det_wc, 1.0))
    return (det_i, h, s, entropy_index), [
        (~(det_wc > 0.0), lambda i: ArithmeticError(
            f"det(W) = {float(det_wc[i])} is not positive, so c / det(W) is not finite")),
        c_check,
        (~in_range, lambda i: ArithmeticError(
            f"det(I) = c / det(W) = {c} / {float(det_wc[i])} leaves the double range")),
        k_check,
        (~np.isfinite(s), lambda i: OverflowError(
            f"S = k_B * H overflows (k_B={k_b}, H={float(h[i])})")),
    ]


def _positive_check(name: str, value: float, k: int) -> tuple[float, _Check]:
    """``_require_positive(name, value)`` as a check that all k rows fail
    or all pass, with the validated value (1.0 for a refused one)."""
    try:
        value, error = _require_positive(name, value), None
    except (TypeError, ValueError, OverflowError) as exc:
        value, error = 1.0, exc
    return value, (np.full(k, error is not None), lambda i: error)


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each element of a 1-D array."""
    return np.array(list(map(math.log, x.tolist())))
