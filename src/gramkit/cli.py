"""Command-line front end: analysis reports, parameter sweeps, and
minimum-energy control synthesis with machine-readable output.

Exit codes are disjoint: 0 success, 2 validation or usage failure, 3
numerical failure or floating-point range failure, 4 verification failure;
each non-zero exit prints one line on stderr.  Reports default to JSON on
stdout; files are written only when --out is given.  The JSON schema and CSV
column order are documented in the README and carry a schema_version field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NoReturn, Sequence

import numpy as np

from .energy import synthesize_min_energy_control, verify_control
from .entropy import LN_2PI_E, _entropy_chain, nats_to_bits
from .errors import NonHurwitzError, QuadratureConvergenceError, SingularGramianError
from .gramian import (
    _closed_form,
    _closed_form_horizon,
    _cofactor_determinant,
    _condition_number,
    _finite_horizon_gramians,
    _spectra,
    _symmetrize,
    # Not called here; perfbench/selftest.py::test_tracer_restores_originals reads this binding.
    finite_horizon_gramian,
)
from .lti import OscillatorParams, classify_regime, make_oscillator
from .lti import _oscillator_entries, _require_finite, _require_positive

SCHEMA_VERSION = 1

# Verification gate for synthesized controls: final-state error at or above
# this is a verification failure (exit 4).
FINAL_STATE_TOL = 1e-3

CSV_COLUMNS = [
    "zeta",
    "omega_n",
    "regime",
    "horizon",
    "horizon_seconds",
    "w11",
    "w12",
    "w22",
    "det_wc",
    "lambda_min",
    "lambda_max",
    "trace",
    "condition_number",
    "det_i",
    "differential_entropy_nats",
    "thermodynamic_entropy",
    "entropy_index",
]

# One CSV row: every number at full round-trip precision, locale-independent.
# The five lead cells come as text: zeta, omega_n and horizon_seconds are
# formatted by "%.17g" once per grid value (horizon_seconds is empty for an
# infinite horizon), not once per row.
CSV_ROW = ",".join(["%s"] * 5 + ["%.17g"] * 12)


def _parse_numbers(text: str, name: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers, got {text!r}")


def _parse_grid(text: str, name: str) -> list[float]:
    # The order check skips nan, which each point's validator refuses.
    values = _parse_numbers(text, name)
    numbers = [v for v in values if not math.isnan(v)]
    if any(b <= a for a, b in zip(numbers, numbers[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return values


def _params_from_args(args: argparse.Namespace) -> OscillatorParams:
    normalized = args.zeta is not None or args.omega_n is not None
    physical = args.m is not None or args.c is not None or args.k is not None
    if normalized and physical:
        raise ValueError("give either --zeta/--omega-n or --m/--c/--k, not both")
    if physical:
        if args.m is None or args.c is None or args.k is None:
            raise ValueError("physical parameterization needs all of --m, --c, --k")
        return OscillatorParams.from_physical(args.m, args.c, args.k)
    if args.zeta is None or args.omega_n is None:
        raise ValueError("parameterization needs both --zeta and --omega-n")
    return OscillatorParams(zeta=args.zeta, omega_n=args.omega_n)


def _report_rows(leads: list, W: np.ndarray, c: float, k_b: float) -> list[tuple]:
    """The CSV cells of each report row, from one array pass over its Gramians.

    ``leads`` holds the first five cells of each row as text, (zeta,
    omega_n, regime, horizon kind, horizon seconds), and W the (k, 2, 2)
    Gramians, symmetrized here as ``GramianResult`` does; leads past the
    last Gramian are not reported.  The pass gives the numbers, the chain
    from the reported Gramian's determinant and both logs by ``math.log``,
    and marks the rows the one-row chain accepts.  A table with a refused
    row raises through that chain on its first one: det(W) overflow, det(W)
    underflow, det(W) > 0, c, the det(I) range, k_B, the S range, then the
    condition number.
    """
    W = _symmetrize(W)
    # A trace that overflows (inf) belongs to a row whose det(W) overflows,
    # which is refused before its trace is reported.
    eigenvalues, trace = _spectra(W)
    cond = _condition_number(eigenvalues)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        diagonal = W[:, 0, 0] * W[:, 1, 1]
        det_wc = diagonal - W[:, 0, 1] * W[:, 1, 0]
        det_i = c / det_wc
        in_range = (0.0 < det_i) & (det_i < math.inf)
        h = 0.5 * 2 * LN_2PI_E - 0.5 * _log(np.where(in_range, det_i, 1.0))
        s = k_b * h
    underflows = (W[:, 0, 0] != 0.0) & (W[:, 1, 1] != 0.0) & (np.abs(diagonal) < sys.float_info.min)
    # The rows the one-row chain accepts: a det(W) that overflows, or a c
    # outside (0, inf), leaves det(I) out of range.
    valid = (~underflows & (det_wc > 0.0) & in_range & (0.0 < k_b < math.inf) & np.isfinite(s)
             & (cond != math.inf))
    if not valid.all():
        i = int(valid.argmin())
        # Raises, unless the condition number is all that row fails.
        _entropy_chain(_cofactor_determinant(W[i].tolist()), 2, c, k_b)
        raise ArithmeticError(
            f"condition number of the Gramian is not finite (eigenvalues {eigenvalues[i].tolist()})"
        )
    columns = (W[:, 0, 0], W[:, 0, 1], W[:, 1, 1], det_wc, eigenvalues[:, 0], eigenvalues[:, -1],
               trace, cond, det_i, h, s, _log(det_wc))
    # The leads, transposed into their five columns, then the twelve numbers.
    return list(zip(*zip(*leads), *(column.tolist() for column in columns)))


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each element of a 1-D array, whose bits ``np.log``
    does not always reproduce."""
    return np.array(list(map(math.log, x.tolist())))


def _analysis_record(
    params: OscillatorParams, row: tuple, T: float | None, c: float, k_b: float
) -> dict:
    """One analysis result, from its report row, as a flat dict."""
    cells = dict(zip(CSV_COLUMNS, row))
    model = make_oscillator(params)
    return {
        "schema_version": SCHEMA_VERSION,
        "zeta": params.zeta,
        "omega_n": params.omega_n,
        "regime": cells["regime"],
        "a_matrix": model.A.tolist(),
        "b_matrix": model.B.tolist(),
        "horizon": cells["horizon"],
        "horizon_seconds": T,
        "gramian_method": "closed_form" if T is None else "augmented_expm",
        "gramian": [[cells["w11"], cells["w12"]], [cells["w12"], cells["w22"]]],
        "det_wc": cells["det_wc"],
        "eigenvalues": [cells["lambda_min"], cells["lambda_max"]],
        "trace": cells["trace"],
        "condition_number": cells["condition_number"],
        "duality_constant": c,
        "det_i": cells["det_i"],
        "differential_entropy_nats": cells["differential_entropy_nats"],
        "differential_entropy_bits": nats_to_bits(cells["differential_entropy_nats"]),
        "boltzmann_constant": k_b,
        "thermodynamic_entropy": cells["thermodynamic_entropy"],
        "entropy_index": cells["entropy_index"],
    }


def _record_to_text(record: dict) -> str:
    lines = []
    for key, value in record.items():
        if isinstance(value, list):
            value = json.dumps(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.horizon == "finite":
        if args.T is None:
            raise ValueError("--horizon finite needs --T")
    elif args.T is not None:
        raise ValueError("--T is only valid with --horizon finite")
    # The sweep's table at its one point.
    horizons = None if args.T is None else [args.T]
    (row,) = _table([params.zeta], [params.omega_n], horizons, args.duality_c, args.kb)
    if args.format == "csv":
        text = ",".join(CSV_COLUMNS) + "\n" + CSV_ROW % row
    else:
        record = _analysis_record(params, row, args.T, args.duality_c, args.kb)
        text = json.dumps(record, indent=2) if args.format == "json" else _record_to_text(record)
    _emit(text, args.out)
    return 0


def _grid_or_scalar(grid: str | None, scalar: float | None, flag: str) -> list[float]:
    if grid is not None and scalar is not None:
        raise ValueError(f"give either --{flag}-grid or --{flag}, not both")
    if grid is not None:
        return _parse_grid(grid, f"{flag}-grid")
    if scalar is None:
        raise ValueError(f"sweep needs --{flag}-grid or a scalar --{flag}")
    return [scalar]


def cmd_sweep(args: argparse.Namespace) -> int:
    grids_given = args.zeta_grid is not None or args.omega_n_grid is not None or args.T_grid is not None
    if not grids_given:
        raise ValueError("sweep needs at least one of --zeta-grid, --omega-n-grid, --T-grid")
    zetas = _grid_or_scalar(args.zeta_grid, args.zeta, "zeta")
    omegas = _grid_or_scalar(args.omega_n_grid, args.omega_n, "omega-n")
    horizons = None if args.T_grid is None else _parse_grid(args.T_grid, "T-grid")
    rows = _table(zetas, omegas, horizons, args.duality_c, args.kb)
    _emit("\n".join([",".join(CSV_COLUMNS)] + [CSV_ROW % row for row in rows]), args.out)
    return 0


def _table(zetas: list[float], omegas: list[float], horizons: list[float] | None,
           c: float, k_b: float) -> list[tuple]:
    """The report rows of a grid; ``horizons`` is None for the infinite horizon.

    Deterministic order: zeta outer, omega_n middle, T inner.  The table ends
    as its one-point tables (analyze) do in table order: the first failure
    wins.  One walk decides and formats each grid value once (the T grid
    before it, each omega_n where the first zeta reaches it) and stops at its
    first failure; a refused T is met at the first point, before its
    oscillator entries when no T was accepted, else after its rows.  The rows
    before the failure share one stacked kernel call and one report pass,
    which raises first; then a kernel failure, whose row comes earlier,
    replaces the walk's.
    """
    seconds, failure = [], None
    if horizons is not None:
        try:
            for T in horizons:
                seconds.append("%.17g" % _require_positive("T", T))
        except ValueError as exc:
            failure = exc
        horizons = horizons[:len(seconds)]
    points, values, omega_cells = [], [], []
    try:
        for zeta in zetas:
            regime = classify_regime(zeta).value
            kind = "finite" if horizons is not None else _closed_form_horizon(zeta).kind
            zeta_cell = "%.17g" % zeta
            for j, omega_n in enumerate(omegas):
                if j == len(omega_cells):
                    omega_cells.append("%.17g" % _require_positive("omega_n", omega_n))
                if failure is not None and not seconds:
                    raise failure
                entries = _oscillator_entries(zeta, omega_n)
                values.append(entries if horizons is not None else _closed_form(zeta, omega_n))
                points.append((zeta_cell, omega_cells[j], regime, kind))
                if failure is not None:
                    raise failure
    except (ValueError, ArithmeticError) as exc:
        failure = exc
    if not points:
        raise failure

    if horizons is None:
        leads = [point + ("",) for point in points]
        W = np.zeros((len(points), 2, 2))
        W[:, (0, 1), (0, 1)] = values
    else:
        leads = [point + (text,) for point in points for text in seconds]
        # Row i is point i // len(horizons): A = [[0, 1], [a10, a11]], B = [[0], [1]].
        A = np.zeros((len(leads), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1] = np.repeat(values, len(horizons), axis=0)
        B = np.broadcast_to([[0.0], [1.0]], (len(leads), 2, 1))
        W, kernel_failure = _finite_horizon_gramians(A, B, horizons * len(points))
        failure = kernel_failure or failure
    rows = _report_rows(leads, W, c, k_b)
    if failure is not None:
        raise failure
    return rows


def cmd_synthesize(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.T is None:
        raise ValueError("synthesize needs --T")
    target = _parse_numbers(args.xf, "xf")
    if len(target) != 2:
        raise ValueError(f"xf must have two components, got {args.xf!r}")
    _require_finite("x_f", target)
    model = make_oscillator(params)
    profile = synthesize_min_energy_control(model, args.T, np.array(target), args.steps)
    report = verify_control(model, profile)

    # One input column: the CLI's oscillator has m = 1.
    cells = zip(profile.times.tolist(), profile.values[:, 0].tolist())
    rows = ["t,u"] + ["%.17g,%.17g" % cell for cell in cells]
    _emit("\n".join(rows), args.out)

    record = {
        "schema_version": SCHEMA_VERSION,
        "zeta": params.zeta,
        "omega_n": params.omega_n,
        "horizon_seconds": float(args.T),
        "steps": int(args.steps),
        "target": target,
        "predicted_energy": profile.predicted_energy,
        "measured_energy": report.measured_energy,
        "energy_mismatch": report.energy_mismatch,
        "achieved_final_state": report.achieved_final_state.tolist(),
        "final_state_error": report.final_state_error,
        "profile_path": args.out,
    }
    text = _record_to_text(record) if args.format == "text" else json.dumps(record, indent=2)
    _emit(text, None)
    if not report.final_state_error < FINAL_STATE_TOL:
        print(
            f"error: verification failed, final state error {report.final_state_error:.3e} "
            f">= {FINAL_STATE_TOL}",
            file=sys.stderr,
        )
        return 4
    return 0


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zeta", type=float, help="damping factor (dimensionless, >= 0)")
    parser.add_argument("--omega-n", type=float, help="natural frequency in rad/s (> 0)")
    parser.add_argument("--m", type=float, help="mass (> 0); use with --c and --k")
    parser.add_argument("--c", type=float, help="viscous damping coefficient (>= 0)")
    parser.add_argument("--k", type=float, help="stiffness (> 0)")


def _add_convention_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--duality-c",
        type=float,
        default=1.0,
        help="duality constant in det(W) * det(I) = c (default 1)",
    )
    parser.add_argument(
        "--kb",
        type=float,
        default=1.0,
        help="Boltzmann constant for entropy scaling (default 1)",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, which main
    prints as one line (exit 2); its subparsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="gramkit",
        description="Controllability Gramians, control energy, and entropy metrics "
        "for the damped harmonic oscillator.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="full report for one parameter point", allow_abbrev=False
    )
    _add_param_flags(analyze)
    analyze.add_argument(
        "--horizon", choices=["infinite", "finite"], default="infinite",
        help="Gramian horizon (default infinite)",
    )
    analyze.add_argument("--T", type=float, help="horizon in seconds (with --horizon finite)")
    _add_convention_flags(analyze)
    analyze.add_argument("--format", choices=["json", "csv", "text"], default="json")
    analyze.add_argument("--out", help="write the report to a file instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="CSV table over parameter grids", allow_abbrev=False)
    sweep.add_argument("--zeta", type=float, help="fixed damping factor, in place of --zeta-grid")
    sweep.add_argument("--omega-n", type=float, help="fixed natural frequency, in place of --omega-n-grid")
    sweep.add_argument("--zeta-grid", help="comma-separated, strictly increasing zeta values")
    sweep.add_argument("--omega-n-grid", help="comma-separated, strictly increasing omega_n values")
    sweep.add_argument("--T-grid", help="comma-separated, strictly increasing finite horizons")
    _add_convention_flags(sweep)
    sweep.add_argument("--out", help="write the CSV to a file instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    synth = sub.add_parser(
        "synthesize", help="minimum-energy control profile and verification", allow_abbrev=False
    )
    _add_param_flags(synth)
    synth.add_argument("--T", type=float, help="transfer horizon in seconds (> 0)")
    synth.add_argument("--xf", required=True, help="target state, e.g. '1,0'")
    synth.add_argument("--steps", type=int, default=2000, help="grid intervals (default 2000)")
    synth.add_argument("--out", required=True, help="path for the control profile CSV")
    synth.add_argument("--format", choices=["json", "text"], default="json")
    synth.set_defaults(func=cmd_synthesize)

    return parser


# The flags whose value is a comma-separated list of numbers.
_LIST_FLAGS = ("--xf", "--zeta-grid", "--omega-n-grid", "--T-grid")


def _join_negative_lists(argv: Sequence[str]) -> list[str]:
    """argv with each number-list flag and a following value that starts with
    "-" and parses as a number list (say -1,0) joined as flag=value; argparse
    would take that value for a flag."""
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in _LIST_FLAGS and argv[i + 1].startswith("-"):
            try:
                _parse_numbers(argv[i + 1], argv[i])
            except ValueError:
                continue
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help.
        return int(exc.code or 0)
    except (NonHurwitzError, SingularGramianError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical range failure: {exc}", file=sys.stderr)
        return 3
