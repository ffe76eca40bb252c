"""Command-line front end: analysis reports, parameter sweeps, and
minimum-energy control synthesis with machine-readable output.

Exit codes are disjoint: 0 success, 2 validation failure, 3 numerical
failure or floating-point range failure, 4 verification failure.  Reports
default to JSON on stdout; files are written only when --out is given.  The
JSON schema and CSV column order are documented in the README and carry a
schema_version field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .energy import synthesize_min_energy_control, verify_control
from .entropy import info_entropy_report, nats_to_bits
from .errors import NonHurwitzError, QuadratureConvergenceError, SingularGramianError
from .gramian import (
    GramianResult,
    _finite_horizon_gramians,
    finite_horizon_gramian,
    gramian_spectrum,
    oscillator_gramian_closed_form,
)
from .lti import OscillatorParams, StateSpaceModel, _require_positive, make_oscillator

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


def _fmt(value: float | None) -> str:
    """Full round-trip precision, locale-independent."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _parse_numbers(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if any(not math.isfinite(v) for v in values):
        raise ValueError(f"{name} must contain only finite values")
    return values


def _parse_grid(text: str, name: str) -> list[float]:
    values = _parse_numbers(text, name)
    if any(b <= a for a, b in zip(values, values[1:])):
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


def _analysis_record(
    params: OscillatorParams, model: StateSpaceModel, gram: GramianResult, c: float, k_b: float
) -> dict:
    """One analysis result as a flat dict.

    The duality/entropy chain always derives from the determinant of the
    reported Gramian.
    """
    chain = info_entropy_report(gram, c, k_b)
    spectrum = gramian_spectrum(gram)
    return {
        "schema_version": SCHEMA_VERSION,
        "zeta": params.zeta,
        "omega_n": params.omega_n,
        "regime": params.regime.value,
        "a_matrix": model.A.tolist(),
        "b_matrix": model.B.tolist(),
        "horizon": gram.horizon.kind,
        "horizon_seconds": gram.horizon.seconds,
        "gramian_method": gram.method,
        "gramian": gram.matrix.tolist(),
        "det_wc": chain.det_wc,
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "trace": spectrum.trace,
        "condition_number": spectrum.condition_number,
        "duality_constant": c,
        "det_i": chain.det_i,
        "differential_entropy_nats": chain.differential_entropy_nats,
        "differential_entropy_bits": nats_to_bits(chain.differential_entropy_nats),
        "boltzmann_constant": k_b,
        "thermodynamic_entropy": chain.thermodynamic_entropy,
        "entropy_index": chain.entropy_index,
    }


def _record_to_csv_row(record: dict) -> str:
    w = record["gramian"]
    eigenvalues = record["eigenvalues"]
    cells = [
        _fmt(record["zeta"]),
        _fmt(record["omega_n"]),
        record["regime"],
        record["horizon"],
        _fmt(record["horizon_seconds"]),
        _fmt(w[0][0]),
        _fmt(w[0][1]),
        _fmt(w[1][1]),
        _fmt(record["det_wc"]),
        _fmt(eigenvalues[0]),
        _fmt(eigenvalues[-1]),
        _fmt(record["trace"]),
        _fmt(record["condition_number"]),
        _fmt(record["det_i"]),
        _fmt(record["differential_entropy_nats"]),
        _fmt(record["thermodynamic_entropy"]),
        _fmt(record["entropy_index"]),
    ]
    return ",".join(cells)


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
        horizon_seconds = _require_positive("T", args.T)
    else:
        if args.T is not None:
            raise ValueError("--T is only valid with --horizon finite")
        horizon_seconds = None
    model = make_oscillator(params)
    if horizon_seconds is None:
        gram = oscillator_gramian_closed_form(params)
    else:
        gram = finite_horizon_gramian(model, horizon_seconds, method="augmented_expm")
    record = _analysis_record(params, model, gram, args.duality_c, args.kb)
    if args.format == "json":
        text = json.dumps(record, indent=2)
    elif args.format == "csv":
        text = ",".join(CSV_COLUMNS) + "\n" + _record_to_csv_row(record)
    else:
        text = _record_to_text(record)
    _emit(text, args.out)
    return 0


def _grid_or_scalar(grid: str | None, scalar: float | None, flag: str) -> list[float]:
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
    horizons: list[float | None]
    if args.T_grid is not None:
        horizons = list(_parse_grid(args.T_grid, "T-grid"))
        if any(v <= 0.0 for v in horizons):
            raise ValueError("T-grid values must be > 0")
    else:
        horizons = [None]

    # Deterministic order: zeta outer, omega_n middle, T inner.  Every model is
    # built first so that all finite rows share one stacked Gramian kernel
    # call; a model that cannot be built is reported after the rows before
    # it, and a row whose Gramian fails raises when it is reached, so the
    # first failure in table order is the one reported.
    models, failure = [], None
    try:
        for zeta in zetas:
            for omega_n in omegas:
                params = OscillatorParams(zeta=zeta, omega_n=omega_n)
                models.append((params, make_oscillator(params)))
    except (ValueError, ArithmeticError) as exc:
        failure = exc
    rows = [(params, model, T) for params, model in models for T in horizons]
    if args.T_grid is None:
        grams = (oscillator_gramian_closed_form(params) for params, _, _ in rows)
    else:
        grams = _finite_horizon_gramians([row[1] for row in rows], [row[2] for row in rows])
    lines = [",".join(CSV_COLUMNS)]
    for (params, model, _), gram in zip(rows, grams):
        record = _analysis_record(params, model, gram, args.duality_c, args.kb)
        lines.append(_record_to_csv_row(record))
    if failure is not None:
        raise failure
    _emit("\n".join(lines), args.out)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.T is None:
        raise ValueError("synthesize needs --T")
    target = _parse_numbers(args.xf, "xf")
    if len(target) != 2 or args.xf.count(",") != 1:
        raise ValueError(f"xf must have two components, got {args.xf!r}")
    model = make_oscillator(params)
    profile = synthesize_min_energy_control(model, args.T, np.array(target), args.steps)
    report = verify_control(model, profile)

    rows = ["t,u"]
    for t, u in zip(profile.times, profile.values):
        rows.append(",".join([_fmt(t)] + [_fmt(v) for v in u]))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sweep.add_argument("--zeta", type=float, help="fixed damping factor when no zeta grid is given")
    sweep.add_argument("--omega-n", type=float, help="fixed natural frequency when no omega_n grid is given")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown or malformed flags, 0 on --help.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NonHurwitzError, SingularGramianError, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical range failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
