"""The CLI's exit-code contract over the whole finite double range.

Every finite input ends in exit 0, 2, 3 or 4; a non-zero exit, a usage error
included, prints exactly one stderr line and exit 0 prints none; no
floating-point warning fires on the way (warnings are escalated to errors
here); and a successful run, or a transfer that misses its verification
gate, reports no NaN or infinity.
A sweep ends exactly as analyze does over its points in table order.
"""

import contextlib
import io
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from gramkit import cli

# Half the draws come from a moderate range so successful runs, not only
# rejected inputs, are exercised.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.floats(min_value=0.01, max_value=100.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.floats(
    min_value=0.01, max_value=100.0
)
# Grid values may also be infinite: each value is refused as analyze refuses it.
extended = st.floats(allow_nan=False) | st.floats(min_value=0.01, max_value=100.0)
# Horizons also take the values analyze refuses (exit 2) or whose Gramian
# leaves the double range (1e-320, exit 3).
horizon = positive | st.sampled_from([0.0, -1.0, 1e-320, math.inf, -math.inf, math.nan])
contract = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert len(err.splitlines()) == (0 if code == 0 else 1), (argv, err)
    if code in (0, 4):
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv
    return code, err


@contract
@given(
    zeta=finite,
    omega_n=finite,
    T=st.none() | finite,
    c=finite,
    kb=finite,
    fmt=st.sampled_from(["json", "csv", "text"]),
)
def test_analyze(zeta, omega_n, T, c, kb, fmt):
    argv = ["analyze", f"--zeta={zeta!r}", f"--omega-n={omega_n!r}"]
    if T is not None:
        argv += ["--horizon=finite", f"--T={T!r}"]
    check_contract(argv + [f"--duality-c={c!r}", f"--kb={kb!r}", f"--format={fmt}"])


@contract
@given(zeta=finite, omega_n=finite, T=st.none() | finite, c=finite, kb=finite)
def test_sweep(zeta, omega_n, T, c, kb):
    argv = ["sweep", f"--zeta-grid={zeta!r}", f"--omega-n={omega_n!r}"]
    if T is not None:
        argv.append(f"--T-grid={T!r}")
    check_contract(argv + [f"--duality-c={c!r}", f"--kb={kb!r}"])


@pytest.mark.parametrize(
    "argv, code",
    [(["analyze", "--zeta=2e-309", "--omega-n=1", f"--format={fmt}"], 3) for fmt in ("json", "csv", "text")]
    + [
        (["sweep", "--zeta-grid=0,2e-309", "--omega-n-grid=1"], 3),
        (["sweep", "--zeta-grid=0,2e-309", "--omega-n-grid=1", "--duality-c=-1"], 2),
    ],
)
def test_overflowing_trace_does_not_warn(argv, code):
    # Point (2e-309, 1) has W = diag(1.25e308, 1.25e308), whose trace
    # overflows as its det(W) does; only the determinant's error is reported,
    # and in the sweep with --duality-c=-1 only row 0's error.
    assert check_contract(argv)[0] == code


def grid(values):
    # nan sorts last, so the values before it stay increasing.
    return sorted(set(values), key=lambda v: (math.isnan(v), v))


@contract
@given(
    zetas=st.lists(extended, min_size=1, max_size=3).map(grid),
    omegas=st.lists(extended, min_size=1, max_size=3).map(grid),
    horizons=st.none() | st.lists(horizon, min_size=1, max_size=3).map(grid),
    c=finite,
    kb=finite,
)
# A later refused T ends the table right after the first point's rows, before
# the second omega_n's overflow or refusal is met: exit 2, "T must be finite".
@example(zetas=[0.5], omegas=[1.0, 1e160], horizons=[1.0, math.nan], c=1.0, kb=1.0)
@example(zetas=[0.5], omegas=[1.0, math.nan], horizons=[1.0, math.nan], c=1.0, kb=1.0)
def test_sweep_ends_as_analyze_over_its_points(zetas, omegas, horizons, c, kb):
    # A sweep ends as analyze --format csv over its points in table order
    # (zeta outer, T inner): the first point that fails gives the sweep's
    # exit code and stderr, and without one the sweep prints every row.
    conventions = [f"--duality-c={c!r}", f"--kb={kb!r}"]
    argv = ["sweep", "--zeta-grid=" + ",".join(map(repr, zetas)),
            "--omega-n-grid=" + ",".join(map(repr, omegas)), *conventions]
    if horizons is not None:
        argv.append("--T-grid=" + ",".join(map(repr, horizons)))
    sweep = run(argv)
    lines = [",".join(cli.CSV_COLUMNS)]
    for zeta in zetas:
        for omega_n in omegas:
            for T in horizons or [None]:
                point = ["analyze", f"--zeta={zeta!r}", f"--omega-n={omega_n!r}",
                         "--format=csv", *conventions]
                if T is not None:
                    point += ["--horizon=finite", f"--T={T!r}"]
                code, out, err = run(point)
                if code != 0:
                    assert sweep == (code, "", err), (argv, point)
                    return
                header, row = out.splitlines()
                assert header == lines[0]
                lines.append(row)
    assert sweep == (0, "\n".join(lines) + "\n", ""), argv


@contract
@given(T=st.floats() | positive)
def test_sweep_ends_as_analyze_over_its_horizon(T):
    # A valid point with a one-value T-grid, the value drawn from every
    # double, nan and infinities included.
    sweep = run(["sweep", "--zeta-grid=0.5", "--omega-n-grid=1", f"--T-grid={T!r}"])
    analyze = run(["analyze", "--zeta=0.5", "--omega-n=1", "--format=csv",
                   "--horizon=finite", f"--T={T!r}"])
    assert sweep == analyze, T


@pytest.mark.parametrize("omega_n", ["1", "1e200"])
@pytest.mark.parametrize("xf, value", [("inf,0", "inf"), ("0,-inf", "-inf"), ("nan,1", "nan")])
def test_non_finite_target_is_refused_by_the_library(tmp_path, omega_n, xf, value):
    # The target is refused ahead of a model whose omega_n^2 overflows.
    out = tmp_path / "profile.csv"
    argv = ["synthesize", "--zeta=0.5", f"--omega-n={omega_n}", "--T=1", f"--xf={xf}", f"--out={out}"]
    assert run(argv) == (2, "", f"error: x_f must be finite, got {value}\n")
    assert not out.exists()


# (sweep grids, the failing point as analyze flags, message, T grids the case
# runs with): each case runs with no T grid (infinite horizon) and, unless its
# failure is the closed form's, with a finite T grid.
SWEEP_FAILURES = [
    # omega_n^2 overflows at point 2
    (["--zeta-grid=0.5", "--omega-n-grid=1,1e160"], ["--zeta=0.5", "--omega-n=1e160"],
     "oscillator matrix overflows at zeta=0.5, omega_n=1e+160", [None, "1,2"]),
    # 2 zeta omega_n overflows at point 2
    (["--zeta-grid=0.5,1e300", "--omega-n-grid=1e10"], ["--zeta=1e300", "--omega-n=1e10"],
     "oscillator matrix overflows at zeta=1e+300, omega_n=10000000000.0", [None, "1,2"]),
    # zeta is refused at point 1
    (["--zeta-grid=-1,0.5", "--omega-n=1"], ["--zeta=-1", "--omega-n=1"],
     "zeta must be >= 0, got -1.0", [None, "1,2"]),
    # grid values are refused by the library's validators, as analyze refuses them
    (["--zeta-grid=nan", "--omega-n=1"], ["--zeta=nan", "--omega-n=1"],
     "zeta must be finite, got nan", [None, "1,2"]),
    (["--zeta=0.5", "--omega-n-grid=nan"], ["--zeta=0.5", "--omega-n=nan"],
     "omega_n must be finite, got nan", [None, "1,2"]),
    # a refused zeta past the first point: at point 3, after the rows of zeta 0.5
    (["--zeta-grid=0.5,nan", "--omega-n-grid=1,2"], ["--zeta=nan", "--omega-n=1"],
     "zeta must be finite, got nan", [None, "1,2"]),
    # 4 zeta omega_n^3 overflows and the diagonal entry rounds to 0 at point 2
    (["--zeta-grid=1,1e200", "--omega-n-grid=1e50"], ["--zeta=1e200", "--omega-n=1e50"],
     "closed-form Gramian underflows at zeta=1e+200, omega_n=1e+50", [None]),
    # omega_n^3 overflows and 1/(4 zeta omega_n^3) = 5e-331 rounds to 0 at point 2
    (["--zeta-grid=0.5", "--omega-n-grid=1,1e110"], ["--zeta=0.5", "--omega-n=1e110"],
     "closed-form Gramian underflows at zeta=0.5, omega_n=1e+110", [None]),
    # omega_n^3 overflows, but the closed form's entries do not: det(W) underflows at point 2
    (["--zeta-grid=0.5", "--omega-n-grid=1,1e103"], ["--zeta=0.5", "--omega-n=1e103"],
     "Gramian determinant underflows (entries [[5e-310, 0.0], [0.0, 5e-104]])", [None]),
    # a grid that starts with a minus sign, as the token after its flag, is its value
    (["--zeta-grid", "-1,0.5", "--omega-n=1"], ["--zeta=-1", "--omega-n=1"],
     "zeta must be >= 0, got -1.0", [None, "1,2"]),
    (["--zeta=0.5", "--omega-n-grid", "-1e-3,1"], ["--zeta=0.5", "--omega-n=-1e-3"],
     "omega_n must be > 0, got -0.001", [None, "1,2"]),
    (["--zeta=0.5", "--omega-n=1", "--T-grid", "-inf,1"],
     ["--zeta=0.5", "--omega-n=1", "--horizon=finite", "--T=-inf"],
     "T must be finite, got -inf", [None]),
]


@pytest.mark.parametrize(
    "grids, point, message, T_grid",
    [
        pytest.param(grids, point, message, T_grid, id=f"grids{i}-point{i}-{message}-{T_grid}")
        for i, (grids, point, message, T_grids) in enumerate(SWEEP_FAILURES)
        for T_grid in T_grids
    ],
)
def test_sweep_fails_as_analyze_at_its_failing_point(grids, point, message, T_grid):
    sweep, analyze = ["sweep", *grids], ["analyze", "--format=csv", *point]
    if T_grid is not None:
        sweep.append(f"--T-grid={T_grid}")
        analyze += ["--horizon=finite", "--T=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected, result = run(analyze), run(sweep)
    code, out, err = expected
    assert code in (2, 3) and out == "" and len(err.splitlines()) == 1 and message in err
    assert result == expected


@contract
# u^2 overflows at samples near 1e154 although the integral of u^2 does not;
# the last one's integral does overflow (exit 3).
@example(zeta=0.5, omega_n=1.0, T=0.001, xf=(1e148, 0.0), steps=2000)
@example(zeta=0.5, omega_n=1.0, T=0.001, xf=(3e148, 0.0), steps=2000)
@example(zeta=0.5, omega_n=1.0, T=0.001, xf=(1e149, 0.0), steps=2000)
@example(zeta=0.5, omega_n=1.0, T=0.001, xf=(1.2239598694680114e149, 0.0), steps=2000)
# Steps with h * rho(A) = 4.3 and 3.4, where an explicit integrator diverges:
# the control's miss is reported as a finite number (exit 4).
@example(zeta=1.6, omega_n=15.0, T=50.0, xf=(1.0, 0.0), steps=500)
@example(zeta=15.0, omega_n=15.0, T=15.0, xf=(1.0, 0.0), steps=2000)
# |x_f|^2 overflows while the energy does not: the error is still finite.
@example(zeta=0.5, omega_n=1e-5, T=1e7, xf=(1e160, 0.0), steps=2000)
# The step's exponential overflows at h = 5e36: the state is not finite (exit 3).
@example(zeta=0.0, omega_n=1.0, T=1e40, xf=(1.0, 0.0), steps=2000)
@given(
    zeta=finite,
    omega_n=finite,
    T=finite,
    xf=st.tuples(finite, finite),
    steps=st.integers(min_value=100, max_value=3000),
)
def test_synthesize(tmp_path_factory, zeta, omega_n, T, xf, steps):
    out = tmp_path_factory.getbasetemp() / "profile.csv"
    check_contract(
        [
            "synthesize",
            f"--zeta={zeta!r}",
            f"--omega-n={omega_n!r}",
            f"--T={T!r}",
            f"--xf={xf[0]!r},{xf[1]!r}",
            f"--steps={steps}",
            f"--out={out}",
        ]
    )


@contract
# A target that starts with a minus sign is the value of --xf, not a flag.
@example(zeta=0.5, omega_n=1.0, T=3.0, xf=(-1.0, 0.0), bogus=False, out=True)
# Usage errors print one line: an unknown flag, and a missing --out.
@example(zeta=0.5, omega_n=1.0, T=3.0, xf=(-1.0, 0.0), bogus=True, out=True)
@example(zeta=0.5, omega_n=1.0, T=3.0, xf=(-1.0, 0.0), bogus=False, out=False)
@given(
    zeta=positive,
    omega_n=positive,
    T=positive,
    xf=st.tuples(finite, finite),
    bogus=st.just(False),
    out=st.just(True),
)
def test_synthesize_with_separate_tokens(tmp_path_factory, zeta, omega_n, T, xf, bogus, out):
    # Each flag and its value as two tokens, as a shell passes them, end as
    # the flag=value form does.
    flags = {"--zeta": repr(zeta), "--omega-n": repr(omega_n), "--T": repr(T),
             "--xf": f"{xf[0]!r},{xf[1]!r}"}
    if out:
        flags["--out"] = str(tmp_path_factory.getbasetemp() / "profile.csv")
    separate = ["synthesize", *(token for flag in flags.items() for token in flag)]
    joined = ["synthesize", *(f"{flag}={value}" for flag, value in flags.items())]
    if bogus:
        separate.append("--bogus")
        joined.append("--bogus")
    assert check_contract(separate) == check_contract(joined)


@contract
@given(
    m=finite,
    c=finite,
    k=finite,
    T=st.none() | finite,
    fmt=st.sampled_from(["json", "csv", "text"]),
)
def test_analyze_physical(m, c, k, T, fmt):
    argv = ["analyze", f"--m={m!r}", f"--c={c!r}", f"--k={k!r}", f"--format={fmt}"]
    if T is not None:
        argv += ["--horizon=finite", f"--T={T!r}"]
    check_contract(argv)
