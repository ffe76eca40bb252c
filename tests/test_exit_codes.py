"""The CLI's exit-code contract over the whole finite double range.

Every finite input ends in exit 0, 2, 3 or 4; a non-zero exit prints exactly
one stderr line and exit 0 prints none; no floating-point warning fires on
the way (warnings are escalated to errors here); and a successful run
reports no NaN or infinity.  A sweep ends exactly as analyze does over its
points in table order.
"""

import contextlib
import io
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
    if code == 0:
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
    return sorted(set(values))


@contract
@given(
    zetas=st.lists(finite, min_size=1, max_size=3).map(grid),
    omegas=st.lists(finite, min_size=1, max_size=3).map(grid),
    horizons=st.none() | st.lists(positive, min_size=1, max_size=3).map(grid),
    c=finite,
    kb=finite,
)
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


@pytest.mark.parametrize("T_grid", [None, "1,2"])
@pytest.mark.parametrize(
    "grids, point, message",
    [
        # omega_n^2 overflows at point 2
        (["--zeta-grid=0.5", "--omega-n-grid=1,1e160"], ["--zeta=0.5", "--omega-n=1e160"],
         "oscillator matrix overflows at zeta=0.5, omega_n=1e+160"),
        # 2 zeta omega_n overflows at point 2
        (["--zeta-grid=0.5,1e300", "--omega-n-grid=1e10"], ["--zeta=1e300", "--omega-n=1e10"],
         "oscillator matrix overflows at zeta=1e+300, omega_n=10000000000.0"),
        # zeta is refused at point 1
        (["--zeta-grid=-1,0.5", "--omega-n=1"], ["--zeta=-1", "--omega-n=1"],
         "zeta must be >= 0, got -1.0"),
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
