"""The CLI's exit-code contract over the whole finite double range.

Every finite input ends in exit 0, 2, 3 or 4; a non-zero exit prints exactly
one stderr line and exit 0 prints none; no floating-point warning fires on
the way (warnings are escalated to errors here); and a successful run
reports no NaN or infinity.
"""

import contextlib
import io
import re
import warnings

from hypothesis import given, settings, strategies as st

from gramkit import cli

# Half the draws come from a moderate range so successful runs, not only
# rejected inputs, are exercised.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.floats(min_value=0.01, max_value=100.0)
contract = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), (argv, err.getvalue())
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE), argv


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


@contract
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
