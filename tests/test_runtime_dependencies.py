"""numpy is gramkit's only runtime dependency.

Each command runs in a subprocess where scipy, mpmath and hypothesis cannot
be imported: a ``None`` entry in ``sys.modules`` makes their import raise
``ImportError`` before gramkit is loaded.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

RUNNER = """
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
sys.path.insert(0, {src!r})
from gramkit import cli
raise SystemExit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--zeta", "0.5", "--omega-n", "2", "--horizon", "finite", "--T", "3"],
        ["sweep", "--zeta-grid", "0,0.5,1", "--omega-n-grid", "1,2", "--T-grid", "0.5,3"],
        ["synthesize", "--zeta", "0.5", "--omega-n", "1", "--T", "3", "--xf", "1,0"],
    ],
    ids=["analyze", "sweep", "synthesize"],
)
def test_cli_runs_without_test_dependencies(argv, tmp_path):
    if argv[0] == "synthesize":
        argv = argv + ["--out", str(tmp_path / "profile.csv")]
    result = subprocess.run(
        [sys.executable, "-c", RUNNER.format(src=SRC), *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout and not result.stderr
