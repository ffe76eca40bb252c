import os
import re
import subprocess
import sys

import pytest


@pytest.fixture(scope="session")
def blas_core():
    """The OpenBLAS kernel set numpy runs on here, e.g. ``SkylakeX``.

    OpenBLAS picks it at run time and names it on stderr as ``Core: <name>``
    when ``OPENBLAS_VERBOSE=2``; a fresh interpreter with this process's
    environment (so any ``OPENBLAS_CORETYPE`` applies) imports numpy once.
    Other BLAS builds print no such line and read as ``unknown``.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy"],
        env=dict(os.environ, OPENBLAS_VERBOSE="2"),
        capture_output=True,
        text=True,
        check=True,
    )
    found = re.search(r"^Core: (\S+)$", probe.stderr, re.MULTILINE)
    return found.group(1) if found else "unknown"


@pytest.fixture
def pins(blas_core):
    """Look up a table of pins keyed by BLAS kernel; a kernel with none fails."""

    def lookup(table: dict) -> dict:
        if blas_core not in table:
            pytest.fail(f"no pins are captured for the OpenBLAS {blas_core} kernels", pytrace=False)
        return table[blas_core]

    return lookup
