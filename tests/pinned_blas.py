"""Run a test module's function in a child process with BLAS pinned.

GEMM bits depend on the BLAS build, its kernel and its thread count, so a
digest is taken in a child whose environment fixes the last two; a digest
recorded on this BLAS build is compared under :data:`PINNED_ENV`, and
another build skips.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

#: The BLAS build and kernel the pinned digests were recorded with.
PINNED_BLAS = ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
               "Haswell MAX_THREADS=64")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_CORETYPE": "Haswell"}


def run_child(module: str, function: str, env: dict[str, str]) -> str:
    """The last word ``module.function()`` prints, run in a child under
    ``env`` (on top of this process's environment)."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(repro.__file__).resolve().parents[1]),
                            str(tests)])
    child = subprocess.run(
        [sys.executable, "-c", f"import {module} as t; print(t.{function}())"],
        cwd=tests, env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return child.stdout.split()[-1]


def pinned_digest(module: str, function: str) -> str:
    """:func:`run_child` under :data:`PINNED_ENV`; skips the calling test
    on another BLAS build, where the recorded digest does not apply."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (platform.machine() != "x86_64"
            or blas.get("openblas configuration") != PINNED_BLAS):
        pytest.skip("digest recorded on another BLAS build")
    return run_child(module, function, PINNED_ENV)
