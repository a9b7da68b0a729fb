"""Run a check in a new interpreter with BLAS pinned to one thread.

A threaded BLAS splits a product into per-thread row blocks, so at two
threads the scalar head's gemv gives some rows other last bits. A check
that a row split is bitwise would then also test the host's core count.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_at_one_thread(module: str, function: str):
    """Call `module.function()` (a module under tests/) at one BLAS thread; fail on a raise."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               **dict.fromkeys(BLAS_THREADS, "1"))
    run = subprocess.run([sys.executable, "-c", f"import {module}; {module}.{function}()"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
