"""Process set-up shared by the runner, the set-up probe and the tests.

The benchmark imports ``mbsdej`` from the ``src`` directory of the checkout
it sits in, never from an installed copy, and pins the BLAS and OpenMP
thread pools before NumPy is imported.  One thread is the pin: on a 2-core
machine the default pools made the 100k-path ridge solves several times
slower than one thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source_present() -> bool:
    return (SRC / "mbsdej" / "__init__.py").is_file()


def bootstrap() -> None:
    """Pin thread pools and put the checkout's sources first on sys.path."""
    if not source_present():
        raise SystemExit(f"mbsdej sources not found under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
