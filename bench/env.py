"""Run environment shared by the benchmark scripts. Import before numpy.

Pins the BLAS/OpenMP thread pools to one thread, keeps bytecode in the
benchmark's scratch directory (so the source tree stays clean and set-up
time matches an installed package with warm bytecode), and puts the
checkout's `src/` first on the import path. Uses the standard library only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "bench"
PYCACHE = SCRATCH / "pycache"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin the environment of this process; exit 2 when there is no source."""
    if not (SRC / "decoshield" / "__init__.py").is_file():
        sys.exit(f"error: no decoshield source under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the checkout's source."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env
