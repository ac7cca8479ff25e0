"""BLAS thread pinning and the run environment record.

``pin_blas`` must run before numpy is first imported: OpenBLAS reads its
thread count once, when it loads.  One thread is the benchmark's setting; on
a 2-core machine it is both faster and steadier than the threaded default
for these problem sizes.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = 1


def pin_blas(threads):
    """Fix the BLAS thread count, or with ``None`` leave the machine default."""

    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        if threads is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(threads)


def _git_commit(root: Path):
    """The checkout's commit, read from its own ``.git`` only (None if absent)."""

    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed=None):
    """Versions, core count, BLAS settings and commit of this run."""

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
