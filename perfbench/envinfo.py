"""Environment record attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

#: thread variables pinned to 1 in the benchmark and in every child
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Single-threaded BLAS and no qrd worker threads, here and in every child."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QRD_THREADS", None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("name", "unknown"))
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the library sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qrd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import mpmath
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas_name(np),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("QRD_THREADS",)},
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "executable": sys.executable,
    }
