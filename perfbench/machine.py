"""Machine and environment record attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the git checkout at ``root``; None if ``root`` is not one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _thp_mode() -> str | None:
    """The kernel's transparent huge page mode (the bracketed word), if readable."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text(encoding="utf-8")
    except OSError:
        return None
    words = [w[1:-1] for w in text.split() if w.startswith("[")]
    return words[0] if words else text.strip()


def record(root: Path, blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
        "thp": _thp_mode(),
        "commit": _git_commit(root),
    }
