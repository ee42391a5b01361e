"""What a result was measured on, the memory guard, and the bandwidth calibration."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

# head-room kept free beside the transform kernels: Python, numpy and
# the per-plane work arrays (peak RSS of `pflens simulate` is ~0.25 GiB
# above its kernel)
MEMORY_MARGIN_BYTES = 1 << 30
# the calibration array spans at least this many last-level caches
STREAM_CACHE_MULTIPLE = 4
STREAM_COLUMNS = 4096
STREAM_REPEATS = 5
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


class MemoryGuardError(RuntimeError):
    """A workload would not fit in the memory this machine has available."""


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as meminfo:
        for line in meminfo:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise MemoryGuardError("/proc/meminfo reports no MemAvailable")


def require_memory(needed_bytes: int, what: str, available: int | None = None) -> None:
    """Refuse, before allocating, work whose needed_bytes plus the margin exceed MemAvailable."""
    if available is None:
        available = mem_available_bytes()
    if needed_bytes + MEMORY_MARGIN_BYTES > available:
        raise MemoryGuardError(
            f"refusing {what}: needs {needed_bytes / 2**30:.2f} GiB plus a "
            f"{MEMORY_MARGIN_BYTES / 2**30:.2f} GiB margin, but MemAvailable is "
            f"{available / 2**30:.2f} GiB"
        )


def last_level_cache_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else best[1]


def stream_gbps(array_bytes: int) -> float:
    """Bandwidth of a BLAS matrix-vector product over an array_bytes float64 matrix."""
    rows = max(1, array_bytes // (8 * STREAM_COLUMNS))
    matrix = np.ones((rows, STREAM_COLUMNS))
    vector = np.ones(STREAM_COLUMNS)
    times = []
    for _ in range(STREAM_REPEATS):
        start = time.perf_counter()
        matrix @ vector
        times.append(time.perf_counter() - start)
    return matrix.nbytes / statistics.median(times) / 1e9


def _blas_threads() -> int | None:
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _blas_info(config) -> str | None:
    try:
        blas = config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: Path) -> str | None:
    """HEAD of the git repository at root, or None when root is not one."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            # do not climb out of root into an enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_info(np.show_config),
        "scipy_blas": _blas_info(scipy.show_config),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_mib": mem_available_bytes() >> 20,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
    }
