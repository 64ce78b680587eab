"""Facts about the machine and the numeric stack, recorded with every result.

The BLAS thread count matters most: on a 2-core machine the collision
workload runs far slower with two OpenBLAS threads than with one, and
the benchmark keeps whatever setting a user gets by default.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict:
    """{'L1d': '48K', ...} for cpu0, from sysfs where it exists."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and kind and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def blas_libraries() -> list:
    """Loaded OpenBLAS builds with their configuration and thread count."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                entry["threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                config.argtypes = []
                entry["config"] = config().decode(errors="replace")
            if threads is not None:
                break
        out.append(entry)
    return out


def facts() -> dict:
    """Everything that can move a timing without a code change."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_loaded": blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def loadavg() -> list | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None
