"""Facts about the machine and libraries, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(package):
    """Thread count the OpenBLAS bundled with a wheel will use, or None
    when the library or its query function is not found."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def _blas_build(package):
    try:
        config = package.show_config(mode="dicts")
    except (TypeError, ValueError):
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        key: blas.get(key)
        for key in ("name", "version", "openblas configuration")
        if key in blas
    }


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
        "blas_threads": {"numpy": _blas_threads(np), "scipy": _blas_threads(scipy)},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
