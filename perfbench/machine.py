"""The machine record printed next to every result.

Figures from machines with different CPUs, library versions or BLAS
thread pools are not comparable; the record says which machine a result
comes from.  The OpenBLAS thread counts are read from the libraries
numpy and scipy actually loaded, because the benchmark leaves their
default thread pools in place.
"""

from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> list[str]:
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.rsplit(" ", 1)[-1].strip()
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def _call(lib, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    """nproc, CPU, Python, numpy, scipy and each loaded OpenBLAS with its threads."""
    import numpy
    import scipy

    blas = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _call(lib, ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                             "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)
        blas.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": threads,
        })
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }
