"""One BLAS thread for everything parastream computes.

OpenBLAS splits a matrix product across its threads, and the split sets
the order in which partial sums are added. The conv forward GEMMs
(48 -> 16 channels, K = 432, at 16 and 64 px) gave different bytes at
one and at two threads, so a trained model and every semantic output
depended on the machine's core count. Importing parastream therefore
pins the OpenBLAS that NumPy loaded to one thread, through the setter
that NumPy's wheel exports, and the same config gives the same bytes
under any OPENBLAS_NUM_THREADS. The pin holds for the whole process.
"""

from __future__ import annotations

import ctypes
import glob
import os
import warnings

import numpy as np

# the wheel's scipy-openblas symbols first, a plain OpenBLAS build after
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def blas_name() -> str:
    """Name and version of the BLAS NumPy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "an unknown BLAS"
    return f"{blas.get('name')} {blas.get('version')}"


def _openblas_libraries():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


def pin_one_thread() -> bool:
    """Set the OpenBLAS that NumPy loaded to one thread. Returns False,
    with a RuntimeWarning that names the BLAS, when no thread setter is
    found; results may then depend on the BLAS thread count."""
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return True
    warnings.warn(
        f"parastream could not pin {blas_name()} to one thread; outputs may "
        "depend on the BLAS thread count",
        RuntimeWarning,
        stacklevel=2,
    )
    return False
