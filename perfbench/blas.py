"""The number of threads numpy's OpenBLAS uses, set from inside the process.

The timed ops run with one BLAS thread. With numpy's default of one thread
per core, each matrix product also waits on the other core, so an op's time
follows the load on both cores while the reference kernel that scales it
(workloads.py) runs on one: in back-to-back batches of 300 los-serial
trials on a shared 2-core host the median moved from 9.4 to 12.3 ms with
two threads and stayed at 13.4-13.5 ms with one. The pooled sweeps are the
exception: they run under the library's default count, the setting
`irsbeam sweep` users get, because forked workers inherit the count of the
parent.

When numpy's OpenBLAS cannot be found, `threads` changes nothing and
`current` is None; the environment stamp shows it.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np

# As the scipy-openblas build that numpy 2 wheels bundle exports them.
_SET, _GET = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"


def _find():
    """numpy's bundled OpenBLAS, already loaded by `import numpy`."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, _SET) and hasattr(lib, _GET):
            setter, getter = getattr(lib, _SET), getattr(lib, _GET)
            setter.restype, setter.argtypes = None, [ctypes.c_int]
            getter.restype = ctypes.c_int
            return setter, getter
    return None


_LIB = _find()
# The library's own count, before this module changes it.
DEFAULT = _LIB[1]() if _LIB else None


def current() -> int | None:
    return _LIB[1]() if _LIB else None


@contextmanager
def threads(n: int | None):
    """Run the block with `n` BLAS threads, then restore the previous count."""
    if _LIB is None or n is None:
        yield
        return
    before = current()
    _LIB[0](n)
    try:
        yield
    finally:
        _LIB[0](before)
