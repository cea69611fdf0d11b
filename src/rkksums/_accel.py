"""Numba shim: jit-compile the hot kernels unless disabled.

numba is the optional "jit" extra.  Set RKKSUMS_NO_NUMBA=1 to force the
pure NumPy code path (the same kernel bodies run uncompiled), as happens
anyway where numba is not installed.
"""

import os
import warnings


def _passthrough(*args, **kwargs):
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda f: f


NUMBA_DISABLED = os.environ.get("RKKSUMS_NO_NUMBA", "").strip().lower() in (
    "1", "true", "yes", "on",
)

if NUMBA_DISABLED:
    njit = _passthrough
    HAVE_NUMBA = False
else:
    try:
        from numba import njit  # noqa: F401
        HAVE_NUMBA = True
    except ImportError:
        warnings.warn("numba is not installed - kernels will run uncompiled")
        njit = _passthrough
        HAVE_NUMBA = False


def engine():
    """Name of the active kernel engine: 'numba' or 'numpy'."""
    return "numba" if HAVE_NUMBA else "numpy"
