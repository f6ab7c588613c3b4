"""Kernel selection: compiled extension if built, pure Python otherwise.

Set ``RABUILD_PURE=1`` in the environment to force the Python kernel (used
by ``benchmarks/bench_kernel.py`` to time ball enumeration under each
backend).  The cross-implementation tests do not use it: they build the
compiled kernel from the committed C source and call both modules directly.
"""

import os

from . import _kernel_py

if os.environ.get("RABUILD_PURE"):
    _impl = _kernel_py
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernel_py

normalize = _impl.normalize
multiply = _impl.multiply
inverse = _impl.inverse
strip_coset = _impl.strip_coset
support_mask = _impl.support_mask


def backend() -> str:
    """Name of the active kernel implementation ("c" or "python")."""
    return _impl.BACKEND


def implementations():
    """Both kernel modules when available, for equivalence tests."""
    mods = [_kernel_py]
    try:
        from . import _speedups

        mods.append(_speedups)
    except ImportError:
        pass
    return mods
