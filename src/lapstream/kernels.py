"""Kernel backend selection: compiled extension if built, else pure Python."""

try:
    from lapstream import _kernels_c as _backend
except ImportError:
    from lapstream import _kernels_py as _backend  # type: ignore[no-redef]

BACKEND = _backend.BACKEND_NAME
unweighted_values = _backend.unweighted_values
weighted_values = _backend.weighted_values
