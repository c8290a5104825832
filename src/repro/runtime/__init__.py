"""Shared vertex-runtime layer: pluggable execution kernels.

See :mod:`repro.runtime.base` for the contract and DESIGN.md
("Runtime layer") for the architecture notes.
"""

from repro.runtime.base import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KERNELS,
    BatchResult,
    Kernel,
    KernelUnavailableError,
    SendSide,
    available_backends,
    get_kernel,
    record_backend_metrics,
    register_kernel,
    resolve_backend,
    resolve_backend_for_plan,
)
from repro.runtime.compat import HAVE_NUMPY, NUMPY_INSTALL_HINT, numpy_version
from repro.runtime.python_kernel import PythonKernel

# NumpyKernel registers itself on import; the module imports fine
# without numpy installed (construction raises KernelUnavailableError).
from repro.runtime.numpy_kernel import NumpyKernel

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KERNELS",
    "BatchResult",
    "HAVE_NUMPY",
    "Kernel",
    "KernelUnavailableError",
    "NUMPY_INSTALL_HINT",
    "NumpyKernel",
    "PythonKernel",
    "SendSide",
    "available_backends",
    "get_kernel",
    "numpy_version",
    "record_backend_metrics",
    "register_kernel",
    "resolve_backend",
    "resolve_backend_for_plan",
]
