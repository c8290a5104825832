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
    register_kernel,
    resolve_backend,
    resolve_backend_for_plan,
)
from repro.runtime.python_kernel import PythonKernel

# registered second, so KERNELS (and available_backends) list python first
from repro.runtime.numpy_kernel import NumpyKernel

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KERNELS",
    "BatchResult",
    "Kernel",
    "KernelUnavailableError",
    "NumpyKernel",
    "PythonKernel",
    "SendSide",
    "available_backends",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
    "resolve_backend_for_plan",
]
