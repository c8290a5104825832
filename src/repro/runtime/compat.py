"""Optional-numpy shim.

numpy is an optional extra (``pip install "repro[fast]"``): the pure
Python backends and the relational engines must keep working without it.
Modules that want numpy import ``np`` from here instead of importing
numpy directly -- when numpy is installed they get the real module
(zero indirection cost beyond one attribute lookup at import time);
when it is absent they get a proxy whose *first use* raises a clean
``ImportError`` that names the extra to install, instead of an opaque
``ModuleNotFoundError`` at import time of an unrelated module.
"""

from __future__ import annotations

from typing import Any, Optional

NUMPY_INSTALL_HINT = (
    "numpy is required for this feature; install the optional extra with "
    "`pip install 'repro[fast]'` (or `pip install numpy`)"
)

try:  # pragma: no cover - exercised implicitly by every numpy-using test
    import numpy as _numpy
except ImportError:  # pragma: no cover - container always has numpy
    _numpy = None


class MissingNumpy:
    """Stand-in for the numpy module that fails loudly on first use."""

    def __init__(self, feature: str = "") -> None:
        self._feature = feature

    def __getattr__(self, name: str) -> Any:
        prefix = f"{self._feature}: " if self._feature else ""
        raise ImportError(prefix + NUMPY_INSTALL_HINT)

    def __bool__(self) -> bool:
        return False


#: the numpy module when installed, else a loud-failing proxy
np = _numpy if _numpy is not None else MissingNumpy()

HAVE_NUMPY = _numpy is not None


def numpy_version() -> Optional[str]:
    """The installed numpy version string, or ``None`` when absent."""
    return str(_numpy.__version__) if _numpy is not None else None

