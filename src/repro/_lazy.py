"""Lazy package exports (PEP 562): a submodule loads on first use.

Every ``repro`` package declares its public names in one mapping, name
to defining submodule, in ``__all__`` order::

    _EXPORTS = {"TDAMConfig": "config", "TDAMArray": "array"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from repro.core import TDAMArray`` then imports ``repro.core.array``
alone, not every submodule of the package, and binds the value in the
package namespace so later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of ``package``.

    Args:
        package: The package's ``__name__``.
        exports: Each exported name -> the submodule that defines it,
            relative to ``package`` (``"array"``, or ``"core.array"``
            from the top-level package).
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(
            importlib.import_module(f"{package}.{submodule}"), name
        )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
