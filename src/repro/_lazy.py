"""PEP 562 name tables for the package ``__init__`` modules.

A package ``__init__`` imports none of its submodules.  It lists each
public name under the submodule that defines it, and :func:`attach`
turns that table into the package's ``__getattr__`` and ``__dir__``:
``import repro.core`` loads nothing more, and ``repro.core.TRON`` (or
``from repro.core import TRON``) imports only
:mod:`repro.core.tron.accelerator` and what it needs.  A name equal to
its submodule's last component denotes the submodule itself.

Example:
    >>> import repro.core
    >>> "TRON" in dir(repro.core)
    True
    >>> repro.core.TRON.__module__
    'repro.core.tron.accelerator'
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def attach(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` of ``package`` from a ``{submodule:
    names}`` table (submodules spelled relative to the package, or as
    absolute module names)."""
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(origin[name], package)
        last = module.__name__.rpartition(".")[2]
        value = module if name == last else getattr(module, name)
        vars(sys.modules[package])[name] = value  # resolve once
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
