"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every public name eagerly makes each
process pay for every submodule: a cluster worker loaded the HTTP server
(``http.server``/``email``/``ssl``) and ``repro-tx generate`` loaded the
whole engine, only because the names sit in an ``__all__``.  Packages
call :func:`lazy_exports` instead; a name's submodule is imported the
first time the name is read, and the value is then stored on the package
so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """Module ``__getattr__``/``__dir__`` resolving ``exports`` on demand.

    ``exports`` maps each public name to the relative submodule defining
    it; a name equal to its submodule's own (``"wikipedia": ".wikipedia"``)
    resolves to the submodule itself.
    """

    def __getattr__(name: str):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(submodule, package)
        value = module if submodule == "." + name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
