"""Exact-arithmetic non-smoothability certificates for 4-manifold families."""

import importlib

__version__ = "0.1.0"

_MODULES = ("charpoly", "cli", "cover", "errors", "lattice", "manifold",
            "obstruct")
# public names -> the module that defines them
_NAMES = {"Certificate": "obstruct", "certify": "obstruct",
          "parse": "cli", "emit_json": "cli"}


def __getattr__(name):
    # every module loads on first use, so a command imports only what it
    # runs, and `python -m fourfold.cli` runs cli only once
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _NAMES:
        module = importlib.import_module(f".{_NAMES[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
