"""Exact-arithmetic non-smoothability certificates for 4-manifold families."""

import importlib

from . import charpoly, cover, lattice, manifold, obstruct  # noqa: F401
from .obstruct import Certificate, certify  # noqa: F401

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so `python -m fourfold.cli` runs it only once
    if name in ("cli", "parse", "emit_json"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
