"""Exact-arithmetic non-smoothability certificates for 4-manifold families."""

from . import charpoly, cover, lattice, manifold, obstruct  # noqa: F401
from .cli import emit_json, parse  # noqa: F401
from .obstruct import Certificate, certify  # noqa: F401

__version__ = "0.1.0"
