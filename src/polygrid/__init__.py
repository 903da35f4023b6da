"""Desk-scale witnesses and checkers for Polish-grid partition principles.

Finite ordinal-set combinatorics (ordset, antiramsey, deltasys, ph),
truncated branching trees with density and grid machinery (trees), a
finite forcing pipeline emitting validated grid witnesses (forcing), the
grid-to-strong-subtree derivation with its sideways construction (hl),
and a batch CLI (cli).
"""

from .ordset import OrdSet, ParameterError, aligned, rset

__all__ = ["OrdSet", "ParameterError", "aligned", "rset", "__version__"]

__version__ = "0.1.0"
