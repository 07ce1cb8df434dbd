"""Constructive commutator decompositions of trace-zero matrices and
matrix-valued fields, plus exact cohomological obstruction certificates."""

__version__ = "0.1.0"
