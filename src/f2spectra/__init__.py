"""Spectral and polynomial diagnostics for F2-linear pseudo-random generators."""

from __future__ import annotations

__version__ = "0.1.0"

from .bitlinalg import BitMatrix, BitVector, SparseBitMatrix, extract_transition_matrix
from .generators import (
    Family,
    Generator,
    GeneratorSpec,
    GeneratorState,
    get_spec,
    list_specs,
    make_generator,
)

__all__ = [
    "__version__",
    "BitMatrix",
    "BitVector",
    "Family",
    "Generator",
    "GeneratorSpec",
    "GeneratorState",
    "SparseBitMatrix",
    "extract_transition_matrix",
    "get_spec",
    "list_specs",
    "make_generator",
]
