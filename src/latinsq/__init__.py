"""Latin squares: transversals, decompositions, rainbow matchings, and
correction gadgets, with a batch experiment CLI."""

__version__ = "0.1.0"

from .core import (
    Decomposition,
    LatinSquare,
    PartialTransversal,
    ProperColoring,
    Transversal,
    ValidationError,
    cyclic_decomposition,
    cyclic_square,
    from_coloring,
    from_grid,
    square_from_text,
    square_to_text,
    to_coloring,
)
from .sampler import SeededRng, enumerate_all, enumerate_reduced, sample_uniform
from .transversal import (
    DecomposeResult,
    count_transversals,
    decompose,
    iter_transversals,
    max_partial_transversal,
    verify_decomposition,
)

__all__ = [
    "Decomposition",
    "DecomposeResult",
    "LatinSquare",
    "PartialTransversal",
    "ProperColoring",
    "SeededRng",
    "Transversal",
    "ValidationError",
    "count_transversals",
    "cyclic_decomposition",
    "cyclic_square",
    "decompose",
    "enumerate_all",
    "enumerate_reduced",
    "from_coloring",
    "from_grid",
    "iter_transversals",
    "max_partial_transversal",
    "sample_uniform",
    "square_from_text",
    "square_to_text",
    "to_coloring",
    "verify_decomposition",
]
