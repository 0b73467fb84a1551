"""Exact arithmetic for fat-graph spines of bordered surfaces.

The package models trivalent spines with labeled boundary cusps, compiles
paths on them into 2x2 matrix words, and builds the induced Poisson and
symplectic structures on the shear-type coordinates.  Everything that can
be exact is exact: rationals via ``fractions.Fraction``, square roots as
``SqrtRational`` values a*sqrt(b), and formal results, the Poisson
bracket of two of them included, as integer Laurent polynomials.
"""

from .algebra import Fraction, LaurentPoly, Mat2, SqrtRational
from .ribbon import Edge, FatGraph, ValidationReport, Window, parse_graph, validate
from .paths import (
    GeodesicFunction,
    MatrixWord,
    PathWord,
    compile_path,
    evaluate,
    geodesic_function,
    lambda_length,
)
from .coords import (
    CoordinatePoint,
    LambdaAssignment,
    lambda_of_dual_arcs,
    shear_from_lambda,
)
from .flips import FlipRecord, flip_edge, flip_inner, flip_loop_adjacent, mutate_lambda, verify_flip_matrix_identities
from .forms import (
    CenterBasis,
    CoordinateIndexedMatrix,
    center_vectors,
    penner_form_matrix,
    poisson_bracket,
    poisson_matrix,
    verify_inverse,
    window_form_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Fraction",
    "LaurentPoly",
    "Mat2",
    "SqrtRational",
    "Edge",
    "FatGraph",
    "ValidationReport",
    "Window",
    "parse_graph",
    "validate",
    "GeodesicFunction",
    "MatrixWord",
    "PathWord",
    "compile_path",
    "evaluate",
    "geodesic_function",
    "lambda_length",
    "CoordinatePoint",
    "LambdaAssignment",
    "lambda_of_dual_arcs",
    "shear_from_lambda",
    "FlipRecord",
    "flip_edge",
    "flip_inner",
    "flip_loop_adjacent",
    "mutate_lambda",
    "verify_flip_matrix_identities",
    "CenterBasis",
    "CoordinateIndexedMatrix",
    "center_vectors",
    "penner_form_matrix",
    "poisson_bracket",
    "poisson_matrix",
    "verify_inverse",
    "window_form_matrix",
]
