"""Numerical solution of complex polynomial systems by homotopy continuation.

Library + CLI covering zero-dimensional solving, Newton sharpening in
extended precision, parameter homotopies, numerical irreducible
decomposition via witness sets, membership testing, sampling, and
projective solving on a generic affine chart.
"""

from . import errors
from .algebra import Rng, condition_estimate, lin_solve, random_unit_complex
from .polysys import LinearSlice, Polynomial, PolySystem, affine_patch, random_slice
from .parser import ProblemSpec, parse_input_file, parse_polynomial
from .tracker import (
    Homotopy,
    PathResult,
    PathStatus,
    homotopy_eval,
    straight_line_homotopy,
    track_path,
    track_paths,
)
from .zerodim import (
    ExactComplex,
    SolutionPoint,
    StartData,
    dedupe,
    parameter_homotopy,
    refine_solutions,
    total_degree_start,
    zero_dim_solve,
)
from .witness import (
    NumericalVariety,
    WitnessSet,
    junk_removal,
    membership_test,
    monodromy_partition,
    move_slice,
    numerical_irreducible_decomposition,
    sample,
    trace_test,
    witness_superset,
)

__all__ = [
    "errors",
    "Rng",
    "condition_estimate",
    "lin_solve",
    "random_unit_complex",
    "LinearSlice",
    "Polynomial",
    "PolySystem",
    "affine_patch",
    "random_slice",
    "ProblemSpec",
    "parse_input_file",
    "parse_polynomial",
    "Homotopy",
    "PathResult",
    "PathStatus",
    "homotopy_eval",
    "straight_line_homotopy",
    "track_path",
    "track_paths",
    "ExactComplex",
    "SolutionPoint",
    "StartData",
    "dedupe",
    "parameter_homotopy",
    "refine_solutions",
    "total_degree_start",
    "zero_dim_solve",
    "NumericalVariety",
    "WitnessSet",
    "junk_removal",
    "membership_test",
    "monodromy_partition",
    "move_slice",
    "numerical_irreducible_decomposition",
    "sample",
    "trace_test",
    "witness_superset",
]

__version__ = "0.1.0"
