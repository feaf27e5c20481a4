"""Orthogonal projection onto spline spaces with arbitrary knots.

The package computes L2-orthogonal (least-squares) spline approximations
for arbitrary orders and knot sequences, and ships the experiment machinery
that certifies the quantitative behavior behind them: exponential decay of
the inverse Gram matrix, reproducing-kernel bounds, domination by the
Hardy-Littlewood maximal function, weak (1,1) constants, and convergence
under mesh refinement.
"""

from .analysis import (
    ConvergenceReport,
    DecayReport,
    DominationReport,
    InverseBoundConstants,
    KernelBoundReport,
    StabilityReport,
    WeakTypeReport,
    convergence_report,
    decay_report,
    domination_report,
    kernel_bound_report,
    lemma_constants,
    modulus_of_smoothness,
    stability_constant,
    weak_type_report,
)
from .bspline import eval_basis_many, eval_spline_many
from .errors import (
    DegenerateKernel,
    EmptyInterval,
    InvalidRatio,
    LengthMismatch,
    MultiplicityOutOfRange,
    NonFiniteKnots,
    NonIntegrableMarker,
    NonMonotoneBreaks,
    NotPositiveDefinite,
    OutOfDomain,
    QuadratureNonConvergence,
    RefinementFailure,
    SplineProjError,
    ZeroIntervals,
)
from .functions import TestFunction, default_probes, parse_function
from .gram import (
    GramMatrix,
    InverseGram,
    assemble_gram,
    invert_gram,
    scaled_gram,
    solve_banded,
)
from .knots import (
    KnotSequence,
    PartitionSpec,
    dyadic_ladder,
    generate_partition,
    make_knot_sequence,
)
from .projection import (
    Projection,
    galerkin_residual,
    kernel_constant_integral,
    kernel_values,
    moments,
    project,
    project_ladder,
)

__version__ = "0.1.0"
