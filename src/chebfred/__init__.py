"""Spectral solver for integral equations with diagonally kinked kernels.

Second-kind Fredholm equations whose kernels are smooth on each side of the
diagonal t = s but jump or kink across it lose spectral convergence under
standard Nystrom discretizations.  This package restores it by pairing each
kernel branch with a one-sided Chebyshev integration matrix, entrywise.  It
also provides a multi-panel composite rule, baseline methods for comparison,
and an application to radial Schrodinger equations with nonlocal potentials.
"""

from .baselines import (
    BaselineSolution,
    MethodNotApplicableError,
    QuadratureRule,
    gauss_legendre_rule,
    nystrom_solve,
    trapezium_deferred_solve,
)
from .composite_solver import (
    BlockOperator,
    BlockSystem,
    Partition,
    assemble_blocks,
    build_partition,
    detect_toeplitz,
    solve_composite,
    solve_partitioned,
)
from .fredholm_solver import (
    ChebSolution,
    SingularMatrixError,
    dense_solve,
    discretize_semismooth,
    discretize_smooth,
    relative_sup_error,
    solve_fredholm,
    solve_system,
)
from .kernel_catalog import (
    BenchmarkProblem,
    CatalogError,
    KernelEvaluationError,
    NonlocalPotential,
    SchrodingerProblem,
    SemismoothKernel,
    catalog_lookup,
    catalog_names,
    residual_check,
)
from .schrodinger import (
    SchrodingerSystem,
    assemble,
    build_kernel_matrices,
    self_convergence,
    solve_schrodinger,
)
from .spectral_core import (
    ChebGrid,
    SpectralOperators,
    build_operators,
    cheb_grid,
    chebyshev_eval,
    chebyshev_nodes,
    cosine_matrix,
    inverse_cosine_matrix,
)

__version__ = "0.1.0"
