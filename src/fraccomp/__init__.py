"""fraccomp: numerical machinery for linear and semilinear time-fractional
diffusion in one space dimension with Neumann/Robin boundary conditions,
plus a verification harness for positivity, comparison, monotone-iteration
and decay properties of the solutions."""

__version__ = "0.1.0"

from .compare import (
    BarrierPair,
    CheckResult,
    asymptotic_decay_check,
    barrier_bounds_e3,
    barrier_bounds_e4,
    check_ordering,
    check_positivity,
    coefficient_comparison,
    comparison_pair,
    example1_lower_bound,
    linear_monotone_sequence,
    monotone_iteration,
    verify_barrier,
)
from .elliptic import (
    EigenDecomposition,
    EllipticSpec,
    Grid1D,
    SpaceField,
    assemble,
    coercivity_form,
    eigendecompose,
    principal_eigenpair,
    solve_stationary,
)
from .evolve_linear import (
    Field,
    ProblemSpec,
    SolverError,
    solve_linear_l1,
    solve_linear_spectral,
    solve_linear_spectral_many,
)
from .evolve_semilinear import (
    SemilinearTerm,
    builtin_burgers,
    builtin_enzyme,
    solve_semilinear,
    solve_semilinear_many,
    solve_semilinear_stationary,
)
from .fracops import TimeGrid, TimeSeries, caputo_l1, extremum_check, rl_integral
from .special_ml import (
    MLQuery,
    MLResult,
    ml,
    ml_kernel,
    ml_kernel_integral,
    ml_relaxation,
    ml_value,
    relaxation_batch,
)
