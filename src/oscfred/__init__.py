"""Solvers for second-kind Fredholm equations with oscillatory kernels.

The package discretizes y(s) - int_I K(s,t) e^{i*kappa*|s-t|} y(t) dt = f(s)
on I = [-1, 1] with spline Galerkin methods: the conventional method on a
plain B-spline space and the oscillation preserving method on the space
enriched with the carriers e^{+/- i*kappa*s}.  Assembly is closed-form for
polynomial data, so its cost does not grow with the wavenumber.

Modules
-------
bspline   knot vectors on I, B-spline bases, Gram matrices, grid error measure
oscquad   oscillatory quadrature: exact unit moments, reference rule
linalg    even/odd fold of symmetric systems from their leading rows, dense LU solve, exact 2-norm condition number
galerkin  trial spaces, per-mesh plans, assembly of E, K and the leading rows of E - K, solution evaluation,
          error metrics, quadrature oracles
problems  benchmark problem, manufactured solutions, oscillation experiment
cli       batch experiment runner (``oscfred`` command)
"""

from .bspline import (
    KnotVector,
    SplineSpace,
    gram_matrix,
    make_knots,
    make_uniform_knots,
    max_error_on_grid,
)
from .galerkin import (
    CGM_MULTIPLIERS,
    EN_GRID,
    OPGM_MULTIPLIERS,
    DiscreteSystem,
    OscKernel,
    StructuredFunction,
    TrialSpace,
    apply_kernel_structured,
    assemble_mass,
    assemble_operator,
    assemble_rhs,
    convergence_order,
    eval_solution,
    relative_error_eN,
)
from .linalg import (
    SingularMatrixError,
    cond2,
    lu_factor,
    lu_solve,
)
from .oscquad import (
    Polynomial,
    oscillatory_quad,
)
from .problems import (
    GalerkinRun,
    OscProbeFunction,
    Problem,
    manufactured,
    paper_benchmark,
    run_galerkin,
    table1_experiment,
)

__version__ = "0.1.0"
