"""Multi-periodic solutions of Poisson-gradient systems by action minimization.

The stationarity system laplacian(u) = grad F(t, u) on a period box is solved
by minimizing its action functional; certificates built from the averaged
potential decide solvability before any field iteration runs, and a dense
oracle cross-checks the minimizer on quadratic potentials.
"""

__version__ = "0.1.0"

from .certify import (
    Coercivity,
    SolvabilityCertificate,
    Verdict,
    build_mean_potential,
    certify,
    coercivity_probe,
    find_stationary_mean,
    fluctuation_ratio,
    wirtinger_constant,
)
from .grid import Field, TorusGrid, build_grid, integrate
from .minimize import (
    SolveResult,
    SolveStatus,
    SolverOptions,
    default_init,
    newton_krylov_refine,
    solve,
)
from .operators import (
    DiffOperator,
    Scheme,
    action_gradient,
    action_value,
    l2_inner,
    laplacian,
)
from .oracle import (
    NotPositiveDefiniteError,
    assemble_quadratic_system,
    dense_solve,
)
from .potentials import (
    Potential,
    TrigPath,
    TrigTerm,
    make_linear_drift,
    make_log_sum_exp,
    make_manufactured,
    make_quadratic_form,
    make_quadratic_shift,
    potential_from_dict,
)

__all__ = (
    # grid
    "Field",
    "TorusGrid",
    "build_grid",
    "integrate",
    # potentials
    "Potential",
    "TrigPath",
    "TrigTerm",
    "make_linear_drift",
    "make_log_sum_exp",
    "make_manufactured",
    "make_quadratic_form",
    "make_quadratic_shift",
    "potential_from_dict",
    # operators
    "DiffOperator",
    "Scheme",
    "action_gradient",
    "action_value",
    "l2_inner",
    "laplacian",
    # minimize
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "default_init",
    "newton_krylov_refine",
    "solve",
    # certify
    "Coercivity",
    "SolvabilityCertificate",
    "Verdict",
    "build_mean_potential",
    "certify",
    "coercivity_probe",
    "find_stationary_mean",
    "fluctuation_ratio",
    "wirtinger_constant",
    # oracle
    "NotPositiveDefiniteError",
    "assemble_quadratic_system",
    "dense_solve",
)
