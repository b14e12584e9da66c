"""Multi-periodic solutions of Poisson-gradient systems by action minimization.

The stationarity system laplacian(u) = grad F(t, u) on a period box is solved
by minimizing its action functional; certificates built from the averaged
potential decide solvability before any field iteration runs, and a dense
oracle cross-checks the minimizer on quadratic potentials.
"""

__version__ = "0.1.0"

from .certify import (
    Coercivity,
    MeanPotentialG,
    SolvabilityCertificate,
    Verdict,
    build_mean_potential,
    certify,
    coercivity_probe,
    find_stationary_mean,
    fluctuation_ratio,
    wirtinger_audit,
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
    ActionReport,
    DiffOperator,
    Scheme,
    action_gradient,
    action_value,
    dirichlet_form,
    l2_inner,
    l2_norm,
    laplacian,
    mean_decompose,
)
from .oracle import (
    DenseSystem,
    NotPositiveDefiniteError,
    assemble_quadratic_system,
    dense_solve,
)
from .potentials import (
    Potential,
    PotentialBundle,
    TrigPath,
    TrigTerm,
    check_gradient,
    check_path_resolvable,
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
    "PotentialBundle",
    "TrigPath",
    "TrigTerm",
    "check_gradient",
    "check_path_resolvable",
    "make_linear_drift",
    "make_log_sum_exp",
    "make_manufactured",
    "make_quadratic_form",
    "make_quadratic_shift",
    "potential_from_dict",
    # operators
    "ActionReport",
    "DiffOperator",
    "Scheme",
    "action_gradient",
    "action_value",
    "dirichlet_form",
    "l2_inner",
    "l2_norm",
    "laplacian",
    "mean_decompose",
    # minimize
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "default_init",
    "newton_krylov_refine",
    "solve",
    # certify
    "Coercivity",
    "MeanPotentialG",
    "SolvabilityCertificate",
    "Verdict",
    "build_mean_potential",
    "certify",
    "coercivity_probe",
    "find_stationary_mean",
    "fluctuation_ratio",
    "wirtinger_audit",
    "wirtinger_constant",
    # oracle
    "DenseSystem",
    "NotPositiveDefiniteError",
    "assemble_quadratic_system",
    "dense_solve",
)
