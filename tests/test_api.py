import inspect

import torus_action

# The public surface: what the CLI, the README quick start, the acceptance
# suite and perfbench/worker.py call, the result types those calls return,
# and the reference helpers the unit tests compare against: 47 names.
PUBLIC_NAMES = {
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
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(torus_action)
        if not name.startswith("_") and not inspect.ismodule(getattr(torus_action, name))
    }
    assert exported == PUBLIC_NAMES


def test_all_is_the_pinned_names_and_holds_no_module():
    assert isinstance(torus_action.__all__, tuple)
    assert len(torus_action.__all__) == len(set(torus_action.__all__))
    assert set(torus_action.__all__) == PUBLIC_NAMES
    assert not [name for name in torus_action.__all__
                if inspect.ismodule(getattr(torus_action, name))]
