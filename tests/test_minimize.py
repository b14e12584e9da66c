import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    DiffOperator,
    Field,
    Scheme,
    SolveStatus,
    SolverOptions,
    TorusGrid,
    TrigPath,
    TrigTerm,
    integrate,
    make_linear_drift,
    make_log_sum_exp,
    make_manufactured,
    make_quadratic_form,
    make_quadratic_shift,
    newton_krylov_refine,
    solve,
)

TWO_PI = 2.0 * np.pi


def shift_problem(N=16):
    g = TorusGrid((TWO_PI,), (N,))
    shift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (0.8,)),))
    return g, make_quadratic_shift(1, shift)


def manufactured_problem(N=32):
    g = TorusGrid((TWO_PI, TWO_PI), (N, N))
    target = TrigPath(
        (TWO_PI, TWO_PI),
        2,
        (
            TrigTerm("sin", (1, 0), (1.0, 0.0)),
            TrigTerm("cos", (1, 2), (0.0, 0.5)),
        ),
    )
    pot, exact = make_manufactured(g, 2, target)
    return g, pot, exact


def drift_problem():
    g = TorusGrid((TWO_PI,), (16,))
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    return g, make_linear_drift(1, drift)


# ---------------------------------------------------------------------------
# convergence on convex problems
# ---------------------------------------------------------------------------

def test_preconditioned_lbfgs_solves_identity_quadratic_in_one_step():
    # the H1 preconditioner is the exact inverse Hessian here, so the very
    # first line search lands on the minimizer
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations == 1
    assert res.residual_inf < 1e-12


def test_manufactured_solution_recovered_spectrally():
    g, pot, exact = manufactured_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.CONVERGED
    err = np.max(np.abs(res.u.values - exact.values))
    assert err < 1e-12


def test_all_methods_converge_on_quadratic():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.FD2)
    for method in ("gradient_descent", "nonlinear_cg", "lbfgs"):
        opts = SolverOptions(method=method, max_iters=2000)
        res = solve(g, pot, op, opts)
        assert res.status is SolveStatus.CONVERGED, method
        assert res.residual_inf < 1e-6


def test_unpreconditioned_descent_also_converges():
    g, pot = shift_problem(N=8)
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(method="gradient_descent", precondition_h1=False,
                         max_iters=5000)
    res = solve(g, pot, op, opts)
    assert res.status is SolveStatus.CONVERGED


def test_log_sum_exp_converges():
    g = TorusGrid((TWO_PI,), (16,))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [
        TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (c,)),))
        for c in (0.5, -0.3, 0.2)
    ]
    pot = make_log_sum_exp(S, offs)
    # line-searched descent bottoms out near sqrt(eps) on an O(1) action,
    # so ask for 1e-7 here; the refine tests below push further
    opts = SolverOptions(max_iters=2000, tol_grad_inf=1e-7,
                         tol_residual_inf=1e-7)
    res = solve(g, pot, op=DiffOperator(g, Scheme.SPECTRAL), opts=opts)
    assert res.status is SolveStatus.CONVERGED
    assert res.residual_inf < 1e-7


def test_solution_satisfies_mean_equation():
    # at a minimizer the box integral of grad F along the solution vanishes
    g, pot, _ = manufactured_problem(N=16)
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    gvals = pot.gradient(g.coords(), res.u.values)
    for comp in range(2):
        assert abs(integrate(g, gvals[..., comp])) < 1e-8 * g.volume


# ---------------------------------------------------------------------------
# trace and divergence
# ---------------------------------------------------------------------------

def test_trace_records_monotone_action():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(method="gradient_descent", precondition_h1=False,
                         max_iters=500)
    res = solve(g, pot, op, opts)
    trace = res.trace
    assert trace.shape[1] == 4  # action, grad_inf, mean_norm, fluctuation_h1
    assert trace.shape[0] == res.iterations + 1
    actions = trace[:, 0]
    assert np.all(np.diff(actions) <= 1e-12)


def test_drift_without_mean_zero_diverges():
    # constant forcing has no stationary mean; the iterates run away along
    # the mean direction while the fluctuation stays bounded
    g, pot = drift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.DIVERGED_NON_COERCIVE
    assert res.iterations <= 60
    assert np.abs(res.mean[0]) >= 1e5
    # the runaway is along the mean: the fluctuation trails it by orders
    # of magnitude
    assert res.fluctuation_h1_norm < 1e-2 * np.abs(res.mean[0])


def test_mean_zero_drift_is_solvable():
    # cos forcing integrates to zero over the box, so the problem is solvable
    g = TorusGrid((TWO_PI,), (16,))
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-7,
                                          tol_residual_inf=1e-7))
    assert res.status is SolveStatus.CONVERGED
    refined = newton_krylov_refine(res, pot, op, tol=1e-12)
    assert refined.status is SolveStatus.CONVERGED
    # lap u = cos t is solved by u = -cos t up to an additive constant
    t = g.axis_coords(0)
    centered = refined.u.values[:, 0] - refined.u.values[:, 0].mean()
    assert_allclose(centered, -np.cos(t), atol=1e-10)


def test_max_iters_status():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(method="gradient_descent", precondition_h1=False,
                         max_iters=2, tol_grad_inf=1e-14,
                         tol_residual_inf=1e-14)
    res = solve(g, pot, op, opts)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.iterations == 2


# ---------------------------------------------------------------------------
# determinism and options
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_bitwise():
    g, pot, _ = manufactured_problem(N=16)
    op = DiffOperator(g, Scheme.SPECTRAL)
    r1 = solve(g, pot, op, SolverOptions(seed=7))
    r2 = solve(g, pot, op, SolverOptions(seed=7))
    assert np.array_equal(r1.u.values, r2.u.values)
    assert np.array_equal(r1.trace, r2.trace)


def test_custom_init_is_respected():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    init = Field.constant(g, [5.0])
    res = solve(g, pot, op, init=init)
    assert res.status is SolveStatus.CONVERGED
    assert res.seed == 0


def test_options_validation():
    with pytest.raises(ValueError, match="method"):
        SolverOptions(method="newton")
    with pytest.raises(ValueError, match="backtrack_factor"):
        SolverOptions(backtrack_factor=1.5)
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=0)


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_options_reject_bad_init_noise(value):
    with pytest.raises(ValueError, match="init_noise"):
        SolverOptions(init_noise=value)


def test_options_reject_negative_max_backtracks():
    with pytest.raises(ValueError, match="max_backtracks"):
        SolverOptions(max_backtracks=-1)
    assert SolverOptions(max_backtracks=0, init_noise=0.0).max_backtracks == 0


# ---------------------------------------------------------------------------
# Newton-Krylov refinement
# ---------------------------------------------------------------------------

def test_refine_drives_residual_to_machine_precision():
    g = TorusGrid((TWO_PI,), (16,))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [
        TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (c,)),))
        for c in (0.5, -0.3, 0.2)
    ]
    pot = make_log_sum_exp(S, offs)
    op = DiffOperator(g, Scheme.SPECTRAL)
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4,
                                             tol_residual_inf=1e-4))
    refined = newton_krylov_refine(coarse, pot, op, tol=1e-12)
    assert refined.status is SolveStatus.CONVERGED
    assert refined.residual_inf < 1e-12
    assert refined.residual_inf <= coarse.residual_inf


def test_refine_quadratic_in_one_newton_step():
    # Newton on a quadratic problem is exact after a single step even from
    # a sloppy starting point
    g, pot, exact = manufactured_problem(N=16)
    op = DiffOperator(g, Scheme.SPECTRAL)
    rough = solve(g, pot, op, SolverOptions(method="gradient_descent",
                                            precondition_h1=False,
                                            max_iters=50,
                                            tol_grad_inf=1e-14,
                                            tol_residual_inf=1e-14))
    assert rough.status is SolveStatus.MAX_ITERS
    refined = newton_krylov_refine(rough, pot, op, tol=1e-10)
    assert refined.status is SolveStatus.CONVERGED
    assert np.max(np.abs(refined.u.values - exact.values)) < 1e-9


def test_refine_builds_the_hessian_once_per_newton_step():
    from dataclasses import replace

    g = TorusGrid((TWO_PI,), (16,))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [
        TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (c,)),))
        for c in (0.5, -0.3, 0.2)
    ]
    pot = make_log_sum_exp(S, offs)
    calls = []

    def counted(t, x):
        calls.append(1)
        return pot.hessian(t, x)

    counting = replace(pot, hessian=counted)
    op = DiffOperator(g, Scheme.SPECTRAL)
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4,
                                             tol_residual_inf=1e-4))
    refined = newton_krylov_refine(coarse, counting, op, tol=1e-12)
    steps = refined.iterations - coarse.iterations
    assert refined.status is SolveStatus.CONVERGED
    assert steps >= 2
    assert len(calls) == steps


def test_refine_leaves_trace_untouched():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4,
                                          tol_residual_inf=1e-4))
    refined = newton_krylov_refine(res, pot, op)
    assert np.array_equal(refined.trace, res.trace)


def test_refine_requires_hessian():
    g, pot = drift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    from dataclasses import replace
    no_hess = replace(pot, hessian=None, kind="drift_no_hess")
    base = solve(g, make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1)), op)
    with pytest.raises(ValueError, match="drift_no_hess"):
        newton_krylov_refine(base, no_hess, op)


def test_refine_rejects_diverged_input():
    g, pot = drift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.DIVERGED_NON_COERCIVE
    with pytest.raises(ValueError, match="diverged"):
        newton_krylov_refine(res, pot, op)


# ---------------------------------------------------------------------------
# quadratic form with anisotropic matrix
# ---------------------------------------------------------------------------

def test_anisotropic_quadratic_form_converges():
    g = TorusGrid((TWO_PI,), (16,))
    A = np.array([[3.0, 0.4], [0.4, 1.0]])
    drift = TrigPath(
        (TWO_PI,), 2,
        (TrigTerm("sin", (1,), (0.7, 0.0)), TrigTerm("cos", (2,), (0.0, 0.2))),
    )
    pot = make_quadratic_form(A, drift)
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        op = DiffOperator(g, scheme)
        res = solve(g, pot, op, SolverOptions(max_iters=500))
        assert res.status is SolveStatus.CONVERGED, scheme
        assert res.residual_inf < 1e-6
