import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import torus_action.minimize as minimize_module
from torus_action import (
    DiffOperator,
    Field,
    Scheme,
    SolveStatus,
    SolverOptions,
    TorusGrid,
    TrigPath,
    TrigTerm,
    Verdict,
    action_gradient,
    action_value,
    assemble_quadratic_system,
    certify,
    dense_solve,
    integrate,
    l2_inner,
    make_linear_drift,
    make_log_sum_exp,
    make_manufactured,
    make_quadratic_form,
    make_quadratic_shift,
    newton_krylov_refine,
    potential_from_dict,
    solve,
)
from conftest import with_evaluations
from torus_action.operators import dirichlet_form, l2_norm, mean_decompose

TWO_PI = 2.0 * np.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def rotated_quadratic_form(g):
    """F = <A x, x> / 2 + <g(t), x> with A rotated off the axes, 20:1."""
    periods = g.periods
    drift = TrigPath(periods, 2, (
        TrigTerm("cos", (0,) * g.p, (0.3, -0.2)),
        TrigTerm("sin", (1,) * g.p, (0.5, 0.1)),
    ))
    return make_quadratic_form(rotated_spd(0.4, (1.0, 0.05)), drift)


def mean_zero_drift(g):
    """F = <a(t), x> with the mean-zero wave of rotated_quadratic_form's drift.

    Its Hessian is zero, so solve preconditions by the H1 smoother
    1 / (1 + lambda_k) alone, and the action is quadratic.
    """
    return make_linear_drift(2, TrigPath(g.periods, 2, (TrigTerm("sin", (1,) * g.p, (0.5, 0.1)),)))


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_lbfgs_converges_on_a_quadratic_with_or_without_a_hessian(scheme):
    # a quadratic form's Hessian A makes the preconditioner exact: one
    # iteration.  A zero Hessian leaves the H1 smoother alone, which does not
    # invert the Laplacian: many iterations instead of one
    g = TorusGrid((TWO_PI,), (16,))
    pot = rotated_quadratic_form(g)
    op = DiffOperator(g, scheme)
    fitted = solve(g, pot, op)
    smoothed = solve(g, mean_zero_drift(g), op, SolverOptions(max_iters=2000))
    for res in (fitted, smoothed):
        assert res.status is SolveStatus.CONVERGED
        assert res.residual_inf < 1e-8
    assert fitted.iterations == 1
    assert smoothed.iterations > 5


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
    opts = SolverOptions(max_iters=2000, tol_grad_inf=1e-7)
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
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(max_iters=500))
    assert res.iterations > 5
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
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-7))
    assert res.status is SolveStatus.CONVERGED
    refined = newton_krylov_refine(res, pot, op, tol=1e-12)
    assert refined.status is SolveStatus.CONVERGED
    # lap u = cos t is solved by u = -cos t up to an additive constant
    t = g.axis_coords(0)
    centered = refined.u.values[:, 0] - refined.u.values[:, 0].mean()
    assert_allclose(centered, -np.cos(t), atol=1e-10)


def test_max_iters_status():
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(max_iters=2, tol_grad_inf=1e-14)
    res = solve(g, pot, op, opts)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.iterations == 2


def nan_where(fn, mask):
    """fn with its value replaced by NaN at the points x where mask(x) holds."""
    def wrapped(t, x):
        out = np.array(fn(t, x), dtype=float)
        out[mask(np.asarray(x))[..., 0]] = np.nan
        return out

    return wrapped


def test_gradient_that_turns_nan_after_a_step_is_refused():
    # the first step lands near the shift 1 + 0.3 cos t, where the gradient
    # is NaN; the run must not end as converged with a NaN residual
    g = TorusGrid((TWO_PI,), (16,))
    shift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),
                                     TrigTerm("cos", (1,), (0.3,))))
    pot = make_quadratic_shift(1, shift)
    pot = with_evaluations(pot, gradient=nan_where(pot.gradient, lambda x: x > 0.5))
    op = DiffOperator(g, Scheme.SPECTRAL)
    with pytest.raises(ValueError, match="^action gradient is not finite at iteration 1$"):
        solve(g, pot, op)


@pytest.mark.parametrize("attr, message", [
    ("value", "^action is not finite at the initial field$"),
    ("gradient", "^action gradient is not finite at iteration 0$"),
], ids=["value", "gradient"])
def test_initial_field_with_a_non_finite_action_or_gradient_is_refused(attr, message):
    g, pot = shift_problem()
    pot = with_evaluations(pot, **{attr: nan_where(getattr(pot, attr), lambda x: x == x)})
    with pytest.raises(ValueError, match=message):
        solve(g, pot, DiffOperator(g, Scheme.SPECTRAL))


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
    # the first trace row is taken at the given field, whose mean is 5
    assert res.trace[0, minimize_module.TRACE_COLUMNS.index("mean_norm")] == pytest.approx(5.0, rel=1e-12)


def test_custom_init_is_checked_by_the_shared_field_rules():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    with pytest.raises(ValueError, match="^field and operator live on different grids$"):
        solve(g, pot, op, init=Field.zeros(TorusGrid((TWO_PI,), (8,)), 1))
    with pytest.raises(ValueError, match="^potential has n=1, field has n=2$"):
        solve(g, pot, op, init=Field.zeros(g, 2))


def test_options_validation():
    with pytest.raises(TypeError, match="precondition_h1"):
        SolverOptions(precondition_h1=False)
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=0)


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
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4))
    refined = newton_krylov_refine(coarse, pot, op, tol=1e-12)
    assert refined.status is SolveStatus.CONVERGED
    assert refined.residual_inf < 1e-12
    assert refined.residual_inf <= coarse.residual_inf


def test_refine_quadratic_in_one_newton_step():
    # Newton on a quadratic problem is exact after a single step even from
    # a sloppy starting point: here three iterations on a drift, preconditioned
    # by the H1 smoother alone, which does not see A
    g = TorusGrid((TWO_PI, TWO_PI), (16, 16))
    pot = rotated_quadratic_form(g)
    op = DiffOperator(g, Scheme.SPECTRAL)
    rough = solve(g, mean_zero_drift(g), op, SolverOptions(max_iters=3))
    assert rough.status is SolveStatus.MAX_ITERS
    refined = newton_krylov_refine(rough, pot, op, tol=1e-10)
    assert refined.status is SolveStatus.CONVERGED
    assert refined.iterations == rough.iterations + 1
    # grad F(t, 0) = g(t)
    drift = Field.from_function(g, 2, lambda t: pot.gradient(t, np.zeros(t.shape[:-1] + (2,))))
    exact = dense_solve(assemble_quadratic_system(g, op, rotated_spd(0.4, (1.0, 0.05)), drift))
    assert np.max(np.abs(refined.u.values - exact.values)) < 1e-9


def test_refine_builds_the_hessian_once_per_newton_step():
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

    counting = with_evaluations(pot, hessian=counted)
    op = DiffOperator(g, Scheme.SPECTRAL)
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4))
    refined = newton_krylov_refine(coarse, counting, op, tol=1e-12)
    steps = refined.iterations - coarse.iterations
    assert refined.status is SolveStatus.CONVERGED
    assert steps >= 2
    assert len(calls) == steps


def test_refine_leaves_trace_untouched():
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4))
    refined = newton_krylov_refine(res, pot, op)
    assert np.array_equal(refined.trace, res.trace)


def test_a_line_search_that_finds_no_decrease_stops_and_says_so():
    # a gradient 1e6 times too large promises a decrease that no step along
    # the ray delivers, so every one of the halvings is rejected
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    steep = with_evaluations(pot, gradient=lambda t, x: 1e6 * pot.gradient(t, x))
    res = solve(g, steep, op)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.line_search_failed
    assert res.iterations == 0
    assert res.message.startswith("line search failed after 60 halvings")


def test_refine_stops_where_cg_meets_non_positive_curvature():
    # with the Hessian negated, -laplacian + hess F is -1 on the mean, so CG
    # meets negative curvature at its first step on a shifted mean
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.CONVERGED
    u = res.u + Field.constant(g, [1e-3])
    residual = float(np.abs(action_gradient(u, pot, op).values).max())
    perturbed = replace(res, u=u, residual_inf=residual)
    concave = with_evaluations(pot, hessian=lambda t, x: -pot.hessian(t, x))
    refined = newton_krylov_refine(perturbed, concave, op)
    assert refined.status is SolveStatus.MAX_ITERS
    assert refined.iterations == res.iterations
    assert refined.message == "newton refinement stopped: CG met non-positive curvature"


@pytest.mark.parametrize("scheme, steps", [(Scheme.SPECTRAL, 15), (Scheme.FD2, 5)])
def test_refine_stops_where_damping_finds_no_residual_decrease(scheme, steps):
    # a Hessian 1e6 times too small makes Newton steps 1e6 times too long;
    # damping recovers for a while, until the residual stalls short of tol
    g, pot = lse_problem()
    op = DiffOperator(g, scheme)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-3))
    assert res.status is SolveStatus.CONVERGED and res.message == ""
    flat = with_evaluations(pot, hessian=lambda t, x: 1e-6 * pot.hessian(t, x))
    refined = newton_krylov_refine(res, flat, op, tol=1e-12)
    assert refined.status is SolveStatus.MAX_ITERS
    assert refined.iterations == res.iterations + steps
    assert refined.message == (
        "newton refinement stopped: damping found no residual decrease; "
        f"newton refinement: {steps} step(s)"
    )
    assert refined.residual_inf < res.residual_inf


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


# ---------------------------------------------------------------------------
# spectrum-resident descent: returned values, call counts, transform budget
# ---------------------------------------------------------------------------

def lse_problem():
    # unequal axes, so a mix-up between the halved and the full axes shows
    periods = (TWO_PI, 4.0)
    g = TorusGrid(periods, (16, 8))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [
        TrigPath(periods, 1, (TrigTerm(trig, freq, (c,)),))
        for trig, freq, c in (("cos", (1, 0), 0.5), ("sin", (0, 1), -0.3),
                              ("cos", (1, 1), 0.2))
    ]
    return g, make_log_sum_exp(S, offs)


def real(counts):
    return counts["rfft"] + counts["irfft"]


def counting(pot, attr, calls):
    fn = getattr(pot, attr)

    def counted(t, x):
        calls.append(1)
        return fn(t, x)

    return with_evaluations(pot, **{attr: counted})


@pytest.mark.parametrize("fitted", [True, False])
@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_result_matches_fresh_evaluation_of_the_returned_field(scheme, fitted):
    # solve carries the iterate's spectrum, action and grad F instead of
    # recomputing them; what it reports must still describe the field it
    # returns, under a fitted preconditioner or the H1 smoother alone
    g, pot = lse_problem()
    if not fitted:
        pot = mean_zero_drift(g)
    op = DiffOperator(g, scheme)
    res = solve(g, pot, op, SolverOptions(max_iters=60))
    assert res.iterations > 1
    u = res.u
    kinetic = 0.5 * dirichlet_form(u, u, op)
    grad = action_gradient(u, pot, op)
    grad_inf = np.abs(grad.values).max()
    mean, fluct = mean_decompose(u)
    assert_allclose(
        [res.action.kinetic, res.action.potential_part, res.action.total,
         res.action.grad_inf_norm, res.residual_inf, res.residual_l2],
        [kinetic, integrate(g, pot.value(g.coords(), u.values)), action_value(u, pot, op),
         grad_inf, grad_inf, l2_norm(grad)],
        rtol=1e-12, atol=0.0,
    )
    assert_allclose(res.mean, mean, rtol=1e-12, atol=0.0)
    fluct_h1 = np.sqrt(l2_inner(fluct, fluct) + dirichlet_form(fluct, fluct, op))
    assert_allclose(res.fluctuation_h1_norm, fluct_h1, rtol=1e-12, atol=0.0)
    assert res.trace[-1, 0] == res.action.total


def test_solve_evaluates_grad_f_once_per_iteration_and_once_at_the_start():
    g, pot = lse_problem()
    calls = []
    res = solve(g, counting(pot, "gradient", calls), DiffOperator(g, Scheme.SPECTRAL),
                SolverOptions(tol_grad_inf=1e-6))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations >= 3
    assert len(calls) == res.iterations + 1


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_lbfgs_solve_stays_within_four_transforms_per_iteration(count_transforms, scheme):
    g, pot = lse_problem()
    op = DiffOperator(g, scheme)
    counts = count_transforms()
    res = solve(g, pot, op)
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations >= 5
    assert counts["complex"] == 0
    assert real(counts) <= 4 * res.iterations + 6


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("end", ["converged", "capped", "diverged"])
def test_solve_makes_three_transforms_per_iteration_plus_four(count_transforms, end, scheme):
    # an iteration transforms d-hat, grad F and lambda u-hat, but the last
    # one skips grad F however the run ends: only a next direction reads its
    # spectrum.  The start transforms u and lambda u-hat, and so does the end.
    counts = count_transforms()
    if end == "capped":
        g, pot = lse_problem()
        op = DiffOperator(g, scheme)
        for max_iters in (1, 3, 5):
            before = real(counts)
            res = solve(g, pot, op, SolverOptions(max_iters=max_iters))
            assert (res.status, res.iterations) == (SolveStatus.MAX_ITERS, max_iters)
            assert real(counts) - before == 3 * max_iters + 4
        return
    if end == "diverged":
        g, pot = drift_problem()
        res = solve(g, pot, DiffOperator(g, scheme))
        assert res.status is SolveStatus.DIVERGED_NON_COERCIVE
        assert res.iterations >= 2
        assert real(counts) == 3 * res.iterations + 4
        return
    g, pot = lse_problem()
    op = DiffOperator(g, scheme)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations >= 5
    assert real(counts) == 3 * res.iterations + 4

    g, pot = shift_problem()
    op = DiffOperator(g, scheme)
    before = real(counts)
    res = solve(g, pot, op)
    assert (res.status, res.iterations, real(counts) - before) == (SolveStatus.CONVERGED, 1, 7)
    # an initial field that already meets the tolerance takes no iteration,
    # and its first measurement is its result's
    before = real(counts)
    again = solve(g, pot, op, init=res.u)
    assert (again.status, again.iterations, real(counts) - before) == (
        SolveStatus.CONVERGED, 0, 2)


def test_extra_line_search_trials_cost_no_transform(count_transforms):
    periods = (TWO_PI, TWO_PI)
    g = TorusGrid(periods, (16, 16))
    drift = TrigPath(periods, 2, (TrigTerm("sin", (1, 0), (1.0, 0.0)),
                                  TrigTerm("cos", (1, 2), (0.0, 0.5))))
    quadratic = make_quadratic_form(8.0 * np.eye(2), drift)
    # log-sum-exp over +-e_i, started where e^x1 and e^x2 dominate: H-bar is
    # about 0.005 along (1, 1), far below the curvature along the step
    lse = make_log_sum_exp(np.vstack([np.eye(2), -np.eye(2)]), [TrigPath.zero(periods, 1)] * 4)
    op = DiffOperator(g, Scheme.SPECTRAL)
    counts = count_transforms()
    seen = {}
    for exact, pot, init in ((True, quadratic, None), (False, lse, Field.constant(g, [3.0, 3.0]))):
        values = []
        before = real(counts)
        res = solve(g, counting(pot, "value", values), op,
                    SolverOptions(max_iters=1, tol_grad_inf=0.0), init=init)
        assert res.iterations == 1
        seen[exact] = (len(values) - 1, real(counts) - before)
    # (lambda_k + 8)^-1 inverts the quadratic's Hessian exactly, so the first
    # trial is taken; the log-sum-exp's unit step overshoots by far, and is
    # halved repeatedly
    assert seen[True][0] == 1
    assert seen[False][0] >= 3
    assert seen[False][1] == seen[True][1]
    assert counts["complex"] == 0


def test_refine_spends_two_transforms_per_cg_iteration(monkeypatch, count_transforms):
    g = TorusGrid((TWO_PI,), (16,))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [
        TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (c,)),))
        for c in (0.5, -0.3, 0.2)
    ]
    pot = make_log_sum_exp(S, offs)
    op = DiffOperator(g, Scheme.SPECTRAL)
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-4))

    applications = []
    pcg = minimize_module._pcg

    def counting_pcg(apply_j, *args, **kwargs):
        def counted(v):
            applications.append(1)
            return apply_j(v)

        return pcg(counted, *args, **kwargs)

    monkeypatch.setattr(minimize_module, "_pcg", counting_pcg)
    grads = []
    counts = count_transforms()
    refined = newton_krylov_refine(coarse, counting(pot, "gradient", grads), op, tol=1e-12)
    steps = refined.iterations - coarse.iterations
    assert refined.status is SolveStatus.CONVERGED
    assert steps >= 2
    assert len(applications) > steps
    assert counts["complex"] == 0
    # two per CG iteration, two per Newton step (the gradient's spectrum and
    # the step's samples) and two per residual evaluation, one per grad F call
    assert real(counts) == 2 * len(applications) + 2 * steps + 2 * len(grads)


# ---------------------------------------------------------------------------
# line search at the rounding floor of the action
# ---------------------------------------------------------------------------

def test_lse_cube_converges_instead_of_stalling_at_the_rounding_floor():
    # log-sum-exp over +-e_i on a 16^3 box of side 2 pi: the action is about
    # 444 while the last steps lower it by less than its rounding error, so
    # only the slope along the ray can tell a good step from an overshoot
    periods = (TWO_PI,) * 3
    g = TorusGrid(periods, (16,) * 3)
    S = np.vstack([np.eye(3), -np.eye(3)])
    pot = make_log_sum_exp(S, [TrigPath.zero(periods, 1)] * 6)
    res = solve(g, pot, DiffOperator(g, Scheme.SPECTRAL), SolverOptions(max_iters=200))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= 30
    assert res.residual_inf <= 1e-8


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_translated_quadratic_problems_all_converge_to_tight_tolerance(scheme):
    # one problem moved by each whole-node translation along the first axis:
    # only the rounding differs, and none may stall short of 1e-10
    periods = (TWO_PI, TWO_PI)
    g = TorusGrid(periods, (32, 32))
    c, s = np.cos(0.2), np.sin(0.2)
    A = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 0.5]) @ np.array([[c, s], [-s, c]])
    op = DiffOperator(g, scheme)
    iterations = []
    for k in range(32):
        phase = TWO_PI * k / 32
        drift = TrigPath(periods, 2, (
            TrigTerm("cos", (0, 0), (0.06, 0.03)),
            TrigTerm("cos", (1, 2), (0.3 * np.cos(phase), 0.09 * np.cos(phase))),
            TrigTerm("sin", (1, 2), (-0.3 * np.sin(phase), -0.09 * np.sin(phase))),
            TrigTerm("sin", (3, 1), (0.06, -0.12)),
        ))
        res = solve(g, make_quadratic_form(A, drift), op,
                    SolverOptions(tol_grad_inf=1e-10, max_iters=200))
        assert res.status is SolveStatus.CONVERGED, k
        iterations.append(res.iterations)
    assert max(iterations) <= 30


def test_lbfgs_at_the_rounding_floor_steps_to_the_ray_minimum():
    # On this log-sum-exp problem the curvature falls along the search rays.
    # Near the minimizer the action ties to rounding, and the first trial,
    # twice the last step, sits near the mirror point 2 alpha* of the ray's
    # minimum.  A slope test with the 1e-4 Armijo constant takes it there,
    # and the run needs 30 iterations for every seed instead of 22 or 23.
    periods = (10.0, 10.0)
    g = TorusGrid(periods, (16, 16))

    def path(trig, freq, c):
        return TrigPath(periods, 1, (TrigTerm(trig, freq, (c,)),))

    offs = [path("sin", (0, 2), -3.0), path("cos", (0, 1), -2.0),
            path("cos", (1, 2), 2.0), path("sin", (2, 2), -0.5)]
    S = np.array([[3.0, 0.0], [0.0, 1.0], [-0.5, 0.0], [0.0, -3.0]])
    pot = make_log_sum_exp(S, offs)
    op = DiffOperator(g, Scheme.FD2)
    for seed in (0, 1):
        res = solve(g, pot, op, SolverOptions(seed=seed, max_iters=25))
        assert res.status is SolveStatus.CONVERGED, seed


# ---------------------------------------------------------------------------
# the preconditioner fitted to the potential, (lambda_k I + H-bar)^-1
# ---------------------------------------------------------------------------

def rotated_spd(theta, eigs):
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(eigs) @ R.T


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_rotated_anisotropic_quadratic_form_converges_in_one_iteration(scheme):
    # H-bar = A, so the preconditioner inverts the action's Hessian and the
    # first unit step lands on the minimizer despite the 100:1 anisotropy
    periods = (TWO_PI, TWO_PI)
    g = TorusGrid(periods, (16, 16))
    drift = TrigPath(periods, 2, (
        TrigTerm("cos", (0, 0), (0.3, -0.2)),
        TrigTerm("cos", (1, 2), (0.5, 0.1)),
        TrigTerm("sin", (3, 1), (0.0, 0.4)),
    ))
    pot = make_quadratic_form(rotated_spd(np.pi / 6, (1.0, 0.01)), drift)
    res = solve(g, pot, DiffOperator(g, scheme), SolverOptions(tol_grad_inf=1e-10))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations == 1
    assert res.residual_inf <= 1e-10


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_refine_on_a_quadratic_spends_at_most_one_cg_iteration_per_newton_step(
        monkeypatch, scheme):
    g = TorusGrid((TWO_PI, 3.0), (16, 8))
    pot = rotated_quadratic_form(g)
    op = DiffOperator(g, scheme)
    rough = solve(g, mean_zero_drift(g), op, SolverOptions(max_iters=3))
    assert rough.status is SolveStatus.MAX_ITERS

    applications = []
    pcg = minimize_module._pcg

    def counting_pcg(apply_j, *args, **kwargs):
        def counted(v):
            applications.append(1)
            return apply_j(v)

        return pcg(counted, *args, **kwargs)

    monkeypatch.setattr(minimize_module, "_pcg", counting_pcg)
    refined = newton_krylov_refine(rough, pot, op, tol=1e-12)
    steps = refined.iterations - rough.iterations
    assert refined.status is SolveStatus.CONVERGED
    assert steps >= 1
    assert len(applications) <= steps


@pytest.mark.parametrize("p, scheme, drift_terms, iterations", [
    (1, Scheme.SPECTRAL, (("cos", (0,), (1.0,)), ("sin", (1,), (0.5,))), 6),
    (2, Scheme.FD2, (("cos", (0, 0), (0.5, -0.5)), ("cos", (1, 0), (1.0, 0.0))), 7),
])
def test_drift_divergence_diagnosis_keeps_its_iteration_count(p, scheme, drift_terms,
                                                              iterations):
    # a drift has H-bar = 0: every direction is singular, so the run is
    # preconditioned by the H1 smoother 1 / (1 + lambda_k) bit for bit (see
    # the preconditioner test below)
    periods = (TWO_PI,) * p
    g = TorusGrid(periods, (16,) * p)
    n = len(drift_terms[0][2])
    drift = TrigPath(periods, n, tuple(TrigTerm(*term) for term in drift_terms))
    pot = make_linear_drift(n, drift)
    op = DiffOperator(g, scheme)
    res = solve(g, pot, op)
    assert res.status is SolveStatus.DIVERGED_NON_COERCIVE
    assert res.iterations == iterations


def fd2_drift():
    """The fd2 drift of the pinned cases above, with its grid and operator."""
    g = TorusGrid((TWO_PI, TWO_PI), (16, 16))
    drift = TrigPath((TWO_PI, TWO_PI), 2, (TrigTerm("cos", (0, 0), (0.5, -0.5)),
                                           TrigTerm("cos", (1, 0), (1.0, 0.0))))
    return g, make_linear_drift(2, drift), DiffOperator(g, Scheme.FD2)


def lse_not_solvable():
    """The potential of configs/certify_lse_not_solvable.json, with its grid and operator."""
    config = json.loads((CONFIGS / "certify_lse_not_solvable.json").read_text())
    g = TorusGrid(config["grid"]["periods"], config["grid"]["resolutions"])
    pot = potential_from_dict(config["potential"], g).potential
    return g, pot, DiffOperator(g, Scheme(config["scheme"]))


@pytest.mark.parametrize("problem", [fd2_drift, lse_not_solvable], ids=["drift", "lse"])
def test_escape_ray_ends_the_run_where_the_mean_passes_the_threshold(problem):
    g, pot, op = problem()
    res = solve(g, pot, op)
    assert res.status is SolveStatus.DIVERGED_NON_COERCIVE
    mean_norms = res.trace[:, 2]
    assert mean_norms[-1] >= 1e6 and mean_norms[-1] < 1e7
    assert np.all(mean_norms[:-1] < 1e6)
    # the message names the rule and the ray, which G never rises along
    assert "escape ray [" in res.message
    ray = np.array(res.message.split("[")[1].split("]")[0].split(", "), dtype=float)
    assert np.linalg.norm(ray) == pytest.approx(1.0, rel=1e-5)
    assert np.max(np.atleast_2d(pot.recession) @ ray) <= 1e-5


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_preconditioner_with_identity_or_zero_mean_hessian_is_the_h1_smoother(scheme, n):
    g = TorusGrid((TWO_PI, 3.0, 2.0), (8, 6, 4))
    op = DiffOperator(g, scheme)
    w = op._rfft(np.random.default_rng(n).normal(size=g.shape + (n,)))
    smoothed = op._smooth[..., None] * w
    for hbar in (np.eye(n), np.zeros((n, n))):
        fitted = minimize_module._fitted_preconditioner(op, hbar)(w)
        assert fitted.dtype == smoothed.dtype and fitted.shape == smoothed.shape
        assert np.array_equal(fitted.view(np.uint64), smoothed.view(np.uint64))


def test_preconditioner_inverts_lambda_plus_mean_hessian():
    g = TorusGrid((TWO_PI, 3.0), (8, 6))
    op = DiffOperator(g, Scheme.FD2)
    # one positive eigenvalue, one singular direction
    hbar = rotated_spd(0.7, (2.5, 0.0))
    w = op._rfft(np.random.default_rng(3).normal(size=g.shape + (2,)))
    z = minimize_module._fitted_preconditioner(op, hbar)(w)
    mu, q = np.linalg.eigh(hbar)
    lam = op._lam[..., None]
    wq, zq = w @ q, z @ q  # coordinates along the eigendirections
    assert_allclose(zq[..., 1], wq[..., 1] / (lam[..., 0] + mu[1]), rtol=1e-13)
    assert_allclose(zq[..., 0], op._smooth * wq[..., 0], rtol=1e-12, atol=1e-14)


def test_mirror_point_tie_costs_no_potential_gradient():
    # F = log(e^x + e^-x) is even, and from the constant field c the
    # preconditioned step on the mean is -F'(c) / F''(c) = -sinh(2c) / 2.
    # With sinh(2c) = 4c the unit step lands on -c, the mirror point of the
    # ray's minimum, where the action ties with the current one.  The ray
    # promised a decrease far above rounding, so the trial is rejected
    # without the slope test's gradient, and the half step lands on 0.
    c = 1.0
    for _ in range(50):
        c -= (np.sinh(2.0 * c) - 4.0 * c) / (2.0 * np.cosh(2.0 * c) - 4.0)
    g = TorusGrid((TWO_PI,), (16,))
    pot = make_log_sum_exp([[1.0], [-1.0]], [TrigPath.zero((TWO_PI,), 1)] * 2)
    grads, values = [], []
    pot = counting(counting(pot, "gradient", grads), "value", values)
    res = solve(g, pot, DiffOperator(g, Scheme.SPECTRAL),
                SolverOptions(max_iters=1, tol_grad_inf=0.0),
                init=Field.constant(g, [c]))
    assert res.iterations == 1
    assert len(values) == 1 + 2  # the start, the mirror point, the half step
    assert len(grads) == 1 + 1  # the start and the accepted step
    assert res.residual_inf < 1e-12


# ---------------------------------------------------------------------------
# tolerances, the L-BFGS scaling and the inexact Newton polish
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, value", [
    ("tol_grad_inf", -1.0),
    ("tol_grad_inf", float("nan")),
    ("tol_grad_inf", float("inf")),
])
def test_options_reject_non_finite_or_negative_tolerances(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverOptions(**{name: value})


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_refine_rejects_a_non_finite_or_negative_tol(tol):
    # a negative tol ran every Newton step, and nan took none, both as max_iters
    g, pot = shift_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(max_iters=1))
    with pytest.raises(ValueError, match=f"^tol must be finite and non-negative, got {tol}$"):
        newton_krylov_refine(res, pot, op, tol=tol)


def _reference_lbfgs_direction(pairs, g, inner, precond):
    # the two-loop recursion with the scaling recomputed from the newest pair
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = (1.0 / inner(s, y)) * inner(s, q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y = pairs[-1]
        denom = inner(y, precond(y))
        gamma = inner(s, y) / denom if denom > 0 else 1.0
    else:
        gamma = 1.0
    r = gamma * precond(q)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = (1.0 / inner(s, y)) * inner(y, r)
        r += (a - b) * s
    return -r


def test_lbfgs_scaling_is_stored_with_its_pair_and_matches_the_two_loop_bitwise():
    g = TorusGrid((TWO_PI, 3.0), (8, 6))
    op = DiffOperator(g, Scheme.SPECTRAL)
    precond = minimize_module._fitted_preconditioner(op, rotated_spd(0.3, (2.0, 0.5)))
    applied = []

    def counted(w):
        applied.append(1)
        return precond(w)

    memory = minimize_module._LbfgsMemory(3, op._inner, counted)
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(5):
        s = op._rfft(rng.normal(size=g.shape + (2,)))
        y = s + 0.1 * op._rfft(rng.normal(size=g.shape + (2,)))
        memory.push(s, y)
        pairs = (pairs + [(s, y)])[-3:]
        grad = op._rfft(rng.normal(size=g.shape + (2,)))
        applied.clear()
        d = memory.direction(grad)
        assert len(applied) == 1
        expected = _reference_lbfgs_direction(pairs, grad, op._inner, precond)
        assert np.array_equal(d.view(np.uint64), expected.view(np.uint64))


def test_solve_reports_the_residual_norms_the_polish_recomputes():
    # the polish returns a result that meets its target without recomputing
    # anything, which is right only if solve's norms are those of the
    # returned field's own action gradient
    g, pot = lse_problem()
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        op = DiffOperator(g, scheme)
        for max_iters in (1, 4, 60):
            res = solve(g, pot, op, SolverOptions(max_iters=max_iters))
            grad = action_gradient(res.u, pot, op)
            assert res.residual_inf == float(np.abs(grad.values).max())
            assert res.residual_l2 == l2_norm(grad)


def test_refine_of_a_result_that_meets_tol_makes_no_transform_and_no_potential_call(
        count_transforms):
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(max_iters=60, tol_grad_inf=1e-10))
    capped = replace(res, status=SolveStatus.MAX_ITERS)
    calls = []
    for attr in ("value", "gradient", "hessian"):
        pot = counting(pot, attr, calls)
    counts = count_transforms()
    for given in (res, capped):
        refined = newton_krylov_refine(given, pot, op, tol=res.residual_inf)
        assert refined.status is SolveStatus.CONVERGED
        assert np.array_equal(refined.u.values, res.u.values)
        assert not np.shares_memory(refined.u.values, res.u.values)
        assert refined.action == res.action
        assert refined.iterations == res.iterations
        assert refined.residual_inf == res.residual_inf
    assert calls == []
    assert counts == {"rfft": 0, "irfft": 0, "complex": 0}


def _lse_square(N=16, M=None):
    periods = (TWO_PI, TWO_PI)
    g = TorusGrid(periods, (N, M or N))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    offs = [
        TrigPath(periods, 1, (TrigTerm("cos", freq, (c,)),))
        for freq, c in (((1, 0), 0.5), ((0, 1), 0.4), ((0, 0), 0.0), ((1, 1), 0.3))
    ]
    return g, make_log_sum_exp(S, offs)


def test_refine_cg_stops_at_the_forcing_term_the_target_needs(monkeypatch):
    g, pot = _lse_square()
    op = DiffOperator(g, Scheme.SPECTRAL)
    coarse = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-6))
    assert coarse.residual_inf > 1e-12
    pcg = minimize_module._pcg

    def polish(force):
        applications, tols = [], []

        def counting_pcg(apply_j, *args, rel_tol, **kwargs):
            tols.append(rel_tol)

            def counted(v):
                applications.append(1)
                return apply_j(v)

            return pcg(counted, *args, rel_tol=force or rel_tol, **kwargs)

        monkeypatch.setattr(minimize_module, "_pcg", counting_pcg)
        refined = newton_krylov_refine(coarse, pot, op, tol=1e-12)
        assert refined.status is SolveStatus.CONVERGED
        assert refined.residual_inf <= 1e-12
        return refined.iterations - coarse.iterations, len(applications), tols

    steps, cg_iters, tols = polish(None)
    tight_steps, tight_cg_iters, _ = polish(1e-13)
    assert steps == tight_steps == 1
    assert cg_iters < tight_cg_iters
    assert all(1e-13 <= t <= 1e-2 for t in tols)


def test_refine_forcing_term_is_never_tighter_than_1e_13(monkeypatch):
    # a rough start has a large residual, where the target alone would ask
    # for a relative tolerance far below 1e-13
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    rough = solve(g, pot, op, SolverOptions(max_iters=1))
    tols = []
    pcg = minimize_module._pcg

    def recording_pcg(*args, rel_tol, **kwargs):
        tols.append(rel_tol)
        return pcg(*args, rel_tol=rel_tol, **kwargs)

    monkeypatch.setattr(minimize_module, "_pcg", recording_pcg)
    refined = newton_krylov_refine(rough, pot, op, tol=1e-15)
    assert tols[0] == 1e-13
    assert min(tols) >= 1e-13
    assert refined.residual_inf < rough.residual_inf


# ---------------------------------------------------------------------------
# coarse start on the half grid
# ---------------------------------------------------------------------------

def _solve_count(k):
    # a run of k iterations makes 3k + 4 transforms, 2 when it takes no step
    return 3 * k + 4 if k else 2


def test_spectral_solve_starts_from_the_half_grid_minimizer(count_transforms):
    g, pot = _lse_square(128)
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(tol_grad_inf=1e-11)
    init = minimize_module.default_init(g, pot.n, opts)
    counts = count_transforms()
    res = solve(g, pot, op, opts)
    transforms = real(counts)
    cold = minimize_module._descend(op, pot, opts, init.values.copy())
    assert res.status is cold.status is SolveStatus.CONVERGED
    assert res.residual_inf <= opts.tol_grad_inf
    assert np.abs(res.u.values - cold.u.values).max() <= 1e-9
    match = re.fullmatch(r"coarse start: (\d+) iterations on the 64x64 grid", res.message)
    assert match
    coarse_iterations = int(match.group(1))
    assert coarse_iterations > 0
    # iterations and the trace count the fine level alone
    assert res.iterations < cold.iterations
    assert len(res.trace) == res.iterations + 1
    # the coarse level's own, and two transforms each way between the grids
    assert transforms == _solve_count(coarse_iterations) + 4 + _solve_count(res.iterations)


def test_coarse_start_recurses_down_to_the_smallest_half_grid():
    g, pot = _lse_square(512)
    res = solve(g, pot, DiffOperator(g, Scheme.SPECTRAL))
    assert res.status is SolveStatus.CONVERGED
    assert res.residual_inf <= SolverOptions().tol_grad_inf
    # 32^2 has fewer than _MIN_COARSE_NODES nodes, so 64^2 is the coarsest
    assert [grid for grid in re.findall(r"coarse start: \d+ iterations on the (\w+) grid",
                                        res.message)] == ["64x64", "128x128", "256x256"]


def _assert_same_run(res, cold):
    assert np.array_equal(res.u.values, cold.u.values)
    assert np.array_equal(res.trace, cold.trace)
    assert (res.status, res.iterations, res.residual_inf, res.residual_l2, res.action,
            res.message) == (cold.status, cold.iterations, cold.residual_inf,
                             cold.residual_l2, cold.action, cold.message)


def _aliased_on_the_half_grid():
    g, pot = _lse_square(128)
    # frequency 40 is below the Nyquist limit of 128 nodes, not of 64
    high = TrigPath(g.periods, 1, (TrigTerm("sin", (40, 0), (0.1,)),))
    return g, make_log_sum_exp(np.vstack([np.eye(2), -np.eye(2)]),
                               [path for _, path in pot.paths[:3]] + [high])


@pytest.mark.parametrize("problem, scheme", [
    (lambda: _lse_square(128), Scheme.FD2),
    (lambda: _lse_square(128, 126), Scheme.SPECTRAL),
    (_aliased_on_the_half_grid, Scheme.SPECTRAL),
    (lambda: _lse_square(128, 64), Scheme.SPECTRAL),
], ids=["fd2", "N-not-divisible-by-4", "aliased-path", "half-grid-below-4096-nodes"])
def test_solve_starts_cold_where_the_half_grid_does_not_serve(count_transforms, problem, scheme):
    g, pot = problem()
    op = DiffOperator(g, scheme)
    opts = SolverOptions()
    init = minimize_module.default_init(g, pot.n, opts)
    counts = count_transforms()
    res = solve(g, pot, op, opts)
    transforms = real(counts)
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations > 0
    assert transforms == 3 * res.iterations + 4
    assert res.message == ""
    _assert_same_run(res, minimize_module._descend(op, pot, opts, init.values.copy()))


def _drift_128():
    periods = (TWO_PI, TWO_PI)
    g = TorusGrid(periods, (128, 128))
    drift = TrigPath(periods, 2, (TrigTerm("cos", (0, 0), (1.0, 0.5)),
                                  TrigTerm("sin", (1, 0), (0.3, 0.0))))
    return g, make_linear_drift(2, drift)


def _lse_refused_on_the_half_grid():
    # the gradient is NaN wherever it is sampled on fewer than 128 rows
    g, pot = _lse_square(128)
    gradient = pot.gradient

    def fine_only(t, x):
        out = np.array(gradient(t, x))
        if x.shape[0] < 128:
            out[:] = np.nan
        return out

    return g, with_evaluations(pot, gradient=fine_only)


@pytest.mark.parametrize("problem, opts, status", [
    (_lse_refused_on_the_half_grid, SolverOptions(), SolveStatus.CONVERGED),
    (lambda: _lse_square(128), SolverOptions(max_iters=1), SolveStatus.MAX_ITERS),
], ids=["refused", "max_iters"])
def test_a_coarse_level_that_does_not_converge_is_thrown_away(problem, opts, status):
    g, pot = problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    init = Field(g, minimize_module.default_init(g, pot.n, opts).values[::-1].copy())
    res = solve(g, pot, op, opts, init=init)
    assert res.status is status
    assert "coarse start" not in res.message
    _assert_same_run(res, minimize_module._descend(op, pot, opts, init.values.copy()))


def test_a_coarse_escape_ray_starts_the_fine_level(count_transforms):
    # the recession function does not depend on the grid, so the fine level
    # started where the coarse one read its escape ray reads it after one step
    g, pot = _drift_128()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions()
    init = Field(g, minimize_module.default_init(g, pot.n, opts).values[::-1].copy())
    coarse_op = minimize_module._coarse_operator(op, pot)
    coarse = minimize_module._descend(coarse_op, pot, opts,
                                      minimize_module._resample(init.values, op, coarse_op))
    cold = minimize_module._descend(op, pot, opts, init.values.copy())
    counts = count_transforms()
    res = solve(g, pot, op, opts, init=init)
    transforms = real(counts)
    assert coarse.status is res.status is cold.status is SolveStatus.DIVERGED_NON_COERCIVE
    assert res.iterations == 1 < cold.iterations
    assert transforms == _solve_count(coarse.iterations) + 4 + _solve_count(1)
    warm = minimize_module._descend(op, pot, opts,
                                    minimize_module._resample(coarse.u.values, coarse_op, op))
    assert res.message == f"coarse start: {coarse.iterations} iterations on the 64x64 grid; " \
        + warm.message
    # the same escape ray as the cold run's
    assert warm.message.split(";")[0] == cold.message.split(";")[0]
    _assert_same_run(replace(res, message=warm.message), warm)


def test_resampling_between_a_grid_and_its_half_is_band_limited_interpolation():
    periods = (TWO_PI, 3.0, 2.0)
    fine = DiffOperator(TorusGrid(periods, (16, 8, 12)), Scheme.SPECTRAL)
    coarse = DiffOperator(TorusGrid(periods, (8, 4, 6)), Scheme.SPECTRAL)

    def sampled(op, terms):
        return TrigPath(periods, 2, terms)(op.grid.coords())

    # modes below the half grid's Nyquist limit on every axis, of either sign
    band = (TrigTerm("cos", (0, 0, 0), (0.7, -0.2)), TrigTerm("sin", (3, 1, -2), (0.5, 0.1)),
            TrigTerm("cos", (-2, 1, 1), (0.0, 0.4)), TrigTerm("sin", (1, 0, 2), (-0.3, 0.2)))
    assert_allclose(minimize_module._resample(sampled(coarse, band), coarse, fine),
                    sampled(fine, band), rtol=0.0, atol=1e-14)
    assert_allclose(minimize_module._resample(sampled(fine, band), fine, coarse),
                    sampled(coarse, band), rtol=0.0, atol=1e-14)
    # the half grid's Nyquist planes and the modes above them are dropped
    above = band + (TrigTerm("cos", (4, 0, 0), (1.0, 0.0)), TrigTerm("cos", (0, 2, 1), (0.0, 1.0)),
                    TrigTerm("sin", (1, 3, 0), (0.5, 0.5)), TrigTerm("cos", (0, 0, 3), (1.0, 1.0)))
    assert_allclose(minimize_module._resample(sampled(fine, above), fine, coarse),
                    sampled(coarse, band), rtol=0.0, atol=1e-14)
    # and so is the half grid's own Nyquist mode on the way up
    nyquist = band + (TrigTerm("cos", (4, 2, 3), (1.0, -1.0)),)
    assert_allclose(minimize_module._resample(sampled(coarse, nyquist), coarse, fine),
                    sampled(fine, band), rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# what a solve keeps for the next call
# ---------------------------------------------------------------------------

def test_the_polish_starts_from_solves_last_measurement(count_transforms):
    g, pot = _lse_square(128)
    grads = []
    pot = counting(pot, "gradient", grads)
    op = DiffOperator(g, Scheme.SPECTRAL)
    fresh = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-6))
    assert "coarse start" in fresh.message
    assert fresh.residual_inf > 1e-12
    counts = count_transforms()

    def polish(result, potential=pot, operator=op):
        grads.clear()
        before = real(counts)
        refined = newton_krylov_refine(result, potential, operator, tol=1e-12)
        assert refined.status is SolveStatus.CONVERGED
        return refined, len(grads), real(counts) - before

    handed, handed_grads, handed_transforms = polish(fresh)
    # a result rebuilt by replace() is measured again
    rebuilt, rebuilt_grads, rebuilt_transforms = polish(replace(fresh, u=fresh.u.copy()))
    assert (handed_grads, handed_transforms) == (rebuilt_grads - 1, rebuilt_transforms - 2)
    _assert_same_run(handed, rebuilt)
    # and so is a result polished with another potential or operator
    for potential, operator in ((replace(pot), op),
                                (pot, DiffOperator(g, Scheme.SPECTRAL))):
        other, other_grads, other_transforms = polish(fresh, potential, operator)
        assert (other_grads, other_transforms) == (rebuilt_grads, rebuilt_transforms)
        _assert_same_run(other, rebuilt)


def test_repeated_solves_sample_no_path_again(monkeypatch):
    g, pot = _lse_square(128)
    op = DiffOperator(g, Scheme.SPECTRAL)
    first = solve(g, pot, op)
    assert "coarse start" in first.message
    # one sample per grid: the 128^2 grid's and its half grid's
    for _, path in pot.paths:
        assert set(path._samples) == {(128, 128, 2), (64, 64, 2)}
    waves = []
    for name in ("cos", "sin"):
        wave = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, _wave=wave: waves.append(1) or _wave(x))
    second = solve(g, pot, op)
    assert waves == []
    _assert_same_run(first, second)


def _lse_16x2():
    """The 16^4 grid and log-sum-exp of the large-grid benchmark: J = 4
    directions +-e_i, three of them with an offset wave."""
    periods = (TWO_PI,) * 4
    g = TorusGrid(periods, (16,) * 4)
    waves = [("cos", (1, 0, 0, 0), 0.5), ("sin", (0, 0, 1, 0), 0.4), None,
             ("cos", (0, 1, 0, 1), 0.3)]
    offs = [TrigPath(periods, 1, () if w is None else (TrigTerm(w[0], w[1], (w[2],)),))
            for w in waves]
    return g, make_log_sum_exp([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], offs)


def test_solve_and_the_polish_sweep_exp_once_per_point_on_the_large_grid(count_exp):
    g, pot = _lse_16x2()
    op = DiffOperator(g, Scheme.SPECTRAL)
    fine, coarse = (4,) + g.shape, (4, 8, 8, 8, 8)
    counts = count_exp()
    res = solve(g, pot, op, SolverOptions(max_iters=80, tol_grad_inf=1e-6))
    assert res.message == "coarse start: 4 iterations on the 8x8x8x8 grid"
    assert res.iterations == 1
    # one point at the start, for its Hessian, value and gradient, and one
    # at the trial, for its value and, accepted, its gradient
    assert counts == {fine: 2, coarse: 8}
    counts.clear()
    refined = newton_krylov_refine(res, pot, op, tol=1e-12)
    assert refined.status is SolveStatus.CONVERGED
    assert refined.iterations == res.iterations + 1
    # the Hessian reads the point that solve's result holds, and the one
    # damping trial's gradient and the final value share another
    assert counts == {fine: 1}


def test_certify_sweeps_exp_once_per_mean_on_the_large_grid(count_exp):
    g, pot = _lse_16x2()
    counts = count_exp()
    cert = certify(g, pot, DiffOperator(g, Scheme.SPECTRAL))
    assert cert.verdict is Verdict.SOLVABLE
    # the origin and two accepted Newton steps, each mean one point of G
    # whose value, gradient and Hessian share its sweep
    assert counts == {(4,) + g.shape: 3}


def test_a_result_holds_its_last_point_until_it_is_dropped_or_replaced():
    g, pot = _lse_16x2()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions(max_iters=80, tol_grad_inf=1e-6)
    # the half-grid operator, the coordinates and the path samples outlive
    # a solve, so a first one makes them before the count
    solve(g, pot, op, opts)
    plane = g.node_count * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve(g, pot, op, opts)
        held = tracemalloc.get_traced_memory()[0] - base
        rebuilt = replace(res, message="rebuilt")
        del res
        replaced = tracemalloc.get_traced_memory()[0] - base
        del rebuilt
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # u and the potential gradient (n = 2 planes each), the half spectrum
    # (2.25 planes) and the point's J + 1 = 5 planes: 5.63 MiB, besides the
    # trace and the small fields
    assert held < (2 + 2 + 2.25 + 5) * plane + 16384
    # replace() keeps the field alone, and a dropped result frees the rest
    assert replaced < 2 * plane + 16384
    assert left < 16384


def test_every_field_that_solve_or_the_polish_returns_is_read_only():
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    converged = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-6))
    writeable = replace(converged, u=converged.u.copy())
    results = {
        "converged": converged,
        "max_iters": solve(g, pot, op, SolverOptions(max_iters=1)),
        "initial field": solve(g, pot, op, SolverOptions(tol_grad_inf=1e-6), init=converged.u),
        "polished": newton_krylov_refine(converged, pot, op, tol=1e-12),
        "early return": newton_krylov_refine(converged, pot, op, tol=converged.residual_inf),
        "writeable, polished": newton_krylov_refine(writeable, pot, op, tol=1e-12),
        # measured afresh, u already meets the tolerance: no step is taken
        "writeable, no step": newton_krylov_refine(
            replace(writeable, residual_inf=1.0), pot, op, tol=1e-6),
        "diverged": solve(*fd2_drift()),
    }
    assert results["writeable, no step"].iterations == converged.iterations
    assert results["initial field"].iterations == 0
    assert results["polished"].iterations > converged.iterations
    assert results["diverged"].status is SolveStatus.DIVERGED_NON_COERCIVE
    for name, result in results.items():
        values = result.u.values
        assert not values.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            values[(0,) * values.ndim] = 0.0
    # a writeable field given to the polish stays writeable and is not returned
    assert writeable.u.values.flags.writeable
    for name in ("writeable, polished", "writeable, no step"):
        assert not np.shares_memory(results[name].u.values, writeable.u.values)


def test_the_polish_reads_solves_field_without_copying_it():
    g, pot = lse_problem()
    points = []
    hessian = pot.hessian
    pot = with_evaluations(pot, hessian=lambda t, x: points.append(x) or hessian(t, x))
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-6))
    points.clear()
    newton_krylov_refine(res, pot, op, tol=1e-12)
    assert points[0] is res.u.values
    # and so is a writeable field, which stays writeable
    writeable = replace(res, u=res.u.copy())
    points.clear()
    newton_krylov_refine(writeable, pot, op, tol=1e-12)
    assert points[0] is writeable.u.values
    assert points[0].flags.writeable


def test_a_descent_direction_that_underflows_stops_the_run_unconverged():
    # <g, P g> of a gradient near 1e-170 underflows to zero, so no ray
    # promises a decrease; a tolerance below it is out of reach
    g = TorusGrid((TWO_PI,), (16,))
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    op = DiffOperator(g, Scheme.SPECTRAL)
    init = Field(g, 1e-170 * np.random.default_rng(0).normal(size=(16, 1)))
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-200), init=init)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.line_search_failed
    assert res.iterations == 0
    assert res.message == "descent direction vanished: <g, P g> underflows"
    assert res.residual_inf > 1e-200


# ---------------------------------------------------------------------------
# results and options are frozen values
# ---------------------------------------------------------------------------

def test_no_field_of_a_result_or_of_the_options_can_be_assigned():
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    opts = SolverOptions()
    res = solve(g, pot, op, SolverOptions(max_iters=3))
    for value in (opts, res):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    # so a zero budget cannot slip past the options' own check ...
    with pytest.raises(FrozenInstanceError):
        opts.max_iters = 0
    assert solve(g, pot, op, opts).iterations > 0
    # ... and a result's field cannot change under its norms and its point
    with pytest.raises(FrozenInstanceError):
        res.u = Field(g, res.u.values + 1.0)


def test_a_result_rebuilt_with_a_new_field_polishes_to_that_fields_residual():
    # 3 iterations in, the result's norms and its last point belong to its
    # own field, not to the one it is rebuilt with
    g, pot = _lse_square()
    op = DiffOperator(g, Scheme.SPECTRAL)
    res = solve(g, pot, op, SolverOptions(max_iters=3))
    assert res.residual_inf > 1e-9
    moved = replace(res, u=Field(g, res.u.values + 1.0))
    refined = newton_krylov_refine(moved, pot, op, tol=1e-9)
    assert refined.status is SolveStatus.CONVERGED
    grad = action_gradient(refined.u, pot, op)
    assert refined.residual_inf == float(np.abs(grad.values).max())
    assert refined.residual_inf <= 1e-9


# ---------------------------------------------------------------------------
# the solver's rare exits
# ---------------------------------------------------------------------------

def _pcg_setup():
    g = TorusGrid((TWO_PI, 4.0), (16, 8))
    op = DiffOperator(g, Scheme.SPECTRAL)
    b = op._rfft(np.random.default_rng(3).normal(size=g.shape + (2,)))
    return op, b, lambda r: r


def test_pcg_returns_zero_for_a_zero_right_hand_side_without_applying_j():
    op, b, precond = _pcg_setup()
    applied = []
    x, ok = minimize_module._pcg(lambda v: applied.append(v) or v, np.zeros_like(b), op,
                                 precond, rel_tol=1e-10, max_iters=10)
    assert ok
    assert applied == []
    assert not np.any(x)


def test_pcg_that_diverges_settles_for_its_best_iterate():
    # J v = (1 + 1e6 i) v is positive along v, but its residual leaves the
    # ray: after one step it is 1e6 times the right-hand side
    op, b, precond = _pcg_setup()
    applied = []
    x, ok = minimize_module._pcg(lambda v: applied.append(v) or (1.0 + 1e6j) * v, b, op,
                                 precond, rel_tol=1e-10, max_iters=10)
    assert ok
    assert len(applied) == 1
    # no iterate beat the start, so the best one is zero
    assert not np.any(x)


def test_pcg_that_runs_out_of_iterations_returns_its_best_iterate():
    op, b, precond = _pcg_setup()
    scale = 1.0 + op._lam[..., None]
    applied = []

    def apply_j(v):
        applied.append(v)
        return scale * v

    x, ok = minimize_module._pcg(apply_j, b, op, precond, rel_tol=1e-14, max_iters=2)
    assert ok
    assert len(applied) == 2
    r = b - scale * x
    rel = np.sqrt(op._inner(r, r) / op._inner(b, b))
    assert 1e-14 < rel < 1.0


def test_steepest_descent_takes_over_from_an_lbfgs_direction_that_ascends(monkeypatch):
    g, pot = lse_problem()
    op = DiffOperator(g, Scheme.SPECTRAL)
    direction = minimize_module._LbfgsMemory.direction
    flipped = []

    def ascending_once(memory, grad):
        d = direction(memory, grad)
        if memory.pairs and not flipped:
            flipped.append(len(memory.pairs))
            return -d
        return d

    monkeypatch.setattr(minimize_module._LbfgsMemory, "direction", ascending_once)
    res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-8))
    assert flipped == [1]
    # without the fallback the run would stop there, its line search failed
    assert not res.line_search_failed
    assert res.status is SolveStatus.CONVERGED
