"""Monotone descent for the discrete action, with a coercivity failure monitor.

The action of a convex potential is convex, so simple line-searched descent
is globally convergent whenever a minimizer exists; when none exists the mean
component runs away while the fluctuation stays tame, and the divergence
monitor turns that signature into a diagnosis instead of an opaque failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .grid import Field, TorusGrid
from .operators import (
    ActionReport,
    DiffOperator,
    action_gradient,
    action_value,
    eval_action,
    h1_inner,
    h1_precondition,
    l2_inner,
    laplacian,
    mean_decompose,
    pde_residual,
)
from .potentials import Potential


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED_NON_COERCIVE = "diverged_non_coercive"


_METHODS = ("gradient_descent", "nonlinear_cg", "lbfgs")

TRACE_COLUMNS = ("action", "grad_inf", "mean_norm", "fluctuation_h1")


@dataclass
class SolverOptions:
    """Descent configuration; defaults suit desk-scale convex problems."""

    method: str = "lbfgs"
    precondition_h1: bool = True
    tol_grad_inf: float = 1e-8
    tol_residual_inf: float = 1e-6
    max_iters: int = 10000
    divergence_mean_norm: float = 1e6
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60
    lbfgs_memory: int = 10
    init_noise: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not 0.0 < self.armijo_c1 < 1.0:
            raise ValueError(f"armijo_c1 must lie in (0, 1), got {self.armijo_c1}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}"
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if self.lbfgs_memory < 1:
            raise ValueError(f"lbfgs_memory must be positive, got {self.lbfgs_memory}")
        if self.divergence_mean_norm <= 0:
            raise ValueError("divergence_mean_norm must be positive")
        if self.max_backtracks < 0:
            raise ValueError(
                f"max_backtracks must be non-negative, got {self.max_backtracks}"
            )
        if not (np.isfinite(self.init_noise) and self.init_noise >= 0.0):
            raise ValueError(
                f"init_noise must be finite and non-negative, got {self.init_noise}"
            )


@dataclass
class SolveResult:
    u: Field
    status: SolveStatus
    iterations: int
    action: ActionReport
    residual_inf: float
    residual_l2: float
    mean: np.ndarray
    fluctuation_h1_norm: float
    trace: np.ndarray
    seed: int
    line_search_failed: bool = False
    message: str = ""


def default_init(grid: TorusGrid, n: int, opts: SolverOptions) -> Field:
    """Zero field plus small seeded noise, so no symmetry pins the iteration."""
    rng = np.random.default_rng(opts.seed)
    values = rng.normal(0.0, opts.init_noise, size=grid.shape + (int(n),))
    return Field(grid, values)


def divergence_monitor(trace, opts: SolverOptions) -> Optional[SolveStatus]:
    """Detect the missing-minimizer signature in a descent trace.

    Fires when the latest mean norm has crossed the divergence threshold while
    the fluctuation norm stays within ten times its running median; a blowing
    up fluctuation would indicate a broken step rule instead, and is left to
    the line search to handle.
    """
    rows = np.asarray(trace, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != len(TRACE_COLUMNS):
        return None
    mean_norm = rows[-1, 2]
    if mean_norm < opts.divergence_mean_norm:
        return None
    median_fluct = float(np.median(rows[:, 3]))
    if rows[-1, 3] <= 10.0 * median_fluct + 1e-12:
        return SolveStatus.DIVERGED_NON_COERCIVE
    return None


def _trace_row(u, f, g, op):
    mean, fluct = mean_decompose(u)
    return (
        f,
        float(np.abs(g.values).max()),
        float(np.linalg.norm(mean)),
        float(np.sqrt(max(h1_inner(fluct, fluct, op), 0.0))),
    )


class _LbfgsMemory:
    def __init__(self, size: int, precond):
        self.pairs = deque(maxlen=size)
        self.precond = precond

    def push(self, s: Field, y: Field) -> None:
        sy = l2_inner(s, y)
        guard = 1e-10 * np.sqrt(max(l2_inner(s, s) * l2_inner(y, y), 0.0))
        if sy > guard and sy > 0.0:
            self.pairs.append((s, y, 1.0 / sy))

    def direction(self, g: Field) -> Field:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * l2_inner(s, q)
            q = q - a * y
            alphas.append(a)
        if self.pairs:
            s, y, _ = self.pairs[-1]
            denom = l2_inner(y, self.precond(y))
            gamma = l2_inner(s, y) / denom if denom > 0 else 1.0
        else:
            gamma = 1.0
        r = gamma * self.precond(q)
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * l2_inner(y, r)
            r = r + (a - b) * s
        return -1.0 * r


def solve(
    grid: TorusGrid,
    pot: Potential,
    op: DiffOperator,
    opts: SolverOptions | None = None,
    init: Field | None = None,
) -> SolveResult:
    """Minimize the discrete action by line-searched descent.

    Accepted steps satisfy a sufficient-decrease condition, so the action
    trace is monotone.  Returns the best iterate found together with residual
    diagnostics; a run that drives the mean past the divergence threshold
    while the fluctuation stays bounded is reported as diverged rather than
    failed, since that is the constructive sign that no minimizer exists.
    """
    opts = opts if opts is not None else SolverOptions()
    if op.grid != grid:
        raise ValueError("operator was built for a different grid")
    if init is None:
        u = default_init(grid, pot.n, opts)
    else:
        if init.grid != grid or init.n != pot.n:
            raise ValueError("initial field does not match the grid or potential")
        u = Field(grid, init.values.copy())

    if opts.precondition_h1:
        precond = lambda w: h1_precondition(op, w)
    else:
        precond = lambda w: w.copy()

    f = action_value(u, pot, op)
    if not np.isfinite(f):
        raise ValueError("action is not finite at the initial field")
    g = action_gradient(u, pot, op)
    if not np.isfinite(g.values).all():
        raise ValueError("action gradient is not finite at the initial field")

    trace = [_trace_row(u, f, g, op)]
    memory = _LbfgsMemory(opts.lbfgs_memory, precond)
    d_prev = None
    pg_g_prev = None
    g_prev = None
    alpha_prev = None
    status = SolveStatus.MAX_ITERS
    line_search_failed = False
    message = ""
    iterations = 0

    for _ in range(opts.max_iters):
        grad_inf = float(np.abs(g.values).max())
        if grad_inf <= opts.tol_grad_inf and grad_inf <= opts.tol_residual_inf:
            status = SolveStatus.CONVERGED
            break

        if opts.method == "lbfgs":
            d = memory.direction(g)
        else:
            pg = precond(g)
            if opts.method == "gradient_descent":
                d = -1.0 * pg
            else:
                pg_g = l2_inner(pg, g)
                if d_prev is None or pg_g_prev is None or pg_g_prev <= 0.0:
                    d = -1.0 * pg
                else:
                    beta = max(0.0, l2_inner(pg, g - g_prev) / pg_g_prev)
                    d = -1.0 * pg + beta * d_prev
                pg_g_prev = pg_g

        gd = l2_inner(g, d)
        if not gd < 0.0:
            # steepest-descent fallback
            d = -1.0 * precond(g)
            gd = l2_inner(g, d)
            if not gd < 0.0:
                status = SolveStatus.CONVERGED
                message = "descent direction vanished"
                break

        # One notch above the last accepted step, so the step can grow
        # geometrically on rays where the action keeps dropping.
        if alpha_prev is None:
            trial = 1.0
        else:
            trial = min(alpha_prev / opts.backtrack_factor, 1e30)

        alpha = trial
        accepted = False
        for _bt in range(opts.max_backtracks + 1):
            u_try = u + alpha * d
            f_try = action_value(u_try, pot, op)
            if np.isfinite(f_try) and f_try <= f + opts.armijo_c1 * alpha * gd:
                accepted = True
                break
            alpha *= opts.backtrack_factor
        if not accepted:
            line_search_failed = True
            message = (
                f"line search failed after {opts.max_backtracks} halvings "
                f"(directional derivative {gd:.3e})"
            )
            break

        g_new = action_gradient(u_try, pot, op)
        s = u_try - u
        y = g_new - g
        memory.push(s, y)
        g_prev = g
        d_prev = d
        u, f, g = u_try, f_try, g_new
        alpha_prev = alpha
        iterations += 1
        trace.append(_trace_row(u, f, g, op))

        signal = divergence_monitor(trace, opts)
        if signal is not None:
            status = signal
            break
    else:
        # loop exhausted without convergence or divergence
        grad_inf = float(np.abs(g.values).max())
        if grad_inf <= opts.tol_grad_inf and grad_inf <= opts.tol_residual_inf:
            status = SolveStatus.CONVERGED

    trace_arr = np.asarray(trace, dtype=float)
    res = pde_residual(u, pot, op)
    mean, fluct = mean_decompose(u)
    return SolveResult(
        u=u,
        status=status,
        iterations=iterations,
        action=eval_action(u, pot, op),
        residual_inf=res.inf_norm,
        residual_l2=res.l2_norm,
        mean=mean,
        fluctuation_h1_norm=float(np.sqrt(max(h1_inner(fluct, fluct, op), 0.0))),
        trace=trace_arr,
        seed=opts.seed,
        line_search_failed=line_search_failed,
        message=message,
    )


def _hessian_apply(op, hess: np.ndarray, v: Field) -> Field:
    hv = np.einsum("...ij,...j->...i", hess, v.values)
    return Field(op.grid, -laplacian(op, v).values + hv, _check=False)


def _pcg(apply_j, precond, b: Field, rel_tol: float, max_iters: int):
    """Preconditioned conjugate gradients in the quadrature inner product."""
    x = 0.0 * b
    r = b.copy()
    z = precond(r)
    d = z.copy()
    rz = l2_inner(r, z)
    b_norm = np.sqrt(max(l2_inner(b, b), 0.0))
    if b_norm == 0.0:
        return x, True
    # Track the best iterate seen.  Near the rounding floor, or when a flat
    # potential direction meets the constant-field kernel, CG can lose
    # conjugacy and wander off after converging; the best iterate is still a
    # perfectly good truncated Newton step.
    best_x = x
    best_rel = 1.0
    for _ in range(max_iters):
        jd = apply_j(d)
        djd = l2_inner(d, jd)
        if djd <= 0.0:
            # non-positive curvature: usable only if we made progress first
            return best_x, best_rel < 1.0
        alpha = rz / djd
        x = x + alpha * d
        r = r - alpha * jd
        rel = np.sqrt(max(l2_inner(r, r), 0.0)) / b_norm
        if rel < best_rel:
            best_x, best_rel = x, rel
        if rel <= rel_tol:
            return x, True
        if rel > 100.0 * best_rel + 1.0:
            break  # stagnated and diverging; settle for the best iterate
        z = precond(r)
        rz_new = l2_inner(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return best_x, True


def newton_krylov_refine(
    result: SolveResult,
    pot: Potential,
    op: DiffOperator,
    tol: float = 1e-12,
    max_newton: int = 50,
) -> SolveResult:
    """Polish a descent result with damped Newton steps on the stationarity system.

    Each step solves (-laplacian + hess F) d = -(action gradient) by
    preconditioned CG and damps until the residual norm drops.  Requires the
    potential to carry a Hessian and the input run not to have diverged.
    """
    if result.status is SolveStatus.DIVERGED_NON_COERCIVE:
        raise ValueError("cannot refine a diverged run; no stationary point exists")
    if pot.hessian is None:
        raise ValueError(
            f"potential kind {pot.kind!r} does not provide a Hessian, "
            "which Newton refinement requires"
        )
    grid = op.grid
    coords = grid.coords()
    u = Field(grid, result.u.values.copy())
    res = pde_residual(u, pot, op)
    message = result.message
    newton_steps = 0
    cg_failed = False

    while res.inf_norm > tol and newton_steps < max_newton:
        g = action_gradient(u, pot, op)
        b = -1.0 * g
        hess = pot.hessian(coords, u.values)
        step, ok = _pcg(
            lambda v: _hessian_apply(op, hess, v),
            lambda w: h1_precondition(op, w),
            b,
            rel_tol=1e-13,
            max_iters=max(200, 2 * grid.node_count * pot.n),
        )
        if not ok:
            cg_failed = True
            message = (message + "; " if message else "") + (
                "newton refinement stopped: CG met non-positive curvature"
            )
            break
        alpha = 1.0
        improved = False
        base = res.l2_norm
        for _ in range(60):
            u_try = u + alpha * step
            res_try = pde_residual(u_try, pot, op)
            if res_try.l2_norm <= (1.0 - 1e-4 * alpha) * base:
                u, res = u_try, res_try
                improved = True
                break
            alpha *= 0.5
        if not improved:
            message = (message + "; " if message else "") + (
                "newton refinement stopped: damping found no residual decrease"
            )
            break
        newton_steps += 1

    if newton_steps > 0 and not cg_failed:
        message = (message + "; " if message else "") + (
            f"newton refinement: {newton_steps} step(s)"
        )
    status = SolveStatus.CONVERGED if res.inf_norm <= tol else SolveStatus.MAX_ITERS
    mean, fluct = mean_decompose(u)
    return replace(
        result,
        u=u,
        status=status,
        iterations=result.iterations + newton_steps,
        action=eval_action(u, pot, op),
        residual_inf=res.inf_norm,
        residual_l2=res.l2_norm,
        mean=mean,
        fluctuation_h1_norm=float(np.sqrt(max(h1_inner(fluct, fluct, op), 0.0))),
        message=message,
    )
