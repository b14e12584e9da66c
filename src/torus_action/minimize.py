"""Monotone descent for the discrete action, with a coercivity failure monitor.

The action of a convex potential is convex, so simple line-searched descent
is globally convergent whenever a minimizer exists; when none exists the mean
component runs away, and the divergence monitor turns that into a diagnosis
instead of an opaque failure.  Once the mean passes a threshold the monitor
reads the potential's declared recession function: an escape ray proves that
no minimizer exists and ends the run at once.  Without one a minimizer
exists, however far away, and the run goes on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .certify import build_mean_potential, coercivity_probe
from .grid import Field, TorusGrid, check_integer, check_seed, integrate
from .operators import (
    ActionReport, DiffOperator, _check_field, _check_operator, _check_potential, l2_norm,
)
from .potentials import Potential


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED_NON_COERCIVE = "diverged_non_coercive"


# Sufficient decrease (Armijo) constant of the line search; a rejected trial
# step is multiplied by the factor, at most the given number of times.
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
# (s, y) pairs that L-BFGS keeps.
_LBFGS_MEMORY = 10
# Standard deviation of the seeded noise in the default initial field.
_INIT_NOISE = 1e-3
# At the first iterate whose mean norm passes this, the declared recession
# function is read for an escape ray.
_DIVERGENCE_MEAN_NORM = 1e6
# Newton steps the polish takes at most.
_MAX_NEWTON = 50

# Action values closer than this, relative to the size of their kinetic and
# potential parts, tie to rounding in the line search.
_ACTION_TIE = 1e-13
# The slope test that breaks such ties asks for at least this sufficient
# decrease (Hager & Zhang's default).  With the Armijo constant 1e-4 it would
# take the mirror point 2 alpha* of the ray's minimum wherever the curvature
# falls along the ray, and the iterates would creep.
_TIE_DECREASE = 0.1
# A tied trial whose ray promised a first-order decrease -alpha g.d above this
# many tie widths is taken for the mirror point and rejected outright.
_MIRROR_PROMISE = 8.0


@dataclass
class SolverOptions:
    """Descent configuration; defaults suit desk-scale convex problems.

    The descent is L-BFGS, preconditioned by the per-mode inverse
    (lambda_k I + H-bar)^-1, where H-bar is the box mean of the potential's
    Hessian at the initial field, with the H1 smoother 1 / (1 + lambda_k) on
    the singular directions of H-bar.
    The Newton-Krylov polish preconditions its CG the same way.
    A run has converged once the action gradient's largest sample is within
    ``tol_grad_inf``, the one stop.
    """

    tol_grad_inf: float = 1e-8
    max_iters: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        check_seed(self.seed)
        tol = self.tol_grad_inf
        if not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"tol_grad_inf must be finite and non-negative, got {tol}")


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
    line_search_failed: bool = False
    message: str = ""


def default_init(grid: TorusGrid, n: int, opts: SolverOptions) -> Field:
    """Zero field plus small seeded noise, so no symmetry pins the iteration."""
    rng = np.random.default_rng(opts.seed)
    values = rng.normal(0.0, _INIT_NOISE, size=grid.shape + (int(n),))
    return Field(grid, values)


def _fluctuation_h1(uhat: np.ndarray, op: DiffOperator) -> float:
    """H1 norm of the zero-mean part of a field, from its half spectrum."""
    return float(np.sqrt(max(op._inner(op._fluct_h1[..., None] * uhat, uhat), 0.0)))


# The columns of a trace row, after the iteration number.
TRACE_COLUMNS = ("action", "grad_inf", "mean_norm", "fluct_h1")


def _trace_row(f, grad_inf, uhat, op):
    mean = uhat[(0,) * op.grid.p].real / op.grid.node_count
    return (f, grad_inf, float(np.linalg.norm(mean)), _fluctuation_h1(uhat, op))


def _fitted_preconditioner(op: DiffOperator, hbar: np.ndarray):
    """The map w -> (lambda_k I + hbar)^-1 w on half spectra of n-vector fields.

    ``hbar`` is a box mean of the potential's Hessian, so for a quadratic
    potential this inverts the action's Hessian exactly, and the zero mode
    takes a Newton step on the mean.  Along an eigendirection of ``hbar``
    that is singular to 1e-10 of its scale the scale is the H1 smoother
    1 / (1 + lambda_k); with ``hbar`` zero or the identity the map is that
    smoother bit for bit.  The per-mode n x n matrices are real and are
    applied as multiply-adds over the component columns, skipping the
    entries that vanish, at no transform cost.
    """
    mu, q = np.linalg.eigh(hbar)
    floor = 1e-10 * max(1.0, float(np.abs(mu).max()))
    scales = [1.0 / (op._lam + m) if m > floor else op._smooth for m in mu]
    n = len(mu)
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            table = sum(q[a, j] * q[b, j] * scales[j] for j in range(n))
            if np.any(table != 0.0):
                row.append((b, table))
        rows.append(row)

    def apply(w):
        out = np.empty_like(w)
        for a, row in enumerate(rows):
            (b, table), *rest = row
            col = out[..., a]
            np.multiply(table, w[..., b], out=col)
            for b, table in rest:
                col += table * w[..., b]
        return out

    return apply


def _box_mean(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The mean of per-node samples over the grid axes."""
    return values.mean(axis=tuple(range(grid.p)))


def _gradient_samples(lam_uhat: np.ndarray, grad_f: np.ndarray, op: DiffOperator) -> np.ndarray:
    """Samples of the action gradient -laplacian(u) + grad F(t, u), from lambda * u-hat."""
    return op._irfft(lam_uhat) + grad_f


class _LbfgsMemory:
    """L-BFGS pairs (s, y) as half spectra, with a fixed preconditioner.

    Each pair carries 1 / <s, y> and the scaling <s, y> / <y, P y> of the
    initial inverse Hessian, P the preconditioner, used while it is the
    newest pair.
    """

    def __init__(self, size: int, inner, precond):
        self.pairs = deque(maxlen=size)
        self.inner = inner
        self.precond = precond

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        inner = self.inner
        sy = inner(s, y)
        guard = 1e-10 * np.sqrt(max(inner(s, s) * inner(y, y), 0.0))
        if sy > guard and sy > 0.0:
            denom = inner(y, self.precond(y))
            gamma = sy / denom if denom > 0 else 1.0
            self.pairs.append((s, y, 1.0 / sy, gamma))

    def direction(self, g: np.ndarray) -> np.ndarray:
        inner = self.inner
        q = g.copy()
        alphas = []
        for s, y, rho, _ in reversed(self.pairs):
            a = rho * inner(s, q)
            q -= a * y
            alphas.append(a)
        gamma = self.pairs[-1][3] if self.pairs else 1.0
        r = gamma * self.precond(q)
        for (s, y, rho, _), a in zip(self.pairs, reversed(alphas)):
            b = rho * inner(y, r)
            r += (a - b) * s
        return -r


def solve(
    grid: TorusGrid,
    pot: Potential,
    op: DiffOperator,
    opts: SolverOptions | None = None,
    init: Field | None = None,
) -> SolveResult:
    """Minimize the discrete action by line-searched L-BFGS descent.

    Accepted steps satisfy a sufficient-decrease condition, so the action
    trace is monotone up to rounding.  Returns the best iterate found
    together with residual diagnostics.  At the first iterate whose mean
    passes the divergence threshold the potential's declared recession
    function is read once, with no potential evaluation (see
    certify.coercivity_probe).  An escape ray proves that no minimizer
    exists: the run ends there as diverged rather than failed, and its
    ``message`` names the ray.  Without one a minimizer exists, and the run
    goes on.

    The iterate is kept both as samples u and as its half spectrum, and
    steps update both.  Directions, preconditioning and inner products (by
    Parseval) work on spectra; the preconditioner is a real n x n matrix
    per mode, built once from the potential's Hessian (see SolverOptions).
    The kinetic term is exactly quadratic along a search ray, so a
    line-search trial costs one potential evaluation and no transform, and
    an iteration three transforms; the iteration that meets the tolerance
    takes two, since only a next direction reads the gradient's spectrum.
    An iterate meets the tolerance when the action gradient's largest
    sample is within tol_grad_inf.  Where a trial's action ties with the
    current one to rounding, the slope along the ray decides instead, for
    one more potential gradient, unless the ray promised a decrease well
    above rounding: then the trial is past the ray's minimum and is halved.
    """
    opts = opts if opts is not None else SolverOptions()
    _check_operator(op, grid)
    if init is None:
        u = default_init(grid, pot.n, opts)
    else:
        _check_field(op, init)
        u = Field(grid, init.values.copy())
    _check_potential(u, pot)

    coords = grid.coords()
    lam = op._lam[..., None]
    u = u.values
    # fixed for the whole run, as L-BFGS needs
    precond = _fitted_preconditioner(op, _box_mean(pot.hessian(coords, u), grid))
    inner = op._inner

    # the convergence test: grad_inf <= tol
    tol = opts.tol_grad_inf
    # lam_uhat, lambda * u-hat, is formed once per iterate: the gradient's
    # samples and spectrum and the next ray's slope all read it
    uhat = op._rfft(u)
    lam_uhat = lam * uhat
    kinetic = 0.5 * inner(lam_uhat, uhat)
    potential_part = integrate(grid, pot.value(coords, u))
    f = kinetic + potential_part
    if not np.isfinite(f):
        raise ValueError("action is not finite at the initial field")
    grad_f = pot.gradient(coords, u)
    # of the gradient's samples only the largest is kept: the descent works
    # on spectra
    grad_inf = float(np.abs(_gradient_samples(lam_uhat, grad_f, op)).max())
    if not np.isfinite(grad_inf):
        raise ValueError("action gradient is not finite at the initial field")
    converged = grad_inf <= tol
    # the gradient's spectrum is read only by a next direction
    ghat = None if converged else lam_uhat + op._rfft(grad_f)

    trace = [_trace_row(f, grad_inf, uhat, op)]
    memory = _LbfgsMemory(_LBFGS_MEMORY, inner, precond)
    alpha_prev = None
    status = SolveStatus.MAX_ITERS
    line_search_failed = False
    message = ""
    iterations = 0
    recession_read = False

    while not converged and iterations < opts.max_iters:
        d = memory.direction(ghat)
        gd = inner(ghat, d)
        if not gd < 0.0:
            # steepest-descent fallback
            d = -precond(ghat)
            gd = inner(ghat, d)
            if not gd < 0.0:
                status = SolveStatus.CONVERGED
                message = "descent direction vanished"
                break

        # Along u + alpha d the kinetic term is
        # kinetic + alpha D(u, d) + alpha^2 D(d, d) / 2.
        slope = inner(lam_uhat, d)
        curvature = inner(lam * d, d)
        d_samples = op._irfft(d)

        # One notch above the last accepted step, so the step can grow
        # geometrically on rays where the action keeps dropping.
        if alpha_prev is None:
            trial = 1.0
        else:
            trial = min(alpha_prev / _BACKTRACK_FACTOR, 1e30)

        alpha = trial
        accepted = False
        tie = _ACTION_TIE * (abs(kinetic) + abs(potential_part))
        for _bt in range(_MAX_BACKTRACKS + 1):
            u_try = alpha * d_samples
            u_try += u
            kinetic_try = kinetic + alpha * slope + 0.5 * alpha * alpha * curvature
            potential_try = integrate(grid, pot.value(coords, u_try))
            f_try = kinetic_try + potential_try
            grad_try = None
            if abs(f_try - f) <= tie:
                # The two values tie to rounding.  Where the ray promised a
                # decrease well above rounding, the trial sits near the mirror
                # point 2 alpha* of the ray's minimum, so back off without
                # buying a gradient.  Otherwise the slope along the ray
                # decides: the approximate Armijo test of Hager & Zhang (SIAM
                # J. Optim. 16(1), 2005), exact for a quadratic and free of the
                # cancellation in f_try - f.
                if -alpha * gd <= _MIRROR_PROMISE * tie:
                    grad_try = pot.gradient(coords, u_try)
                    ray_slope = slope + alpha * curvature + grid.cell_weight * float(
                        np.sum(grad_try * d_samples)
                    )
                    if ray_slope <= (2.0 * _TIE_DECREASE - 1.0) * gd:
                        accepted = True
                        break
            elif np.isfinite(f_try) and f_try <= f + _ARMIJO_C1 * alpha * gd:
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
        if not accepted:
            line_search_failed = True
            message = (
                f"line search failed after {_MAX_BACKTRACKS} halvings "
                f"(directional derivative {gd:.3e})"
            )
            break

        s = alpha * d
        uhat += s
        u = u_try
        grad_f = pot.gradient(coords, u) if grad_try is None else grad_try
        lam_uhat = lam * uhat
        grad_inf = float(np.abs(_gradient_samples(lam_uhat, grad_f, op)).max())
        converged = grad_inf <= tol
        if not converged:
            ghat_new = lam_uhat + op._rfft(grad_f)
            memory.push(s, ghat_new - ghat)
            ghat = ghat_new
        f, kinetic, potential_part = f_try, kinetic_try, potential_try
        alpha_prev = alpha
        iterations += 1
        row = _trace_row(f, grad_inf, uhat, op)
        trace.append(row)

        # An escape ray of the declared recession function proves that no
        # minimizer exists; it is read once, at the first iterate past the
        # threshold.
        if not recession_read and not row[2] < _DIVERGENCE_MEAN_NORM:
            recession_read = True
            _, ray = coercivity_probe(build_mean_potential(grid, pot))
            if ray is not None:
                status = SolveStatus.DIVERGED_NON_COERCIVE
                message = (
                    f"no minimizer: the declared recession function has the "
                    f"escape ray [{', '.join(f'{c:.6g}' for c in ray)}]; mean "
                    f"norm {row[2]:.3e} past {_DIVERGENCE_MEAN_NORM:.0e}"
                )
                break
    # a diagnosed divergence stands, even at an iterate that meets the tolerance
    if converged and status is SolveStatus.MAX_ITERS:
        status = SolveStatus.CONVERGED

    # The carried spectrum differs from rfft(u) by rounding, and the residual
    # cancels far below the size of its terms, so the reported residual comes
    # from the returned samples' own spectrum.  The action is the carried one,
    # the last value in the trace.
    uhat = op._rfft(u)
    g = _gradient_samples(lam * uhat, grad_f, op)
    grad_inf = float(np.abs(g).max())
    return SolveResult(
        u=Field(grid, u, _check=False),
        status=status,
        iterations=iterations,
        action=ActionReport(kinetic, potential_part, f, grad_inf),
        residual_inf=grad_inf,
        residual_l2=l2_norm(Field(grid, g, _check=False)),
        mean=_box_mean(u, grid),
        fluctuation_h1_norm=_fluctuation_h1(uhat, op),
        trace=np.asarray(trace, dtype=float),
        line_search_failed=line_search_failed,
        message=message,
    )


def _pcg(apply_j, b: np.ndarray, op: DiffOperator, precond, rel_tol: float, max_iters: int):
    """Conjugate gradients on half spectra in the quadrature inner product."""
    inner = op._inner
    x = np.zeros_like(b)
    r = b
    z = precond(r)
    d = z
    rz = inner(r, z)
    b_norm = np.sqrt(max(inner(b, b), 0.0))
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
        djd = inner(d, jd)
        if djd <= 0.0:
            # non-positive curvature: usable only if we made progress first
            return best_x, best_rel < 1.0
        alpha = rz / djd
        x = x + alpha * d
        r = r - alpha * jd
        rel = np.sqrt(max(inner(r, r), 0.0)) / b_norm
        if rel < best_rel:
            best_x, best_rel = x, rel
        if rel <= rel_tol:
            return x, True
        if rel > 100.0 * best_rel + 1.0:
            break  # stagnated and diverging; settle for the best iterate
        z = precond(r)
        rz_new = inner(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return best_x, True


def newton_krylov_refine(
    result: SolveResult,
    pot: Potential,
    op: DiffOperator,
    tol: float = 1e-12,
) -> SolveResult:
    """Polish a descent result with damped Newton steps on the stationarity system.

    Each step solves (-laplacian + hess F) d = -(action gradient) by
    preconditioned CG and damps until the residual norm drops.  Requires the
    input run not to have diverged.

    A result whose ``residual_inf`` already meets ``tol`` is returned as
    converged, with a copy of its field and nothing recomputed: no transform
    and no potential call.  ``solve`` takes its residual norms from the
    returned samples with the same operations as this polish, so they are
    the norms a recomputation would give; the action is the run's carried
    value, which may differ from a fresh evaluation by rounding (about
    1e-15 relative).

    CG runs on half spectra, where the Laplacian and the preconditioner are
    multiplications, so a CG iteration costs two transforms.  The
    preconditioner is (lambda_k I + H-bar)^-1 with H-bar the box mean of the
    step's Hessian, so on a quadratic potential one CG iteration solves the
    Newton system.  CG stops at the inexact Newton forcing term (Dembo,
    Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2), 1982) that the target
    needs: with ||r||_inf <= ||r||_L2 / sqrt(cell_weight) on the grid, a
    linear residual below 0.1 tol sqrt(cell_weight) in L2 is below tol / 10
    at every node.  Relative to the residual's L2 norm that is clamped to
    [1e-13, 1e-2], so CG never solves tighter than 1e-13.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if result.status is SolveStatus.DIVERGED_NON_COERCIVE:
        raise ValueError("cannot refine a diverged run; no stationary point exists")
    _check_field(op, result.u)
    _check_potential(result.u, pot)
    if result.residual_inf <= tol:
        # a copy, as on every other path: the result never shares its field
        return replace(result, u=result.u.copy(), status=SolveStatus.CONVERGED)
    grid = op.grid
    coords = grid.coords()
    lam = op._lam[..., None]

    def residual(u):
        """(u-hat, grad F(t, u)) and the residual norms of u."""
        uhat = op._rfft(u)
        grad_f = pot.gradient(coords, u)
        g = _gradient_samples(lam * uhat, grad_f, op)
        norms = float(np.abs(g).max()), l2_norm(Field(grid, g, _check=False))
        return (uhat, grad_f), *norms

    u = result.u.values.copy()
    state, res_inf, res_l2 = residual(u)
    message = result.message
    newton_steps = 0
    cg_failed = False

    while res_inf > tol and newton_steps < _MAX_NEWTON:
        uhat, grad_f = state
        ghat = lam * uhat + op._rfft(grad_f)
        hess = pot.hessian(coords, u)

        def apply_j(v):
            w = op._irfft(v)
            hv = np.empty_like(w)
            for a in range(pot.n):
                col = hv[..., a]
                np.multiply(hess[..., a, 0], w[..., 0], out=col)
                for b in range(1, pot.n):
                    col += hess[..., a, b] * w[..., b]
            return lam * v + op._rfft(hv)

        forcing = 0.1 * tol * grid.cell_weight**0.5 / res_l2
        step, ok = _pcg(
            apply_j,
            -ghat,
            op,
            _fitted_preconditioner(op, _box_mean(hess, grid)),
            rel_tol=min(1e-2, max(1e-13, forcing)),
            max_iters=max(200, 2 * grid.node_count * pot.n),
        )
        if not ok:
            cg_failed = True
            message = (message + "; " if message else "") + (
                "newton refinement stopped: CG met non-positive curvature"
            )
            break
        step = op._irfft(step)
        alpha = 1.0
        improved = False
        for _ in range(60):
            u_try = u + alpha * step
            trial, trial_inf, trial_l2 = residual(u_try)
            if trial_l2 <= (1.0 - 1e-4 * alpha) * res_l2:
                u, state, res_inf, res_l2 = u_try, trial, trial_inf, trial_l2
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
    status = SolveStatus.CONVERGED if res_inf <= tol else SolveStatus.MAX_ITERS
    uhat, _ = state
    kinetic = 0.5 * op._inner(lam * uhat, uhat)
    potential_part = integrate(grid, pot.value(coords, u))
    return replace(
        result,
        u=Field(grid, u, _check=False),
        status=status,
        iterations=result.iterations + newton_steps,
        action=ActionReport(kinetic, potential_part, kinetic + potential_part, res_inf),
        residual_inf=res_inf,
        residual_l2=res_l2,
        mean=_box_mean(u, grid),
        fluctuation_h1_norm=_fluctuation_h1(uhat, op),
        message=message,
    )
