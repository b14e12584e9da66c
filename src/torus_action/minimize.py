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

import weakref
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .certify import (
    _ARMIJO_C1, _BACKTRACK_FACTOR, _MAX_BACKTRACKS, _VALUE_ROUNDING, _above_floor,
    build_mean_potential, coercivity_probe,
)
from .grid import (
    MIN_RESOLUTION, Field, TorusGrid, _box_mean, check_integer, check_seed,
    check_tolerance, integrate,
)
from .operators import (
    ActionReport, DiffOperator, Scheme, _check_field, _check_operator, _check_potential, l2_norm,
)
from .potentials import Potential, _combine, check_potential


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED_NON_COERCIVE = "diverged_non_coercive"


# (s, y) pairs that L-BFGS keeps.
_LBFGS_MEMORY = 10
# Standard deviation of the seeded noise in the default initial field.
_INIT_NOISE = 1e-3
# At the first iterate whose mean norm passes this, the declared recession
# function is read for an escape ray.
_DIVERGENCE_MEAN_NORM = 1e6
# Newton steps the polish takes at most.
_MAX_NEWTON = 50
# A spectral solve starts from the minimizer on the grid of half the
# resolution only where that grid has at least this many nodes.  On
# log-sum-exp problems in 2-D to 4-D, one coarse level took 0.8 to 1.1 times
# the time of a cold solve below it, and 0.2 to 0.6 times at it and above
# (best of 7 runs on a 2-core x86-64 box).
_MIN_COARSE_NODES = 2**12

# Action values closer than _VALUE_ROUNDING times the size of their kinetic
# and potential parts tie to rounding in the line search.  The slope test
# that breaks such ties asks for at least this sufficient decrease (Hager &
# Zhang's default).  With the Armijo constant 1e-4 it would take the mirror
# point 2 alpha* of the ray's minimum wherever the curvature falls along the
# ray, and the iterates would creep.
_TIE_DECREASE = 0.1
# A tied trial whose ray promised a first-order decrease -alpha g.d above this
# many tie widths is taken for the mirror point and rejected outright.
_MIRROR_PROMISE = 8.0


@dataclass(frozen=True)
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
        check_tolerance("tol_grad_inf", self.tol_grad_inf)


@dataclass(frozen=True)
class SolveResult:
    """What solve returns, and newton_krylov_refine from it.

    A result that solve returned holds its last point of the potential at
    ``u``, with the potential gradient and the half spectrum there, for the
    polish to start from; dataclasses.replace drops them, and a dropped
    result frees them.  The values of ``u`` are read-only.
    """

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
    # (pot, op, point, grad F(t, u), _residual's (u-hat, residual_inf,
    # residual_l2)): the potential and operator solve was given, and its
    # last point at u and what it measured there, read by
    # newton_krylov_refine.  A class attribute, not a field, that _descend
    # attaches: replace() drops it, and neither the report nor == sees it.
    _last = None


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
    at or below the singular floor of certify._above_floor, which the mean
    search shares, the scale is the H1 smoother 1 / (1 + lambda_k); with
    ``hbar`` zero or the identity the map is that smoother bit for bit.  The
    per-mode n x n matrices are real and are applied by _apply_rows,
    skipping the entries that vanish, at no transform cost.
    """
    mu, q = np.linalg.eigh(hbar)
    scales = [1.0 / (op._lam + m) if kept else op._smooth
              for m, kept in zip(mu, _above_floor(mu))]
    n = len(mu)
    rows = []
    for a in range(n):
        tables = ((b, sum(q[a, j] * q[b, j] * scales[j] for j in range(n))) for b in range(n))
        rows.append([(b, table) for b, table in tables if np.any(table != 0.0)])
    return lambda w: _apply_rows(rows, w)


def _apply_rows(rows, w: np.ndarray) -> np.ndarray:
    """A field of n x n matrices applied to the n-vector field w, where
    ``rows[a]`` lists the (b, entry) terms of row a, by potentials._combine."""
    out = np.empty_like(w)
    columns = [w[..., b] for b in range(w.shape[-1])]
    for a, terms in enumerate(rows):
        _combine(columns, terms, out[..., a])
    return out


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
        if sy > guard:
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

    A spectral solve starts from the minimizer on the grid of half the
    resolution (nested iteration) where every resolution is divisible by 4,
    the half grid resolves every path of the potential and it has at least
    _MIN_COARSE_NODES = 2**12 nodes.  The given or default ``init``,
    truncated to the half grid's modes, seeds that coarse solve, which
    follows the same rule, so a 512 x 512 grid starts on 64 x 64.  A
    converged coarse minimizer, zero-padded in the half spectrum, starts
    the descent on the grid; so does the iterate where a coarse level read
    an escape ray, since the recession function does not depend on the
    grid, and the grid's descent then reads the ray after one step.
    ``message`` adds "coarse start: k iterations on the 64x64 grid" for
    each such level.  A coarse level that hits max_iters, or whose iterate
    is refused, is thrown away, and the descent starts from ``init``.
    ``iterations`` and ``trace`` count the grid's own iterations alone.
    The half-grid operator is built once per operator, so repeated solves
    on one operator and potential sample no path again (TrigPath.__call__).
    The descent holds one point of the potential (see Potential) for the
    iterate and one for each line-search trial, and drops the iterate's
    before the first trial is evaluated: a log-sum-exp sweeps its
    exponentials once for the start's Hessian, value and gradient, and once
    for a trial's value and, where it is accepted, its gradient.  The
    returned field is the last iterate, made read-only.

    The iterate is kept both as samples u and as its half spectrum, and
    steps update both.  Directions, preconditioning and inner products (by
    Parseval) work on spectra; the preconditioner is a real n x n matrix
    per mode, built once from the potential's Hessian (see SolverOptions).
    The kinetic term is exactly quadratic along a search ray, so a
    line-search trial costs one potential evaluation and no transform, and
    an iteration three transforms.  The last iterate takes two whether the
    run converges, hits max_iters or diverges, since only a next direction
    reads the gradient's spectrum, so such a run of k iterations makes
    3k + 4 in all, and 2 when the initial field meets the tolerance, whose
    first measurement is also its result's.  A coarse level adds its own
    count and two transforms each way between the grids, or two when it is
    thrown away.  The result holds its last point, with the potential
    gradient and half spectrum at ``u``, for newton_krylov_refine to start
    from (see SolveResult); a run whose line search fails holds none.
    Each iterate, the initial field first, is measured once: a gradient
    that is not finite there is refused with a ValueError naming the
    iteration, and an iterate meets the tolerance when the action
    gradient's largest sample is within tol_grad_inf.  Where <g, P g>
    underflows to zero no ray promises a decrease, and the run stops as
    max_iters with line_search_failed set.  Where a trial's action ties
    with the current one to rounding, the slope along the ray decides
    instead, for one more potential gradient, unless the ray promised a
    decrease well above rounding: then the trial is past the ray's minimum
    and is halved.
    """
    opts = opts if opts is not None else SolverOptions()
    _check_operator(op, grid)
    if init is None:
        u = default_init(grid, pot.n, opts)
    else:
        _check_field(op, init)
        u = Field(grid, init.values.copy())
    _check_potential(u, pot)
    return _nested(op, pot, opts, u.values)[0]


# Each operator's half-grid operator, or None where its scheme or grid rules
# the coarse start out.  Built once per operator, so the half grid's cached
# coordinates, and the path samples that TrigPath keeps for them, outlive a
# solve.
_HALF_OPERATORS = weakref.WeakKeyDictionary()


def _coarse_operator(op: DiffOperator, pot: Potential) -> DiffOperator | None:
    """The operator on the grid of half op's resolution, if solve starts there.

    It does where the scheme is spectral, every resolution is divisible by 4
    and halves to a grid, that grid resolves every path of ``pot`` and it has
    at least _MIN_COARSE_NODES nodes.
    """
    if op not in _HALF_OPERATORS:
        grid = op.grid
        _HALF_OPERATORS[op] = None
        if (
            op.scheme is Scheme.SPECTRAL
            and all(N % 4 == 0 and N >= 2 * MIN_RESOLUTION for N in grid.resolutions)
            and grid.node_count >= _MIN_COARSE_NODES * 2**grid.p
        ):
            half = TorusGrid(grid.periods, [N // 2 for N in grid.resolutions])
            _HALF_OPERATORS[op] = DiffOperator(half, op.scheme)
    coarse = _HALF_OPERATORS[op]
    if coarse is not None:
        try:
            check_potential(pot, coarse.grid)
        except ValueError:
            return None
    return coarse


def _resample(u: np.ndarray, src: DiffOperator, dst: DiffOperator) -> np.ndarray:
    """The samples on dst's grid of the band-limited part of u, sampled on src's.

    The half-spectrum modes below the coarser grid's Nyquist frequency on
    every axis are copied, scaled by the node ratio for the unnormalized
    forward transform; the coarser grid's Nyquist planes and every mode above
    them are dropped.  From the fine grid this truncates u's spectrum, from
    the coarse one it zero-pads it (band-limited interpolation, Trefethen,
    Spectral Methods in MATLAB, 2000).
    """
    halves = [min(N, M) // 2 for N, M in zip(src.grid.resolutions, dst.grid.resolutions)]

    def band(resolutions):
        # modes 0 .. h - 1, and on a full axis -h + 1 .. -1 too, stored at its end
        return np.ix_(*(np.arange(h) if a == 0 else np.r_[0:h, N - h + 1:N]
                        for a, (N, h) in enumerate(zip(resolutions, halves))))

    spectrum = np.zeros(dst._lam.shape + u.shape[-1:], dtype=complex)
    spectrum[band(dst.grid.resolutions)] = src._rfft(u)[band(src.grid.resolutions)] * (
        dst.grid.node_count / src.grid.node_count)
    return dst._irfft(spectrum)


def _nested(op: DiffOperator, pot: Potential, opts: SolverOptions, u: np.ndarray):
    """solve's result from the samples u, and the notes of its coarse levels.

    Where _coarse_operator gives a half grid, u truncated to it seeds a
    coarse solve, itself nested.  A converged coarse minimizer, or the
    iterate where a diverged one read its escape ray, zero-padded, starts
    the descent here.  A coarse level that hits max_iters or whose iterate
    is refused is thrown away, and the descent starts from u.
    """
    notes = []
    coarse_op = _coarse_operator(op, pot)
    if coarse_op is not None:
        try:
            coarse, coarse_notes = _nested(coarse_op, pot, opts, _resample(u, op, coarse_op))
        except ValueError:
            coarse = None
        if coarse is not None and coarse.status in (
            SolveStatus.CONVERGED, SolveStatus.DIVERGED_NON_COERCIVE
        ):
            u = _resample(coarse.u.values, coarse_op, op)
            shape = "x".join(str(N) for N in coarse_op.grid.resolutions)
            notes = coarse_notes + [
                f"coarse start: {coarse.iterations} iterations on the {shape} grid"
            ]
    return _descend(op, pot, opts, u, notes), notes


def _descend(op: DiffOperator, pot: Potential, opts: SolverOptions, u: np.ndarray,
             notes=()) -> SolveResult:
    """solve's descent on op's grid from the samples u, which it keeps; its
    message follows the coarse levels' ``notes``."""
    grid = op.grid
    coords = grid.coords()
    lam = op._lam[..., None]
    point = pot.at(coords, u)
    # fixed for the whole run, as L-BFGS needs
    precond = _fitted_preconditioner(op, _box_mean(point.hessian(), grid))
    inner = op._inner

    # lam_uhat, lambda * u-hat, is formed once per iterate: the gradient's
    # samples and spectrum and the next ray's slope all read it
    uhat = op._rfft(u)
    lam_uhat = lam * uhat
    kinetic = 0.5 * inner(lam_uhat, uhat)
    potential_part = integrate(grid, point.value())
    f = kinetic + potential_part
    if not np.isfinite(f):
        raise ValueError("action is not finite at the initial field")
    grad_f = point.gradient()

    trace = []
    memory = _LbfgsMemory(_LBFGS_MEMORY, inner, precond)
    alpha_prev = None
    line_search_failed = False
    message = ""
    iterations = 0
    recession_read = False
    residual = None

    # Each pass measures the current iterate, iteration 0 being the initial
    # field, then decides whether to stop, and only then steps.
    while True:
        # of the gradient's samples only the largest is kept: the descent
        # works on spectra
        g = op._irfft(lam_uhat) + grad_f
        grad_inf = float(np.abs(g).max())
        if not np.isfinite(grad_inf):
            raise ValueError(f"action gradient is not finite at iteration {iterations}")
        row = _trace_row(f, grad_inf, uhat, op)
        trace.append(row)

        # An escape ray of the declared recession function proves that no
        # minimizer exists; it is read once, at the first stepped iterate
        # past the threshold, and wins over the tolerance.
        if iterations and not recession_read and not row[2] < _DIVERGENCE_MEAN_NORM:
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
        if grad_inf <= opts.tol_grad_inf:
            status = SolveStatus.CONVERGED
            if not iterations:
                # u took no step, so uhat and g are its own spectrum and
                # residual, the bits _residual would give
                residual = (uhat, grad_inf, l2_norm(Field(grid, g, _check=False)))
            break
        if iterations >= opts.max_iters:
            status = SolveStatus.MAX_ITERS
            break

        # the gradient's spectrum is read only by a next direction
        ghat_new = lam_uhat + op._rfft(grad_f)
        if iterations:
            memory.push(s, ghat_new - ghat)
        ghat = ghat_new
        d = memory.direction(ghat)
        gd = inner(ghat, d)
        if not gd < 0.0:
            # steepest-descent fallback
            d = -precond(ghat)
            gd = inner(ghat, d)
            if not gd < 0.0:
                # <g, P g> underflowed to zero: no ray promises a decrease,
                # and searching one anyway lets the step grow to overflow
                status = SolveStatus.MAX_ITERS
                line_search_failed = True
                message = "descent direction vanished: <g, P g> underflows"
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
        tie = _VALUE_ROUNDING * (abs(kinetic) + abs(potential_part))
        for _bt in range(_MAX_BACKTRACKS + 1):
            u_try = alpha * d_samples
            u_try += u
            # the iterate's point, or the last trial's, goes before this one
            # is evaluated
            point = None
            point = pot.at(coords, u_try)
            kinetic_try = kinetic + alpha * slope + 0.5 * alpha * alpha * curvature
            potential_try = integrate(grid, point.value())
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
                    grad_try = point.gradient()
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
            status = SolveStatus.MAX_ITERS
            line_search_failed = True
            point = None  # the last trial's, not u's
            message = (
                f"line search failed after {_MAX_BACKTRACKS} halvings "
                f"(directional derivative {gd:.3e})"
            )
            break

        s = alpha * d
        uhat += s
        u = u_try
        grad_f = point.gradient() if grad_try is None else grad_try
        lam_uhat = lam * uhat
        f, kinetic, potential_part = f_try, kinetic_try, potential_try
        alpha_prev = alpha
        iterations += 1

    # the action is the carried one, the last value in the trace
    residual = residual or _residual(u, grad_f, op)
    result = SolveResult(
        status=status,
        iterations=iterations,
        trace=np.asarray(trace, dtype=float),
        line_search_failed=line_search_failed,
        message="; ".join(note for note in (*notes, message) if note),
        **_measured(op, u, residual, kinetic, potential_part, f),
    )
    if point is not None:
        object.__setattr__(result, "_last", (pot, op, point, grad_f, residual))
    return result


def _residual(u: np.ndarray, grad_f: np.ndarray, op: DiffOperator):
    """(u-hat, residual_inf, residual_l2) of the samples u.

    A carried spectrum differs from rfft(u) by rounding, and the residual
    cancels far below the size of its terms, so it is taken from u's own.
    """
    uhat = op._rfft(u)
    g = op._irfft(op._lam[..., None] * uhat) + grad_f
    return uhat, float(np.abs(g).max()), l2_norm(Field(op.grid, g, _check=False))


def _measure(pot: Potential, op: DiffOperator, coords, u: np.ndarray):
    """The point of ``pot`` at the samples u, its gradient and _residual there."""
    point = pot.at(coords, u)
    grad_f = point.gradient()
    return point, grad_f, _residual(u, grad_f, op)


def _measured(op: DiffOperator, u, residual, kinetic, potential_part, f) -> dict:
    """The SolveResult fields measured on u, made read-only as the result's field."""
    uhat, res_inf, res_l2 = residual
    u.setflags(write=False)
    return dict(
        u=Field(op.grid, u, _check=False),
        action=ActionReport(kinetic, potential_part, f, res_inf),
        residual_inf=res_inf,
        residual_l2=res_l2,
        mean=_box_mean(u, op.grid),
        fluctuation_h1_norm=_fluctuation_h1(uhat, op),
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
    converged, with a copy of its field and nothing recomputed: solve takes
    its norms from the returned samples with the same operations as this
    polish, and the action is the run's carried value, which may differ from
    a fresh evaluation by rounding (about 1e-15 relative).  Otherwise the
    polish starts from the point that the result holds at ``u``, with the
    potential gradient and the half spectrum that solve already took, where
    ``result`` is as solve returned it and ``pot`` and ``op`` are the objects
    solve was given: one potential evaluation and two transforms fewer, and
    the same bits; any other result is measured afresh.  The early return
    reads the norms the result carries, so a result rebuilt by
    dataclasses.replace with a new ``u`` is measured only where its old
    ``residual_inf`` is above ``tol``.  The field is read without a copy,
    and every returned field, the early return's copy too, is read-only.
    The polish holds one point of the potential (see Potential) for its
    iterate and one for each damping trial: the first Hessian reads solve's
    last point, and the final value the accepted trial's.

    CG runs on half spectra, where the Laplacian and the preconditioner are
    multiplications, so a CG iteration costs two transforms; each Newton
    step adds two (the gradient's spectrum and the step's samples) and each
    damping trial two, with its potential gradient.  The
    preconditioner is (lambda_k I + H-bar)^-1 with H-bar the box mean of the
    step's Hessian, so on a quadratic potential one CG iteration solves the
    Newton system.  CG stops at the inexact Newton forcing term (Dembo,
    Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2), 1982) that the target
    needs: with ||r||_inf <= ||r||_L2 / sqrt(cell_weight) on the grid, a
    linear residual below 0.1 tol sqrt(cell_weight) in L2 is below tol / 10
    at every node.  Relative to the residual's L2 norm that is clamped to
    [1e-13, 1e-2], so CG never solves tighter than 1e-13.
    """
    check_tolerance("tol", tol)
    if result.status is SolveStatus.DIVERGED_NON_COERCIVE:
        raise ValueError("cannot refine a diverged run; no stationary point exists")
    _check_field(op, result.u)
    _check_potential(result.u, pot)
    if result.residual_inf <= tol:
        # a copy of the field, read-only as every field the polish returns
        u = result.u.copy()
        u.values.setflags(write=False)
        return replace(result, u=u, status=SolveStatus.CONVERGED)
    grid = op.grid
    coords = grid.coords()
    lam = op._lam[..., None]

    u = result.u.values
    last = result._last
    if last is not None and last[0] is pot and last[1] is op:
        point, grad_f, residual = last[2:]
    else:
        point, grad_f, residual = _measure(pot, op, coords, u)
    notes = [result.message]
    newton_steps = 0
    cg_failed = False

    while residual[1] > tol and newton_steps < _MAX_NEWTON:
        uhat, _, res_l2 = residual
        ghat = lam * uhat + op._rfft(grad_f)
        hess = point.hessian()
        rows = [[(b, hess[..., a, b]) for b in range(pot.n)] for a in range(pot.n)]

        def apply_j(v):
            # allocations in this order: forming lam * v first, or freeing w
            # before it, raised the large-grid benchmark's peak RSS by 1 MB
            w = op._irfft(v)
            hv = _apply_rows(rows, w)
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
            notes.append("newton refinement stopped: CG met non-positive curvature")
            break
        step = op._irfft(step)
        # damped as certify's constant block states
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            u_try = u + alpha * step
            trial, grad_try, residual_try = _measure(pot, op, coords, u_try)
            if residual_try[2] <= (1.0 - _ARMIJO_C1 * alpha) * res_l2:
                u, point, grad_f, residual = u_try, trial, grad_try, residual_try
                break
            alpha *= _BACKTRACK_FACTOR
        else:
            notes.append("newton refinement stopped: damping found no residual decrease")
            break
        newton_steps += 1

    if newton_steps > 0 and not cg_failed:
        notes.append(f"newton refinement: {newton_steps} step(s)")
    uhat, res_inf, _ = residual
    kinetic = 0.5 * op._inner(lam * uhat, uhat)
    potential_part = integrate(grid, point.value())
    if u is result.u.values and u.flags.writeable:
        u = u.copy()  # no step was taken: the returned field is not the caller's
    return replace(
        result,
        status=SolveStatus.CONVERGED if res_inf <= tol else SolveStatus.MAX_ITERS,
        iterations=result.iterations + newton_steps,
        message="; ".join(note for note in notes if note),
        **_measured(op, u, residual, kinetic, potential_part, kinetic + potential_part),
    )
