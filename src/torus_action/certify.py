"""Solvability certificates from the averaged potential.

For strictly convex potentials, existence of a multi-periodic solution is
equivalent to the averaged potential G(x) = integral of F(t, x) dt having a
stationary point, which in turn is equivalent to G being coercive.  The
certificate probes both conditions numerically and cross-checks them; it
never runs the field solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .grid import Field, TorusGrid, check_periods, integrate
from .operators import DiffOperator, dirichlet_form, l2_norm, mean_decompose
from .potentials import Convexity, Potential


class Coercivity(str, Enum):
    COERCIVE = "coercive"
    NOT_COERCIVE = "not_coercive"
    INCONCLUSIVE = "inconclusive"


class Verdict(str, Enum):
    SOLVABLE = "solvable"
    NOT_SOLVABLE = "not_solvable"
    INCONCLUSIVE = "inconclusive"


class ConsistencyError(RuntimeError):
    """Stationary-mean and coercivity probes contradict strict convexity.

    For a strictly convex potential the two conditions are equivalent, so a
    disagreement flags a potential or precision bug rather than a verdict.
    """


@dataclass(frozen=True)
class RayProbe:
    direction: np.ndarray
    radii: tuple[float, ...]
    values: np.ndarray


@dataclass(frozen=True)
class SolvabilityCertificate:
    stationary_mean: Optional[np.ndarray]
    grad_norm: float
    coercivity: Coercivity
    ray_probes: tuple[RayProbe, ...]
    wirtinger_constant: float
    verdict: Verdict
    notes: tuple[str, ...] = ()


@dataclass
class CertifyOptions:
    tol: float = 1e-8
    max_iters: int = 10000
    radii: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    directions: Optional[int] = None
    seed: int = 0


class MeanPotentialG:
    """The averaged potential G(x) = integral of F(t, x) over the box.

    x is held frozen across the box, so G is a plain function on R^n that
    inherits convexity from F.
    """

    def __init__(self, grid: TorusGrid, pot: Potential):
        check_periods("potential", pot.periods, grid)
        self.grid = grid
        self.pot = pot
        self.n = pot.n
        self._coords = grid.coords()

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        frozen = np.broadcast_to(x, self.grid.shape + (self.n,))
        return integrate(self.grid, self.pot.value(self._coords, frozen))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        frozen = np.broadcast_to(x, self.grid.shape + (self.n,))
        g = self.pot.gradient(self._coords, frozen)
        return self.grid.cell_weight * g.reshape(-1, self.n).sum(axis=0)

    def hessian(self, x) -> np.ndarray:
        """The box integral of hess F(t, x); the potential must carry a Hessian."""
        x = np.asarray(x, dtype=float)
        frozen = np.broadcast_to(x, self.grid.shape + (self.n,))
        h = self.pot.hessian(self._coords, frozen)
        return self.grid.cell_weight * h.reshape(-1, self.n, self.n).sum(axis=0)


def build_mean_potential(grid: TorusGrid, pot: Potential) -> MeanPotentialG:
    return MeanPotentialG(grid, pot)


# A damped Newton step must lower G by this share of t times the decrement
# (Boyd & Vandenberghe's alpha); its step t halves at most this many times.
_NEWTON_ALPHA = 0.01
_NEWTON_HALVINGS = 60


def find_stationary_mean(
    G: MeanPotentialG,
    tol: float = 1e-8,
    max_iters: int = 10000,
    iterate_cap: float = 1e6,
):
    """Search G for a stationary point from the origin; report it or its absence.

    Damped Newton (Boyd & Vandenberghe, Convex Optimization, 2004, section
    9.5): the step d solves H d = -grad G, H the box integral of hess F, and
    its length halves until G falls by a share of the decrement
    grad G^T H^-1 grad G.  The search stops once the decrement is at most
    tol^2.  That test is affine invariant, so the size of the box does not
    move it, and a quadratic G stops after one step.  A decrement counts
    only from a Cholesky factor of H, so an H that is not positive definite
    never passes for convergence: there (a potential without a Hessian, a
    linear drift, a G that flattens along an escape ray) the search goes on
    by steepest descent, which stops at |grad G| <= tol.

    Returns (x, grad_norm) with x None when the iterate escapes past the cap
    or the budget runs out, which for convex G is the numerical signature
    that no stationary mean exists.
    """
    x = np.zeros(G.n)
    if G.pot.hessian is None:
        return _descend(G, x, tol, max_iters, iterate_cap)
    f = G.value(x)
    for used in range(max_iters):
        g = G.gradient(x)
        gnorm = float(np.linalg.norm(g))
        if np.linalg.norm(x) >= iterate_cap:
            return None, gnorm
        try:
            chol = np.linalg.cholesky(G.hessian(x))
        except np.linalg.LinAlgError:
            return _descend(G, x, tol, max_iters - used, iterate_cap)
        w = np.linalg.solve(chol, g)
        decrement = float(w @ w)
        if decrement <= tol**2:
            return x, gnorm
        d = -np.linalg.solve(chol.T, w)
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            x_try = x + t * d
            f_try = G.value(x_try)
            if np.isfinite(f_try) and f_try <= f - _NEWTON_ALPHA * t * decrement:
                break
            t *= 0.5
        else:
            return None, gnorm
        x, f = x_try, f_try
    return None, float(np.linalg.norm(G.gradient(x)))


def _descend(G: MeanPotentialG, x, tol, max_iters, iterate_cap):
    """Steepest descent on G from x with backtracking; stops at |grad G| <= tol."""
    g = G.gradient(x)
    gnorm = float(np.linalg.norm(g))
    f = G.value(x)
    alpha_prev = None
    for _ in range(max_iters):
        if gnorm <= tol:
            return x, gnorm
        if np.linalg.norm(x) >= iterate_cap:
            return None, gnorm
        d = -g
        trial = 1.0 if alpha_prev is None else min(alpha_prev * 2.0, 1e30)
        alpha = trial
        accepted = False
        for _bt in range(80):
            x_try = x + alpha * d
            f_try = G.value(x_try)
            if np.isfinite(f_try) and f_try <= f - 1e-4 * alpha * gnorm**2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return x if gnorm <= tol else None, gnorm
        x, f = x_try, f_try
        g = G.gradient(x)
        gnorm = float(np.linalg.norm(g))
        alpha_prev = alpha
    if gnorm <= tol:
        return x, gnorm
    return None, gnorm


def coercivity_probe(
    G: MeanPotentialG,
    radii=(1.0, 10.0, 100.0, 1000.0),
    directions: Optional[int] = None,
    seed: int = 0,
):
    """Sample G along rays and classify its growth.

    Every signed coordinate axis is probed, topped up with seeded random unit
    directions.  A ray whose value at the largest radius has not risen above
    its value at the smallest (plus unit margin) witnesses non-coercive
    growth and dominates the verdict; certified growth needs a unit-margin
    increase between the last two radii on every ray.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    n = G.n
    count = directions if directions is not None else max(2 * n, 8)
    if count < 2 * n:
        raise ValueError(f"need at least {2 * n} directions for n={n}, got {count}")
    dirs = [np.eye(n)[i] * s for i in range(n) for s in (+1.0, -1.0)]
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            dirs.append(v / norm)

    probes = []
    any_flat = False
    all_rising = True
    for d in dirs:
        vals = np.array([G.value(r * d) for r in radii])
        probes.append(RayProbe(direction=d, radii=radii, values=vals))
        if vals[-1] <= vals[0] + 1.0:
            any_flat = True
        if not vals[-1] >= vals[-2] + 1.0:
            all_rising = False
    if any_flat:
        label = Coercivity.NOT_COERCIVE
    elif all_rising:
        label = Coercivity.COERCIVE
    else:
        label = Coercivity.INCONCLUSIVE
    return label, tuple(probes)


def wirtinger_constant(op: DiffOperator) -> float:
    """Sharp constant C with ||u - mean(u)||_L2 <= C ||du||_L2 on this grid.

    Equals 1 / sqrt(smallest nonzero eigenvalue); for the spectral scheme
    this is max_a T^a / (2 pi).
    """
    lam = op.eigenvalues.ravel()
    positive = np.delete(lam, 0)
    return float(1.0 / np.sqrt(positive.min()))


def _extremal_mode(op: DiffOperator) -> Field:
    lam = op.eigenvalues.copy()
    lam[(0,) * op.grid.p] = np.inf
    k_star = np.unravel_index(int(np.argmin(lam)), op.grid.shape)
    signed = [np.fft.fftfreq(N, 1.0 / N) for N in op.grid.resolutions]
    khat = [signed[a][k_star[a]] for a in range(op.grid.p)]
    coords = op.grid.coords()
    omega = np.array(
        [2.0 * np.pi * k / T for k, T in zip(khat, op.grid.periods)]
    )
    values = np.cos(coords @ omega)[..., None]
    return Field(op.grid, values)


def fluctuation_ratio(u: Field, op: DiffOperator) -> float:
    """||u - mean|| / ||du|| in quadrature norms; NaN-free only for nonconstant u."""
    _, fluct = mean_decompose(u)
    num = l2_norm(fluct)
    den = float(np.sqrt(max(dirichlet_form(fluct, fluct, op), 0.0)))
    if den == 0.0:
        raise ValueError("field is constant; the fluctuation ratio is undefined")
    return num / den


def wirtinger_audit(
    op: DiffOperator,
    trials: int = 100,
    seed: int = 0,
    include_extremal: bool = True,
) -> float:
    """Max fluctuation ratio over random zero-mean fields (plus the extremal mode).

    Always bounded by wirtinger_constant(op); the bound is attained by the
    lowest nonzero-frequency harmonic, which is prepended to the trial set by
    default so the audit touches it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    if include_extremal:
        worst = fluctuation_ratio(_extremal_mode(op), op)
    for _ in range(trials):
        values = rng.normal(size=op.grid.shape + (1,))
        u = Field(op.grid, values)
        worst = max(worst, fluctuation_ratio(u, op))
    return worst


def certify(
    grid: TorusGrid,
    pot: Potential,
    op: DiffOperator,
    options: CertifyOptions | None = None,
) -> SolvabilityCertificate:
    """Issue a solvability certificate from mean-potential probes.

    Solvable when a stationary mean is found; not solvable when none is found
    and the ray probes witness non-coercive growth; inconclusive otherwise.
    For strictly convex potentials a contradiction between the two probes
    raises ConsistencyError instead of guessing.
    """
    opts = options if options is not None else CertifyOptions()
    G = build_mean_potential(grid, pot)
    x_bar, grad_norm = find_stationary_mean(G, tol=opts.tol, max_iters=opts.max_iters)
    label, probes = coercivity_probe(
        G, radii=opts.radii, directions=opts.directions, seed=opts.seed
    )
    notes: list[str] = []
    coercivity = label
    strict = pot.convexity is Convexity.STRICTLY_CONVEX

    if strict:
        if x_bar is not None and label is Coercivity.NOT_COERCIVE:
            raise ConsistencyError(
                "strictly convex potential has a stationary mean "
                f"(|grad G| = {grad_norm:.3e}) but ray probes report non-coercive "
                "growth; the two conditions are equivalent, so one probe is wrong"
            )
        if x_bar is None and label is Coercivity.COERCIVE:
            raise ConsistencyError(
                "strictly convex potential shows coercive ray growth but the "
                f"stationary-mean search failed (|grad G| = {grad_norm:.3e}); "
                "the two conditions are equivalent, so one probe is wrong"
            )
    else:
        if x_bar is not None and label is Coercivity.NOT_COERCIVE:
            coercivity = Coercivity.INCONCLUSIVE
            notes.append(
                "ray probes did not certify coercive growth although a stationary "
                "mean exists; without strict convexity the two conditions need not "
                "agree, so coercivity is reported inconclusive"
            )
        if x_bar is None and label is Coercivity.COERCIVE:
            coercivity = Coercivity.INCONCLUSIVE
            notes.append(
                "ray probes certify coercive growth but no stationary mean was "
                "found; without strict convexity the probes need not agree"
            )

    if x_bar is not None:
        verdict = Verdict.SOLVABLE
    elif label is Coercivity.NOT_COERCIVE:
        verdict = Verdict.NOT_SOLVABLE
    else:
        verdict = Verdict.INCONCLUSIVE

    return SolvabilityCertificate(
        stationary_mean=x_bar,
        grad_norm=grad_norm,
        coercivity=coercivity,
        ray_probes=probes,
        wirtinger_constant=wirtinger_constant(op),
        verdict=verdict,
        notes=tuple(notes),
    )
