"""Solvability certificates from the averaged potential.

A multi-periodic solution exists exactly when the averaged potential
G(x) = integral of F(t, x) dt attains its minimum.  For convex G that is
decided by its recession function G_inf(d) = lim G(r d) / r, which each
built-in potential declares in closed form, so a missing minimum is proved
by an escape ray along which G never rises.  Where a minimum exists,
damped Newton steps locate it.  The certificate never runs the field
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .grid import Field, TorusGrid, check_seed, integrate
from .operators import DiffOperator, _check_operator, dirichlet_form, l2_norm, mean_decompose
from .potentials import SUPERLINEAR, Potential, check_potential


class Coercivity(str, Enum):
    COERCIVE = "coercive"
    NOT_COERCIVE = "not_coercive"


class Verdict(str, Enum):
    SOLVABLE = "solvable"
    NOT_SOLVABLE = "not_solvable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SolvabilityCertificate:
    """The verdict and its evidence.

    ``escape_ray`` is a unit direction along which G never rises, given
    exactly when the verdict is not solvable; the search is then skipped and
    ``grad_norm`` is |grad G| at the origin, else where the search stopped.
    """

    stationary_mean: Optional[np.ndarray]
    grad_norm: float
    coercivity: Coercivity
    escape_ray: Optional[np.ndarray]
    wirtinger_constant: float
    verdict: Verdict
    notes: tuple[str, ...] = ()


class MeanPotentialG:
    """The averaged potential G(x) = integral of F(t, x) over the box.

    x is held frozen across the box, so G is a plain function on R^n that
    inherits convexity from F.
    """

    def __init__(self, grid: TorusGrid, pot: Potential):
        check_potential(pot, grid)
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
        """The box integral of hess F(t, x)."""
        x = np.asarray(x, dtype=float)
        frozen = np.broadcast_to(x, self.grid.shape + (self.n,))
        h = self.pot.hessian(self._coords, frozen)
        return self.grid.cell_weight * h.reshape(-1, self.n, self.n).sum(axis=0)


def build_mean_potential(grid: TorusGrid, pot: Potential) -> MeanPotentialG:
    return MeanPotentialG(grid, pot)


# A damped Newton step must lower G by this share of t times the decrement
# (Boyd & Vandenberghe's alpha); its step t halves at most this many times.
# Half the decrement is what a full step gains on the quadratic model, so a
# step that lands where G bends away from that model, as beyond a ridge of
# the log-sum-exp, is cut back.
_NEWTON_ALPHA = 0.25
_NEWTON_HALVINGS = 60
# Computed values are trusted to this share of their size: G's values here,
# the action's kinetic and potential parts in minimize.solve's line search.
_VALUE_ROUNDING = 1e-13
# The search's tolerance on the Newton decrement and on the gradient off H's
# range, and its step budget.
_MEAN_TOL = 1e-8
_MEAN_MAX_ITERS = 10000


def _above_floor(mu: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues mu above the singular floor 1e-10 max(1, max |mu|)."""
    return mu > 1e-10 * max(1.0, float(np.abs(mu).max()))


def find_stationary_mean(G: MeanPotentialG):
    """Search G for a stationary point from the origin; report it or its absence.

    Damped Newton (Boyd & Vandenberghe, Convex Optimization, 2004, section
    9.5) on the range of H, the box integral of hess F: H's eigendirections
    above the floor that _above_floor states, as solve's preconditioner
    does.  The step solves H d = -grad G there, and its length halves until
    G falls by a share of the decrement grad G^T H^+ grad G, unless that
    decrement is too small for G's values to show (_VALUE_ROUNDING), when
    the whole step is taken.  The search stops once the decrement is at most
    _MEAN_TOL^2; that test is affine invariant, so the size of the box does
    not move it, and a quadratic G stops after one step.  A gradient
    component off the range larger than _MEAN_TOL ends the search: along H's
    null space G is affine, with that slope.  For every built-in kind the
    null space does not depend on x (empty for the quadratics, null(S - s_0)
    for the log-sum-exp, everything for a linear drift), so that ending is
    exact there.

    Returns (x, grad_norm) with x None when the search ends that way or the
    budget runs out.  certify runs it only where the declared recession
    function proves that a minimum exists, however far from the origin.
    """
    x = np.zeros(G.n)
    f = G.value(x)
    for _ in range(_MEAN_MAX_ITERS):
        g = G.gradient(x)
        gnorm = float(np.linalg.norm(g))
        mu, q = np.linalg.eigh(G.hessian(x))
        kept = _above_floor(mu)
        c = q.T @ g
        if np.linalg.norm(c[~kept]) > _MEAN_TOL:
            return None, gnorm
        step = c[kept] / mu[kept]
        decrement = float(c[kept] @ step)
        if decrement <= _MEAN_TOL**2:
            return x, gnorm
        d = -q[:, kept] @ step
        visible = decrement > _VALUE_ROUNDING * abs(f)
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            x_try = x + t * d
            f_try = G.value(x_try)
            if np.isfinite(f_try) and (
                f_try <= f - _NEWTON_ALPHA * t * decrement or not visible
            ):
                break
            t *= 0.5
        else:
            return None, gnorm
        x, f = x_try, f_try
    return None, float(np.linalg.norm(G.gradient(x)))


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The mu >= 0 that minimizes |A mu - b|.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, chapter 23): a column joins the passive set while the residual
    still correlates with it, and a least-squares solve on the passive set
    is pulled back to the feasible segment whenever it leaves the orthant.
    """
    k = A.shape[1]
    tol = 10.0 * np.finfo(float).eps * max(A.shape) * np.abs(A).sum() * np.abs(b).sum()
    mu = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for _ in range(3 * k):
        w = A.T @ (b - A @ mu)
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            z = np.zeros(k)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if (z[passive] > 0.0).all():
                mu = z
                break
            blocked = passive & (z <= 0.0)
            ratio = np.full(k, np.inf)
            ratio[blocked] = mu[blocked] / (mu[blocked] - z[blocked])
            j = int(np.argmin(ratio))
            mu = mu + ratio[j] * (z - mu)
            mu[j] = 0.0
            passive &= mu > 0.0
            mu[~passive] = 0.0
    return mu


# A projection residual at most this much per unit row is zero.
_CONE_ROUNDING = 1e-10


def coercivity_probe(G: MeanPotentialG):
    """Classify the growth of G from the recession function its potential declares.

    Returns (label, escape_ray).  With rows r_j, G_inf(d) = max_j <r_j, d>,
    and by Stiemke's lemma G attains its minimum exactly when some lambda > 0
    gives sum_j lambda_j r_j = 0, that is when -sum_j r_j lies in the cone
    of the rows.  One non-negative least-squares projection settles it: a
    nonzero residual w has <r_j, w> <= 0 for every j and < 0 for some, so G
    falls along w without end, and w / |w| is the escape ray.  G is coercive
    when it has a minimum and the rows span R^n, or when it grows
    superlinearly.
    """
    rows = G.pot.recession
    if rows == SUPERLINEAR:
        return Coercivity.COERCIVE, None
    R = np.asarray(rows, dtype=float)
    # scaling a row by a positive factor, or dropping a zero row, leaves
    # Stiemke's condition as it is, so the projection works on unit rows
    norms = np.linalg.norm(R, axis=1)
    U = R[norms > 0.0] / norms[norms > 0.0, None]
    b = -U.sum(axis=0)
    w = b - U.T @ _nnls(U.T, b)
    residual = float(np.linalg.norm(w))
    if residual > _CONE_ROUNDING * len(U):
        return Coercivity.NOT_COERCIVE, w / residual
    if np.linalg.matrix_rank(U) == G.n:
        return Coercivity.COERCIVE, None
    return Coercivity.NOT_COERCIVE, None


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


# The seeded random fields that wirtinger_audit tries.
AUDIT_TRIALS = 100


def wirtinger_audit(op: DiffOperator, seed: int = 0) -> float:
    """Max fluctuation ratio over the extremal mode and random fields.

    Always bounded by wirtinger_constant(op); the bound is attained by the
    lowest nonzero-frequency harmonic, which is tried first so the audit
    touches it, then AUDIT_TRIALS seeded normal fields.
    """
    rng = np.random.default_rng(check_seed(seed))
    worst = fluctuation_ratio(_extremal_mode(op), op)
    for _ in range(AUDIT_TRIALS):
        values = rng.normal(size=op.grid.shape + (1,))
        u = Field(op.grid, values)
        worst = max(worst, fluctuation_ratio(u, op))
    return worst


def certify(grid: TorusGrid, pot: Potential, op: DiffOperator) -> SolvabilityCertificate:
    """Issue a solvability certificate.

    An escape ray from the declared recession function (see
    coercivity_probe) makes the verdict not solvable, and the stationary-mean
    search is skipped.  Otherwise G has a minimum, and the verdict is
    solvable when the search finds it; a search that misses it leaves the
    verdict inconclusive, with a note that records the miss.  The operator
    must be built for ``grid``, since it sets the Wirtinger constant.
    """
    _check_operator(op, grid)
    G = build_mean_potential(grid, pot)
    coercivity, escape_ray = coercivity_probe(G)
    notes = ()
    if escape_ray is not None:
        x_bar = None
        grad_norm = float(np.linalg.norm(G.gradient(np.zeros(G.n))))
        verdict = Verdict.NOT_SOLVABLE
    else:
        x_bar, grad_norm = find_stationary_mean(G)
        verdict = Verdict.SOLVABLE if x_bar is not None else Verdict.INCONCLUSIVE
        if x_bar is None:
            notes = (
                "the recession function says that G attains its minimum, but the "
                f"Newton search stopped at |grad G| = {grad_norm:.3e} without locating it",
            )
    return SolvabilityCertificate(
        stationary_mean=x_bar,
        grad_norm=grad_norm,
        coercivity=coercivity,
        escape_ray=escape_ray,
        wirtinger_constant=wirtinger_constant(op),
        verdict=verdict,
        notes=notes,
    )
