"""Potentials F(t, x) on the period box, with gradients and growth at infinity.

Time dependence enters through trigonometric coefficient paths, which keeps
every built-in potential smooth, multi-periodic by construction, and exactly
integrable by the grid quadrature once resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .grid import Field, TorusGrid, check_integer, check_seed, check_symmetric


@dataclass(frozen=True)
class TrigTerm:
    """One trigonometric mode: coeff * trig(2*pi * sum_a freq_a * t_a / T_a)."""

    trig: str
    freq: tuple[int, ...]
    coeff: tuple[float, ...]

    def __post_init__(self):
        if self.trig not in ("cos", "sin"):
            raise ValueError(f"trig kind must be 'cos' or 'sin', got {self.trig!r}")
        object.__setattr__(
            self,
            "freq",
            tuple(check_integer(f"freq[{a}]", k) for a, k in enumerate(self.freq)),
        )
        object.__setattr__(self, "coeff", tuple(float(c) for c in self.coeff))


@dataclass(frozen=True)
class TrigPath:
    """Vector-valued trigonometric polynomial on the period box.

    Evaluates to R^n; the empty term list is the zero path.  Paths know their
    periods so they can be sampled, differentiated, and averaged analytically.
    """

    periods: tuple[float, ...]
    n: int
    terms: tuple[TrigTerm, ...] = ()
    # (coordinates, samples) of the last call on a frozen coordinate array of
    # each shape, so the grids of a coarse start keep theirs side by side
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(float(T) for T in self.periods))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if len(term.freq) != len(self.periods):
                raise ValueError(
                    f"term frequency {term.freq} does not match {len(self.periods)} axes"
                )
            if len(term.coeff) != self.n:
                raise ValueError(
                    f"term coefficient {term.coeff} does not have {self.n} components"
                )

    @classmethod
    def zero(cls, periods, n: int) -> "TrigPath":
        return cls(tuple(float(T) for T in periods), int(n))

    @classmethod
    def constant(cls, periods, vec) -> "TrigPath":
        vec = tuple(float(c) for c in np.atleast_1d(vec))
        periods = tuple(float(T) for T in periods)
        zero_freq = (0,) * len(periods)
        return cls(periods, len(vec), (TrigTerm("cos", zero_freq, vec),))

    def __call__(self, t) -> np.ndarray:
        """Evaluate at coordinates t of shape (..., p); returns (..., n).

        A read-only array that owns its data, such as ``grid.coords()``,
        cannot change, so its samples are kept, those of the last such array
        of each shape: calling again with the same array returns the same
        read-only result.  Copy it to keep or modify it.  A grid caches its
        coordinates and solve builds its half-grid operator once per operator,
        so repeated solves, the polish and every level of a coarse start
        sample each path once per grid.
        """
        sample = self._samples.get(getattr(t, "shape", None))
        if sample is not None and sample[0] is t:
            return sample[1]
        key = t
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape[:-1] + (self.n,))
        for term in self.terms:
            omega = np.array(
                [2.0 * np.pi * k / T for k, T in zip(term.freq, self.periods)]
            )
            phase = t @ omega
            wave = np.cos(phase) if term.trig == "cos" else np.sin(phase)
            out += wave[..., None] * np.asarray(term.coeff)
        if isinstance(key, np.ndarray) and key.flags.owndata and not key.flags.writeable:
            out.setflags(write=False)
            self._samples[key.shape] = (key, out)
        return out

    def _angular_sq(self, term: TrigTerm) -> float:
        return sum(
            (2.0 * np.pi * k / T) ** 2 for k, T in zip(term.freq, self.periods)
        )

    def laplacian(self) -> "TrigPath":
        """Analytic sum of second derivatives over the time axes."""
        terms = tuple(
            TrigTerm(
                term.trig,
                term.freq,
                tuple(-self._angular_sq(term) * c for c in term.coeff),
            )
            for term in self.terms
        )
        return TrigPath(self.periods, self.n, terms)

    def scaled(self, s: float) -> "TrigPath":
        terms = tuple(
            TrigTerm(t.trig, t.freq, tuple(s * c for c in t.coeff)) for t in self.terms
        )
        return TrigPath(self.periods, self.n, terms)

    def plus(self, other: "TrigPath") -> "TrigPath":
        if other.periods != self.periods or other.n != self.n:
            raise ValueError("paths live on different boxes or component counts")
        return TrigPath(self.periods, self.n, self.terms + other.terms)

    def box_mean(self) -> np.ndarray:
        """Average over the box; only zero-frequency cosine terms survive."""
        mean = np.zeros(self.n)
        for term in self.terms:
            if term.trig == "cos" and all(k == 0 for k in term.freq):
                mean += np.asarray(term.coeff)
        return mean

    def max_abs_freq(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * len(self.periods)
        return tuple(
            max(abs(term.freq[a]) for term in self.terms)
            for a in range(len(self.periods))
        )

    @classmethod
    def from_dict(cls, data: dict, periods, n: int) -> "TrigPath":
        terms = tuple(
            TrigTerm(
                str(t["trig"]),
                t["freq"],
                tuple(float(c) for c in t["coeff"]),
            )
            for t in data.get("terms", [])
        )
        return cls(tuple(float(T) for T in periods), int(n), terms)


# The recession of an averaged potential that outgrows every linear function.
SUPERLINEAR = "superlinear"


@dataclass(frozen=True)
class Potential:
    """A potential F(t, x) with its x-gradient and the growth of its box mean.

    ``value``, ``gradient`` and ``hessian`` are batched: t has shape
    (..., p), x has shape (..., n), and they return shapes (...,), (..., n)
    and (..., n, n).  The Hessian may be a read-only view: the kinds with a
    constant Hessian (quadratic_shift, quadratic_form, manufactured and
    linear_drift) broadcast their one n x n matrix over the batch, which
    writes nothing per point.  Copy it to modify it.

    ``recession`` declares the recession function G_inf(d) = lim G(r d) / r
    of the averaged potential G(x) = integral of F(t, x) dt: a tuple of rows
    r_j with G_inf(d) = max_j <r_j, d> up to a positive factor, or
    SUPERLINEAR when G_inf is infinite off the origin.

    ``paths`` declares the (name, TrigPath) pairs that F's t-dependence is
    built from, named by their config keys and on F's periods, or () when F
    does not depend on t.

    All three are required: the solver's preconditioner and polish and the
    stationary-mean search read the Hessian, the recession decides whether
    a minimizer exists, and check_potential reads the paths' frequencies.
    """

    n: int
    periods: tuple[float, ...]
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    recession: Union[tuple[tuple[float, ...], ...], str]
    paths: tuple[tuple[str, TrigPath], ...]
    kind: str = ""

    def __post_init__(self):
        """Reject a missing declaration, a path off F's periods or malformed rows."""
        for name in ("hessian", "recession", "paths"):
            if getattr(self, name) is None:
                raise ValueError(f"potential {self.kind!r} must declare its {name}")
        object.__setattr__(self, "paths", tuple(self.paths))
        for name, path in self.paths:
            if path.periods != self.periods:
                raise ValueError(f"path {name!r} has periods {path.periods}, not {self.periods}")
        if isinstance(self.recession, str) and self.recession == SUPERLINEAR:
            return
        try:
            rows = np.asarray(self.recession, dtype=float)
        except (TypeError, ValueError):
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != self.n or not np.isfinite(rows).all():
            raise ValueError(
                f"recession must be rows of {self.n} finite numbers or "
                f"{SUPERLINEAR!r}, got {self.recession!r}"
            )
        object.__setattr__(self, "recession", _rows(rows))


def check_potential(pot: Potential, grid: TorusGrid) -> None:
    """Reject a grid off ``pot``'s periods, or one that aliases a declared path.

    A path frequency at or beyond the per-axis Nyquist limit is sampled as a
    lower one, so the grid would realize another potential.
    """
    periods = pot.periods
    if periods != grid.periods and (
        len(periods) != grid.p or not np.allclose(periods, grid.periods, rtol=1e-12, atol=0.0)
    ):
        raise ValueError(f"potential periods {periods} do not match grid periods {grid.periods}")
    for name, path in pot.paths:
        for a, (k, N) in enumerate(zip(path.max_abs_freq(), grid.resolutions)):
            if 2 * k >= N:
                raise ValueError(
                    f"potential {name!r}: frequency {k} on axis {a + 1} is not "
                    f"resolvable below the Nyquist limit of an N={N} grid"
                )


def _rows(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(c) for c in row) for row in np.atleast_2d(matrix))


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, as a sum of column products.

    numpy reduces a short last axis row by row; n columns go faster.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _combine(planes, terms, out: np.ndarray) -> np.ndarray:
    """Write the sum of c * planes[j] over the (j, c) in terms into out.

    The terms are added in order, and no terms give zero.  Multiply-adds of
    whole planes with scalars beat any reduction over a short axis.
    """
    if not terms:
        out[...] = 0.0
        return out
    (j, c), *rest = terms
    np.multiply(planes[j], c, out=out)
    for j, c in rest:
        out += c * planes[j]
    return out


def _constant_hessian(matrix: np.ndarray, x) -> np.ndarray:
    """The n x n ``matrix`` at every point of x, as a read-only view."""
    return np.broadcast_to(matrix, np.shape(x)[:-1] + matrix.shape)


def make_quadratic_shift(n: int, shift: TrigPath) -> Potential:
    """F(t, x) = |x - c(t)|^2 / 2 for a trigonometric shift path c."""
    if shift.n != int(n):
        raise ValueError(f"shift path has {shift.n} components, expected {n}")

    def value(t, x):
        d = np.asarray(x, dtype=float) - shift(t)
        return 0.5 * _column_dot(d, d)

    def gradient(t, x):
        return np.asarray(x, dtype=float) - shift(t)

    eye = np.eye(shift.n)

    def hessian(t, x):
        return _constant_hessian(eye, x)

    return Potential(
        n=int(n),
        periods=shift.periods,
        value=value,
        gradient=gradient,
        hessian=hessian,
        kind="quadratic_shift",
        recession=SUPERLINEAR,
        paths=(("shift", shift),),
    )


def make_linear_drift(n: int, drift: TrigPath) -> Potential:
    """F(t, x) = <a(t), x>; its box mean grows like <mean(a), x>, never coercively."""
    if drift.n != int(n):
        raise ValueError(f"drift path has {drift.n} components, expected {n}")

    def value(t, x):
        return _column_dot(drift(t), np.asarray(x, dtype=float))

    def gradient(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(drift(t), x.shape).copy()

    zero = np.zeros((drift.n, drift.n))

    def hessian(t, x):
        return _constant_hessian(zero, x)

    return Potential(
        n=int(n),
        periods=drift.periods,
        value=value,
        gradient=gradient,
        hessian=hessian,
        kind="linear_drift",
        recession=_rows(drift.box_mean()),
        paths=(("drift", drift),),
    )


def make_quadratic_form(matrix, drift: TrigPath) -> Potential:
    """F(t, x) = <A x, x> / 2 + <g(t), x> with symmetric positive definite A."""
    A = np.asarray(matrix, dtype=float)
    n = drift.n
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match n={n}")
    check_symmetric("matrix A", A)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix A must be positive definite") from exc
    A = 0.5 * (A + A.T)

    def value(t, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * _column_dot(x @ A, x) + _column_dot(drift(t), x)

    def gradient(t, x):
        return np.asarray(x, dtype=float) @ A + drift(t)

    def hessian(t, x):
        return _constant_hessian(A, x)

    return Potential(
        n=n,
        periods=drift.periods,
        value=value,
        gradient=gradient,
        hessian=hessian,
        kind="quadratic_form",
        recession=SUPERLINEAR,
        paths=(("drift", drift),),
    )


def make_log_sum_exp(directions, offsets: list[TrigPath]) -> Potential:
    """F(t, x) = log sum_j exp(<s_j, x> + b_j(t)).

    The offsets do not change the growth at infinity, max_j <s_j, d>, so
    the directions are the rows of the recession function.
    """
    S = np.asarray(directions, dtype=float)
    if S.ndim != 2:
        raise ValueError("directions must be a (terms, n) array")
    J, n = S.shape
    if J == 0:
        raise ValueError("log_sum_exp needs at least one direction")
    if len(offsets) != J:
        raise ValueError(f"got {len(offsets)} offset paths for {J} directions")
    if any(b.n != 1 for b in offsets):
        raise ValueError("offset paths must be scalar (n=1)")
    # The kernel works on J contiguous planes, one per term, and combines
    # them by multiply-adds with the nonzero direction coefficients: each
    # logit plane from its (m, S_jm), each gradient entry from its (j, S_ja)
    # and each Hessian entry a <= b from its (j, S_ja S_jb).
    logit_terms = [[(m, S[j, m]) for m in range(n) if S[j, m] != 0.0] for j in range(J)]
    grad_terms = [[(j, S[j, a]) for j in range(J) if S[j, a] != 0.0] for a in range(n)]
    hess_terms = {
        (a, b): [(j, S[j, a] * S[j, b]) for j in range(J) if S[j, a] * S[j, b] != 0.0]
        for a in range(n)
        for b in range(a, n)
    }

    def _logits(t, x):
        """The planes z_j = <s_j, x> + b_j(t), shape (J,) + batch."""
        x = np.asarray(x, dtype=float)
        columns = np.moveaxis(x, -1, 0)
        z = np.empty((J,) + x.shape[:-1])
        for j, terms in enumerate(logit_terms):
            plane = _combine(columns, terms, z[j, ...])
            if offsets[j].terms:
                plane += offsets[j](t)[..., 0]
        return z

    # value and _softmax work in place on their fresh logit planes
    def value(t, x):
        z = _logits(t, x)
        m = z.max(axis=0)
        z -= m
        return m + np.log(np.exp(z, out=z).sum(axis=0))

    def _softmax(t, x):
        z = _logits(t, x)
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        return z

    def _gradient(prob):
        g = np.empty(prob.shape[1:] + (n,))
        for a, terms in enumerate(grad_terms):
            _combine(prob, terms, g[..., a])
        return g

    def gradient(t, x):
        return _gradient(_softmax(t, x))

    def hessian(t, x):
        prob = _softmax(t, x)
        g = _gradient(prob)
        h = np.empty(g.shape + (n,))
        for (a, b), terms in hess_terms.items():
            entry = _combine(prob, terms, h[..., a, b])
            entry -= g[..., a] * g[..., b]
            if b != a:
                h[..., b, a] = entry
        return h

    return Potential(
        n=n,
        periods=offsets[0].periods,
        value=value,
        gradient=gradient,
        hessian=hessian,
        kind="log_sum_exp",
        recession=_rows(S),
        paths=tuple((f"offsets[{j}]", b) for j, b in enumerate(offsets)),
    )


def make_manufactured(grid: TorusGrid, n: int, target: TrigPath):
    """Potential whose exact solution is a chosen trigonometric field.

    With F(t, x) = |x|^2 / 2 + <g(t), x> and g built analytically so the
    target solves the stationarity equation, the returned pair is the
    potential together with the target sampled on the grid.
    """
    if target.n != int(n):
        raise ValueError(f"target path has {target.n} components, expected {n}")
    g_path = target.laplacian().plus(target.scaled(-1.0))
    # the drift has the target's frequencies, so the target stands for both
    base = make_quadratic_form(np.eye(int(n)), g_path)
    pot = replace(base, kind="manufactured", paths=(("target", target),))
    check_potential(pot, grid)
    exact = Field(grid, target(grid.coords()).copy())
    return pot, exact


# The (t, x) pairs that check_gradient draws.
GRADIENT_SAMPLES = 200


def check_gradient(pot: Potential, seed: int = 0) -> float:
    """Central-difference audit of the declared gradient.

    Draws GRADIENT_SAMPLES seeded (t, x) pairs, compares the analytic
    gradient against central differences of the value with step
    1e-5 * (1 + |x|), and returns the largest relative discrepancy (scaled
    by max(1, |gradient|)).
    """
    rng = np.random.default_rng(check_seed(seed))
    p = len(pot.periods)
    t = rng.uniform(0.0, 1.0, size=(GRADIENT_SAMPLES, p)) * np.asarray(pot.periods)
    x = rng.normal(0.0, 2.0, size=(GRADIENT_SAMPLES, pot.n))
    grad = pot.gradient(t, x)
    fd = np.empty_like(grad)
    step = 1e-5 * (1.0 + np.linalg.norm(x, axis=-1))
    for i in range(pot.n):
        shift = np.zeros_like(x)
        shift[:, i] = step
        fd[:, i] = (pot.value(t, x + shift) - pot.value(t, x - shift)) / (2.0 * step)
    err = np.linalg.norm(fd - grad, axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(grad, axis=-1))
    return float((err / scale).max())


@dataclass(frozen=True)
class PotentialBundle:
    """A realized potential, with the exact solution that manufactured carries."""

    potential: Potential
    exact: Optional[Field] = None


# The keys each potential kind reads besides "kind" and "n", in order, as
# key: (form, required).  A form is "path" (a TrigPath's dict), "matrix" (rows
# of numbers) or "paths" (a list of scalar path dicts).  The CLI's config
# schema is built from this table, and potential_from_dict checks it.
POTENTIAL_KEYS = {
    "quadratic_shift": {"shift": ("path", False)},
    "linear_drift": {"drift": ("path", True)},
    "quadratic_form": {"matrix": ("matrix", True), "drift": ("path", False)},
    "log_sum_exp": {"directions": ("matrix", False), "offsets": ("paths", False)},
    "manufactured": {"target": ("path", True)},
}


def potential_from_dict(spec: dict, grid: TorusGrid) -> PotentialBundle:
    """Realize a JSON-style potential description on a grid.

    The kind must be one of POTENTIAL_KEYS, and the keys it marks required
    must not be missing or null.  A missing or null optional key takes its
    default: a zero path, or the directions +-e_i.
    The built potential must pass check_potential on the grid, which names
    the key of a path that the grid cannot resolve.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in POTENTIAL_KEYS:
        raise ValueError(f"unknown potential kind {kind!r}")
    n = int(spec.get("n", 0))
    if n < 1:
        raise ValueError(f"potential needs a positive component count, got n={n}")
    for key, (_, required) in POTENTIAL_KEYS[kind].items():
        if required and spec.get(key) is None:
            raise ValueError(f"potential kind {kind!r} requires {key!r}")
    periods = grid.periods

    def path(key):
        data = spec.get(key)
        return TrigPath.from_dict({} if data is None else data, periods, n)

    def array(key):
        try:
            return np.asarray(spec[key], dtype=float)
        except ValueError:
            raise ValueError(
                f"potential {key!r} must be a rectangular array of numbers"
            ) from None

    if kind == "manufactured":
        pot, exact = make_manufactured(grid, n, path("target"))
        return PotentialBundle(pot, exact=exact)
    if kind == "quadratic_shift":
        pot = make_quadratic_shift(n, path("shift"))
    elif kind == "linear_drift":
        pot = make_linear_drift(n, path("drift"))
    elif kind == "quadratic_form":
        pot = make_quadratic_form(array("matrix"), path("drift"))
    else:
        if spec.get("directions") is None:
            directions = np.vstack([np.eye(n), -np.eye(n)])
        else:
            directions = array("directions")
            if directions.ndim == 2 and directions.shape[1] != n:
                raise ValueError(
                    f"potential 'directions' have {directions.shape[1]} columns, "
                    f"expected n={n}"
                )
        offsets_data = spec.get("offsets")
        if offsets_data is None:
            offsets_data = [{}] * len(directions)
        offsets = [TrigPath.from_dict(d, periods, 1) for d in offsets_data]
        pot = make_log_sum_exp(directions, offsets)
    check_potential(pot, grid)
    return PotentialBundle(pot)
