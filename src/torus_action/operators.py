"""The discrete Laplacian, the action functional and its quadrature pairings.

Both difference schemes are diagonal in the discrete Fourier basis, so one
real-to-complex transform pair over the half spectrum implements the
Laplacian and the Dirichlet pairing for either scheme; only the eigenvalue
table changes.  Energies and pairings are evaluated through that table,
which makes discrete integration by parts exact to rounding.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .grid import Field, TorusGrid, _box_mean, integrate
from .potentials import Potential, check_potential


def _load_pocketfft(scipy_dir: Path):
    """scipy's pocketfft extension, loaded by path from the scipy package at ``scipy_dir``.

    Loading the file alone runs neither ``scipy/__init__`` nor ``scipy.fft``,
    whose imports cost a process about 0.2 s; the extension loads in under a
    millisecond.  There is no other transform kernel to fall back on.
    """
    folder = scipy_dir / "fft" / "_pocketfft"
    found = [
        path for path in (folder / f"pypocketfft{suffix}"
                          for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        if path.is_file()
    ]
    if len(found) != 1:
        raise ImportError(
            f"expected one pocketfft extension pypocketfft.* in {folder}, found {len(found)}"
        )
    spec = importlib.util.spec_from_file_location("scipy.fft._pocketfft.pypocketfft", found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_scipy_spec = importlib.util.find_spec("scipy")
if _scipy_spec is None:
    raise ImportError("torus_action needs scipy for its pocketfft transform extension")
_pocketfft = _load_pocketfft(Path(_scipy_spec.submodule_search_locations[0]))
del _scipy_spec


class Scheme(str, Enum):
    SPECTRAL = "spectral"
    FD2 = "fd2"


class DiffOperator:
    """Periodic difference operator bundle for one grid and scheme.

    ``eigenvalues`` holds the per-frequency eigenvalues of minus the discrete
    Laplacian (shape ``grid.shape``); the zero mode is exactly zero and every
    other entry is positive.

    Fields are real, so every operator works on the half spectrum of the
    real n-D transform over the grid axes, with the real transform along the
    first grid axis, which keeps modes 0 .. N/2.  The kernel calls scipy's
    pocketfft extension directly, as ``scipy.fft.rfftn``/``irfftn`` do after
    their argument handling, and gives their bits.  The grid axes are
    counted from the end, ahead of the component axis, so a stack of fields
    with leading batch axes goes through one transform.  The private tables
    below are the half-spectrum views the kernel multiplies by, and
    ``_inner`` pairs two half spectra by Parseval with the Hermitian weights
    (1 on the first and last half-axis modes, 2 elsewhere), so a
    half-spectrum sum equals the full one; halving the first axis keeps
    those two modes contiguous.  Transforms are single-threaded and sums run
    in a fixed order, which keeps every result fixed.
    """

    def __init__(self, grid: TorusGrid, scheme):
        self.grid = grid
        self.scheme = Scheme(scheme)
        # r2c halves the last axis it is given, here the first grid axis;
        # values end in (*grid.shape, n)
        axes = tuple(range(1, grid.p)) + (0,)
        self._axes = tuple(a - grid.p - 1 for a in axes)
        table = np.zeros(grid.shape)
        for a, (N, T, h) in enumerate(zip(grid.resolutions, grid.periods, grid.spacings)):
            if self.scheme is Scheme.SPECTRAL:
                lam_axis = (2.0 * np.pi * np.fft.fftfreq(N, 1.0 / N) / T) ** 2
            else:
                lam_axis = (2.0 / h**2) * (1.0 - np.cos(2.0 * np.pi * np.arange(N) / N))
            shape = [1] * grid.p
            shape[a] = N
            table = table + lam_axis.reshape(shape)
        table[(0,) * grid.p] = 0.0
        table.setflags(write=False)
        self.eigenvalues = table
        lam = table[: grid.resolutions[0] // 2 + 1]
        self._lam = lam
        self._smooth = 1.0 / (1.0 + lam)
        # H1 weight of the fluctuation: the zero mode is the mean
        self._fluct_h1 = 1.0 + lam
        self._fluct_h1[(0,) * grid.p] = 0.0

    # pocketfft's r2c/c2r take (array, axes, [last size,] forward, norm, out,
    # threads); norm 0 leaves the forward transform unscaled and 2 divides the
    # inverse by the node count
    def _rfft(self, values: np.ndarray) -> np.ndarray:
        return _pocketfft.r2c(values, self._axes, True, 0, None, 1)

    def _irfft(self, spectrum: np.ndarray) -> np.ndarray:
        return _pocketfft.c2r(spectrum, self._axes, self.grid.resolutions[0], False, 2, None, 1)

    def _multiply(self, values: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Apply the diagonal half-spectrum multiplier ``table`` to real samples."""
        return self._irfft(table[..., None] * self._rfft(values))

    def _inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """integrate(<u, v>) from the half spectra ``a`` and ``b`` of u and v.

        Parseval: twice the sum of Re(a conj b) over the half spectrum, less
        the first and last half-axis modes, which the full spectrum holds once.
        """
        a, b = a.view(np.float64), b.view(np.float64)
        s = 2.0 * _dot(a, b) - _dot(a[0], b[0]) - _dot(a[-1], b[-1])
        return self.grid.cell_weight * float(s) / self.grid.node_count

    def __repr__(self):
        return f"DiffOperator(scheme={self.scheme.value!r}, grid={self.grid!r})"


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b in a fixed order (einsum, unlike a BLAS dot, is unthreaded)."""
    return np.einsum("i,i->", a.ravel(), b.ravel())


@dataclass(frozen=True)
class ActionReport:
    kinetic: float
    potential_part: float
    total: float
    grad_inf_norm: float


def _check_operator(op: DiffOperator, grid: TorusGrid) -> None:
    if op.grid != grid:
        raise ValueError("operator was built for a different grid")


def _check_field(op: DiffOperator, u: Field) -> None:
    if u.grid != op.grid:
        raise ValueError("field and operator live on different grids")


def _check_potential(u: Field, pot: Potential) -> None:
    if pot.n != u.n:
        raise ValueError(f"potential has n={pot.n}, field has n={u.n}")
    check_potential(pot, u.grid)


def laplacian(op: DiffOperator, u: Field) -> Field:
    """Discrete Laplacian, applied as multiplication by -lambda_k in frequency space."""
    _check_field(op, u)
    return Field(op.grid, op._multiply(u.values, -op._lam), _check=False)


def dirichlet_form(u: Field, v: Field, op: DiffOperator) -> float:
    """Quadrature pairing of first derivatives, evaluated through the eigenvalue table.

    Equals integrate(<-laplacian(u), v>) to rounding for either scheme, which
    is what makes discrete integration by parts exact.  ``dirichlet_form(u, u,
    op)`` transforms u once.
    """
    _check_field(op, u)
    _check_field(op, v)
    u._check_compatible(v)
    uhat = op._rfft(u.values)
    vhat = uhat if v is u else op._rfft(v.values)
    return op._inner(op._lam[..., None] * uhat, vhat)


def l2_inner(u: Field, v: Field) -> float:
    """Quadrature inner product integrate(<u, v>)."""
    u._check_compatible(v)
    return u.grid.cell_weight * float(np.sum(u.values * v.values))


def l2_norm(u: Field) -> float:
    return float(np.sqrt(max(l2_inner(u, u), 0.0)))


def action_value(u: Field, pot: Potential, op: DiffOperator) -> float:
    """Discrete action: kinetic half-Dirichlet energy plus the potential integral."""
    _check_field(op, u)
    _check_potential(u, pot)
    kinetic = 0.5 * dirichlet_form(u, u, op)
    density = pot.value(op.grid.coords(), u.values)
    return kinetic + integrate(op.grid, density)


def action_gradient(u: Field, pot: Potential, op: DiffOperator) -> Field:
    """L2 gradient of the discrete action: -laplacian(u) + grad F(t, u).

    The directional derivative of the action along any v is exactly
    integrate(<g, v>); no H1 rescaling is applied here.
    """
    _check_field(op, u)
    _check_potential(u, pot)
    lap = laplacian(op, u)
    grad = pot.gradient(op.grid.coords(), u.values)
    return Field(op.grid, -lap.values + grad, _check=False)


def mean_decompose(u: Field):
    """Split u into its box average (an n-vector) and the zero-mean remainder."""
    mean = _box_mean(u.values, u.grid)
    fluct = Field(u.grid, u.values - mean, _check=False)
    return mean, fluct
