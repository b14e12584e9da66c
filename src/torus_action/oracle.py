"""Independent dense and finite-difference cross-checks for the solver stack.

These oracles answer "is the fast path right?" with slow arithmetic: the
stationarity system of a quadratic potential assembled from unit fields and
solved by dense factorization, and action gradients recovered from central
differences of the action value alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid
from .operators import DiffOperator, action_value
from .potentials import Potential

DENSE_UNKNOWN_CAP = 20000
FD_COORDINATE_CAP = 5000
# The central-difference step of fd_action_gradient.
_FD_STEP = 1e-6
# Scalar unit fields transformed together by the dense assembly.  A block's
# arrays hold 64 node columns, far less than the dense matrix.
_ASSEMBLY_BLOCK = 64


class NotPositiveDefiniteError(RuntimeError):
    """Dense factorization failed; the assembled system is not positive definite.

    The pure-Laplacian system (A = 0) lands here by design: constants are in
    its kernel, so no factorization should succeed.
    """


@dataclass(frozen=True)
class DenseSystem:
    grid: TorusGrid
    n: int
    matrix: np.ndarray
    rhs: np.ndarray


def assemble_quadratic_system(
    grid: TorusGrid, op: DiffOperator, matrix, g: Field
) -> DenseSystem:
    """Assemble (-laplacian + A) U = -g densely, one unit field per column.

    Columns are produced by applying the same frequency-space operator the
    fast path uses, so the dense matrix inherits the scheme exactly; the
    unit fields go through it in blocks, one transform pair per block.  The
    potential here is F(t, x) = <A x, x> / 2 + <g(t), x>.
    """
    if op.grid != grid or g.grid != grid:
        raise ValueError("grid, operator, and drift field must match")
    A = np.asarray(matrix, dtype=float)
    n = g.n
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match n={n}")
    size = grid.node_count * n
    if size > DENSE_UNKNOWN_CAP:
        raise ValueError(
            f"dense assembly of {size} unknowns exceeds the cap of {DENSE_UNKNOWN_CAP}"
        )
    # -laplacian acts on each component alike: assemble it on scalar fields,
    # node by node, and spread it over the components
    nodes = grid.node_count
    kinetic = np.empty((nodes, nodes))
    for start in range(0, nodes, _ASSEMBLY_BLOCK):
        stop = min(start + _ASSEMBLY_BLOCK, nodes)
        # unit fields at nodes start .. stop-1, stacked along a leading axis
        basis = np.zeros((stop - start, nodes))
        basis[:, start:stop] = np.eye(stop - start)
        basis = basis.reshape((stop - start,) + grid.shape + (1,))
        columns = op._multiply(basis, op._lam)
        kinetic[:, start:stop] = columns.reshape(stop - start, nodes).T
    dense = np.kron(kinetic, np.eye(n))
    node = np.arange(nodes)
    dense.reshape(nodes, n, nodes, n)[node, :, node, :] += A
    return DenseSystem(grid=grid, n=n, matrix=dense, rhs=-g.flat)


def dense_solve(system: DenseSystem) -> Field:
    """Solve the assembled system by Cholesky factorization.

    Raises NotPositiveDefiniteError when the factorization fails or produces
    pivots consistent with a singular operator, e.g. the constant-mode kernel
    of the potential-free system.
    """
    import scipy.linalg  # loaded here, so only the dense oracle pays its import

    matrix = system.matrix + system.matrix.T
    matrix *= 0.5
    try:
        # matrix is exactly symmetric, so its transpose is the same matrix in
        # Fortran order, which LAPACK factors in place without a copy
        factor = scipy.linalg.cho_factor(
            matrix.T, lower=True, overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {exc}"
        ) from exc
    pivots = np.abs(np.diag(factor[0]))
    if pivots.min() <= np.finfo(float).eps ** 0.25 * pivots.max():
        raise NotPositiveDefiniteError(
            "Cholesky pivots collapse toward zero; the system has a numerical "
            "kernel (a zero-mean-compatible potential block is missing)"
        )
    x = scipy.linalg.cho_solve(factor, system.rhs, check_finite=False)
    residual = np.abs(system.matrix @ x - system.rhs).max()
    bound = 1e-10 * (1.0 + np.abs(system.rhs).max())
    if residual > bound:
        raise NotPositiveDefiniteError(
            f"dense solve residual {residual:.3e} exceeds {bound:.3e}; "
            "the factorization is unreliable"
        )
    return Field(system.grid, x, n=system.n)


def fd_action_gradient(u: Field, pot: Potential, op: DiffOperator) -> Field:
    """Full action gradient from central differences, one node value at a time.

    Divides out the quadrature weight, so the result is comparable to
    action_gradient directly.  Refuses problems above a coordinate cap.
    """
    size = u.grid.node_count * u.n
    if size > FD_COORDINATE_CAP:
        raise ValueError(
            f"coordinate-wise differencing over {size} unknowns exceeds the cap "
            f"of {FD_COORDINATE_CAP}; probe directions instead"
        )
    weight = u.grid.cell_weight
    work = u.values.copy()
    flat = work.reshape(-1)
    out = np.empty(size)
    probe = Field(u.grid, work, _check=False)
    for j in range(size):
        saved = flat[j]
        flat[j] = saved + _FD_STEP
        f_plus = action_value(probe, pot, op)
        flat[j] = saved - _FD_STEP
        f_minus = action_value(probe, pot, op)
        flat[j] = saved
        out[j] = (f_plus - f_minus) / (2.0 * _FD_STEP * weight)
    return Field(u.grid, out, n=u.n)
