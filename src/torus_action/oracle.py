"""Independent dense and finite-difference cross-checks for the solver stack.

These oracles answer "is the fast path right?" with slow arithmetic: the
stationarity system of a quadratic potential assembled from unit fields and
solved by dense factorization, and action gradients recovered from central
differences of the action value alone.

The stationarity system of F(t, x) = <A x, x> / 2 + <g(t), x> is the
Kronecker sum K (x) I_n + I_nodes (x) A, with K the scalar -laplacian on
the nodes.  It is never formed: in the eigenbasis of A it splits exactly
into n node-sized systems K + mu_i I, each factored by its own Cholesky, so
the dense oracle holds two nodes x nodes float matrices (2 * nodes^2 * 8
bytes) at most, where the coupled matrix would take n^2 times one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, check_symmetric
from .operators import DiffOperator, action_value
from .potentials import Potential

DENSE_UNKNOWN_CAP = 20000
FD_COORDINATE_CAP = 5000
# The central-difference step of fd_action_gradient.
_FD_STEP = 1e-6
# Scalar unit fields transformed together by the dense assembly.  A block's
# arrays hold 64 node columns, far less than the kinetic matrix.
_ASSEMBLY_BLOCK = 64


class NotPositiveDefiniteError(RuntimeError):
    """Dense factorization failed; the assembled system is not positive definite.

    The pure-Laplacian system (A = 0) lands here by design: constants are in
    its kernel, so no factorization should succeed.
    """


@dataclass(frozen=True)
class DenseSystem:
    """The stationarity system (K (x) I_n + I_nodes (x) A) U = rhs, kept in factors.

    ``kinetic`` is K, the nodes x nodes matrix of -laplacian on scalar
    fields; ``quad_matrix`` is A as given; ``rhs`` is -g, node-major.
    """

    grid: TorusGrid
    n: int
    kinetic: np.ndarray
    quad_matrix: np.ndarray
    rhs: np.ndarray


def assemble_quadratic_system(
    grid: TorusGrid, op: DiffOperator, matrix, g: Field
) -> DenseSystem:
    """Assemble (-laplacian + A) U = -g densely, one unit field per column.

    The potential here is F(t, x) = <A x, x> / 2 + <g(t), x>.  -laplacian
    acts on each component alike, so only its scalar matrix K is assembled:
    nodes x nodes, one unit field per column, 8 * nodes^2 bytes.  Columns
    are produced by applying the same frequency-space operator the fast path
    uses, so K inherits the scheme exactly; the unit fields go through it in
    blocks, one transform pair per block.  The coupling to A is left to
    dense_solve; the cap still counts all nodes * n unknowns.
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
    return DenseSystem(grid=grid, n=n, kinetic=kinetic, quad_matrix=A, rhs=-g.flat)


def dense_solve(system: DenseSystem) -> Field:
    """Solve the assembled system by n Cholesky factorizations of nodes x nodes.

    The factored operator is sym(K) (x) I + I (x) A with A = Q diag(mu) Q^T.
    Rotating the unknowns by Q splits it into n systems (sym(K) + mu_i I)
    v_i = (R Q)_i, each written into one reused nodes x nodes buffer and
    factored there, so the solve allocates 8 * nodes^2 bytes beside K.

    Raises ValueError when A is not symmetric, and NotPositiveDefiniteError
    when a factorization fails or the pooled pivots of the n factors are
    consistent with a singular operator, e.g. the constant-mode kernel of the
    potential-free system, or when the solution misses the coupled system
    K U + U A^T = R by more than 1e-10 relative to the right-hand side.
    """
    import scipy.linalg  # loaded here, so only the dense oracle pays its import

    K, A = system.kinetic, system.quad_matrix
    check_symmetric("quad_matrix", A)
    nodes = K.shape[0]
    mu, Q = np.linalg.eigh(A)
    rhs = system.rhs.reshape(nodes, system.n)
    rotated = rhs @ Q
    work = np.empty_like(K)
    pivots = []
    for i, shift in enumerate(mu):
        np.add(K, K.T, out=work)
        work *= 0.5
        work.flat[:: nodes + 1] += shift
        try:
            # work is exactly symmetric, so its transpose is the same matrix
            # in Fortran order, which LAPACK factors in place without a copy
            factor = scipy.linalg.cho_factor(
                work.T, lower=True, overwrite_a=True, check_finite=False
            )
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"Cholesky factorization failed: {exc}"
            ) from exc
        pivots.append(np.abs(np.diag(factor[0])))
        rotated[:, i] = scipy.linalg.cho_solve(factor, rotated[:, i], check_finite=False)
    pivots = np.concatenate(pivots)
    if pivots.min() <= np.finfo(float).eps ** 0.25 * pivots.max():
        raise NotPositiveDefiniteError(
            "Cholesky pivots collapse toward zero; the system has a numerical "
            "kernel (a zero-mean-compatible potential block is missing)"
        )
    u = rotated @ Q.T
    residual = np.abs(K @ u + u @ A.T - rhs).max()
    bound = 1e-10 * (1.0 + np.abs(rhs).max())
    if residual > bound:
        raise NotPositiveDefiniteError(
            f"dense solve residual {residual:.3e} exceeds {bound:.3e}; "
            "the factorization is unreliable"
        )
    return Field(system.grid, u.reshape(-1), n=system.n)


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
