"""Independent dense cross-check of the solver stack.

The oracle answers "is the fast path right?" with slow, direct arithmetic:
the stationarity system of a quadratic potential, assembled from unit fields
and solved directly, with no iteration or preconditioner.

The stationarity system of F(t, x) = <A x, x> / 2 + <g(t), x> is the
Kronecker sum K (x) I_n + I_nodes (x) A, with K the scalar -laplacian on
the nodes.  Both schemes' -laplacian is a sum over the axes, so K is itself
the Kronecker sum of p axis matrices K_a of size N_a x N_a.  The system is
solved by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964):
one eigendecomposition K_a = V_a diag(lambda^a) V_a^T per axis and one of
A = Q diag(mu) Q^T, a rotation of the right-hand side by Q and by each V_a^T,
a division by the eigenvalue sums lambda^1_k1 + ... + lambda^p_kp + mu_i,
and the rotation back.  The coupled matrix is never formed, nor is K on two
or more axes (on one axis K_1 is K).  The largest array the oracle makes
holds nodes * max(max_a N_a, n) floats: the push of one axis's N_a unit
fields through the operator, or a field.  DENSE_FLOAT_CAP bounds it, and a
system over the cap is refused before any array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, TorusGrid, check_symmetric
from .operators import DiffOperator

# Floats in the largest array the oracle makes, nodes * max(max_a N_a, n).
DENSE_FLOAT_CAP = 2**22


class NotPositiveDefiniteError(RuntimeError):
    """The assembled system is not positive definite.

    The pure-Laplacian system (A = 0) lands here by design: constants are in
    its kernel, so its smallest eigenvalue is zero to rounding.
    """


@dataclass(frozen=True)
class DenseSystem:
    """The stationarity system (K (x) I_n + I_nodes (x) A) U = rhs, kept in factors.

    ``kinetic_axes`` holds the p symmetric matrices K_a of -laplacian along
    one axis, whose Kronecker sum is K; ``quad_matrix`` is A as given, so n
    is its size; ``rhs`` is -g, node-major; ``op`` is the operator they came
    from, and ``op.grid`` their grid.
    """

    op: DiffOperator
    kinetic_axes: tuple[np.ndarray, ...]
    quad_matrix: np.ndarray
    rhs: np.ndarray


def _axis_matrix(op: DiffOperator, axis: int) -> np.ndarray:
    """K_a: -laplacian on the N_a unit fields along ``axis``, symmetrized.

    Unit field j is 1 on the nodes whose index along the axis is j, whatever
    their other indices.  It is constant along the other axes, whose terms
    of -laplacian vanish on it, so any line along the axis carries K_a e_j.
    All N_a fields go through the operator at once.
    """
    grid = op.grid
    N = grid.resolutions[axis]
    line = [1] * grid.p
    line[axis] = N
    index = (slice(None),) + tuple(slice(None) if b == axis else 0
                                   for b in range(grid.p)) + (0,)
    units = np.eye(N).reshape((N,) + tuple(line) + (1,))
    basis = np.broadcast_to(units, (N,) + grid.shape + (1,))
    K = op._multiply(basis, op._lam)[index].T
    return 0.5 * (K + K.T)


def assemble_quadratic_system(
    grid: TorusGrid, op: DiffOperator, matrix, g: Field
) -> DenseSystem:
    """Assemble (-laplacian + A) U = -g as p axis matrices and A.

    The potential here is F(t, x) = <A x, x> / 2 + <g(t), x>.  -laplacian
    acts on each component alike and is a sum over the axes, so only the
    axis matrices K_a are assembled, N_a x N_a each, by pushing unit fields
    through the same frequency-space operator the fast path uses; K_a thus
    inherits the scheme exactly.  The coupling is left to dense_solve.

    Raises ValueError, before any array is made, when the largest array,
    nodes * max(max_a N_a, n) floats, exceeds DENSE_FLOAT_CAP.
    """
    if op.grid != grid or g.grid != grid:
        raise ValueError("grid, operator, and drift field must match")
    A = np.asarray(matrix, dtype=float)
    n = g.n
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match n={n}")
    size = grid.node_count * max(max(grid.resolutions), n)
    if size > DENSE_FLOAT_CAP:
        raise ValueError(
            f"dense oracle array of {size} floats exceeds the cap of {DENSE_FLOAT_CAP}"
        )
    kinetic_axes = tuple(_axis_matrix(op, a) for a in range(grid.p))
    return DenseSystem(op=op, kinetic_axes=kinetic_axes, quad_matrix=A, rhs=-g.flat)


def _along(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``matrix`` to every line of ``values`` along ``axis``."""
    return np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)


def dense_solve(system: DenseSystem) -> Field:
    """Solve the assembled system by fast diagonalization.

    With K_a = V_a diag(lambda^a) V_a^T and A = Q diag(mu) Q^T, the coupled
    operator is diagonal in the basis V_1 (x) ... (x) V_p (x) Q, with the
    eigenvalue sums lambda^1_k1 + ... + lambda^p_kp + mu_i on its diagonal.
    The right-hand side is rotated into that basis one axis at a time,
    divided, and rotated back; the largest arrays are fields of nodes * n
    entries.

    Raises ValueError when A is not symmetric, and NotPositiveDefiniteError
    when the smallest eigenvalue sum is zero to rounding or negative, that is
    at most nodes * n * eps times the largest.  Every K_a has the constant
    mode at eigenvalue zero, so this catches a semidefinite or indefinite A,
    the potential-free system among them, and admits any A whose smallest
    eigenvalue stands above rounding, however small.  Accuracy is left to
    the residual check: NotPositiveDefiniteError is also raised when the
    solution misses the coupled system -laplacian(U) + U A^T = R, applied
    through the operator itself, by more than 1e-12 of its rounding scale:
    the largest eigenvalue sum times max|U|, plus max|R|.  Rounding leaves a
    residual of at most a few tens of eps times that scale, and the first
    term dominates where a small A makes U's mean large.
    """
    A = system.quad_matrix
    check_symmetric("quad_matrix", A)
    grid, n = system.op.grid, len(A)
    mu, Q = np.linalg.eigh(A)
    eigen = [np.linalg.eigh(K) for K in system.kinetic_axes]
    # the extreme eigenvalue sums are the sums of the extremes
    lowest = mu[0] + sum(lam[0] for lam, _ in eigen)
    highest = mu[-1] + sum(lam[-1] for lam, _ in eigen)
    if lowest <= grid.node_count * n * np.finfo(float).eps * highest:
        raise NotPositiveDefiniteError(
            f"eigenvalues collapse toward zero (smallest {lowest:.3e}, largest "
            f"{highest:.3e}); the system has a numerical kernel (a "
            "zero-mean-compatible potential block is missing) or is indefinite"
        )
    rhs = system.rhs.reshape(grid.shape + (n,))
    u = rhs @ Q
    sums = mu
    for a, (lam, V) in enumerate(eigen):
        u = _along(V.T, u, a)
        sums = sums + lam.reshape((-1,) + (1,) * (grid.p - a))
    u = u / sums
    for a, (_, V) in enumerate(eigen):
        u = _along(V, u, a)
    u = u @ Q.T
    op = system.op
    residual = np.abs(op._multiply(u, op._lam) + u @ A.T - rhs).max()
    bound = 1e-12 * (highest * np.abs(u).max() + np.abs(rhs).max())
    if residual > bound:
        raise NotPositiveDefiniteError(
            f"dense solve residual {residual:.3e} exceeds {bound:.3e}; "
            "the eigendecompositions are unreliable"
        )
    return Field(grid, u, n=n)
