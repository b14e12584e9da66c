import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    DiffOperator,
    Field,
    NotPositiveDefiniteError,
    Scheme,
    SolverOptions,
    TorusGrid,
    TrigPath,
    TrigTerm,
    action_gradient,
    assemble_quadratic_system,
    dense_solve,
    action_value,
    l2_inner,
    laplacian,
    make_quadratic_form,
    make_quadratic_shift,
    solve,
)

TWO_PI = 2.0 * np.pi
# Unequal periods for the grids given unequal resolutions by _box.
ANISOTROPIC_PERIODS = (1.0, 2.5, TWO_PI)


def drift_field(grid, path):
    return Field.from_function(grid, path.n, lambda t: path(t))


def _box(p, N):
    """A 2 pi box with N nodes per axis, or, for a tuple N, unequal periods too."""
    if isinstance(N, tuple):
        return TorusGrid(ANISOTROPIC_PERIODS[:p], N)
    return TorusGrid((TWO_PI,) * p, (N,) * p)


def _column_by_column(grid, op):
    """The scalar kinetic matrix K, one unit field per column, through laplacian."""
    nodes = grid.node_count
    dense = np.empty((nodes, nodes))
    basis = np.zeros(grid.shape + (1,))
    flat = basis.reshape(-1)
    for j in range(nodes):
        flat[j] = 1.0
        dense[:, j] = -laplacian(op, Field(grid, basis)).values.reshape(-1)
        flat[j] = 0.0
    return dense


def _kronecker_sum(matrices):
    """Sum over a of I (x) ... (x) K_a (x) ... (x) I, node-major as Field.flat."""
    sizes = [K.shape[0] for K in matrices]
    total = 0.0
    for a, K in enumerate(matrices):
        before, after = int(np.prod(sizes[:a])), int(np.prod(sizes[a + 1:]))
        total = total + np.kron(np.eye(before), np.kron(K, np.eye(after)))
    return total


# ---------------------------------------------------------------------------
# dense assembly and solve
# ---------------------------------------------------------------------------

def test_assembled_matrix_is_symmetric():
    g = TorusGrid((TWO_PI,), (16,))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    path = TrigPath((TWO_PI,), 2, (TrigTerm("sin", (1,), (1.0, -0.5)),))
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        op = DiffOperator(g, scheme)
        system = assemble_quadratic_system(g, op, A, drift_field(g, path))
        (K,) = system.kinetic_axes
        assert K.shape == (16, 16)
        assert np.array_equal(K, K.T)
        assert np.array_equal(system.quad_matrix, A)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("p, N", [
    (1, 10), (2, 6), (3, 4),
    pytest.param(2, (6, 8), id="2-anisotropic"),
    pytest.param(3, (4, 6, 8), id="3-anisotropic"),
])
def test_axis_matrices_sum_to_the_column_by_column_matrix(scheme, p, N):
    g = _box(p, N)
    op = DiffOperator(g, scheme)
    A = np.arange(1.0, 5.0).reshape(2, 2) / 7.0 + 2.0 * np.eye(2)  # not symmetric
    system = assemble_quadratic_system(g, op, A, Field(g, np.ones(g.shape + (2,))))
    assert [K.shape for K in system.kinetic_axes] == [(N_a, N_a) for N_a in g.shape]
    expected = _column_by_column(g, op)
    gap = np.abs(_kronecker_sum(system.kinetic_axes) - expected).max()
    assert gap <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(system.quad_matrix, A)


def _axis_column_by_column(grid, op, axis):
    """K_a one unit field at a time through laplacian, symmetrized like the oracle's."""
    N = grid.resolutions[axis]
    index = tuple(slice(None) if b == axis else 0 for b in range(grid.p)) + (0,)
    K = np.empty((N, N))
    for j in range(N):
        basis = np.zeros(grid.shape + (1,))
        basis[(slice(None),) * axis + (j,)] = 1.0
        K[:, j] = -laplacian(op, Field(grid, basis)).values[index]
    return 0.5 * (K + K.T)


def _axis_blocked(grid, op, axis, block):
    """K_a ``block`` unit fields at a time, one field component each, through laplacian."""
    N = grid.resolutions[axis]
    index = tuple(slice(None) if b == axis else 0 for b in range(grid.p))
    K = np.empty((N, N))
    for start in range(0, N, block):
        m = min(block, N - start)
        basis = np.zeros(grid.shape + (m,))
        for k in range(m):
            basis[(slice(None),) * axis + (start + k,) + (Ellipsis, k)] = 1.0
        K[:, start:start + m] = -laplacian(op, Field(grid, basis)).values[index]
    return 0.5 * (K + K.T)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("p, N", [
    (1, 10), (2, 6), (3, 4),
    pytest.param(2, (6, 8), id="2-anisotropic"),
    pytest.param(3, (4, 6, 8), id="3-anisotropic"),
])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("block", [7, 64])
def test_blocked_assembly_is_bit_identical_to_column_by_column(scheme, p, N, n, block):
    # the oracle pushes all N_a unit fields at once; blocks of 7 leave a
    # remainder on the axes of 8 and 10 nodes, blocks of 64 hold every axis
    g = _box(p, N)
    op = DiffOperator(g, scheme)
    A = np.arange(1.0, n * n + 1).reshape(n, n) / 7.0 + 2.0 * np.eye(n)  # not symmetric
    system = assemble_quadratic_system(g, op, A, Field(g, np.ones(g.shape + (n,))))
    for a, K in enumerate(system.kinetic_axes):
        expected = _axis_column_by_column(g, op, a)
        assert np.array_equal(_axis_blocked(g, op, a, block), expected)
        assert np.array_equal(K, expected)
    assert np.array_equal(system.quad_matrix, A)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_long_axis_is_assembled_in_one_push(scheme):
    # all 100 unit fields of the long axis go through the operator at once:
    # the same bits as one at a time, in a few nodes x N_a arrays
    import tracemalloc

    g = TorusGrid((1.0, TWO_PI), (100, 6))
    op = DiffOperator(g, scheme)
    A = np.array([[1.0, 0.25], [-0.5, 2.0]])
    drift = Field(g, np.zeros(g.shape + (2,)))
    assemble_quadratic_system(g, op, A, drift)  # warm the transforms
    tracemalloc.start()
    try:
        system = assemble_quadratic_system(g, op, A, drift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.node_count * max(g.shape) * 8
    for a, K in enumerate(system.kinetic_axes):
        assert np.array_equal(K, _axis_column_by_column(g, op, a))


def _coupled_matrix(kinetic, A):
    """K (x) I_n + I_nodes (x) A, the (nodes n)^2 matrix dense_solve never forms."""
    nodes, n = kinetic.shape[0], A.shape[0]
    dense = np.kron(kinetic, np.eye(n))
    node = np.arange(nodes)
    dense.reshape(nodes, n, nodes, n)[node, :, node, :] += A
    return dense


def test_dense_solve_recovers_analytic_solution():
    # (-lap + 1) u = 2 sin t has the exact solution u = sin t on the
    # spectral grid
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    gpath = TrigPath((TWO_PI,), 1, (TrigTerm("sin", (1,), (-2.0,)),))
    system = assemble_quadratic_system(g, op, np.eye(1), drift_field(g, gpath))
    u = dense_solve(system)
    t = g.axis_coords(0)
    assert_allclose(u.values[:, 0], np.sin(t), atol=1e-13)


def test_dense_solve_matches_minimizer():
    g = TorusGrid((TWO_PI,), (16,))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    path = TrigPath(
        (TWO_PI,), 2,
        (TrigTerm("sin", (1,), (1.0, 0.0)), TrigTerm("cos", (2,), (0.0, 0.4))),
    )
    pot = make_quadratic_form(A, path)
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        op = DiffOperator(g, scheme)
        system = assemble_quadratic_system(g, op, A, drift_field(g, path))
        u_dense = dense_solve(system)
        res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-10, max_iters=2000))
        gap = np.max(np.abs(u_dense.values - res.u.values))
        assert gap < 1e-8, scheme


def test_dense_solve_factors_without_touching_the_system():
    g = TorusGrid((TWO_PI, TWO_PI), (8, 8))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    path = TrigPath((TWO_PI, TWO_PI), 2, (TrigTerm("sin", (1, 2), (1.0, -0.5)),))
    system = assemble_quadratic_system(
        g, DiffOperator(g, Scheme.FD2), A, drift_field(g, path)
    )
    before = ([K.copy() for K in system.kinetic_axes], system.quad_matrix.copy(),
              system.rhs.copy())
    dense_solve(system)
    assert all(np.array_equal(K, K0) for K, K0 in zip(system.kinetic_axes, before[0]))
    assert np.array_equal(system.quad_matrix, before[1])
    assert np.array_equal(system.rhs, before[2])


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("p, N", [
    (1, 16), (2, 8), (3, 6), pytest.param(3, (4, 6, 8), id="3-anisotropic"),
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_solve_agrees_with_the_full_matrix_cholesky(scheme, p, N, n):
    import scipy.linalg

    g = _box(p, N)
    op = DiffOperator(g, scheme)
    rng = np.random.default_rng(10 * p + n)
    B = rng.standard_normal((n, n))
    A = B @ B.T + 0.5 * np.eye(n)  # SPD, with off-diagonal entries
    system = assemble_quadratic_system(
        g, op, A, Field(g, rng.standard_normal(g.shape + (n,)))
    )
    dense = _coupled_matrix(_column_by_column(g, op), A)
    expected = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(0.5 * (dense + dense.T), lower=True), system.rhs
    )
    u = dense_solve(system)
    assert np.abs(u.flat - expected).max() <= 1e-12 * np.abs(expected).max()


def test_dense_solve_rejects_singular_system():
    # with no zeroth-order term the constant mode is in the kernel and the
    # factorization must refuse
    g = TorusGrid((TWO_PI,), (8,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    zero = Field.zeros(g, 1)
    system = assemble_quadratic_system(g, op, np.zeros((1, 1)), zero)
    with pytest.raises(NotPositiveDefiniteError):
        dense_solve(system)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("A", [
    np.zeros((2, 2)),
    np.array([[1.0, 1.0], [1.0, 1.0]]),  # eigenvalues 0 and 2
    np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues -1 and 3
], ids=["zero", "semidefinite", "indefinite"])
def test_dense_solve_rejects_a_matrix_that_is_not_positive_definite(scheme, A):
    g = TorusGrid((TWO_PI, TWO_PI), (8, 8))
    rng = np.random.default_rng(4)
    system = assemble_quadratic_system(
        g, DiffOperator(g, scheme), A, Field(g, rng.standard_normal(g.shape + (2,)))
    )
    with pytest.raises(NotPositiveDefiniteError):
        dense_solve(system)


def test_dense_solve_rejects_a_non_symmetric_matrix_by_name():
    # the symmetric part of A is positive definite, so a residual check on
    # the symmetrized factorization is the wrong message
    g = TorusGrid((TWO_PI,), (16,))
    A = np.array([[1.0, 0.25], [-0.5, 2.0]])
    system = assemble_quadratic_system(
        g, DiffOperator(g, Scheme.SPECTRAL), A, Field(g, np.ones(g.shape + (2,)))
    )
    with pytest.raises(ValueError, match="quad_matrix must be symmetric"):
        dense_solve(system)
    assert np.array_equal(system.quad_matrix, A)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_dense_solve_admits_a_small_positive_matrix(scheme):
    # mu = 1e-3 against a largest eigenvalue sum of 1.3e5 to 3.2e5: ill
    # conditioned but well above rounding, so it must be solved, not refused
    g = TorusGrid((1.0, 1.0), (128, 128))
    A = np.array([[1e-3]])
    path = TrigPath((1.0, 1.0), 1, (TrigTerm("sin", (1, 2), (1.0,)),
                                    TrigTerm("cos", (0, 1), (0.5,))))
    op = DiffOperator(g, scheme)
    u_dense = dense_solve(assemble_quadratic_system(g, op, A, drift_field(g, path)))
    res = solve(g, make_quadratic_form(A, path), op,
                SolverOptions(tol_grad_inf=1e-10, max_iters=2000))
    assert np.max(np.abs(u_dense.values - res.u.values)) < 1e-8


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_dense_solve_admits_a_small_matrix_under_a_drift_with_a_mean(scheme):
    # mu = 1e-3 and a white-noise drift whose mean is about 0.016: the
    # solution's mean is about 16, and the residual's rounding floor grows
    # with the largest eigenvalue sum times max|u|, far above 1e-10 max|rhs|
    g = TorusGrid((1.0, 1.0), (64, 64))
    A = np.array([[1e-3]])
    drift = Field(g, np.random.default_rng(0).standard_normal(g.shape + (1,)))
    op = DiffOperator(g, scheme)
    u = dense_solve(assemble_quadratic_system(g, op, A, drift)).values[..., 0]
    # the operator is diagonal in the full Fourier basis
    expected = np.fft.ifftn(np.fft.fftn(-drift.values[..., 0]) / (op.eigenvalues + 1e-3)).real
    assert np.abs(u - expected).max() <= 1e-8 * np.abs(expected).max()


def test_dense_oracle_allocates_less_than_one_nodes_by_nodes_matrix():
    import tracemalloc

    g = TorusGrid((TWO_PI, TWO_PI), (16, 16))
    op = DiffOperator(g, Scheme.FD2)
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    drift = Field(g, np.random.default_rng(5).standard_normal(g.shape + (2,)))
    dense_solve(assemble_quadratic_system(g, op, A, drift))  # warm the transforms
    tracemalloc.start()
    try:
        dense_solve(assemble_quadratic_system(g, op, A, drift))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the axis matrices are 16 x 16; K alone would be 256 x 256
    assert peak < g.node_count ** 2 * 8


def test_dense_oracle_solves_a_four_axis_grid_past_the_old_unknown_cap():
    # 12^4 x 1 = 20736 unknowns, over the nodes * n cap the oracle used to
    # keep; its largest array is a field, far inside the float cap
    g = _box(4, 12)
    op = DiffOperator(g, Scheme.FD2)
    A = np.array([[0.5]])
    drift = Field(g, np.random.default_rng(6).standard_normal(g.shape + (1,)))
    u = dense_solve(assemble_quadratic_system(g, op, A, drift)).values[..., 0]
    # the operator is diagonal in the full Fourier basis
    expected = np.fft.ifftn(np.fft.fftn(-drift.values[..., 0]) / (op.eigenvalues + 0.5)).real
    assert np.abs(u - expected).max() <= 1e-8


def test_dense_float_cap_refuses_a_long_axis_before_any_array_is_made():
    # one axis of 4096 nodes: the push of its unit fields would be 4096^2
    # floats, 128 MB, four times the cap
    import tracemalloc

    import torus_action.oracle as oracle

    g = TorusGrid((TWO_PI,), (4096,))
    assert g.node_count * 4096 > oracle.DENSE_FLOAT_CAP
    op = DiffOperator(g, Scheme.FD2)
    drift = Field.zeros(g, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            assemble_quadratic_system(g, op, np.eye(1), drift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # less than one field of the grid
    assert peak < g.node_count * 8


# ---------------------------------------------------------------------------
# finite-difference gradients
# ---------------------------------------------------------------------------

FD_COORDINATE_CAP = 5000
# The central-difference step of fd_action_gradient.
_FD_STEP = 1e-6


def fd_action_gradient(u, pot, op):
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


def test_fd_action_gradient_matches_analytic():
    g = TorusGrid((TWO_PI,), (12,))
    shift = TrigPath((TWO_PI,), 2, (TrigTerm("cos", (1,), (0.5, -0.2)),))
    pot = make_quadratic_shift(2, shift)
    rng = np.random.default_rng(1)
    u = Field(g, rng.standard_normal(g.shape + (2,)))
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        op = DiffOperator(g, scheme)
        fd = fd_action_gradient(u, pot, op)
        an = action_gradient(u, pot, op)
        rel = np.max(np.abs(fd.values - an.values)) / max(
            1.0, np.max(np.abs(an.values)))
        assert rel < 1e-7, scheme


def test_fd_coordinate_cap():
    g = TorusGrid((TWO_PI, TWO_PI), (128, 64))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI, TWO_PI), 1))
    u = Field.zeros(g, 1)
    with pytest.raises(ValueError, match="coordinate-wise"):
        fd_action_gradient(u, pot, op)


def fd_directional_derivative(u, v, pot, op, epsilon=1e-6):
    """Central-difference directional derivative of the action along v."""
    f_plus = action_value(u + epsilon * v, pot, op)
    f_minus = action_value(u + (-epsilon) * v, pot, op)
    return (f_plus - f_minus) / (2.0 * epsilon)


def test_fd_directional_derivative_agrees_with_pairing():
    # the directional probe has no size cap and must agree with the
    # quadrature pairing of the analytic gradient
    g = TorusGrid((TWO_PI, TWO_PI), (16, 16))
    op = DiffOperator(g, Scheme.SPECTRAL)
    shift = TrigPath((TWO_PI, TWO_PI), 1, (TrigTerm("cos", (1, 1), (0.3,)),))
    pot = make_quadratic_shift(1, shift)
    rng = np.random.default_rng(2)
    u = Field(g, rng.standard_normal(g.shape + (1,)))
    worst = 0.0
    for k in range(20):
        v = Field(g, rng.standard_normal(g.shape + (1,)))
        fd = fd_directional_derivative(u, v, pot, op)
        an = l2_inner(action_gradient(u, pot, op), v)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst < 1e-6

