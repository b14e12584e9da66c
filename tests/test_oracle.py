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
    fd_action_gradient,
    l2_inner,
    make_quadratic_form,
    make_quadratic_shift,
    solve,
)

TWO_PI = 2.0 * np.pi


def drift_field(grid, path):
    return Field.from_function(grid, path.n, lambda t: path(t))


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
        M = system.matrix
        assert M.shape == (32, 32)
        assert np.max(np.abs(M - M.T)) < 1e-12


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
        res = solve(g, pot, op, SolverOptions(tol_grad_inf=1e-10,
                                              tol_residual_inf=1e-10,
                                              max_iters=2000))
        gap = np.max(np.abs(u_dense.values - res.u.values))
        assert gap < 1e-8, scheme


def test_dense_solve_factors_without_touching_the_system():
    import scipy.linalg

    g = TorusGrid((TWO_PI, TWO_PI), (8, 8))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    path = TrigPath((TWO_PI, TWO_PI), 2, (TrigTerm("sin", (1, 2), (1.0, -0.5)),))
    system = assemble_quadratic_system(
        g, DiffOperator(g, Scheme.FD2), A, drift_field(g, path)
    )
    before = system.matrix.copy()
    u = dense_solve(system)
    assert np.array_equal(system.matrix, before)
    sym = 0.5 * (before + before.T)
    expected = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(sym, lower=True), system.rhs
    )
    assert np.array_equal(u.flat, expected)


def test_dense_solve_rejects_singular_system():
    # with no zeroth-order term the constant mode is in the kernel and the
    # factorization must refuse
    g = TorusGrid((TWO_PI,), (8,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    zero = Field.zeros(g, 1)
    system = assemble_quadratic_system(g, op, np.zeros((1, 1)), zero)
    with pytest.raises(NotPositiveDefiniteError):
        dense_solve(system)


def test_dense_unknown_cap():
    g = TorusGrid((TWO_PI, TWO_PI, TWO_PI, TWO_PI), (12, 12, 12, 12))
    op = DiffOperator(g, Scheme.FD2)
    zero = Field.zeros(g, 1)
    with pytest.raises(ValueError, match="unknowns"):
        assemble_quadratic_system(g, op, np.eye(1), zero)


# ---------------------------------------------------------------------------
# finite-difference gradients
# ---------------------------------------------------------------------------

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


def _column_by_column(grid, op, A, n):
    """The dense matrix one unit field at a time, as the oracle first built it."""
    from torus_action import laplacian

    size = grid.node_count * n
    dense = np.empty((size, size))
    basis = np.zeros(grid.shape + (n,))
    flat = basis.reshape(-1)
    for j in range(size):
        flat[j] = 1.0
        e = Field(grid, basis)
        dense[:, j] = (-laplacian(op, e).values + e.values @ A.T).reshape(-1)
        flat[j] = 0.0
    return dense


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("p, N", [(1, 10), (2, 6), (3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("block", [7, 64])
def test_blocked_assembly_is_bit_identical_to_column_by_column(monkeypatch, scheme, p, N,
                                                                n, block):
    # 10, 36 and 64 nodes leave a remainder of 3, 1 and 1 with blocks of 7
    import torus_action.oracle as oracle

    monkeypatch.setattr(oracle, "_ASSEMBLY_BLOCK", block)
    g = TorusGrid((TWO_PI,) * p, (N,) * p)
    op = DiffOperator(g, scheme)
    A = np.arange(1.0, n * n + 1).reshape(n, n) / 7.0 + 2.0 * np.eye(n)  # not symmetric
    system = assemble_quadratic_system(g, op, A, Field(g, np.ones(g.shape + (n,))))
    assert np.array_equal(system.matrix, _column_by_column(g, op, A, n))


def test_blocked_assembly_leaves_a_remainder_at_the_default_block():
    import torus_action.oracle as oracle

    g = TorusGrid((TWO_PI, TWO_PI), (10, 10))
    assert g.node_count % oracle._ASSEMBLY_BLOCK != 0
    op = DiffOperator(g, Scheme.SPECTRAL)
    A = np.array([[1.0, 0.25], [-0.5, 2.0]])
    system = assemble_quadratic_system(g, op, A, Field(g, np.zeros(g.shape + (2,))))
    assert np.array_equal(system.matrix, _column_by_column(g, op, A, 2))
