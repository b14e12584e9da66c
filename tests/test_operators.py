import importlib.machinery

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    DiffOperator,
    Field,
    Scheme,
    SolverOptions,
    TorusGrid,
    TrigPath,
    TrigTerm,
    action_gradient,
    action_value,
    certify,
    l2_inner,
    laplacian,
    make_manufactured,
    make_quadratic_shift,
    newton_krylov_refine,
    solve,
)
import torus_action.operators as operators_module
from torus_action.certify import MeanPotentialG
from torus_action.operators import dirichlet_form, l2_norm, mean_decompose
from torus_action.potentials import check_potential, make_linear_drift

TWO_PI = 2.0 * np.pi

SCHEMES = [Scheme.SPECTRAL, Scheme.FD2]


def random_field(grid, n, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape + (n,)))


def sin_field(grid):
    return Field.from_function(grid, 1, lambda t: np.sin(t[..., :1]))


# ---------------------------------------------------------------------------
# laplacian and eigenvalues
# ---------------------------------------------------------------------------

def test_spectral_laplacian_is_exact_on_modes():
    g = TorusGrid((TWO_PI, 4.0), (8, 8))
    op = DiffOperator(g, Scheme.SPECTRAL)
    path = TrigPath((TWO_PI, 4.0), 1, (TrigTerm("sin", (1, 2), (1.0,)),))
    u = Field.from_function(g, 1, lambda t: path(t))
    sym = 1.0 + (2 * np.pi * 2 / 4.0) ** 2
    assert_allclose(laplacian(op, u).values, -sym * u.values, atol=1e-12)


def test_fd2_laplacian_coarse_symbol():
    # N=4 on period 2*pi: 3-point symbol (2/h^2)(1 - cos(2 pi /4)) = 8/pi^2
    g = TorusGrid((TWO_PI,), (4,))
    op = DiffOperator(g, Scheme.FD2)
    u = sin_field(g)
    assert_allclose(laplacian(op, u).values, -(8.0 / np.pi ** 2) * u.values,
                    rtol=1e-13, atol=1e-15)


def test_laplacian_annihilates_constants():
    g = TorusGrid((TWO_PI, 3.0), (8, 6))
    c = Field.constant(g, [1.5, -2.0])
    for scheme in SCHEMES:
        out = laplacian(DiffOperator(g, scheme), c)
        assert_allclose(out.values, 0.0, atol=1e-13)


def test_eigenvalue_tables():
    g = TorusGrid((TWO_PI,), (8,))
    lam_s = DiffOperator(g, Scheme.SPECTRAL).eigenvalues
    k = np.fft.fftfreq(8, 1.0 / 8)
    assert_allclose(lam_s, k ** 2, atol=1e-13)
    lam_f = DiffOperator(g, Scheme.FD2).eigenvalues
    h = TWO_PI / 8
    assert_allclose(lam_f, (2 / h ** 2) * (1 - np.cos(2 * np.pi * np.arange(8) / 8)),
                    atol=1e-12)
    assert lam_s[0] == 0.0 and lam_f[0] == 0.0


def test_eigenvalues_are_write_protected():
    g = TorusGrid((TWO_PI,), (8,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    with pytest.raises(ValueError):
        op.eigenvalues[0] = 1.0


# ---------------------------------------------------------------------------
# quadrature forms
# ---------------------------------------------------------------------------

def test_l2_norm_of_sin():
    g = TorusGrid((TWO_PI,), (16,))
    assert_allclose(l2_norm(sin_field(g)) ** 2, np.pi, rtol=1e-13)


def test_dirichlet_form_matches_integration_by_parts():
    # <(-lap) u, v> must equal the Dirichlet form for both schemes; the
    # forms are assembled from one eigenvalue table so the identity is
    # exact to rounding
    for p, periods, res in [(1, (TWO_PI,), (16,)),
                            (2, (TWO_PI, 4.0), (8, 6)),
                            (3, (TWO_PI, 4.0, 3.0), (6, 4, 4))]:
        g = TorusGrid(periods, res)
        for scheme in SCHEMES:
            op = DiffOperator(g, scheme)
            u = random_field(g, 2, seed=p)
            v = random_field(g, 2, seed=p + 50)
            lhs = dirichlet_form(u, v, op)
            rhs = l2_inner(-1.0 * laplacian(op, u), v)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) < 1e-11 * scale
            # symmetry
            assert_allclose(dirichlet_form(v, u, op), lhs, rtol=1e-10)


def test_dirichlet_form_of_constant_is_zero():
    g = TorusGrid((TWO_PI, 3.0), (8, 6))
    c = Field.constant(g, [1.0, 2.0])
    v = random_field(g, 2, 9)
    for scheme in SCHEMES:
        op = DiffOperator(g, scheme)
        assert_allclose(dirichlet_form(c, v, op), 0.0, atol=1e-12)
        assert_allclose(dirichlet_form(c, c, op), 0.0, atol=1e-15)


def test_dirichlet_form_of_sin():
    # int cos^2 = pi for the spectral scheme
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    u = sin_field(g)
    assert_allclose(dirichlet_form(u, u, op), np.pi, rtol=1e-13)


# ---------------------------------------------------------------------------
# action functional
# ---------------------------------------------------------------------------

def test_action_of_zero_field_is_box_integral_of_potential():
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.constant((TWO_PI,), [1.0]))
    u = Field.zeros(g, 1)
    assert_allclose(dirichlet_form(u, u, op), 0.0, atol=1e-15)
    assert_allclose(action_value(u, pot, op), np.pi, rtol=1e-13)


def test_action_minimum_at_constant_shift():
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.constant((TWO_PI,), [1.0]))
    u = Field.constant(g, [1.0])
    assert_allclose(action_value(u, pot, op), 0.0, atol=1e-14)
    assert_allclose(np.abs(action_gradient(u, pot, op).values).max(), 0.0, atol=1e-14)


def test_action_of_sin_under_centered_quadratic():
    # kinetic pi/2 plus potential pi/2
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    assert_allclose(action_value(sin_field(g), pot, op), np.pi, rtol=1e-13)


def test_action_gradient_matches_line_derivative():
    g = TorusGrid((TWO_PI, 4.0), (8, 6))
    pot = make_quadratic_shift(2, TrigPath.constant((TWO_PI, 4.0), [0.3, -0.1]))
    for scheme in SCHEMES:
        op = DiffOperator(g, scheme)
        u = random_field(g, 2, 4)
        v = random_field(g, 2, 5)
        grad = action_gradient(u, pot, op)
        pairing = l2_inner(grad, v)
        eps = 1e-6
        fd = (action_value(u + eps * v, pot, op)
              - action_value(u - eps * v, pot, op)) / (2 * eps)
        assert_allclose(pairing, fd, rtol=1e-7)


def test_pde_residual_of_exact_solution():
    g = TorusGrid((TWO_PI,), (32,))
    target = TrigPath((TWO_PI,), 1, (TrigTerm("sin", (1,), (1.0,)),))
    pot, exact = make_manufactured(g, 1, target)
    op = DiffOperator(g, Scheme.SPECTRAL)
    # the residual laplacian(u) - grad F(t, u) is minus the action gradient
    residual = action_gradient(exact, pot, op)
    assert residual.values.shape == (32, 1)
    assert np.abs(residual.values).max() < 1e-13
    assert l2_norm(residual) < 1e-13


# ---------------------------------------------------------------------------
# mean decomposition and preconditioner
# ---------------------------------------------------------------------------

def test_mean_decompose_splits_exactly():
    g = TorusGrid((TWO_PI,), (16,))
    u = Field.from_function(g, 2, lambda t: np.stack(
        [3.0 + np.sin(t[..., 0]), -1.0 + np.cos(t[..., 0])], axis=-1))
    mean, fluct = mean_decompose(u)
    assert_allclose(mean, [3.0, -1.0], rtol=1e-13)
    # fluctuation has exactly zero box mean
    m2, _ = mean_decompose(fluct)
    assert_allclose(m2, 0.0, atol=1e-15)
    assert_allclose(fluct.values + mean, u.values, rtol=1e-13)


def test_h1_precondition_inverts_one_plus_laplacian():
    # the smoother table 1 / (1 + lambda_k) that the descent's preconditioner
    # keeps on the singular directions of the mean Hessian
    g = TorusGrid((TWO_PI, 4.0), (8, 6))
    for scheme in SCHEMES:
        op = DiffOperator(g, scheme)
        u = random_field(g, 2, 3)
        w = Field(g, op._multiply(u.values, op._smooth))
        back = -1.0 * laplacian(op, w) + w
        assert_allclose(back.values, u.values, atol=1e-11)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_operator_rejects_mismatched_grid():
    g1 = TorusGrid((TWO_PI,), (16,))
    g2 = TorusGrid((TWO_PI,), (8,))
    op = DiffOperator(g1, Scheme.SPECTRAL)
    u = Field.zeros(g2, 1)
    with pytest.raises(ValueError):
        laplacian(op, u)


def test_action_rejects_mismatched_potential_periods():
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.zero((4.0,), 1))
    with pytest.raises(ValueError):
        action_value(Field.zeros(g, 1), pot, op)


def _refine(g, op, pot):
    matched = make_quadratic_shift(1, TrigPath.zero(g.periods, 1))
    newton_krylov_refine(solve(g, matched, op, SolverOptions(max_iters=1)), pot, op)


# entry point -> call on grid, operator and potential
PERIOD_CHECKS = {
    "action_value": lambda g, op, pot: action_value(Field.zeros(g, 1), pot, op),
    "action_gradient": lambda g, op, pot: action_gradient(Field.zeros(g, 1), pot, op),
    "solve": lambda g, op, pot: solve(g, pot, op),
    "newton_krylov_refine": _refine,
    "MeanPotentialG": lambda g, op, pot: MeanPotentialG(g, pot),
    "certify": lambda g, op, pot: certify(g, pot, op),
    "check_potential": lambda g, op, pot: check_potential(pot, g),
}


@pytest.mark.parametrize("periods", [(4.0,), (TWO_PI, TWO_PI)], ids=["value", "count"])
@pytest.mark.parametrize("entry", sorted(PERIOD_CHECKS))
def test_every_entry_point_rejects_mismatched_periods(entry, periods):
    g = TorusGrid((TWO_PI,), (16,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_quadratic_shift(1, TrigPath.zero(periods, 1))
    with pytest.raises(ValueError, match=r"^potential periods .* do not match grid periods"):
        PERIOD_CHECKS[entry](g, op, pot)


@pytest.mark.parametrize("entry", sorted(PERIOD_CHECKS))
def test_every_entry_point_rejects_an_aliased_api_built_drift(entry):
    # an 8-node grid samples cos(8 t) as the constant 1, so it would solve
    # another problem; solve ran to max_iters on it and certify missed
    g = TorusGrid((TWO_PI,), (8,))
    op = DiffOperator(g, Scheme.SPECTRAL)
    pot = make_linear_drift(1, TrigPath((TWO_PI,), 1, (TrigTerm("cos", (8,), (1.0,)),)))
    message = ("potential 'drift': frequency 8 on axis 1 is not resolvable below "
               "the Nyquist limit of an N=8 grid")
    with pytest.raises(ValueError) as caught:
        PERIOD_CHECKS[entry](g, op, pot)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# real-FFT kernel against a full complex-spectrum reference
# ---------------------------------------------------------------------------

KERNEL_GRIDS = {
    1: ((TWO_PI,), (4,)),
    2: ((TWO_PI, 3.0), (4, 6)),
    3: ((1.0, TWO_PI, 2.5), (6, 4, 8)),
    4: ((TWO_PI, 1.5, 2.0, 3.0), (4, 6, 4, 4)),
}


def reference_eigenvalues(grid, scheme):
    """Full-spectrum eigenvalues of -laplacian."""
    mesh = np.meshgrid(
        *[np.fft.fftfreq(N, 1.0 / N) for N in grid.resolutions], indexing="ij"
    )
    lam = np.zeros(grid.shape)
    for m, N, T, h in zip(mesh, grid.resolutions, grid.periods, grid.spacings):
        if scheme is Scheme.SPECTRAL:
            lam += (2.0 * np.pi * m / T) ** 2
        else:
            lam += (2.0 / h**2) * (1.0 - np.cos(2.0 * np.pi * m / N))
    return lam


def assert_matches(actual, reference):
    scale = np.abs(reference).max()
    assert_allclose(actual, reference, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_kernel_matches_complex_reference(p, n, scheme):
    grid = TorusGrid(*KERNEL_GRIDS[p])
    op = DiffOperator(grid, scheme)
    axes = tuple(range(p))
    u = random_field(grid, n, 10 * p + n)
    v = random_field(grid, n, 10 * p + n + 5)
    lam = reference_eigenvalues(grid, scheme)
    uhat = np.fft.fftn(u.values, axes=axes)
    vhat = np.fft.fftn(v.values, axes=axes)

    def back(spectrum):
        return np.fft.ifftn(spectrum, axes=axes).real

    assert not op.eigenvalues.flags.writeable
    assert_matches(op.eigenvalues, lam)
    assert_matches(laplacian(op, u).values, back(-lam[..., None] * uhat))
    assert_matches(op._multiply(u.values, op._smooth), back(uhat / (1.0 + lam[..., None])))
    weight = grid.cell_weight / grid.node_count
    for a, b, ahat, bhat in ((u, v, uhat, vhat), (u, u, uhat, uhat)):
        reference = weight * np.sum(lam[..., None] * (ahat * np.conj(bhat)).real)
        assert_matches(np.array(dirichlet_form(a, b, op)), reference)


def test_dirichlet_form_of_a_field_with_itself_transforms_once(count_transforms):
    g = TorusGrid((TWO_PI, 4.0), (8, 6))
    op = DiffOperator(g, Scheme.SPECTRAL)
    u = random_field(g, 2, 0)
    v = random_field(g, 2, 1)
    counts = count_transforms()
    dirichlet_form(u, u, op)
    assert counts == {"rfft": 1, "irfft": 0, "complex": 0}
    dirichlet_form(u, v, op)
    assert counts == {"rfft": 3, "irfft": 0, "complex": 0}


def test_kernel_operators_use_one_real_transform_pair(count_transforms):
    g = TorusGrid((TWO_PI, 4.0), (8, 6))
    op = DiffOperator(g, Scheme.SPECTRAL)
    u = random_field(g, 2, 0)
    counts = count_transforms()
    laplacian(op, u)
    assert counts == {"rfft": 1, "irfft": 1, "complex": 0}


# the private pocketfft extension is pinned to scipy.fft's public transforms,
# so a scipy release that moves or re-signs it fails here
OTHER_AXES = (6, 4, 10)
TRANSFORM_SHAPES = sorted({
    shape
    for p in (1, 2, 3, 4)
    for N in (4, 8, 18, 32)
    for shape in ((N, *OTHER_AXES[: p - 1]), (*OTHER_AXES[: p - 1], N))
})


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("shape", TRANSFORM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_transform_pair_is_bit_identical_to_scipy_fft(shape, scheme):
    import scipy.fft

    p = len(shape)
    op = DiffOperator(TorusGrid((TWO_PI,) * p, shape), scheme)
    axes = tuple(range(-p - 1, -1))[1:] + (-p - 1,)
    sizes = shape[1:] + shape[:1]
    rng = np.random.default_rng(sum(shape) + p)
    for n in (1, 2, 3):
        for batch in ((), (2,)):
            values = rng.standard_normal(batch + shape + (n,))
            spectrum = op._rfft(values)
            assert np.array_equal(spectrum, scipy.fft.rfftn(values, s=sizes, axes=axes))
            spectrum = spectrum + 0.25j * rng.standard_normal(spectrum.shape)
            assert np.array_equal(op._irfft(spectrum),
                                  scipy.fft.irfftn(spectrum, s=sizes, axes=axes))


def test_missing_pocketfft_extension_names_the_folder_searched(tmp_path):
    folder = tmp_path / "fft" / "_pocketfft"
    with pytest.raises(ImportError, match="found 0") as missing:
        operators_module._load_pocketfft(tmp_path)
    assert str(folder) in str(missing.value)
    folder.mkdir(parents=True)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES[:2]:
        (folder / f"pypocketfft{suffix}").write_bytes(b"")
    with pytest.raises(ImportError, match="found 2") as ambiguous:
        operators_module._load_pocketfft(tmp_path)
    assert str(folder) in str(ambiguous.value)
