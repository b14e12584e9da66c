import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import Field, TorusGrid, build_grid, integrate
from torus_action.grid import _box_mean, _box_sum

TWO_PI = 2.0 * np.pi


def test_grid_basic_attributes():
    g = TorusGrid((TWO_PI, 4.0), (8, 6))
    assert g.p == 2
    assert g.shape == (8, 6)
    assert g.node_count == 48
    assert_allclose(g.spacings, (TWO_PI / 8, 4.0 / 6))
    assert_allclose(g.cell_weight, (TWO_PI / 8) * (4.0 / 6))
    assert_allclose(g.volume, TWO_PI * 4.0)


def test_grid_rejects_zero_axes():
    with pytest.raises(ValueError, match="at least one time axis"):
        TorusGrid((), ())


def test_grid_rejects_too_many_axes():
    with pytest.raises(ValueError, match="at most 4"):
        TorusGrid((1.0,) * 5, (4,) * 5)


def test_grid_rejects_length_mismatch():
    with pytest.raises(ValueError, match="resolutions for"):
        TorusGrid((1.0, 2.0), (4,))


def test_grid_rejects_bad_periods():
    with pytest.raises(ValueError, match="period"):
        TorusGrid((0.0,), (4,))
    with pytest.raises(ValueError, match="period"):
        TorusGrid((-1.0,), (4,))
    with pytest.raises(ValueError, match="period"):
        TorusGrid((np.inf,), (4,))


def test_grid_rejects_small_or_odd_resolution():
    with pytest.raises(ValueError, match="at least 4"):
        TorusGrid((1.0,), (2,))
    with pytest.raises(ValueError, match="even"):
        TorusGrid((1.0,), (5,))


def test_build_grid_checks_p():
    g = build_grid(2, (1.0, 2.0), (4, 8))
    assert g.p == 2
    with pytest.raises(ValueError, match="p=3"):
        build_grid(3, (1.0, 2.0), (4, 8))


@pytest.mark.parametrize("N", [16.7, 16.0, np.float64(16.0), True])
def test_grid_rejects_a_resolution_that_is_not_an_integer(N):
    with pytest.raises(ValueError, match=r"^resolution N_2 must be an integer"):
        TorusGrid((1.0, 1.0), (8, N))


@pytest.mark.parametrize("p", [1.5, 1.0, True])
def test_build_grid_rejects_a_p_that_is_not_an_integer(p):
    with pytest.raises(ValueError, match=r"^p must be an integer"):
        build_grid(p, (1.0,), (8,))


def test_grid_accepts_numpy_integers():
    assert build_grid(np.int64(1), (1.0,), (np.int32(8),)).resolutions == (8,)


def test_coords_layout_and_protection():
    g = TorusGrid((TWO_PI, 1.0), (4, 4))
    c = g.coords()
    assert c.shape == (4, 4, 2)
    assert_allclose(c[1, 0, 0], TWO_PI / 4)
    assert_allclose(c[0, 3, 1], 0.75)
    # cached array must not be writable in place
    with pytest.raises(ValueError):
        c[0, 0, 0] = 99.0
    assert_allclose(g.axis_coords(0), np.arange(4) * TWO_PI / 4)


def test_integrate_constant_gives_volume():
    g = TorusGrid((TWO_PI, 3.0), (16, 8))
    vals = np.ones(g.shape)
    assert_allclose(integrate(g, vals), g.volume, rtol=1e-14)


def test_integrate_trig_is_exact():
    # the trapezoid rule on a periodic grid integrates low harmonics exactly
    g = TorusGrid((TWO_PI,), (16,))
    t = g.axis_coords(0)
    assert_allclose(integrate(g, np.sin(t) ** 2), np.pi, rtol=1e-13)
    assert_allclose(integrate(g, np.cos(3 * t)), 0.0, atol=1e-13)


def test_integrate_rejects_wrong_size():
    g = TorusGrid((1.0,), (8,))
    with pytest.raises(ValueError, match="node values"):
        integrate(g, np.ones(7))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# grids of p = 1 to 4 axes of N nodes, with tails of n-vectors and of n x n
# matrices, n = 1 to 3, of at most 2**20 values (32^4 takes n = 1 alone)
_BOX_SHAPES = [
    (p, N, tail)
    for p in (1, 2, 3, 4)
    for N in (4, 6, 8, 18, 32)
    for tail in [(n,) for n in (1, 2, 3)] + [(n, n) for n in (1, 2, 3)]
    if N**p * int(np.prod(tail)) <= 2**20
]


@pytest.mark.parametrize("broadcast", [False, True])
@pytest.mark.parametrize("p, N, tail", _BOX_SHAPES)
def test_box_sum_and_mean_keep_the_bits_of_numpys_reductions(p, N, tail, broadcast):
    # every site that reduces over the grid axes summed by .mean(axis=grid
    # axes) or by reshape(-1, ...).sum(axis=0); the helpers keep their bits
    g = TorusGrid((TWO_PI,) * p, (N,) * p)
    rng = np.random.default_rng([p, N, *tail])
    if broadcast:
        # a constant kind's Hessian, or MeanPotentialG's frozen x
        values = np.broadcast_to(rng.normal(size=tail) * 10.0 ** rng.uniform(-3, 3, size=tail),
                                 g.shape + tail)
    else:
        # magnitudes over six decades, so that another order of the sum shows
        values = rng.normal(size=g.shape + tail) * 10.0 ** rng.uniform(-3, 3, size=g.shape + tail)
    axes = tuple(range(p))
    assert np.array_equal(_bits(_box_mean(values, g)), _bits(values.mean(axis=axes)))
    assert np.array_equal(_bits(_box_sum(values, g)),
                          _bits(values.reshape((-1,) + tail).sum(axis=0)))
    assert _box_sum(values, g).shape == tail


def test_field_construction_flat_and_shaped():
    g = TorusGrid((1.0, 1.0), (4, 4))
    rng = np.random.default_rng(0)
    shaped = rng.standard_normal(g.shape + (3,))
    f1 = Field(g, shaped)
    assert f1.n == 3
    f2 = Field(g, shaped.ravel(), n=3)
    assert_allclose(f1.values, f2.values)
    # flat layout is node-major with components fastest
    assert_allclose(f1.flat[:3], shaped[0, 0, :])
    assert_allclose(f1.flat.reshape(g.shape + (3,)), shaped)


def test_field_flat_requires_n():
    g = TorusGrid((1.0,), (4,))
    with pytest.raises(ValueError, match="n"):
        Field(g, np.zeros(8))


def test_field_rejects_nonfinite():
    g = TorusGrid((1.0,), (4,))
    bad = np.ones((4, 1))
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Field(g, bad)


_FIELD_GRID = TorusGrid((1.0, 2.0), (8, 4))


@pytest.mark.parametrize("make, message", [
    (lambda: Field(_FIELD_GRID, np.zeros(63), n=2), "flat values have length 63, expected 64"),
    (lambda: Field(_FIELD_GRID, np.zeros((8, 6, 2))),
     r"values shape \(8, 6, 2\) does not match grid shape \(8, 4\)"),
    (lambda: Field(_FIELD_GRID, np.zeros((8, 4, 2)), n=3), "values carry 2 components, expected 3"),
    (lambda: Field.zeros(_FIELD_GRID, 2) + Field.zeros(_FIELD_GRID, 1),
     "fields live on different grids or component counts"),
    (lambda: Field.zeros(_FIELD_GRID, 2) - Field.zeros(TorusGrid((1.0, 2.0), (8, 8)), 2),
     "fields live on different grids or component counts"),
], ids=["flat-length", "shape", "components", "add-components", "subtract-grids"])
def test_field_rejects_values_or_fields_that_do_not_match(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_field_zeros_constant_from_function():
    g = TorusGrid((TWO_PI,), (8,))
    z = Field.zeros(g, 2)
    assert_allclose(z.values, 0.0)
    c = Field.constant(g, [1.0, -2.0])
    assert_allclose(c.values[3], [1.0, -2.0])
    f = Field.from_function(g, 1, lambda t: np.sin(t))
    assert_allclose(f.values[:, 0], np.sin(g.axis_coords(0)), atol=1e-15)


def test_field_from_function_shape_check():
    g = TorusGrid((1.0,), (4,))
    with pytest.raises(ValueError, match="shape"):
        Field.from_function(g, 2, lambda t: np.sin(t))


def test_field_arithmetic():
    g = TorusGrid((1.0,), (4,))
    rng = np.random.default_rng(3)
    a = Field(g, rng.standard_normal((4, 2)))
    b = Field(g, rng.standard_normal((4, 2)))
    assert_allclose((a + b).values, a.values + b.values)
    assert_allclose((a - b).values, a.values - b.values)
    assert_allclose((2.5 * a).values, 2.5 * a.values)
    assert_allclose((a * 2.5).values, 2.5 * a.values)
    assert_allclose((-a).values, -a.values)


def test_field_copy_is_independent():
    g = TorusGrid((1.0,), (4,))
    a = Field(g, np.ones((4, 1)))
    b = a.copy()
    b.values[0, 0] = 5.0
    assert a.values[0, 0] == 1.0


def test_grid_equality_and_hash():
    g1 = TorusGrid((1.0, 2.0), (4, 8))
    g2 = TorusGrid((1.0, 2.0), (4, 8))
    g3 = TorusGrid((1.0, 2.0), (4, 6))
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
