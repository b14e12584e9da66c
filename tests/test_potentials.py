from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    DiffOperator,
    Field,
    Potential,
    Scheme,
    SolveStatus,
    TorusGrid,
    TrigPath,
    TrigTerm,
    Verdict,
    certify,
    check_gradient,
    make_linear_drift,
    make_log_sum_exp,
    make_manufactured,
    make_quadratic_form,
    make_quadratic_shift,
    newton_krylov_refine,
    potential_from_dict,
    solve,
)
from torus_action.potentials import SUPERLINEAR, check_path_resolvable

TWO_PI = 2.0 * np.pi


def cos_path(n=1, freq=(1,), coeff=None, periods=(TWO_PI,)):
    coeff = (1.0,) * n if coeff is None else tuple(coeff)
    return TrigPath(periods, n, (TrigTerm("cos", freq, coeff),))


# ---------------------------------------------------------------------------
# trig paths
# ---------------------------------------------------------------------------

def test_trig_path_evaluates_terms():
    path = TrigPath(
        (TWO_PI, TWO_PI),
        2,
        (
            TrigTerm("cos", (1, 0), (1.0, 0.0)),
            TrigTerm("sin", (0, 2), (0.0, 3.0)),
        ),
    )
    t = np.array([0.3, 1.1])
    assert_allclose(path(t), [np.cos(0.3), 3.0 * np.sin(2.2)], rtol=1e-14)


def test_trig_path_vectorizes_over_leading_axes():
    path = cos_path()
    t = np.linspace(0.0, TWO_PI, 12).reshape(3, 4, 1)
    out = path(t)
    assert out.shape == (3, 4, 1)
    assert_allclose(out[..., 0], np.cos(t[..., 0]), rtol=1e-14)


def test_trig_path_normalizes_container_types():
    # list periods and tuple periods must compare equal after construction
    a = TrigPath([TWO_PI], 1, [TrigTerm("cos", [1], [1.0])])
    b = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (1.0,)),))
    assert a.periods == b.periods
    assert a.terms == b.terms


def test_trig_path_keeps_samples_of_frozen_coordinates():
    g = TorusGrid((TWO_PI, 3.0), (8, 6))
    path = TrigPath(g.periods, 2, (TrigTerm("sin", (1, 2), (1.0, -0.5)),))
    first = path(g.coords())
    assert path(g.coords()) is first
    assert not first.flags.writeable
    writable = g.coords().copy()
    fresh = path(writable)
    assert fresh is not first and fresh.flags.writeable
    assert np.array_equal(fresh, first)
    writable[0, 0, 0] += 1.0
    assert path(writable) is not fresh  # a writable array is never cached
    assert path == TrigPath(g.periods, 2, path.terms)


def test_manufactured_exact_field_is_a_private_copy():
    g = TorusGrid((TWO_PI,), (8,))
    target = cos_path()
    _, exact = make_manufactured(g, 1, target)
    assert exact.values.flags.writeable
    assert not np.shares_memory(exact.values, target(g.coords()))


def test_trig_term_rejects_unknown_kind():
    with pytest.raises(ValueError, match="trig"):
        TrigTerm("tan", (1,), (1.0,))


@pytest.mark.parametrize("k", [1.5, 1.0, False])
def test_trig_term_rejects_a_frequency_that_is_not_an_integer(k):
    # truncating 1.5 to 1 would build another potential
    with pytest.raises(ValueError, match=r"^freq\[1\] must be an integer"):
        TrigTerm("cos", (0, k), (1.0,))


def test_path_from_dict_rejects_a_frequency_that_is_not_an_integer():
    data = {"terms": [{"trig": "cos", "freq": [1.5], "coeff": [1.0]}]}
    with pytest.raises(ValueError, match=r"^freq\[0\] must be an integer"):
        TrigPath.from_dict(data, (2.0 * np.pi,), 1)


def test_trig_path_laplacian_multiplies_by_symbol():
    # d^2/dt^2 cos(k t) = -k^2 cos(k t) on period 2*pi
    path = cos_path(freq=(3,))
    lap = path.laplacian()
    t = np.array([0.7])
    assert_allclose(lap(t), -9.0 * path(t), rtol=1e-14)
    # mixed frequencies on an anisotropic box
    path2 = TrigPath((TWO_PI, 4.0), 1, (TrigTerm("sin", (1, 2), (1.0,)),))
    lap2 = path2.laplacian()
    sym = (2 * np.pi * 1 / TWO_PI) ** 2 + (2 * np.pi * 2 / 4.0) ** 2
    t2 = np.array([0.3, 0.9])
    assert_allclose(lap2(t2), -sym * path2(t2), rtol=1e-13)


def test_trig_path_algebra_and_mean():
    a = cos_path()
    b = a.scaled(-2.0)
    t = np.array([1.2])
    assert_allclose(a.plus(b)(t), -a(t), rtol=1e-14)
    assert_allclose(a.box_mean(), [0.0], atol=1e-15)
    const = TrigPath.constant((TWO_PI,), [4.0])
    assert_allclose(const.box_mean(), [4.0], rtol=1e-15)
    assert_allclose(TrigPath.zero((TWO_PI,), 2).box_mean(), [0.0, 0.0])


def test_trig_path_dict_round_trip():
    # a config path, as the schema admits it, reads back as the path it describes
    data = {
        "terms": [
            {"trig": "cos", "freq": [1, 0], "coeff": [1, 0.5]},
            {"trig": "sin", "freq": [2, 1], "coeff": [0.0, -3.0]},
        ]
    }
    path = TrigPath(
        (TWO_PI, 4.0),
        2,
        (
            TrigTerm("cos", (1, 0), (1.0, 0.5)),
            TrigTerm("sin", (2, 1), (0.0, -3.0)),
        ),
    )
    again = TrigPath.from_dict(data, periods=[TWO_PI, 4], n=2)
    assert again == path
    t = np.array([0.4, 2.2])
    assert_allclose(again(t), path(t), rtol=1e-15)


def test_check_path_resolvable_nyquist():
    g = TorusGrid((TWO_PI,), (8,))
    check_path_resolvable(cos_path(freq=(3,)), g)  # 2*3 < 8, fine
    with pytest.raises(ValueError, match="resolvabl"):
        check_path_resolvable(cos_path(freq=(4,)), g)
    with pytest.raises(ValueError, match="period"):
        check_path_resolvable(cos_path(periods=(4.0,)), g)


# ---------------------------------------------------------------------------
# potential factories
# ---------------------------------------------------------------------------

def test_quadratic_shift_value_and_gradient():
    pot = make_quadratic_shift(2, TrigPath.constant((TWO_PI,), [1.0, -1.0]))
    t = np.array([0.5])
    x = np.array([3.0, 1.0])
    assert_allclose(pot.value(t, x), 0.5 * (2.0 ** 2 + 2.0 ** 2))
    assert_allclose(pot.gradient(t, x), [2.0, 2.0])
    assert_allclose(pot.hessian(t, x), np.eye(2))
    assert pot.recession == SUPERLINEAR


def test_linear_drift_gradient_is_the_path():
    drift = cos_path(n=2, freq=(1,), coeff=(1.0, 0.5))
    pot = make_linear_drift(2, drift)
    t = np.array([0.9])
    x = np.array([2.0, -1.0])
    assert_allclose(pot.value(t, x), np.dot(drift(t), x), rtol=1e-14)
    assert_allclose(pot.gradient(t, x), drift(t), rtol=1e-14)
    assert_allclose(pot.hessian(t, x), np.zeros((2, 2)))
    # the box mean of the drift, which has no zero-frequency term
    assert pot.recession == ((0.0, 0.0),)


@pytest.mark.parametrize("recession", [((1.0,),), "linear", ((np.nan, 0.0),), (1.0, 0.0),
                                       ((1.0, 0.0), (1.0,))])
def test_malformed_recession_is_rejected_when_the_potential_is_built(recession):
    # solve reads the recession only once the mean passes its threshold, so
    # a malformed one must not wait until then
    pot = make_linear_drift(2, cos_path(n=2, freq=(1,), coeff=(1.0, 0.5)))
    with pytest.raises(ValueError, match="recession must be rows of 2 finite numbers"):
        replace(pot, recession=recession)


@pytest.mark.parametrize("missing", ["hessian", "recession"])
def test_potential_without_a_hessian_or_a_recession_is_rejected_when_built(missing):
    # the preconditioner, the polish and the mean search read the Hessian,
    # and the recession decides whether a minimizer exists
    pot = make_linear_drift(2, cos_path(n=2, freq=(1,), coeff=(1.0, 0.5)))
    with pytest.raises(ValueError, match=f"'linear_drift' must declare its {missing}"):
        replace(pot, **{missing: None})
    fields = {"n": 2, "periods": pot.periods, "value": pot.value, "gradient": pot.gradient,
              "hessian": pot.hessian, "recession": pot.recession}
    with pytest.raises(TypeError, match=f"'{missing}'"):
        Potential(**{k: v for k, v in fields.items() if k != missing})


def test_declared_recession_rows_are_held_as_tuples():
    pot = make_linear_drift(1, cos_path())
    assert replace(pot, recession=np.array([[-2.0]])).recession == ((-2.0,),)


def test_quadratic_form_requires_spd():
    with pytest.raises(ValueError, match="symmetric"):
        make_quadratic_form(np.array([[1.0, 2.0], [0.0, 1.0]]),
                            TrigPath.zero((TWO_PI,), 2))
    with pytest.raises(ValueError, match="positive definite"):
        make_quadratic_form(np.array([[1.0, 0.0], [0.0, -1.0]]),
                            TrigPath.zero((TWO_PI,), 2))


def test_quadratic_form_matches_formula():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    drift = cos_path(n=2, freq=(1,), coeff=(1.0, -1.0))
    pot = make_quadratic_form(A, drift)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, TWO_PI, size=1)
    x = rng.standard_normal(2)
    expected = 0.5 * x @ A @ x + drift(t) @ x
    assert_allclose(pot.value(t, x), expected, rtol=1e-13)
    assert_allclose(pot.gradient(t, x), A @ x + drift(t), rtol=1e-13)
    assert_allclose(pot.hessian(t, x), A)


def test_log_sum_exp_matches_naive_formula():
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath.constant((TWO_PI,), [c]) for c in (0.0, 0.3, -0.2)]
    pot = make_log_sum_exp(S, offs)
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, TWO_PI, size=1)
    x = rng.standard_normal(2)
    raw = np.log(sum(np.exp(S[j] @ x + offs[j](t)[0]) for j in range(3)))
    assert_allclose(pot.value(t, x), raw, rtol=1e-12)
    # the offsets do not change the growth at infinity
    assert pot.recession == tuple(map(tuple, S))


def test_log_sum_exp_column_reductions_match_last_axis_reductions():
    # value and softmax reduce over the J logit columns one column at a
    # time; they must agree with the plain reductions over the last axis
    periods = (TWO_PI,) * 4
    g = TorusGrid(periods, (16,) * 4)
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    offs = [
        TrigPath(periods, 1, (TrigTerm("cos", freq, (c,)),))
        for freq, c in (((1, 0, 0, 0), 0.5), ((0, 0, 1, 0), 0.4),
                        ((0, 0, 0, 0), 0.0), ((0, 1, 0, 1), 0.3))
    ]
    pot = make_log_sum_exp(S, offs)
    t = g.coords()
    x = np.random.default_rng(11).normal(0.0, 2.0, size=g.shape + (2,))
    z = x @ S.T + np.concatenate([b(t) for b in offs], axis=-1)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    prob = e / e.sum(axis=-1, keepdims=True)
    value = m[..., 0] + np.log(np.sum(e, axis=-1))
    grad = prob @ S
    hess = np.einsum("...j,jm,jk->...mk", prob, S, S) - grad[..., :, None] * grad[..., None, :]
    assert_allclose(pot.value(t, x), value, rtol=1e-15, atol=0.0)
    assert_allclose(pot.gradient(t, x), grad, rtol=1e-15, atol=0.0)
    assert_allclose(pot.hessian(t, x), hess, rtol=1e-15, atol=0.0)


def _naive_log_sum_exp(S, offsets, t, x):
    """Value, gradient and Hessian at one point, term by term in floats."""
    z = [sum(S[j, m] * x[m] for m in range(len(x))) + offsets[j](t)[0]
         for j in range(len(S))]
    total = sum(np.exp(zj) for zj in z)
    p = [np.exp(zj) / total for zj in z]
    g = [sum(p[j] * S[j, a] for j in range(len(S))) for a in range(len(x))]
    h = [[sum(p[j] * S[j, a] * S[j, b] for j in range(len(S))) - g[a] * g[b]
          for b in range(len(x))] for a in range(len(x))]
    return np.log(total), np.array(g), np.array(h)


@pytest.mark.parametrize("batch", [(), (7,), (6, 5, 4)])
def test_log_sum_exp_matches_naive_formulas_for_general_directions(batch):
    # five directions with no zero entry and every offset path nonempty but
    # one; the kernel combines logit, gradient and Hessian planes by
    # multiply-adds, which must agree with the formulas for every batch shape
    periods = (TWO_PI, 3.0, 2.0)
    rng = np.random.default_rng(len(batch))
    S = rng.normal(size=(5, 3))
    offs = [
        TrigPath(periods, 1, (TrigTerm("cos", (1, 0, 1), (0.4,)),
                              TrigTerm("sin", (0, 1, 0), (-0.2,)))),
        TrigPath(periods, 1, (TrigTerm("cos", (0, 0, 0), (0.7,)),)),
        TrigPath.zero(periods, 1),
        TrigPath(periods, 1, (TrigTerm("sin", (1, 1, 1), (0.3,)),)),
        TrigPath(periods, 1, (TrigTerm("cos", (2, 0, 0), (-0.5,)),)),
    ]
    pot = make_log_sum_exp(S, offs)
    t = rng.uniform(0.0, 1.0, size=batch + (3,)) * np.asarray(periods)
    x = rng.normal(0.0, 1.5, size=batch + (3,))
    value, grad, hess = pot.value(t, x), pot.gradient(t, x), pot.hessian(t, x)
    assert np.shape(value) == batch
    assert grad.shape == batch + (3,)
    assert hess.shape == batch + (3, 3)
    # entries that cancel terms of size |s|, or |s|^2 for the Hessian, keep
    # only an absolute accuracy of rounding times that size
    scale = float(np.abs(S).max())
    for i in np.ndindex(*batch):
        v, gr, h = _naive_log_sum_exp(S, offs, t[i], x[i])
        assert_allclose(value[i], v, rtol=1e-13, atol=0.0)
        assert_allclose(grad[i], gr, rtol=1e-13, atol=1e-13 * scale)
        assert_allclose(hess[i], h, rtol=1e-13, atol=1e-13 * scale**2)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


def test_log_sum_exp_with_a_zero_direction_column():
    # no direction moves x_2, so its gradient entry and Hessian row vanish
    S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    offs = [TrigPath.constant((TWO_PI,), [c]) for c in (0.0, 0.3, -0.2)]
    pot = make_log_sum_exp(S, offs)
    t = np.array([[0.5], [1.5]])
    x = np.array([[0.3, -2.0], [-0.7, 4.0]])
    grad, hess = pot.gradient(t, x), pot.hessian(t, x)
    assert np.all(grad[:, 1] == 0.0)
    assert np.all(hess[:, 1, :] == 0.0) and np.all(hess[:, :, 1] == 0.0)
    for i in range(2):
        v, gr, h = _naive_log_sum_exp(S, offs, t[i], x[i])
        assert_allclose(pot.value(t, x)[i], v, rtol=1e-13)
        assert_allclose(grad[i], gr, rtol=1e-13)
        assert_allclose(hess[i], h, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_and_drift_column_sums_match_last_axis_sums(n):
    # the quadratic-family values sum over the n components one column at a
    # time; they must agree with the plain sums over the last axis
    periods = (TWO_PI,) * 3
    g = TorusGrid(periods, (8,) * 3)
    rng = np.random.default_rng(n)
    path = TrigPath(periods, n, (
        TrigTerm("cos", (0, 0, 0), tuple(rng.normal(size=n))),
        TrigTerm("sin", (1, 2, 0), tuple(rng.normal(size=n))),
    ))
    B = rng.normal(size=(n, n))
    A = B @ B.T + np.eye(n)
    t = g.coords()
    x = rng.normal(0.0, 2.0, size=g.shape + (n,))
    c = path(t)
    for pot, value in (
        (make_quadratic_shift(n, path), 0.5 * np.sum((x - c) * (x - c), axis=-1)),
        (make_linear_drift(n, path), np.sum(c * x, axis=-1)),
        (make_quadratic_form(A, path),
         0.5 * np.sum((x @ A) * x, axis=-1) + np.sum(c * x, axis=-1)),
    ):
        assert_allclose(pot.value(t, x), value, rtol=1e-15, atol=0.0, err_msg=pot.kind)


def test_log_sum_exp_is_overflow_safe():
    S = np.array([[1.0], [-1.0]])
    offs = [TrigPath.zero((TWO_PI,), 1)] * 2
    pot = make_log_sum_exp(S, offs)
    t = np.zeros(1)
    big = np.array([800.0])
    v = pot.value(t, big)
    assert np.isfinite(v)
    assert_allclose(v, 800.0, rtol=1e-12)
    g = pot.gradient(t, big)
    assert np.all(np.isfinite(g))


def test_log_sum_exp_rank_deficient_is_only_convex():
    # directions all share the same x-component, so growth is flat along e_2
    S = np.array([[1.0, 0.0], [1.0, 0.0]])
    offs = [TrigPath.zero((TWO_PI,), 1)] * 2
    pot = make_log_sum_exp(S, offs)
    t = np.array([[0.4], [2.0]])
    x = np.array([[0.3, -1.0], [2.0, 5.0]])
    assert_allclose(pot.hessian(t, x)[:, 1, :], 0.0, atol=0.0)
    assert pot.recession == ((1.0, 0.0), (1.0, 0.0))


def test_manufactured_gradient_hits_target():
    # with F(t,x) = |x|^2/2 + <g(t),x> and g = lap(u*) - u*, the target
    # path solves the stationarity equation exactly at every t
    g = TorusGrid((TWO_PI, TWO_PI), (8, 8))
    target = TrigPath(
        (TWO_PI, TWO_PI),
        2,
        (
            TrigTerm("sin", (1, 0), (1.0, 0.0)),
            TrigTerm("cos", (1, 2), (0.0, 0.5)),
        ),
    )
    pot, exact = make_manufactured(g, 2, target)
    assert pot.kind == "manufactured" and pot.recession == SUPERLINEAR
    assert_allclose(exact.values, target(g.coords()), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = rng.uniform(0.0, TWO_PI, size=2)
        lap_t = target.laplacian()(t)
        assert_allclose(pot.gradient(t, target(t)), lap_t, atol=1e-12)


def test_manufactured_rejects_unresolvable_target():
    g = TorusGrid((TWO_PI,), (8,))
    with pytest.raises(ValueError, match="resolvabl"):
        make_manufactured(g, 1, cos_path(freq=(4,)))


# ---------------------------------------------------------------------------
# self checks
# ---------------------------------------------------------------------------

def test_check_gradient_accepts_correct_potentials():
    shift = make_quadratic_shift(2, cos_path(n=2, coeff=(1.0, 0.3)))
    assert check_gradient(shift, seed=0) < 1e-9
    drift = make_linear_drift(1, cos_path())
    assert check_gradient(drift, seed=0) < 1e-9


def test_check_gradient_flags_corrupted_gradient():
    base = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    from dataclasses import replace
    bad = replace(base, gradient=lambda t, x: 0.9 * base.gradient(t, x))
    assert check_gradient(bad, seed=0) > 0.05



@pytest.mark.parametrize("seed, message", [(-1, "seed must be non-negative"),
                                           (1.5, "seed must be an integer")])
def test_check_gradient_rejects_a_bad_seed(seed, message):
    drift = make_linear_drift(1, cos_path())
    with pytest.raises(ValueError, match=message):
        check_gradient(drift, seed=seed)


def check_midpoint_convexity(pot, triples, seed):
    """Largest F(t, (x+y)/2) - (F(t, x) + F(t, y)) / 2 over random (t, x, y).

    Nonpositive, up to rounding, for a convex potential.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=(triples, len(pot.periods))) * np.asarray(pot.periods)
    x = rng.normal(0.0, 2.0, size=(triples, pot.n))
    y = rng.normal(0.0, 2.0, size=(triples, pot.n))
    violation = pot.value(t, 0.5 * (x + y)) - 0.5 * (pot.value(t, x) + pot.value(t, y))
    return float(violation.max())


def test_check_midpoint_convexity_no_violation_for_convex():
    shift = make_quadratic_shift(2, cos_path(n=2, coeff=(1.0, 0.3)))
    assert check_midpoint_convexity(shift, triples=500, seed=1) <= 1e-10
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath.zero((TWO_PI,), 1)] * 3
    lse = make_log_sum_exp(S, offs)
    assert check_midpoint_convexity(lse, triples=500, seed=1) <= 1e-10


def test_check_midpoint_convexity_flags_concave():
    base = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    from dataclasses import replace
    bad = replace(base, value=lambda t, x: -base.value(t, x))
    assert check_midpoint_convexity(bad, triples=500, seed=1) > 0.1


# ---------------------------------------------------------------------------
# constant Hessians
# ---------------------------------------------------------------------------

CUBE = TorusGrid((TWO_PI,) * 3, (32,) * 3)
_WAVE = {"terms": [{"trig": "sin", "freq": [1, 0, 2], "coeff": [0.5, -0.2]}]}
_FORM = [[2.0, 0.3], [0.3, 1.0]]
# spec and Hessian of each kind whose Hessian is one constant matrix
CONSTANT_HESSIANS = {
    "quadratic_shift": ({"shift": _WAVE}, np.eye(2)),
    "quadratic_form": ({"matrix": _FORM, "drift": _WAVE}, np.array(_FORM)),
    "manufactured": ({"target": _WAVE}, np.eye(2)),
    "linear_drift": ({"drift": _WAVE}, np.zeros((2, 2))),
}


def _constant_hessian_potential(kind):
    spec, matrix = CONSTANT_HESSIANS[kind]
    return potential_from_dict(dict(spec, kind=kind, n=2), CUBE).potential, matrix


@pytest.mark.parametrize("kind", sorted(CONSTANT_HESSIANS))
def test_constant_hessian_is_a_read_only_view_of_its_matrix(kind):
    import tracemalloc

    pot, matrix = _constant_hessian_potential(kind)
    coords = CUBE.coords()
    x = np.random.default_rng(0).normal(size=CUBE.shape + (2,))
    h = pot.hessian(coords, x)
    assert h.shape == CUBE.shape + (2, 2)
    assert not h.flags.writeable
    assert np.array_equal(h, np.broadcast_to(matrix, h.shape))
    tracemalloc.start()
    try:
        pot.hessian(coords, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CUBE.node_count * 2 * 2 * 8


@pytest.mark.parametrize("kind", sorted(CONSTANT_HESSIANS))
def test_certify_and_the_polish_take_a_constant_hessian_view(kind):
    pot, _ = _constant_hessian_potential(kind)
    op = DiffOperator(CUBE, Scheme.SPECTRAL)
    # the drift has mean zero, so every kind is solvable
    assert certify(CUBE, pot, op).verdict is Verdict.SOLVABLE
    res = solve(CUBE, pot, op)
    assert res.status is SolveStatus.CONVERGED
    # off the solution, so the polish takes Newton steps with the Hessian
    noise = np.random.default_rng(1).normal(scale=1e-3, size=CUBE.shape + (2,))
    start = replace(res, u=Field(CUBE, res.u.values + noise), residual_inf=1.0)
    refined = newton_krylov_refine(start, pot, op, tol=1e-10)
    assert refined.status is SolveStatus.CONVERGED
    assert refined.iterations > res.iterations


# ---------------------------------------------------------------------------
# dict loader
# ---------------------------------------------------------------------------

def test_potential_from_dict_dispatch():
    g = TorusGrid((TWO_PI,), (16,))
    spec = {
        "kind": "quadratic_shift",
        "n": 1,
        "shift": {"terms": [{"trig": "cos", "freq": [1], "coeff": [0.8]}]},
    }
    bundle = potential_from_dict(spec, g)
    assert bundle.potential.kind == "quadratic_shift"
    # a quadratic's A and g are the potential's own (see the test below)
    assert [f.name for f in fields(bundle)] == ["potential", "exact"]
    assert bundle.exact is None

    spec = {
        "kind": "linear_drift",
        "n": 1,
        "drift": {"terms": [{"trig": "cos", "freq": [0], "coeff": [1.0]}]},
    }
    bundle = potential_from_dict(spec, g)
    assert bundle.potential.recession == ((1.0,),)

    spec = {
        "kind": "manufactured",
        "n": 1,
        "target": {"terms": [{"trig": "sin", "freq": [1], "coeff": [1.0]}]},
    }
    bundle = potential_from_dict(spec, g)
    assert bundle.exact is not None
    assert bundle.exact.n == 1


@pytest.mark.parametrize("spec, A, drift", [
    ({"kind": "quadratic_shift", "n": 2,
      "shift": {"terms": [{"trig": "cos", "freq": [1, 2], "coeff": [0.8, -0.3]},
                          {"trig": "cos", "freq": [0, 0], "coeff": [0.1, 0.2]}]}},
     np.eye(2),
     lambda t: -np.stack([0.8 * np.cos(t[..., 0] + 2 * t[..., 1]) + 0.1,
                          -0.3 * np.cos(t[..., 0] + 2 * t[..., 1]) + 0.2], axis=-1)),
    ({"kind": "quadratic_form", "n": 2, "matrix": [[0.9, 0.2], [0.2, 0.6]],
      "drift": {"terms": [{"trig": "sin", "freq": [3, 1], "coeff": [0.06, -0.12]}]}},
     np.array([[0.9, 0.2], [0.2, 0.6]]),
     lambda t: np.sin(3 * t[..., 0] + t[..., 1])[..., None] * np.array([0.06, -0.12])),
    ({"kind": "manufactured", "n": 1,
      "target": {"terms": [{"trig": "sin", "freq": [1, 2], "coeff": [0.5]}]}},
     np.eye(1),
     # lap(target) - target, with lap = -(1 + 4) on this mode
     lambda t: (-5.0 * 0.5 - 0.5) * np.sin(t[..., 0] + 2 * t[..., 1])[..., None]),
], ids=["quadratic_shift", "quadratic_form", "manufactured"])
def test_quadratic_data_is_the_hessian_and_the_gradient_at_the_origin(spec, A, drift):
    # oracle-compare reads F = <A x, x> / 2 + <g(t), x> off the potential:
    # A is its Hessian and g its gradient at x = 0
    g = TorusGrid((TWO_PI, TWO_PI), (8, 8))
    pot = potential_from_dict(spec, g).potential
    coords = g.coords()
    origin = np.zeros(g.shape + (pot.n,))
    hessian = pot.hessian(coords, origin)
    assert hessian.shape == g.shape + A.shape
    assert np.array_equal(hessian[0, 0], A)
    assert np.array_equal(hessian, np.broadcast_to(A, hessian.shape))
    assert_allclose(pot.gradient(coords, origin), drift(coords), rtol=0, atol=1e-14)


def test_potential_from_dict_rejects_unknown_kind():
    g = TorusGrid((TWO_PI,), (16,))
    with pytest.raises(ValueError, match="kind"):
        potential_from_dict({"kind": "mystery", "n": 1}, g)
