from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    Coercivity,
    DiffOperator,
    Field,
    Scheme,
    SolveStatus,
    TorusGrid,
    TrigPath,
    TrigTerm,
    Verdict,
    assemble_quadratic_system,
    build_mean_potential,
    certify,
    coercivity_probe,
    find_stationary_mean,
    fluctuation_ratio,
    make_linear_drift,
    make_log_sum_exp,
    make_quadratic_form,
    make_quadratic_shift,
    solve,
    wirtinger_constant,
)
from conftest import with_evaluations
from torus_action.certify import MeanPotentialG, _nnls, wirtinger_audit

TWO_PI = 2.0 * np.pi


def grid_and_op(scheme=Scheme.SPECTRAL, periods=(TWO_PI,), res=(16,)):
    g = TorusGrid(periods, res)
    return g, DiffOperator(g, scheme)


# ---------------------------------------------------------------------------
# averaged potential
# ---------------------------------------------------------------------------

def test_mean_potential_of_pure_quadratic():
    # F(t,x) = |x|^2/2 gives G(x) = |x|^2/2 * box volume
    g, _ = grid_and_op()
    pot = make_quadratic_form(np.eye(1), TrigPath.zero((TWO_PI,), 1))
    G = build_mean_potential(g, pot)
    assert_allclose(G.value(np.array([2.0])), 0.5 * 4.0 * TWO_PI, rtol=1e-13)
    assert_allclose(G.gradient(np.array([2.0])), [2.0 * TWO_PI], rtol=1e-13)


def test_stationary_mean_matches_average_of_shift():
    # for F = |x - c(t)|^2/2 the averaged gradient vanishes at mean(c)
    g, _ = grid_and_op()
    shift = TrigPath(
        (TWO_PI,), 2,
        (
            TrigTerm("cos", (0,), (1.0, 2.0)),
            TrigTerm("cos", (1,), (0.7, 0.0)),
            TrigTerm("sin", (1,), (0.0, -0.4)),
        ),
    )
    pot = make_quadratic_shift(2, shift)
    G = build_mean_potential(g, pot)
    x, gnorm = find_stationary_mean(G)
    assert x is not None
    assert_allclose(x, [1.0, 2.0], atol=1e-7)
    assert gnorm <= 1e-8


def test_stationary_mean_absent_for_constant_drift():
    # grad G is identically the box integral of the drift, here 2*pi
    g, _ = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    G = build_mean_potential(g, pot)
    x, gnorm = find_stationary_mean(G)
    assert x is None
    assert_allclose(gnorm, TWO_PI, rtol=1e-12)


def drifted_unit_quadratic():
    # F = x^2 / 2 - 2x on an 8-node box, so G = 2 pi (x^2 / 2 - 2x), whose
    # minimum at x = 2 lies where grad G(0) = -4 pi points away from
    g, op = grid_and_op(res=(8,))
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (-2.0,)),))
    return g, op, make_quadratic_form([[1.0]], drift)


def test_stationary_mean_search_that_runs_out_of_halvings_misses_the_minimum():
    # G is inf everywhere off the origin, so no step length lowers it
    g, op, pot = drifted_unit_quadratic()
    value = pot.value
    pot = with_evaluations(pot, value=lambda t, x: np.where(np.all(x == 0.0, axis=-1), value(t, x), np.inf))
    x, gnorm = find_stationary_mean(build_mean_potential(g, pot))
    assert x is None
    assert_allclose(gnorm, 2.0 * TWO_PI, rtol=1e-12)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.INCONCLUSIVE and cert.coercivity is Coercivity.COERCIVE
    assert cert.stationary_mean is None and cert.grad_norm == gnorm
    assert cert.notes == (
        "the recession function says that G attains its minimum, but the "
        "Newton search stopped at |grad G| = 1.257e+01 without locating it",
    )


def test_stationary_mean_search_that_runs_out_of_steps_misses_the_minimum():
    # a Hessian 1e6 times too large makes each Newton step 1e-6 of the way
    # to x = 2, so the gradient is 4 pi (1 - 1e-6)^10000 after the budget
    g, _, pot = drifted_unit_quadratic()
    hessian = pot.hessian
    pot = with_evaluations(pot, hessian=lambda t, x: 1e6 * hessian(t, x))
    x, gnorm = find_stationary_mean(build_mean_potential(g, pot))
    assert x is None
    assert_allclose(gnorm, 2.0 * TWO_PI * (1.0 - 1e-6) ** 10000, rtol=1e-9)


# ---------------------------------------------------------------------------
# coercivity probe
# ---------------------------------------------------------------------------

def test_probe_flags_quadratic_as_coercive():
    g, _ = grid_and_op()
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    G = build_mean_potential(g, pot)
    verdict, escape_ray = coercivity_probe(G)
    assert verdict is Coercivity.COERCIVE
    assert escape_ray is None


def test_probe_flags_drift_as_not_coercive():
    g, _ = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    G = build_mean_potential(g, pot)
    verdict, escape_ray = coercivity_probe(G)
    assert verdict is Coercivity.NOT_COERCIVE
    assert_allclose(escape_ray, [-1.0], rtol=1e-15)


# ---------------------------------------------------------------------------
# fluctuation bound
# ---------------------------------------------------------------------------

def test_wirtinger_constant_values():
    # lowest nonzero eigenvalue 1 on the unit-frequency circle
    _, op = grid_and_op()
    assert_allclose(wirtinger_constant(op), 1.0, rtol=1e-14)
    # anisotropic box: the longest period wins
    _, op2 = grid_and_op(periods=(TWO_PI, 2 * TWO_PI), res=(8, 8))
    assert_allclose(wirtinger_constant(op2), 2.0, rtol=1e-13)
    # coarse second-difference symbol: 1/sqrt(8/pi^2)
    _, op3 = grid_and_op(Scheme.FD2, res=(4,))
    assert_allclose(wirtinger_constant(op3), np.pi / (2 * np.sqrt(2.0)),
                    rtol=1e-14)


def test_fluctuation_ratio_bounded_by_constant():
    g, op = grid_and_op()
    rng = np.random.default_rng(0)
    C = wirtinger_constant(op)
    for _ in range(50):
        u = Field(g, rng.standard_normal(g.shape + (1,)))
        assert fluctuation_ratio(u, op) <= C * (1 + 1e-12)


def test_fluctuation_ratio_rejects_constant_field():
    g, op = grid_and_op()
    with pytest.raises(ValueError, match="constant"):
        fluctuation_ratio(Field.constant(g, [3.0]), op)


def test_wirtinger_audit_touches_the_constant():
    # the audit includes the extremal lowest-harmonic mode, so the max
    # ratio equals the constant itself
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        _, op = grid_and_op(scheme)
        C = wirtinger_constant(op)
        ratio = wirtinger_audit(op, seed=0)
        assert ratio <= C * (1 + 1e-10)
        assert_allclose(ratio, C, rtol=1e-8)


def test_wirtinger_audit_three_axes():
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        _, op = grid_and_op(scheme, periods=(TWO_PI, 4.0, 3.0), res=(8, 6, 6))
        C = wirtinger_constant(op)
        ratio = wirtinger_audit(op, seed=1)
        assert ratio <= C * (1 + 1e-10)
        assert_allclose(ratio, C, rtol=1e-8)


@pytest.mark.parametrize("seed, message", [(-1, "seed must be non-negative"),
                                           (1.5, "seed must be an integer")])
def test_wirtinger_audit_rejects_a_bad_seed(seed, message):
    _, op = grid_and_op()
    with pytest.raises(ValueError, match=message):
        wirtinger_audit(op, seed=seed)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_solvable_quadratic():
    g, op = grid_and_op()
    shift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (0.8,)),))
    pot = make_quadratic_shift(1, shift)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.COERCIVE
    assert_allclose(cert.stationary_mean, [0.0], atol=1e-8)
    assert cert.wirtinger_constant == wirtinger_constant(op)
    assert cert.escape_ray is None


def test_certify_refuses_an_operator_built_for_another_grid():
    # the Wirtinger constant is read off the operator: one built for a 6 pi
    # box would report 3.0 for this 2 pi grid, whose constant is 1.0
    g, _ = grid_and_op(res=(8,))
    _, other = grid_and_op(periods=(3 * TWO_PI,), res=(16,))
    pot = make_quadratic_shift(1, TrigPath((TWO_PI,), 1, (TrigTerm("cos", (1,), (0.8,)),)))
    for call in (certify, solve):
        with pytest.raises(ValueError, match="^operator was built for a different grid$"):
            call(g, pot, other)
    # the dense oracle shares the rule
    with pytest.raises(ValueError, match="^operator was built for a different grid$"):
        assemble_quadratic_system(g, other, [[1.0]], Field.zeros(g, 1))


def test_certificate_not_solvable_drift():
    g, op = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.NOT_SOLVABLE
    assert cert.stationary_mean is None
    assert cert.coercivity is Coercivity.NOT_COERCIVE
    assert_allclose(cert.escape_ray, [-1.0], rtol=1e-15)
    assert_allclose(cert.grad_norm, TWO_PI, rtol=1e-12)


def test_certificate_log_sum_exp_solvable():
    g, op = grid_and_op()
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath.zero((TWO_PI,), 1)] * 3
    pot = make_log_sum_exp(S, offs)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.COERCIVE


def test_certificate_mean_zero_drift_downgrades_coercivity():
    # G vanishes: every point is a minimum, so the case is solvable, but G
    # does not grow along any ray
    g, op = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("sin", (1,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.NOT_COERCIVE
    assert_allclose(cert.stationary_mean, [0.0], atol=0.0)
    assert cert.escape_ray is None
    assert cert.notes == ()


# ---------------------------------------------------------------------------
# Newton search for the stationary mean
# ---------------------------------------------------------------------------

def _rotated_spd(theta, eigs):
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(eigs) @ R.T


def _certify_config(tmp_path, p, N, scheme, potential, periods=None, name="certify.json"):
    import json

    config = {
        "command": "certify",
        "grid": {"p": p, "periods": list(periods or [TWO_PI] * p), "resolutions": [N] * p},
        "scheme": scheme,
        "potential": potential,
        "outputs": {"directory": str(tmp_path / "out")},
        "seed": 0,
    }
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _cli_certify(path):
    import json
    from pathlib import Path

    from torus_action.cli import main

    code = main(["certify", "--config", path])
    out = Path(json.loads(Path(path).read_text())["outputs"]["directory"])
    return code, json.loads((out / "report.json").read_text())["certificate"]


def _term(trig, freq, coeff):
    return {"trig": trig, "freq": list(freq), "coeff": list(coeff)}


def test_mean_potential_hessian_is_the_box_integral():
    g, _ = grid_and_op(periods=(TWO_PI, 3.0), res=(8, 6))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath((TWO_PI, 3.0), 1, (TrigTerm("cos", (1, 1), (0.5,)),)),
            TrigPath.zero((TWO_PI, 3.0), 1), TrigPath.zero((TWO_PI, 3.0), 1)]
    G = build_mean_potential(g, make_log_sum_exp(S, offs))
    x = np.array([0.3, -0.7])
    h = 1e-6
    fd = np.column_stack([(G.gradient(x + h * e) - G.gradient(x - h * e)) / (2 * h)
                          for e in np.eye(2)])
    assert_allclose(G.hessian(x), fd, rtol=1e-7, atol=1e-9)
    assert_allclose(G.hessian(x), G.hessian(x).T, rtol=0, atol=1e-14)


def test_newton_takes_one_step_on_a_quadratic():
    g, _ = grid_and_op(periods=(TWO_PI,), res=(16,))
    A = _rotated_spd(np.pi / 6, (1.0, 0.01))
    drift = TrigPath((TWO_PI,), 2, (TrigTerm("cos", (0,), (1.0, 0.5)),))
    G = build_mean_potential(g, make_quadratic_form(A, drift))
    reads = Counter()
    G.at = _counting_points(G.at, reads)
    x, _ = find_stationary_mean(G)
    assert reads["hessian"] == 2  # the step, then the decrement that stops
    assert_allclose(x, -np.linalg.solve(A, [1.0, 0.5]), rtol=1e-12)


@pytest.mark.parametrize("N", [16, 64])
def test_rotated_quadratic_form_on_a_two_pi_box_is_solvable(tmp_path, N):
    # eigenvalues 1 and 0.01: the gradient search stalled at |grad G| ~ 2e-7
    # and certify raised ConsistencyError
    A = _rotated_spd(np.pi / 6, (1.0, 0.01))
    path = _certify_config(tmp_path, 1, N, "spectral", {
        "kind": "quadratic_form", "n": 2, "matrix": A.tolist(),
        "drift": {"terms": [_term("cos", [0], [1.0, 0.5])]}})
    code, cert = _cli_certify(path)
    assert code == 0 and cert["verdict"] == "solvable"
    assert_allclose(cert["stationary_mean"], -np.linalg.solve(A, [1.0, 0.5]), rtol=1e-10)
    assert_allclose(cert["stationary_mean"], [-4.3159, 5.2433], atol=1e-4)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("case", ["qshift", "qform"])
def test_benchmark_sweep_cases_on_two_pi_boxes_are_solvable(tmp_path, case, sign):
    if case == "qshift":
        potential = {"kind": "quadratic_shift", "n": 2, "shift": {"terms": [
            _term("cos", [0, 0], [0.7 * sign, -0.4 * sign]),
            _term("sin", [1, 2], [0.5 * sign, 0.0])]}}
        scheme, want = "spectral", [0.7 * sign, -0.4 * sign]
    else:
        A = _rotated_spd(0.7, (1.0, 0.5))
        potential = {"kind": "quadratic_form", "n": 2, "matrix": A.tolist(), "drift": {"terms": [
            _term("cos", [0, 0], [0.4 * sign, 0.3 * sign]),
            _term("cos", [1, 0], [1.0 * sign, 0.0])]}}
        scheme, want = "fd2", -np.linalg.solve(A, [0.4 * sign, 0.3 * sign])
    code, cert = _cli_certify(_certify_config(tmp_path, 2, 8, scheme, potential))
    assert code == 0 and cert["verdict"] == "solvable"
    assert_allclose(cert["stationary_mean"], want, rtol=1e-10, atol=1e-12)


def test_scalar_shift_sweep_on_two_pi_boxes_certifies_every_case():
    # 81 configs: p = 1 to 3, 8 nodes per axis, a constant in [-2, 2] plus a
    # cosine along each axis; the gradient search raised on 41 of them
    for p in (1, 2, 3):
        g = TorusGrid((TWO_PI,) * p, (8,) * p)
        op = DiffOperator(g, Scheme.SPECTRAL)
        for c0 in np.linspace(-2.0, 2.0, 9):
            for axis in range(3):
                freq = [0] * p
                freq[axis % p] = 1
                shift = TrigPath((TWO_PI,) * p, 1, (TrigTerm("cos", (0,) * p, (c0,)),
                                                    TrigTerm("cos", tuple(freq), (1.0,))))
                cert = certify(g, make_quadratic_shift(1, shift), op)
                assert cert.verdict is Verdict.SOLVABLE
                assert_allclose(cert.stationary_mean, [c0], atol=1e-12)


BENCHMARK_CERTIFY_CASES = [
    # the benchmark's certify sweep, on its unit boxes, and their verdicts
    ("qshift", 2, 8, "spectral", [1.0, 1.0], {
        "kind": "quadratic_shift", "n": 2, "shift": {"terms": [
            _term("cos", [0, 0], [0.7, -0.4]), _term("sin", [1, 2], [0.5, 0.0])]}}, "solvable"),
    ("qform", 2, 8, "fd2", [1.0, 1.0], {
        "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.7, (1.0, 0.5)).tolist(),
        "drift": {"terms": [_term("cos", [0, 0], [0.4, 0.3]),
                            _term("cos", [1, 0], [1.0, 0.0])]}}, "solvable"),
    ("drift", 1, 16, "spectral", None, {
        "kind": "linear_drift", "n": 2, "drift": {"terms": [
            _term("cos", [0], [1.0, -0.5]), _term("sin", [1], [0.3, 0.2])]}}, "not_solvable"),
    ("lse-outside", 2, 8, "spectral", None, {
        "kind": "log_sum_exp", "n": 2, "directions": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "offsets": [{"terms": [_term("cos", [1, 0], [0.5])]},
                    {"terms": [_term("sin", [0, 1], [0.3])]}, {"terms": []}]}, "not_solvable"),
    ("manufactured", 1, 16, "fd2", [1.0], {
        "kind": "manufactured", "n": 2, "target": {"terms": [
            _term("cos", [0], [0.5, -0.25]), _term("sin", [1], [1.0, 0.3])]}}, "solvable"),
]


@pytest.mark.parametrize("name, p, N, scheme, periods, potential, verdict",
                         BENCHMARK_CERTIFY_CASES, ids=[c[0] for c in BENCHMARK_CERTIFY_CASES])
def test_benchmark_certify_verdicts_are_unchanged(tmp_path, name, p, N, scheme, periods,
                                                  potential, verdict):
    code, cert = _cli_certify(_certify_config(tmp_path, p, N, scheme, potential, periods))
    assert cert["verdict"] == verdict
    assert code == (0 if verdict == "solvable" else 2)
    assert (cert["stationary_mean"] is None) == (verdict == "not_solvable")


def test_shipped_log_sum_exp_certificate_is_unchanged(tmp_path):
    import json
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "configs" / "certify_log_sum_exp.json"
    config = json.loads(shipped.read_text())
    config["outputs"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(config))
    code, cert = _cli_certify(str(path))
    assert code == 0 and cert["verdict"] == "solvable" and cert["coercivity"] == "coercive"
    # the box mean of grad F vanishes at the reported mean
    g, _ = grid_and_op()
    S = np.array(config["potential"]["directions"])
    offs = [TrigPath.from_dict(o, (TWO_PI,), 1) for o in config["potential"]["offsets"]]
    G = build_mean_potential(g, make_log_sum_exp(S, offs))
    assert np.abs(G.gradient(cert["stationary_mean"])).max() < 1e-7


def test_a_hessian_that_is_not_positive_definite_never_counts_as_converged():
    # a lying Hessian, -I, with a gradient that never vanishes: its range
    # above the floor is empty, so the whole gradient is off it and no mean
    # is found
    g, _ = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    base = make_linear_drift(1, drift)
    lying = with_evaluations(base, hessian=lambda t, x: -np.ones(np.shape(x)[:-1] + (1, 1)))
    x, gnorm = find_stationary_mean(build_mean_potential(g, lying))
    assert x is None
    assert_allclose(gnorm, TWO_PI, rtol=1e-12)


# ---------------------------------------------------------------------------
# the exact decision from the recession function
# ---------------------------------------------------------------------------

SWEEP_PERIODS = (0.3, 1.0, TWO_PI, 10.0)
SWEEP_G_CALLS = ("value", "gradient", "hessian")


def _counting_points(at, reads):
    """``at`` of a MeanPotentialG, bound or not, whose points count their
    value, gradient and Hessian reads into ``reads`` by name."""

    def counted(*args):
        point = at(*args)

        def read(name):
            def method():
                reads[name] += 1
                return getattr(point, name)()
            return method

        return SimpleNamespace(**{name: read(name) for name in SWEEP_G_CALLS})

    return counted


# (seed, cases, offset scale): the first sweep has unit offsets; in the
# second, offsets up to 10 across the box made the search stall at G's
# rounding until its budget ran out, or step past a ridge of the log-sum-exp
# into a region where the Hessian is singular to rounding
SWEEPS = {"unit-offsets": (20, 120, 1.0), "large-offsets": (237, 40, 5.0)}


@lru_cache(maxsize=None)
def _recession_sweep(sweep):
    """Seeded log_sum_exp cases, certified with a count of G's reads.

    p = 1-2, n = 1-3, J = n+1 to n+3 Gaussian directions, periods drawn
    from SWEEP_PERIODS, 8 nodes per axis, and each offset a constant plus a
    sine wave, both with coefficients in [-scale, scale].
    """
    seed, count, scale = SWEEPS[sweep]
    rng = np.random.default_rng(seed)
    calls = Counter()
    plain = MeanPotentialG.at
    cases = []
    try:
        MeanPotentialG.at = _counting_points(plain, calls)
        for _ in range(count):
            p, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            J = int(rng.integers(n + 1, n + 4))
            periods = tuple(float(rng.choice(SWEEP_PERIODS)) for _ in range(p))
            S = rng.normal(size=(J, n))
            offsets = [TrigPath(periods, 1, (
                TrigTerm("cos", (0,) * p, (scale * rng.uniform(-1, 1),)),
                TrigTerm("sin", tuple(int(k) for k in rng.integers(0, 3, size=p)),
                         (scale * rng.uniform(-1, 1),)))) for _ in range(J)]
            g = TorusGrid(periods, (8,) * p)
            pot = make_log_sum_exp(S, offsets)
            before = sum(calls.values())
            cert = certify(g, pot, DiffOperator(g, Scheme.SPECTRAL))
            cases.append((g, S, pot, cert, sum(calls.values()) - before))
    finally:
        MeanPotentialG.at = plain
    return cases


@pytest.mark.parametrize("sweep", SWEEPS)
def test_recession_sweep_certificates_check_themselves(sweep):
    # ray probes missed narrow escape cones here and raised
    verdicts = []
    for g, S, pot, cert, _ in _recession_sweep(sweep):
        G = build_mean_potential(g, pot)
        verdicts.append(cert.verdict)
        if cert.verdict is Verdict.SOLVABLE:
            assert cert.escape_ray is None
            assert np.abs(G.gradient(cert.stationary_mean)).max() <= 1e-7
        else:
            assert cert.verdict is Verdict.NOT_SOLVABLE
            assert cert.stationary_mean is None
            d = cert.escape_ray
            assert_allclose(np.linalg.norm(d), 1.0, rtol=1e-14)
            assert (S @ d).max() <= 1e-12 and (S @ d).min() < 0.0
            assert G.value(10.0 * d) < G.value(np.zeros(G.n))
    assert verdicts.count(Verdict.SOLVABLE) >= len(verdicts) // 3
    assert verdicts.count(Verdict.NOT_SOLVABLE) >= len(verdicts) // 3


@pytest.mark.parametrize("sweep", SWEEPS)
def test_recession_sweep_costs_few_G_calls(sweep):
    # reads of G's value, gradient and Hessian per certify: a steepest-descent
    # fallback, or a Newton search stalled at G's rounding, spent tens of
    # thousands on some of these cases
    counts = [calls for *_, calls in _recession_sweep(sweep)]
    assert max(counts) <= 40
    assert sum(counts) <= 10 * len(counts)
    skipped = [calls for *_, cert, calls in _recession_sweep(sweep) if cert.escape_ray is not None]
    assert skipped and max(skipped) == 1  # the gradient at the origin


def _lse(S, periods=(TWO_PI,)):
    offs = [TrigPath(periods, 1, (TrigTerm("cos", (1,) * len(periods), (0.1 * (j + 1),)),))
            for j in range(len(S))]
    return make_log_sum_exp(np.asarray(S, dtype=float), offs)


def test_nnls_matches_scipy_on_random_systems():
    # the projection behind every not_solvable verdict; 22 of these 200 draws
    # take the pull-back onto the feasible segment, which no certificate in
    # this file reaches
    from scipy.optimize import nnls

    for seed in range(200):
        rng = np.random.default_rng(seed)
        m, k = rng.integers(2, 6), rng.integers(2, 8)
        A = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        mu = _nnls(A, b)
        assert (mu >= 0.0).all(), seed
        _, reference = nnls(A, b)
        assert abs(np.linalg.norm(A @ mu - b) - reference) <= 1e-12, seed


def test_origin_on_the_hull_boundary_is_not_solvable():
    # G = log(e^x1 + e^x2 + e^-x1) falls to its infimum as x2 -> -inf and
    # never attains it, although the origin lies on the hull of the directions
    g, op = grid_and_op()
    cert = certify(g, _lse([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), op)
    assert cert.verdict is Verdict.NOT_SOLVABLE
    assert cert.coercivity is Coercivity.NOT_COERCIVE
    assert_allclose(cert.escape_ray, [0.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_balanced_directions_that_miss_an_axis_are_solvable_but_not_coercive(theta):
    # S = {e1, -e1} in R^2, turned by theta: G is flat across the directions
    # and has a line of minima
    g, op = grid_and_op()
    e = np.array([np.cos(theta), np.sin(theta)])
    S = np.array([e, -e])
    pot = _lse(S)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.NOT_COERCIVE
    assert cert.escape_ray is None and cert.notes == ()
    G = build_mean_potential(g, pot)
    assert np.abs(G.gradient(cert.stationary_mean)).max() <= 1e-10


def test_a_declared_minimum_that_the_search_misses_is_inconclusive():
    # case 211 of the sweep at seed 11, 300 cases and offset scale 20: the
    # directions have opposite signs, so a minimum exists, but the offsets
    # of about +-20 saturate the softmax on the first direction, where the
    # search stops with |grad G| = volume * |s_0|.  ROADMAP item 2 is to
    # find this minimum, and will turn this case into a solvable pin.
    g, op = grid_and_op(periods=(0.3, 1.0), res=(8, 8))

    def offset(constant, freq, amplitude):
        return TrigPath(g.periods, 1, (TrigTerm("cos", (0, 0), (constant,)),
                                       TrigTerm("sin", freq, (amplitude,))))

    pot = make_log_sum_exp([[-0.10525], [0.01984]],
                           [offset(19.34, (1, 2), 1.115), offset(-19.63, (1, 0), 10.97)])
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.INCONCLUSIVE and cert.coercivity is Coercivity.COERCIVE
    assert cert.stationary_mean is None and cert.escape_ray is None
    assert_allclose(cert.grad_norm, 0.3 * 0.10525, rtol=1e-6)
    assert len(cert.notes) == 1 and "recession function" in cert.notes[0]


def test_shipped_not_solvable_certificate_carries_its_escape_ray(tmp_path):
    import json
    from pathlib import Path

    shipped = Path(__file__).resolve().parent.parent / "configs" / "certify_lse_not_solvable.json"
    config = json.loads(shipped.read_text())
    config["outputs"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(config))
    code, cert = _cli_certify(str(path))
    assert code == 2 and cert["verdict"] == "not_solvable"
    assert cert["coercivity"] == "not_coercive" and cert["stationary_mean"] is None
    S = np.array(config["potential"]["directions"])
    d = np.array(cert["escape_ray"])
    assert (S @ d).max() <= 1e-12 and (S @ d).min() < 0.0


# ---------------------------------------------------------------------------
# solve and certify agree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
@pytest.mark.parametrize("a", [1e-6, 1e-7])
def test_a_far_minimum_is_found_by_solve_and_by_certify(a, scheme):
    # F = a x^2 / 2 + x is strictly convex, with its minimizer at the mean
    # -1 / a, at or past the solver's divergence threshold of 1e6
    g, op = grid_and_op(scheme=scheme)
    pot = make_quadratic_form([[a]], TrigPath.constant((TWO_PI,), [1.0]))
    res = solve(g, pot, op)
    assert (res.status, res.iterations, res.message) == (SolveStatus.CONVERGED, 1, "")
    assert_allclose(res.mean, [-1.0 / a], rtol=1e-12)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE and cert.notes == ()
    assert_allclose(cert.stationary_mean, [-1.0 / a], rtol=1e-12)


def _agreement_cases():
    """Seeded quadratic forms with far minima, and drifts with a nonzero mean.

    p = 1-2 and n = 1-2, with 8 nodes per axis on 2 pi boxes.  Each drift is
    a standard-normal constant plus a standard-normal sine wave.  The form's
    A is turned by a random orthogonal matrix; its smallest eigenvalue is
    10^U(-9, 0), and any other lies between that and 1, so minimizers lie
    up to about 1e9 away.  The drift alone is the second potential.
    """
    rng = np.random.default_rng(0)
    for _ in range(40):
        p, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        periods = (TWO_PI,) * p
        g = TorusGrid(periods, (8,) * p)
        drift = TrigPath(periods, n, (
            TrigTerm("cos", (0,) * p, tuple(rng.normal(size=n))),
            TrigTerm("sin", (1,) * p, tuple(rng.normal(size=n)))))
        smallest = 10.0 ** rng.uniform(-9.0, 0.0)
        eigs = np.concatenate([[smallest], 10.0 ** rng.uniform(np.log10(smallest), 0.0, size=n - 1)])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = q @ np.diag(eigs) @ q.T
        yield g, make_quadratic_form(0.5 * (A + A.T), drift)
        yield g, make_linear_drift(n, drift)


@pytest.mark.parametrize("scheme", [Scheme.SPECTRAL, Scheme.FD2])
def test_solve_and_certify_agree_on_far_minima_and_drifts(scheme):
    outcomes = []
    for case, (g, pot) in enumerate(_agreement_cases()):
        op = DiffOperator(g, scheme)
        res, cert = solve(g, pot, op), certify(g, pot, op)
        outcome = (case, pot.kind, res.status, cert.verdict)
        assert (res.status is SolveStatus.CONVERGED) == (cert.verdict is Verdict.SOLVABLE), outcome
        assert (res.status is SolveStatus.DIVERGED_NON_COERCIVE) == (
            cert.verdict is Verdict.NOT_SOLVABLE), outcome
        outcomes.append((res.status, np.linalg.norm(res.mean)))
    far = [norm for status, norm in outcomes if status is SolveStatus.CONVERGED and norm >= 1e6]
    diverged = [status for status, _ in outcomes if status is SolveStatus.DIVERGED_NON_COERCIVE]
    assert len(far) >= 5 and len(diverged) >= 20
