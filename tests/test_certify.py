import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import (
    Coercivity,
    ConsistencyError,
    CertifyOptions,
    DiffOperator,
    Field,
    Scheme,
    TorusGrid,
    TrigPath,
    TrigTerm,
    Verdict,
    build_mean_potential,
    certify,
    coercivity_probe,
    find_stationary_mean,
    fluctuation_ratio,
    make_linear_drift,
    make_log_sum_exp,
    make_quadratic_form,
    make_quadratic_shift,
    wirtinger_audit,
    wirtinger_constant,
)

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
    x, gnorm = find_stationary_mean(G, tol=1e-8)
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


# ---------------------------------------------------------------------------
# coercivity probe
# ---------------------------------------------------------------------------

def test_probe_flags_quadratic_as_coercive():
    g, _ = grid_and_op()
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    G = build_mean_potential(g, pot)
    verdict, probes = coercivity_probe(G)
    assert verdict is Coercivity.COERCIVE
    assert len(probes) >= 2
    for probe in probes:
        assert probe.values.shape == (4,)
        assert probe.values[-1] > probe.values[0]


def test_probe_flags_drift_as_not_coercive():
    g, _ = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    G = build_mean_potential(g, pot)
    verdict, _ = coercivity_probe(G)
    assert verdict is Coercivity.NOT_COERCIVE


def test_probe_radii_must_increase():
    g, _ = grid_and_op()
    pot = make_quadratic_shift(1, TrigPath.zero((TWO_PI,), 1))
    G = build_mean_potential(g, pot)
    with pytest.raises(ValueError, match="radii"):
        coercivity_probe(G, radii=(10.0, 1.0))


def test_probe_direction_count():
    g, _ = grid_and_op()
    pot = make_quadratic_shift(3, TrigPath.zero((TWO_PI,), 3))
    G = build_mean_potential(g, pot)
    # the count is the total ray budget; the 2n signed axes come first
    _, probes = coercivity_probe(G, directions=12, seed=4)
    assert len(probes) == 12
    with pytest.raises(ValueError, match="directions"):
        coercivity_probe(G, directions=5)


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
        ratio = wirtinger_audit(op, trials=100, seed=0)
        assert ratio <= C * (1 + 1e-10)
        assert_allclose(ratio, C, rtol=1e-8)


def test_wirtinger_audit_three_axes():
    for scheme in (Scheme.SPECTRAL, Scheme.FD2):
        _, op = grid_and_op(scheme, periods=(TWO_PI, 4.0, 3.0), res=(8, 6, 6))
        C = wirtinger_constant(op)
        ratio = wirtinger_audit(op, trials=50, seed=1)
        assert ratio <= C * (1 + 1e-10)
        assert_allclose(ratio, C, rtol=1e-8)


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
    assert len(cert.ray_probes) >= 2


def test_certificate_not_solvable_drift():
    g, op = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.NOT_SOLVABLE
    assert cert.stationary_mean is None
    assert cert.coercivity is Coercivity.NOT_COERCIVE


def test_certificate_log_sum_exp_solvable():
    g, op = grid_and_op()
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath.zero((TWO_PI,), 1)] * 3
    pot = make_log_sum_exp(S, offs)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.COERCIVE


def test_certificate_mean_zero_drift_downgrades_coercivity():
    # solvable but nowhere strictly convex: the two indicators disagree,
    # which for a merely convex potential is reported, not raised
    g, op = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("sin", (1,), (1.0,)),))
    pot = make_linear_drift(1, drift)
    cert = certify(g, pot, op)
    assert cert.verdict is Verdict.SOLVABLE
    assert cert.coercivity is Coercivity.INCONCLUSIVE
    assert len(cert.notes) >= 1


def test_certificate_consistency_error_for_lying_convexity():
    # a potential labeled strictly convex whose averaged gradient has a
    # zero but whose growth is sublinear along an axis must trip the
    # cross check
    g, op = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("sin", (1,), (1.0,)),))
    base = make_linear_drift(1, drift)
    from dataclasses import replace
    from torus_action import Convexity
    lying = replace(base, convexity=Convexity.STRICTLY_CONVEX)
    with pytest.raises(ConsistencyError):
        certify(g, lying, op)


def test_certify_options_are_respected():
    g, op = grid_and_op()
    pot = make_quadratic_shift(2, TrigPath.zero((TWO_PI,), 2))
    opts = CertifyOptions(radii=(1.0, 5.0, 25.0), directions=6, seed=11)
    cert = certify(g, pot, op, opts)
    assert cert.verdict is Verdict.SOLVABLE
    for probe in cert.ray_probes:
        assert probe.radii == (1.0, 5.0, 25.0)
    assert len(cert.ray_probes) == 6


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
    hessians = []
    hessian = G.hessian
    G.hessian = lambda x: hessians.append(x) or hessian(x)
    x, _ = find_stationary_mean(G)
    assert len(hessians) == 2  # the step, then the decrement that stops
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
    # a lying Hessian, -I, with a gradient that never vanishes: no decrement
    # may be taken from it, and the descent fallback finds no mean
    g, _ = grid_and_op()
    drift = TrigPath((TWO_PI,), 1, (TrigTerm("cos", (0,), (1.0,)),))
    from dataclasses import replace
    base = make_linear_drift(1, drift)
    lying = replace(base, hessian=lambda t, x: -np.ones(np.shape(x)[:-1] + (1, 1)))
    x, gnorm = find_stationary_mean(build_mean_potential(g, lying))
    assert x is None
    assert_allclose(gnorm, TWO_PI, rtol=1e-12)
