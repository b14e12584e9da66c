"""Each benchmark check accepts a right answer and rejects a perturbed one.

Run with ``python3 -m pytest perfbench``.  The answers here come from the
checks' own formulas, never from the package.
"""

import copy
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_cases  # noqa: E402
import bench_checks as bc  # noqa: E402
import bench_trace  # noqa: E402

TWO_PI = 2 * math.pi


def config(kind, p=2, N=8, scheme="spectral", **potential):
    return {
        "command": "solve",
        "grid": {"p": p, "periods": [TWO_PI] * p, "resolutions": [N] * p},
        "scheme": scheme,
        "potential": dict(kind=kind, **potential),
    }


QFORM = config("quadratic_form", n=2, scheme="fd2",
               matrix=[[1.0, 0.2], [0.2, 0.5]],
               drift={"terms": [{"trig": "cos", "freq": [0, 0], "coeff": [0.3, -0.1]},
                                {"trig": "sin", "freq": [1, 2], "coeff": [1.0, 0.4]}]})
MANUFACTURED = config("manufactured", n=1,
                      target={"terms": [{"trig": "cos", "freq": [1, 1], "coeff": [0.7]}]})
LSE = config("log_sum_exp", n=2)  # default directions +-e_i, zero offsets: u = 0 solves it
DRIFT = config("linear_drift", n=2,
               drift={"terms": [{"trig": "cos", "freq": [0, 0], "coeff": [1.0, -0.5]}]})


def bump(u, size=1e-4):
    v = np.array(u, dtype=float)
    v.reshape(-1)[3] += size
    return v


def test_eigenvalue_tables_match_the_stencils():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(8, 6, 1))
    periods, res = (TWO_PI, 3.0), (8, 6)
    lam = bc.eigenvalues(periods, res, "fd2")
    stencil = sum((np.roll(u, 1, a) - 2 * u + np.roll(u, -1, a)) / (T / N) ** 2
                  for a, (T, N) in enumerate(zip(periods, res)))
    assert np.allclose(bc.apply_laplacian(u, lam), stencil, atol=1e-10)
    t = bc.node_coords(periods, res)
    wave = np.cos(t @ np.array([2 * math.pi * 2 / periods[0], 2 * math.pi / periods[1]]))[..., None]
    spectral = bc.apply_laplacian(wave, bc.eigenvalues(periods, res, "spectral"))
    w2 = (2 * math.pi * 2 / periods[0]) ** 2 + (2 * math.pi / periods[1]) ** 2
    assert np.allclose(spectral, -w2 * wave, atol=1e-10)


def test_quadratic_solution_check():
    exact = bc.modewise_solution(QFORM)
    assert bc.check_solution(QFORM, "converged", exact) == []
    assert bc.check_solution(QFORM, "converged", bump(exact))
    assert bc.check_solution(QFORM, "max_iters", exact)


def test_manufactured_spectral_matches_target():
    periods, res = bc.grid_of(MANUFACTURED)
    target = bc.eval_path(MANUFACTURED["potential"]["target"], periods,
                          bc.node_coords(periods, res), 1)
    assert np.allclose(bc.modewise_solution(MANUFACTURED), target, atol=1e-12)
    assert bc.check_solution(MANUFACTURED, "converged", target) == []
    assert bc.check_solution(MANUFACTURED, "converged", bump(target))


def test_lse_residual_and_mean_checks():
    zero = np.zeros((8, 8, 2))
    assert bc.check_solution(LSE, "converged", zero) == []
    assert any("residual" in e for e in bc.check_solution(LSE, "converged", bump(zero, 1e-6)))
    shifted = zero + np.array([1e-6, 0.0])  # constant: no Laplacian, but grad F has a mean
    assert any("box mean" in e for e in bc.check_solution(LSE, "converged", shifted))


def test_drift_must_diverge_against_its_mean():
    away = np.broadcast_to(np.array([-2e6, 1e6]), (8, 8, 2))
    assert bc.check_solution(DRIFT, "diverged_non_coercive", away) == []
    assert bc.check_solution(DRIFT, "diverged_non_coercive", -away)
    assert bc.check_solution(DRIFT, "converged", away)


def test_certificate_checks():
    A = np.array(QFORM["potential"]["matrix"])
    x_star = -np.linalg.solve(A, [0.3, -0.1])
    good = {"certificate": {"verdict": "solvable", "stationary_mean": list(x_star)}}
    assert bc.check_certificate(QFORM, 0, good) == []
    assert bc.check_certificate(QFORM, 2, good)
    moved = copy.deepcopy(good)
    moved["certificate"]["stationary_mean"][0] += 1e-3
    assert bc.check_certificate(QFORM, 0, moved)
    wrong = {"certificate": {"verdict": "not_solvable", "stationary_mean": None}}
    assert bc.check_certificate(QFORM, 2, wrong)
    assert bc.check_certificate(DRIFT, 2, wrong) == []
    assert bc.check_certificate(DRIFT, 0, good)
    assert bc.check_certificate(LSE, 0, {"certificate": {"verdict": "solvable",
                                                          "stationary_mean": [0.0, 0.0]}}) == []
    assert bc.check_certificate(LSE, 0, {"certificate": {"verdict": "solvable",
                                                          "stationary_mean": [0.5, 0.0]}})


def test_hull_test():
    assert bc.origin_inside_hull([[1, 0], [0, 1], [-1, -1]])
    assert not bc.origin_inside_hull([[1, 0], [0, 1], [1, 1]])
    assert not bc.origin_inside_hull([[1, 0], [-1, 0]])  # origin on the boundary
    assert bc.origin_inside_hull([[2.0], [-1.0]])


def test_wirtinger_check():
    cfg = config("quadratic_shift", p=2, n=1)
    cfg["grid"]["periods"] = [TWO_PI, 3 * math.pi]
    c = 1.5
    assert bc.check_wirtinger(cfg, 0, {"constant": c, "audit_max_ratio": c, "passed": True}) == []
    assert bc.check_wirtinger(cfg, 0, {"constant": 1.0, "audit_max_ratio": 1.0, "passed": True})
    assert bc.check_wirtinger(cfg, 0, {"constant": c, "audit_max_ratio": 0.9 * c, "passed": True})


def test_field_file_check():
    u = np.arange(8 * 8 * 2, dtype=float).reshape(8, 8, 2)
    raw = (b"TORUSFIELD v1 p=2 n=2 N=8,8 T=6.283185307179586,6.283185307179586 layout=node-major\n"
           + u.astype("<f8").tobytes())
    assert bc.check_field_file(QFORM, raw) == []
    assert np.array_equal(bc.field_values(QFORM, raw), u)
    assert bc.check_field_file(QFORM, raw[:-8])
    assert bc.check_field_file(QFORM, raw.replace(b"n=2", b"n=3"))


def test_trace_gradient_and_oracle_checks():
    text = "iter,action,grad_inf,mean_norm\n0,1,1,0\n1,0.5,0.1,0\n"
    assert bc.check_trace(text, 1) == []
    assert bc.check_trace(text, 2)
    report = {"max_relative_error": 1e-9, "threshold": 1e-5, "passed": True}
    assert bc.check_gradient_audit(0, report) == []
    assert bc.check_gradient_audit(0, dict(report, max_relative_error=1e-3, passed=False))
    oracle = {"max_abs_gap": 1e-12, "passed": True, "dense_unknowns": 128,
              "solver_status": "converged"}
    assert bc.check_oracle(QFORM, 0, oracle) == []
    assert bc.check_oracle(QFORM, 0, dict(oracle, max_abs_gap=1e-6))
    assert bc.check_oracle(QFORM, 0, dict(oracle, dense_unknowns=64))


def test_seeds_reflect_the_state():
    moved, sign = bench_cases._seeded(QFORM, random.Random(0))
    periods, res = bc.grid_of(QFORM)
    t = bc.node_coords(periods, res)
    drift = bc.eval_path(QFORM["potential"]["drift"], periods, t, 2)
    assert np.array_equal(bc.eval_path(moved["potential"]["drift"], periods, t, 2), sign * drift)
    u = bc.modewise_solution(QFORM)
    assert np.allclose(bc.modewise_solution(moved), sign * u, atol=1e-14)


@pytest.mark.parametrize("workload", ["ladder", "large-grid"])
def test_cases_follow_the_seed(workload):
    a = bench_cases.make_cases(workload, 7)
    assert a == bench_cases.make_cases(workload, 7)
    assert sum(case["fault"] for case in a) == (workload == "ladder")
    signs = {tuple(c["init_sign"] for c in bench_cases.make_cases(workload, s)) for s in range(8)}
    assert len(signs) > 1


def test_cli_cases_read_shipped_configs():
    root = Path(__file__).resolve().parent.parent
    cases = bench_cases.make_cases("cli", 3, root)
    assert {c["command"] for c in cases} == {"solve", "certify", "check-grad", "wirtinger",
                                             "oracle-compare"}
    assert [c["name"] for c in cases if c["fault"]] == ["certify-rotated-qform"]


def test_layer_totals_self_time():
    spans = [
        ["minimize.solve", 0.0, 10.0, -1],
        ["operators.action_value", 1.0, 3.0, 0],
        ["potentials.value", 1.5, 2.5, 1],
        ["potentials.TrigPath.__call__", 2.0, 2.25, 2],
        ["fft.numpy.fft.fftn", 1.0, 1.25, 1],
        ["operators.action_value", 4.0, 5.0, 0],
        ["minimize.divergence_monitor", 6.0, 7.0, 0],
    ]
    totals = bench_trace.layer_totals(spans, {"minimize.iterations": 1})
    assert totals["pot_self_s"] == pytest.approx(0.75)
    assert totals["trigpath_s"] == pytest.approx(0.25)
    assert totals["solve_outside_s"] == pytest.approx(7.0)
    assert totals["trials"] == 1
    assert totals["transforms"] == 1 and totals["solve_transforms"] == 1
    metrics = bench_trace.layer_metrics(totals)
    assert metrics["minimize.transforms_per_iter"][0] == 1.0
