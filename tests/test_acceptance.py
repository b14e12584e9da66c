"""Acceptance checks for the whole package.

Each test is one externally stated criterion with its tolerance pinned in
code.  They intentionally re-derive everything from public entry points
rather than reusing unit-test helpers, and each one prints a single
PASS line with the measured number so a log scan shows the margins.
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from torus_action import (
    Coercivity,
    DiffOperator,
    Field,
    Scheme,
    SolveStatus,
    SolverOptions,
    TorusGrid,
    TrigPath,
    TrigTerm,
    Verdict,
    action_gradient,
    action_value,
    assemble_quadratic_system,
    build_mean_potential,
    certify,
    coercivity_probe,
    dense_solve,
    find_stationary_mean,
    fluctuation_ratio,
    integrate,
    l2_inner,
    make_linear_drift,
    make_log_sum_exp,
    make_manufactured,
    make_quadratic_form,
    make_quadratic_shift,
    newton_krylov_refine,
    solve,
    wirtinger_constant,
)
from torus_action.cli import main as cli_main

TWO_PI = 2.0 * np.pi
SCHEMES = (Scheme.SPECTRAL, Scheme.FD2)


def _solve_deep(grid, pot, op):
    """Line-searched descent to its floor, then Newton polish."""
    res = solve(grid, pot, op, SolverOptions(tol_grad_inf=1e-6, max_iters=5000))
    if res.status is SolveStatus.CONVERGED:
        res = newton_krylov_refine(res, pot, op, tol=1e-10)
    return res


# ---------------------------------------------------------------------------
# 1. manufactured solution is recovered on the reference grid
# ---------------------------------------------------------------------------

def test_acceptance_1_manufactured_accuracy():
    grid = TorusGrid((TWO_PI, TWO_PI), (32, 32))
    target = TrigPath(
        (TWO_PI, TWO_PI), 2,
        (
            TrigTerm("sin", (1, 0), (1.0, 0.0)),
            TrigTerm("cos", (1, 2), (0.0, 0.5)),
        ),
    )
    pot, exact = make_manufactured(grid, 2, target)
    op = DiffOperator(grid, Scheme.SPECTRAL)
    start = time.perf_counter()
    res = solve(grid, pot, op)
    elapsed = time.perf_counter() - start
    assert res.status is SolveStatus.CONVERGED
    err = float(np.max(np.abs(res.u.values - exact.values)))
    assert err <= 1e-8
    assert elapsed <= 10.0
    print(f"ACCEPTANCE 1: PASS  max_err={err:.3e}  time={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. analytic action gradient agrees with finite differences
# ---------------------------------------------------------------------------

def test_acceptance_2_gradient_consistency():
    grid = TorusGrid((TWO_PI, 4.0), (8, 6))
    shift = TrigPath((TWO_PI, 4.0), 2, (TrigTerm("cos", (1, 0), (0.5, -0.2)),))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    qdrift = TrigPath((TWO_PI, 4.0), 2, (TrigTerm("sin", (1, 1), (0.4, 0.1)),))
    S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offs = [TrigPath.zero((TWO_PI, 4.0), 1)] * 3
    pots = [
        make_quadratic_shift(2, shift),
        make_quadratic_form(A, qdrift),
        make_log_sum_exp(S, offs),
    ]
    eps = 1e-6
    worst = 0.0
    rng = np.random.default_rng(0)
    for pot in pots:
        for scheme in SCHEMES:
            op = DiffOperator(grid, scheme)
            u = Field(grid, rng.standard_normal(grid.shape + (2,)))
            g = action_gradient(u, pot, op)
            for _ in range(20):
                v = Field(grid, rng.standard_normal(grid.shape + (2,)))
                fd = (action_value(u + eps * v, pot, op)
                      - action_value(u + (-eps) * v, pot, op)) / (2 * eps)
                an = l2_inner(g, v)
                worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst <= 1e-5
    print(f"ACCEPTANCE 2: PASS  worst_rel_gap={worst:.3e}  "
          f"(3 potentials x 2 schemes x 20 directions)")


# ---------------------------------------------------------------------------
# 3. dense linear-algebra oracle agrees with the minimizer
# ---------------------------------------------------------------------------

def test_acceptance_3_dense_cross_validation():
    grid = TorusGrid((TWO_PI, TWO_PI), (16, 16))   # 512 unknowns at n=2
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    path = TrigPath(
        (TWO_PI, TWO_PI), 2,
        (
            TrigTerm("sin", (1, 0), (1.0, 0.0)),
            TrigTerm("cos", (0, 2), (0.0, 0.4)),
        ),
    )
    pot = make_quadratic_form(A, path)
    g_field = Field.from_function(grid, 2, lambda t: path(t))
    assert grid.node_count * 2 <= 2000
    worst = 0.0
    for scheme in SCHEMES:
        op = DiffOperator(grid, scheme)
        dense = dense_solve(assemble_quadratic_system(grid, op, A, g_field))
        res = _solve_deep(grid, pot, op)
        assert res.status is SolveStatus.CONVERGED
        gap = float(np.max(np.abs(dense.values - res.u.values)))
        worst = max(worst, gap)
    assert worst <= 1e-8
    print(f"ACCEPTANCE 3: PASS  worst_gap={worst:.3e}  unknowns=512")


# ---------------------------------------------------------------------------
# 4. fluctuation bound holds with the advertised constant
# ---------------------------------------------------------------------------

def test_acceptance_4_fluctuation_bound():
    cases = [
        ((TWO_PI,), (16,)),
        ((TWO_PI, 2 * TWO_PI), (8, 8)),
        ((TWO_PI, 4.0, 3.0), (8, 6, 6)),
    ]
    report = []
    for periods, res in cases:
        grid = TorusGrid(periods, res)
        for scheme in SCHEMES:
            op = DiffOperator(grid, scheme)
            C = wirtinger_constant(op)
            rng = np.random.default_rng(42)
            worst = 0.0
            for _ in range(100):
                u = Field(grid, rng.standard_normal(grid.shape + (1,)))
                worst = max(worst, fluctuation_ratio(u, op))
            assert worst <= C * (1 + 1e-10)
            # the lowest-harmonic mode must saturate the bound
            k_min = np.argmin(np.where(op.eigenvalues.ravel() > 0,
                                       op.eigenvalues.ravel(), np.inf))
            idx = np.unravel_index(k_min, grid.shape)
            phase = sum(
                2 * np.pi * np.fft.fftfreq(grid.shape[a], 1.0)[idx[a]]
                * grid.coords()[..., a] / grid.spacings[a] / grid.shape[a]
                * grid.shape[a]
                for a in range(grid.p)
            )
            mode = Field(grid, np.cos(phase)[..., None])
            ratio = fluctuation_ratio(mode, op)
            assert abs(ratio - C) <= 1e-8 * C
            report.append(f"p={grid.p}/{scheme.value}: C={C:.6f}")
    assert len(report) == 6
    print("ACCEPTANCE 4: PASS  " + "; ".join(report))


# ---------------------------------------------------------------------------
# 5. solvability matrix: certificate, solver, and mean route agree
# ---------------------------------------------------------------------------

def test_acceptance_5_solvability_matrix():
    grid = TorusGrid((TWO_PI,), (16,))
    P1 = (TWO_PI,)

    def lse_pair():
        S = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        offs = [
            TrigPath(P1, 1, (TrigTerm("cos", (1,), (c,)),))
            for c in (0.5, -0.3, 0.2)
        ]
        return make_log_sum_exp(S, offs)

    def cosh_like():
        S = np.array([[1.0], [-1.0]])
        offs = [
            TrigPath(P1, 1, (TrigTerm("cos", (1,), (0.4,)),)),
            TrigPath(P1, 1, (TrigTerm("sin", (1,), (-0.4,)),)),
        ]
        return make_log_sum_exp(S, offs)

    solvable_cells = [
        ("shift-1d", Scheme.SPECTRAL, make_quadratic_shift(
            1, TrigPath(P1, 1, (TrigTerm("cos", (1,), (0.8,)),)))),
        ("shift-2d", Scheme.FD2, make_quadratic_shift(
            2, TrigPath(P1, 2, (TrigTerm("cos", (0,), (1.0, 2.0)),
                                TrigTerm("sin", (1,), (0.0, -0.4)))))),
        ("form-2d", Scheme.SPECTRAL, make_quadratic_form(
            np.array([[2.0, 0.3], [0.3, 1.0]]),
            TrigPath(P1, 2, (TrigTerm("sin", (1,), (1.0, 0.0)),
                             TrigTerm("cos", (2,), (0.0, 0.4)))))),
        ("form-1d", Scheme.FD2, make_quadratic_form(
            np.array([[4.0]]),
            TrigPath(P1, 1, (TrigTerm("cos", (2,), (1.0,)),)))),
        ("lse-2d", Scheme.SPECTRAL, lse_pair()),
        ("lse-1d", Scheme.SPECTRAL, cosh_like()),
    ]
    drift_cells = [
        ("drift-const", Scheme.SPECTRAL, make_linear_drift(
            1, TrigPath(P1, 1, (TrigTerm("cos", (0,), (1.0,)),)))),
        ("drift-offset", Scheme.FD2, make_linear_drift(
            2, TrigPath(P1, 2, (TrigTerm("cos", (1,), (1.0, 0.0)),
                                TrigTerm("cos", (0,), (0.5, 0.0)),
                                TrigTerm("sin", (1,), (0.0, 1.0)))))),
    ]
    lines = []
    for name, scheme, pot in solvable_cells:
        op = DiffOperator(grid, scheme)
        cert = certify(grid, pot, op)
        res = _solve_deep(grid, pot, op)
        G = build_mean_potential(grid, pot)
        x_bar, _ = find_stationary_mean(G)
        probe, _ = coercivity_probe(G)
        assert cert.verdict is Verdict.SOLVABLE, name
        assert res.status is SolveStatus.CONVERGED, name
        assert x_bar is not None, name
        assert probe is Coercivity.COERCIVE, name
        lines.append(f"{name}:solvable")
    for name, scheme, pot in drift_cells:
        op = DiffOperator(grid, scheme)
        cert = certify(grid, pot, op)
        res = solve(grid, pot, op)
        G = build_mean_potential(grid, pot)
        x_bar, _ = find_stationary_mean(G)
        assert cert.verdict is Verdict.NOT_SOLVABLE, name
        assert res.status is SolveStatus.DIVERGED_NON_COERCIVE, name
        assert x_bar is None, name
        lines.append(f"{name}:not-solvable")
    assert len(lines) == 8
    print("ACCEPTANCE 5: PASS  " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 6. the averaged gradient vanishes along every computed solution
# ---------------------------------------------------------------------------

def test_acceptance_6_mean_equation_echo():
    grid = TorusGrid((TWO_PI,), (16,))
    P1 = (TWO_PI,)
    pots = [
        make_quadratic_shift(1, TrigPath(P1, 1,
                                         (TrigTerm("cos", (1,), (0.8,)),))),
        make_quadratic_form(
            np.array([[2.0, 0.3], [0.3, 1.0]]),
            TrigPath(P1, 2, (TrigTerm("sin", (1,), (1.0, 0.0)),
                             TrigTerm("cos", (2,), (0.0, 0.4))))),
        make_log_sum_exp(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            [TrigPath(P1, 1, (TrigTerm("cos", (1,), (c,)),))
             for c in (0.5, -0.3, 0.2)]),
    ]
    worst = 0.0
    for pot in pots:
        for scheme in SCHEMES:
            op = DiffOperator(grid, scheme)
            res = _solve_deep(grid, pot, op)
            assert res.status is SolveStatus.CONVERGED, pot.kind
            gvals = pot.gradient(grid.coords(), res.u.values)
            for comp in range(pot.n):
                echo = abs(integrate(grid, gvals[..., comp]))
                worst = max(worst, echo / grid.volume)
    assert worst <= 1e-8
    print(f"ACCEPTANCE 6: PASS  worst_echo={worst:.3e} (per unit volume)")


# ---------------------------------------------------------------------------
# 7. second-difference scheme converges at second order toward the target
# ---------------------------------------------------------------------------

def test_acceptance_7_scheme_consistency_order():
    errs = {}
    for N in (16, 32):
        grid = TorusGrid((TWO_PI, TWO_PI), (N, N))
        target = TrigPath(
            (TWO_PI, TWO_PI), 1,
            (
                TrigTerm("sin", (1, 0), (1.0,)),
                TrigTerm("cos", (1, 2), (0.5,)),
            ),
        )
        pot, exact = make_manufactured(grid, 1, target)
        op = DiffOperator(grid, Scheme.FD2)
        res = solve(grid, pot, op)
        assert res.status is SolveStatus.CONVERGED
        errs[N] = float(np.max(np.abs(res.u.values - exact.values)))
    ratio = errs[16] / errs[32]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2
    print(f"ACCEPTANCE 7: PASS  err16={errs[16]:.4e} err32={errs[32]:.4e} "
          f"ratio={ratio:.3f}")


# ---------------------------------------------------------------------------
# 8. the action is convex along segments for convex potentials
# ---------------------------------------------------------------------------

def test_acceptance_8_action_segment_convexity():
    grid = TorusGrid((TWO_PI,), (12,))
    P1 = (TWO_PI,)
    pots = [
        make_quadratic_shift(2, TrigPath(P1, 2,
                                         (TrigTerm("cos", (1,), (0.5, -0.2)),))),
        make_log_sum_exp(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            [TrigPath.zero(P1, 1)] * 3),
    ]
    op = DiffOperator(grid, Scheme.SPECTRAL)
    rng = np.random.default_rng(3)
    worst = -np.inf
    for pot in pots:
        for _ in range(500):
            u = Field(grid, rng.standard_normal(grid.shape + (2,)))
            v = Field(grid, rng.standard_normal(grid.shape + (2,)))
            mid = 0.5 * (u + v)
            violation = action_value(mid, pot, op) - 0.5 * (
                action_value(u, pot, op) + action_value(v, pot, op))
            worst = max(worst, violation)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 8: PASS  worst_violation={worst:.3e} (1000 triples)")


# ---------------------------------------------------------------------------
# 9. runs are deterministic given config and seed
# ---------------------------------------------------------------------------

def test_acceptance_9_determinism(tmp_path):
    cfg = {
        "grid": {"p": 2, "periods": [TWO_PI, TWO_PI],
                 "resolutions": [16, 16]},
        "scheme": "spectral",
        "potential": {
            "kind": "manufactured",
            "n": 2,
            "target": {
                "terms": [
                    {"trig": "sin", "freq": [1, 0], "coeff": [1.0, 0.0]},
                    {"trig": "cos", "freq": [1, 2], "coeff": [0.0, 0.5]},
                ]
            },
        },
        "outputs": {"field_dump": True, "trace": True},
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["solve", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(["solve", "--config", str(cfg_path), "--out", str(b)]) == 0
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("wall_time_s")
    rb.pop("wall_time_s")
    assert ra == rb
    assert (a / "field.bin").read_bytes() == (b / "field.bin").read_bytes()
    assert (a / "trace.csv").read_text() == (b / "trace.csv").read_text()
    print("ACCEPTANCE 9: PASS  reports equal (wall_time_s excluded), "
          "field dumps bit-identical")
