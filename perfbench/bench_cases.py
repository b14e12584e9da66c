"""Seeded cases of the three workloads, written as configs the CLI accepts.

A seed moves every generated case to an equivalent problem by a reflection
x -> s x of the state space, with a seeded sign s for each case; it sends
solutions to solutions.  Solve cases start from the reflected default
initial field.  Negation is exact in floating point, so every seed takes
bit for bit the same steps, times the same work and fails the same
operations.  A translation by whole grid nodes would also be an exact
symmetry, but it changes the rounding of the transforms and sums, and
today's solver and certify turn that rounding into a different iteration
count or a different outcome (see CHANGES.md).  The two fault cases do not
depend on the seed at all.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

TWO_PI = 2.0 * math.pi

# One iteration cap shared by every solve case: every healthy case ends
# well inside it, and the stalled case runs into it.
MAX_ITERS = 80
# Large-grid solves stop where a Newton polish takes over (the README's
# recipe), then polish to this tolerance.
LARGE_SOLVE_TOL = 1e-6
LARGE_POLISH_TOL = 1e-12

SHIPPED_CONFIGS = (
    "configs/manufactured_2d.json",
    "configs/drift_not_solvable.json",
    "configs/certify_log_sum_exp.json",
)


def _term(trig, freq, coeff):
    return {"trig": trig, "freq": list(freq), "coeff": list(coeff)}


def _path(*terms):
    return {"terms": list(terms)}


def _config(command, p, N, scheme, potential, periods=None):
    return {
        "command": command,
        "grid": {"p": p, "periods": list(periods or [TWO_PI] * p), "resolutions": [N] * p},
        "scheme": scheme,
        "potential": potential,
        "seed": 0,
    }


def _reflect_path(path, sign):
    return {"terms": [dict(t, coeff=[sign * c for c in t["coeff"]]) for t in path["terms"]]}


def _seeded(config, rng):
    """Reflect one config's potential by a seeded sign; returns it and the sign."""
    config = copy.deepcopy(config)
    sign = rng.choice((1.0, -1.0))
    pot = config["potential"]
    for key in ("shift", "drift", "target"):
        if key in pot:
            pot[key] = _reflect_path(pot[key], sign)
    if "directions" in pot:
        pot["directions"] = [[sign * c for c in row] for row in pot["directions"]]
    return config, sign


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]]


def _rotated_spd(theta, eigs):
    R = _rotation(theta)
    return [
        [sum(R[i][k] * eigs[k] * R[j][k] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


AXES2 = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
A3 = [[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.75]]


def _ladder_templates():
    c, s = "cos", "sin"
    return [
        ("p1-qshift-spectral-32", _config("solve", 1, 32, "spectral", {
            "kind": "quadratic_shift", "n": 2,
            "shift": _path(_term(c, [1], [0.8, 0.0]), _term(s, [3], [0.0, 0.5]))})),
        ("p1-drift-spectral-16", _config("solve", 1, 16, "spectral", {
            "kind": "linear_drift", "n": 1,
            "drift": _path(_term(c, [0], [1.0]), _term(s, [1], [0.5]))})),
        ("p1-qform-fd2-32", _config("solve", 1, 32, "fd2", {
            "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.4, (1.0, 0.3)),
            "drift": _path(_term(c, [0], [0.2, -0.1]), _term(c, [2], [1.0, 0.4]))})),
        ("p2-manufactured-spectral-16", _config("solve", 2, 16, "spectral", {
            "kind": "manufactured", "n": 2,
            "target": _path(_term(s, [1, 0], [1.0, 0.0]), _term(c, [1, 2], [0.0, 0.5]))})),
        ("p2-qform-fd2-16", _config("solve", 2, 16, "fd2", {
            "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.5, (1.0, 0.25)),
            "drift": _path(_term(c, [0, 0], [0.03, -0.02]), _term(c, [1, 1], [0.1, 0.05]))})),
        ("p2-lse-spectral-16", _config("solve", 2, 16, "spectral", {
            "kind": "log_sum_exp", "n": 2, "directions": AXES2,
            "offsets": [_path(_term(c, [1, 0], [0.5])), _path(_term(s, [0, 1], [0.4])),
                        _path(), _path(_term(c, [1, 1], [0.3]))]})),
        ("p2-drift-fd2-16", _config("solve", 2, 16, "fd2", {
            "kind": "linear_drift", "n": 2,
            "drift": _path(_term(c, [0, 0], [0.5, -0.5]), _term(c, [1, 0], [1.0, 0.0]))})),
        ("p3-qform-spectral-8", _config("solve", 3, 8, "spectral", {
            "kind": "quadratic_form", "n": 3, "matrix": A3,
            "drift": _path(_term(c, [1, 0, 0], [1.0, 0.0, 0.5]),
                           _term(s, [0, 1, 1], [0.0, 0.7, 0.0]))})),
        ("p3-lse-fd2-8", _config("solve", 3, 8, "fd2", {
            "kind": "log_sum_exp", "n": 2, "directions": AXES2,
            "offsets": [_path(_term(c, [1, 0, 0], [0.5])), _path(_term(s, [0, 1, 0], [0.4])),
                        _path(), _path(_term(c, [0, 1, 1], [0.3]))]})),
        ("p3-manufactured-fd2-8", _config("solve", 3, 8, "fd2", {
            "kind": "manufactured", "n": 1,
            "target": _path(_term(c, [1, 0, 1], [0.6]), _term(s, [0, 2, 0], [0.3]))})),
        ("p4-qshift-spectral-8", _config("solve", 4, 8, "spectral", {
            "kind": "quadratic_shift", "n": 2,
            "shift": _path(_term(c, [1, 0, 0, 1], [0.5, 0.2]),
                           _term(s, [0, 1, 1, 0], [0.0, 0.4]))})),
        ("p4-lse-fd2-8", _config("solve", 4, 8, "fd2", {
            "kind": "log_sum_exp", "n": 2, "directions": AXES2,
            "offsets": [_path(_term(c, [1, 0, 0, 0], [0.5])), _path(_term(s, [0, 0, 1, 0], [0.4])),
                        _path(), _path(_term(c, [0, 1, 0, 1], [0.3]))]})),
        ("p4-manufactured-spectral-8", _config("solve", 4, 8, "spectral", {
            "kind": "manufactured", "n": 1,
            "target": _path(_term(c, [1, 1, 0, 0], [0.6]), _term(s, [0, 0, 1, 2], [0.3]))})),
    ]


# The ROADMAP's lse 16^3 case: default directions and zero offsets.  Solve
# reaches grad_inf ~ 1e-7 and then takes rounding-floor Armijo steps until
# the iteration cap, so it ends in max_iters although it is solvable.
LSE_STALL = _config("solve", 3, 16, "spectral", {"kind": "log_sum_exp", "n": 3})


def _large_templates():
    c, s = "cos", "sin"
    return [
        ("p3-qform-spectral-32x3", _config("solve", 3, 32, "spectral", {
            "kind": "quadratic_form", "n": 3, "matrix": A3,
            "drift": _path(_term(c, [1, 0, 0], [1.0, 0.0, 0.5]),
                           _term(s, [0, 1, 1], [0.0, 0.7, 0.0]),
                           _term(c, [0, 0, 0], [0.2, 0.1, -0.3]))})),
        ("p4-lse-spectral-16x2", _config("solve", 4, 16, "spectral", {
            "kind": "log_sum_exp", "n": 2, "directions": AXES2,
            "offsets": [_path(_term(c, [1, 0, 0, 0], [0.5])), _path(_term(s, [0, 0, 1, 0], [0.4])),
                        _path(), _path(_term(c, [0, 1, 0, 1], [0.3]))]})),
        ("p3-qform-fd2-32x2", _config("solve", 3, 32, "fd2", {
            "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.3, (1.0, 0.5)),
            "drift": _path(_term(c, [1, 0, 1], [0.6, 0.0]), _term(s, [0, 2, 0], [0.3, 0.5]),
                           _term(c, [0, 0, 0], [0.1, -0.2]))})),
    ]


# ROADMAP item 4: a rotated quadratic_form with eigenvalues 1 and 0.01, a
# constant drift and a 1-D box of length 2 pi.  certify raises
# ConsistencyError on it (exit 1), although it is strictly convex and
# solvable.
ROTATED_QFORM = _config("certify", 1, 16, "spectral", {
    "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(math.pi / 6, (1.0, 0.01)),
    "drift": _path(_term("cos", [0], [1.0, 0.5]))})


def _cli_templates():
    c, s = "cos", "sin"
    # Unit boxes: on 2 pi boxes certify misfires on some variants of these
    # strictly convex cases (see CHANGES.md).
    sweep = [
        ("certify-qshift", _config("certify", 2, 8, "spectral", {
            "kind": "quadratic_shift", "n": 2,
            "shift": _path(_term(c, [0, 0], [0.7, -0.4]), _term(s, [1, 2], [0.5, 0.0]))},
            periods=[1.0, 1.0])),
        ("certify-qform", _config("certify", 2, 8, "fd2", {
            "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.7, (1.0, 0.5)),
            "drift": _path(_term(c, [0, 0], [0.4, 0.3]), _term(c, [1, 0], [1.0, 0.0]))},
            periods=[1.0, 1.0])),
        ("certify-drift", _config("certify", 1, 16, "spectral", {
            "kind": "linear_drift", "n": 2,
            "drift": _path(_term(c, [0], [1.0, -0.5]), _term(s, [1], [0.3, 0.2]))})),
        ("certify-lse-outside", _config("certify", 2, 8, "spectral", {
            "kind": "log_sum_exp", "n": 2, "directions": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            "offsets": [_path(_term(c, [1, 0], [0.5])), _path(_term(s, [0, 1], [0.3])), _path()]})),
        ("certify-manufactured", _config("certify", 1, 16, "fd2", {
            "kind": "manufactured", "n": 2,
            "target": _path(_term(c, [0], [0.5, -0.25]), _term(s, [1], [1.0, 0.3]))},
            periods=[1.0])),
    ]
    audits = [
        ("check-grad-lse", _config("check-grad", 2, 8, "spectral", {
            "kind": "log_sum_exp", "n": 2, "directions": AXES2,
            "offsets": [_path(_term(c, [1, 0], [0.5])), _path(_term(s, [0, 1], [0.4])),
                        _path(), _path(_term(c, [1, 1], [0.3]))]})),
        ("wirtinger-spectral", _config("wirtinger", 3, 8, "spectral", {
            "kind": "quadratic_shift", "n": 1,
            "shift": _path(_term(c, [0, 0, 0], [0.0]))},
            periods=[TWO_PI, 3.0 * math.pi, 1.5 * math.pi])),
        # A unit box: on a 2 pi box the solve inside oracle-compare stalls
        # short of its 1e-10 tolerance for one of the two signs.
        ("oracle-compare-32x32x2", _config("oracle-compare", 2, 32, "spectral", {
            "kind": "quadratic_form", "n": 2, "matrix": _rotated_spd(0.2, (1.0, 0.5)),
            "drift": _path(_term(c, [0, 0], [0.06, 0.03]), _term(c, [1, 2], [0.3, 0.09]),
                           _term(s, [3, 1], [0.06, -0.12]))},
            periods=[1.0, 1.0])),
    ]
    return sweep + audits


def _solve_options(workload):
    if workload == "ladder":
        return {"max_iters": MAX_ITERS}
    return {"max_iters": MAX_ITERS, "tol_grad_inf": LARGE_SOLVE_TOL}


def make_cases(workload: str, seed: int, root: Path = Path(".")) -> list[dict]:
    """The workload's cases for one seed, in the order a pass runs them.

    Shipped configs are read from under ``root``, the checkout's root.

    Each case is a dict with ``name``, ``config`` (a CLI config dict, or None
    for a shipped config), ``path`` (the shipped config, else None),
    ``command`` and ``fault`` (True for the two known faults).  Solve cases
    also carry ``init_sign``: the solver starts from that sign times the
    default initial field.
    """
    rng = random.Random(seed)
    cases = []
    if workload in ("ladder", "large-grid"):
        templates = _ladder_templates() if workload == "ladder" else _large_templates()
        for name, config in templates:
            config, sign = _seeded(config, rng)
            cases.append({"name": name, "config": config, "init_sign": sign})
        if workload == "ladder":
            cases.insert(8, {"name": "p3-lse-spectral-16-stall", "config": copy.deepcopy(LSE_STALL),
                             "init_sign": 1.0, "fault": True})
        for case in cases:
            case["config"]["solver"] = _solve_options(workload)
            case["command"] = "solve"
    elif workload == "cli":
        for shipped in SHIPPED_CONFIGS:
            path = root / shipped
            name = path.stem
            command = json.loads(path.read_text())["command"]
            cases.append({"name": name, "config": None, "path": str(path), "command": command})
        for name, config in _cli_templates():
            config, _ = _seeded(config, rng)
            cases.append({"name": name, "config": config, "command": config["command"]})
        cases.append({"name": "certify-rotated-qform", "config": copy.deepcopy(ROTATED_QFORM),
                      "command": "certify", "fault": True})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for case in cases:
        case.setdefault("path", None)
        case.setdefault("fault", False)
    return cases


def write_configs(cases: list[dict], directory: Path) -> None:
    """Write each generated config to ``directory`` and record its path."""
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        if case["config"] is not None:
            path = directory / f"{case['name']}.json"
            path.write_text(json.dumps(case["config"], indent=1) + "\n")
            case["path"] = str(path)
