import csv
import json
from dataclasses import fields
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torus_action import SolvabilityCertificate, SolveResult, Verdict
from torus_action.cli import (
    CONFIG_SCHEMA,
    dump_field,
    load_config,
    load_field,
    main,
    run,
    write_report,
)
from torus_action.operators import ActionReport

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TWO_PI = 2.0 * np.pi


def manufactured_config(out_dir, N=16):
    return {
        "grid": {"p": 2, "periods": [TWO_PI, TWO_PI], "resolutions": [N, N]},
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
        "solver": {"tol_grad_inf": 1e-10},
        "outputs": {"directory": str(out_dir), "field_dump": True,
                    "trace": True},
        "seed": 1,
    }


def drift_config(out_dir):
    return {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [16]},
        "scheme": "spectral",
        "potential": {
            "kind": "linear_drift",
            "n": 1,
            "drift": {"terms": [{"trig": "cos", "freq": [0],
                                 "coeff": [1.0]}]},
        },
        "outputs": {"directory": str(out_dir)},
        "seed": 0,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_report_field_and_trace(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    assert main(["solve", "--config", cfg]) == 0

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["exact_max_error"] < 1e-10
    assert report["residual_inf"] < 1e-8
    assert report["command"] == "solve"
    assert "wall_time_s" in report

    field = load_field(out / "field.bin")
    assert field.n == 2
    assert field.grid.shape == (16, 16)

    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,action,grad_inf,mean_norm,fluct_h1"
    assert len(lines) >= 2


def test_trace_values_parse_as_floats(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "action", "grad_inf", "mean_norm", "fluct_h1"]
    assert len(rows) == report["iterations"] + 2
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert all(np.isfinite(float(x)) for x in row[1:])
    assert float(rows[-1][1]) == report["action"]["total"]


def test_solve_reproduces_target(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    main(["solve", "--config", cfg])
    field = load_field(out / "field.bin")
    t = field.grid.coords()
    expect = np.stack(
        [np.sin(t[..., 0]), 0.5 * np.cos(t[..., 0] + 2 * t[..., 1])], axis=-1)
    assert_allclose(field.values, expect, atol=1e-10)


def test_out_flag_overrides_config_directory(tmp_path):
    cfg = write_config(tmp_path, manufactured_config(tmp_path / "ignored"))
    out = tmp_path / "override"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_diverging_drift_exits_2_with_certificate(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, drift_config(out))
    assert main(["solve", "--config", cfg]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "diverged_non_coercive"
    cert = report["certificate"]
    assert cert["verdict"] == "not_solvable"
    assert cert["stationary_mean"] is None
    assert cert["coercivity"] == "not_coercive"


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_far_minimum_config_exits_0(tmp_path, command):
    # A = [[1e-7]] puts the minimizer at mean -1e7, past the divergence
    # threshold; the recession function has no escape ray there
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / "solve_far_minimum.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    mean = report["mean"] if command == "solve" else report["certificate"]["stationary_mean"]
    assert mean == pytest.approx([-1e7], rel=1e-12)


# ---------------------------------------------------------------------------
# report shape: the result types' own fields
# ---------------------------------------------------------------------------

# keys the CLI adds to a solve report beside the result's fields
CLI_SOLVE_KEYS = {"command", "config", "seed", "version", "wall_time_s",
                  "exact_max_error", "certificate"}
CERTIFICATE_KEYS = {f.name for f in fields(SolvabilityCertificate)}


@pytest.mark.parametrize("make_config, code", [(manufactured_config, 0), (drift_config, 2)])
def test_solve_report_holds_the_result_fields_bar_field_and_trace(tmp_path, make_config,
                                                                   code):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, make_config(out))
    assert main(["solve", "--config", cfg]) == code
    report = json.loads((out / "report.json").read_text())
    result_keys = {f.name for f in fields(SolveResult) if not f.name.startswith("_")}
    result_keys -= {"u", "trace"}
    assert set(report) - CLI_SOLVE_KEYS == result_keys
    assert set(report["action"]) == {f.name for f in fields(ActionReport)}
    if code == 2:  # diverged: the certificate says why
        assert set(report["certificate"]) == CERTIFICATE_KEYS


@pytest.mark.parametrize("make_config, code", [(manufactured_config, 0), (drift_config, 2)])
def test_certify_report_holds_the_certificate_fields(tmp_path, make_config, code):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, make_config(out))
    assert main(["certify", "--config", cfg]) == code
    report = json.loads((out / "report.json").read_text())
    assert set(report["certificate"]) == CERTIFICATE_KEYS


def test_report_encoding_of_numpy_values_enums_and_dataclasses(tmp_path):
    report = {
        "float": np.float64(0.1),
        "int": np.int64(3),
        "bool": np.bool_(True),
        "verdict": Verdict.NOT_SOLVABLE,
        "tuple": ("a", 1),
        "action": ActionReport(np.float64(1.5), -2.0, -0.5, 1e-9),
        "array": np.array([[1.0, 2.5]]),
    }
    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text() == (
        "{\n"
        '  "action": {\n'
        '    "grad_inf_norm": 1e-09,\n'
        '    "kinetic": 1.5,\n'
        '    "potential_part": -2.0,\n'
        '    "total": -0.5\n'
        "  },\n"
        '  "array": [\n'
        "    [\n"
        "      1.0,\n"
        "      2.5\n"
        "    ]\n"
        "  ],\n"
        '  "bool": true,\n'
        '  "float": 0.1,\n'
        '  "int": 3,\n'
        '  "tuple": [\n'
        '    "a",\n'
        "    1\n"
        "  ],\n"
        '  "verdict": "not_solvable"\n'
        "}\n"
    )
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        write_report({"other": object()}, tmp_path / "other.json")


def test_seed_flag_is_recorded(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    assert main(["solve", "--config", cfg, "--seed", "42"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 42
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--threads", "2"])
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeat_runs_are_identical(tmp_path):
    cfg_dict = manufactured_config(tmp_path / "unused")
    cfg = write_config(tmp_path, cfg_dict)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0

    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    # wall time is the one number allowed to differ
    ra.pop("wall_time_s")
    rb.pop("wall_time_s")
    assert ra == rb
    assert (a / "field.bin").read_bytes() == (b / "field.bin").read_bytes()
    assert (a / "trace.csv").read_text() == (b / "trace.csv").read_text()


# ---------------------------------------------------------------------------
# field dump format
# ---------------------------------------------------------------------------

def test_field_dump_header_and_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    main(["solve", "--config", cfg])

    raw = (out / "field.bin").read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == (
        b"TORUSFIELD v1 p=2 n=2 N=16,16 "
        b"T=6.283185307179586,6.283185307179586 layout=node-major"
    )
    assert len(payload) == 16 * 16 * 2 * 8  # float64 payload

    field = load_field(out / "field.bin")
    again = tmp_path / "again.bin"
    dump_field(field, again)
    assert again.read_bytes() == raw


def test_payload_is_little_endian_node_major(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    main(["solve", "--config", cfg])
    raw = (out / "field.bin").read_bytes()
    payload = raw.split(b"\n", 1)[1]
    values = np.frombuffer(payload, dtype="<f8").reshape(16, 16, 2)
    field = load_field(out / "field.bin")
    assert_allclose(values, field.values, rtol=0, atol=0)


@pytest.mark.parametrize("header, message", [
    (b"TORUSFIELD v1 p=2 n=1", "has no N, T, layout"),
    (b"TORUSFIELD v1 p=1 n=1 N=4 T=1.0 layout=node-major stray",
     "entry 'stray' is not key=value"),
    (b"TORUSFIELD v1 p=1 n=one N=4 T=1.0 layout=node-major", "malformed n='one'"),
    (b"TORUSFIELD v2 p=1 n=1 N=4 T=1.0 layout=node-major", "not a TORUSFIELD v1 dump"),
    (b"TORUSFIELD v1 p=1 n=1 N=4 T=1.0 layout=axis-major", "unsupported layout 'axis-major'"),
    (b"TORUSFIELD v1 p=1 n=1 N=8 T=1.0 layout=node-major", "dump holds 4 values, expected 8"),
])
def test_field_dump_header_errors_name_the_key(tmp_path, header, message):
    path = tmp_path / "field.bin"
    path.write_bytes(header + b"\n" + np.zeros(4).astype("<f8").tobytes())
    with pytest.raises(ValueError, match=message):
        load_field(path)


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_certify_solvable_exits_0(tmp_path):
    out = tmp_path / "out"
    cfg_dict = manufactured_config(out)
    del cfg_dict["solver"]
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["certify", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["verdict"] == "solvable"


def test_certify_drift_exits_2(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, drift_config(out))
    assert main(["certify", "--config", cfg]) == 2


def test_check_grad_command(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    assert main(["check-grad", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["max_relative_error"] < 1e-5
    assert report["samples"] == 200


def test_wirtinger_command(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    assert main(["wirtinger", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert_allclose(report["constant"], 1.0, rtol=1e-12)
    assert report["audit_max_ratio"] <= report["constant"] * (1 + 1e-10)


def test_oracle_compare_command(tmp_path):
    out = tmp_path / "out"
    cfg_dict = {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [16]},
        "scheme": "fd2",
        "potential": {
            "kind": "quadratic_shift",
            "n": 1,
            "shift": {"terms": [{"trig": "cos", "freq": [1],
                                 "coeff": [0.8]}]},
        },
        "outputs": {"directory": str(out)},
        "seed": 3,
    }
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["oracle-compare", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["max_abs_gap"] < 1e-8
    assert report["dense_unknowns"] == 16


def test_oracle_compare_needs_quadratic_structure(tmp_path):
    out = tmp_path / "out"
    cfg_dict = drift_config(out)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["oracle-compare", "--config", cfg]) == 1
    assert not out.exists()


def test_oracle_compare_over_the_dense_cap_leaves_no_output_directory(tmp_path, capsys):
    # the cap is met after the config checks, inside the command itself; one
    # axis of 4096 nodes would push a 4096 x 4096 array of unit fields, and
    # is refused before it is made
    out = tmp_path / "out"
    cfg_dict = qshift_1d_config(out)
    cfg_dict["grid"]["resolutions"] = [4096]
    cfg = write_config(tmp_path, cfg_dict)
    started = time.perf_counter()
    assert main(["oracle-compare", "--config", cfg]) == 1
    assert time.perf_counter() - started < 1.0
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def test_four_axis_oracle_config_agrees_with_the_minimizer(tmp_path):
    # 12^4 x 1 = 20736 unknowns: refused by the old nodes * n cap
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(CONFIGS / "oracle_compare_4d.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dense_unknowns"] == 12**4
    assert report["passed"] is True
    assert report["max_abs_gap"] <= 1e-8


@pytest.mark.parametrize("command", ["solve", "certify", "check-grad", "wirtinger",
                                     "oracle-compare"])
def test_every_command_rejects_a_bad_solver_block(tmp_path, capsys, command):
    # oracle-compare used to ignore the block and exit 0
    out = tmp_path / "out"
    cfg_dict = manufactured_config(out)
    cfg_dict["solver"] = {"max_iters": 0, "tol_grad_inf": 1e-3}
    cfg = write_config(tmp_path, cfg_dict)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config {cfg} rejected at $['solver']: max_iters must be positive" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "line 1" in err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg_dict = manufactured_config(tmp_path / "out")
    cfg_dict["mystery"] = 1
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1
    assert "mystery" in capsys.readouterr().err


def test_unknown_solver_key(tmp_path, capsys):
    cfg_dict = manufactured_config(tmp_path / "out")
    cfg_dict["solver"]["step_size"] = 0.1
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1
    assert "step_size" in capsys.readouterr().err


def test_invalid_grid_rejected(tmp_path, capsys):
    cfg_dict = manufactured_config(tmp_path / "out")
    cfg_dict["grid"] = {"p": 0, "periods": [], "resolutions": []}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1


def test_unresolvable_target_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_dict = manufactured_config(out, N=16)
    cfg_dict["potential"]["target"]["terms"][0]["freq"] = [8, 0]
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1
    assert "Nyquist" in capsys.readouterr().err


def _aliased(freq):
    return {"terms": [{"trig": "cos", "freq": [freq], "coeff": [1.0]}]}


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("potential, key", [
    ({"kind": "quadratic_shift", "n": 1, "shift": _aliased(8)}, "shift"),
    ({"kind": "linear_drift", "n": 1, "drift": _aliased(8)}, "drift"),
    ({"kind": "quadratic_form", "n": 1, "matrix": [[1.0]], "drift": _aliased(8)}, "drift"),
    ({"kind": "log_sum_exp", "n": 1, "offsets": [_aliased(1), _aliased(8)]}, "offsets[1]"),
    ({"kind": "manufactured", "n": 1, "target": _aliased(8)}, "target"),
], ids=["quadratic_shift", "linear_drift", "quadratic_form", "log_sum_exp", "manufactured"])
def test_aliased_paths_are_rejected_for_every_kind(tmp_path, capsys, potential, key,
                                                   command):
    # cos(8t) on 8 nodes samples as the constant 1: the grid would realize
    # another potential than the one configured
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [8]},
        "scheme": "spectral",
        "potential": potential,
        "outputs": {"directory": str(out)},
    })
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"torus-action: error: potential {key!r}: frequency 8 on axis 1 is not "
        "resolvable below the Nyquist limit of an N=8 grid\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("potential, message", [
    ({"kind": "log_sum_exp", "n": 2, "directions": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]},
     "potential 'directions' have 3 columns, expected n=2"),
    ({"kind": "log_sum_exp", "n": 2, "directions": [[1.0, 0.0], [-1.0]]},
     "potential 'directions' must be a rectangular array of numbers"),
    ({"kind": "quadratic_form", "n": 2, "matrix": [[1.0, 0.0], [0.0]]},
     "potential 'matrix' must be a rectangular array of numbers"),
], ids=["directions-width", "directions-ragged", "matrix-ragged"])
def test_misshapen_arrays_are_rejected_by_name(tmp_path, capsys, potential, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [8]},
        "scheme": "spectral",
        "potential": potential,
        "outputs": {"directory": str(out)},
    })
    assert main(["certify", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"torus-action: error: {message}\n"
    assert not out.exists()


def test_command_key_must_match_subcommand(tmp_path, capsys):
    cfg_dict = manufactured_config(tmp_path / "out")
    cfg_dict["command"] = "solve"
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["certify", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "torus-action: error: config requests command 'solve' but 'certify' was invoked\n")


def test_run_refuses_an_unknown_command_before_writing(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    with pytest.raises(ValueError, match="^unknown command 'frobnicate'$"):
        run(cfg, "frobnicate")
    assert not out.exists()


def test_command_key_matching_is_accepted(tmp_path):
    out = tmp_path / "out"
    cfg_dict = manufactured_config(out)
    cfg_dict["command"] = "solve"
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 0


def test_config_schema_is_a_valid_schema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("edit", [
    lambda c: c.update(mystery=1),
    lambda c: c["solver"].update(max_iters="many"),
    lambda c: c["potential"].update(kind="cubic"),
    lambda c: c["grid"].pop("periods"),
])
def test_rejection_message_matches_full_validation(tmp_path, edit):
    import jsonschema

    cfg_dict = manufactured_config(tmp_path / "out")
    edit(cfg_dict)
    cfg = write_config(tmp_path, cfg_dict)
    if cfg_dict["potential"]["kind"] == "cubic":
        # jsonschema answers with the whole potential, "not valid under any
        # of the given schemas"; the kind picks the branch, so it is located
        with pytest.raises(ValueError) as ours:
            load_config(cfg)
        assert str(ours.value) == (
            f"config {cfg} rejected at $['potential']['kind']: 'cubic' is not one of "
            "['quadratic_shift', 'linear_drift', 'quadratic_form', 'log_sum_exp', "
            "'manufactured']"
        )
        return
    with pytest.raises(jsonschema.ValidationError) as full:
        jsonschema.validate(cfg_dict, CONFIG_SCHEMA)
    where = "$" + "".join(f"[{k!r}]" for k in full.value.absolute_path)
    with pytest.raises(ValueError) as ours:
        load_config(cfg)
    assert str(ours.value) == f"config {cfg} rejected at {where}: {full.value.message}"


@pytest.mark.parametrize("solver, name", [
    ({"max_iters": 0}, "max_iters"),
])
def test_out_of_range_solver_options_are_located(tmp_path, capsys, solver, name):
    cfg_dict = json.loads((CONFIGS / "manufactured_2d.json").read_text())
    cfg_dict["solver"] = solver
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config {cfg} rejected at $['solver']: {name} must be" in err


def _unexpected(key):
    return f"Additional properties are not allowed ('{key}' was unexpected)"


@pytest.mark.parametrize("edit, where, message", [
    (lambda c: c.update(seed=-1), "$['seed']", "-1 is less than the minimum of 0"),
    (lambda c: c["solver"].update(method="lbfgs"), "$['solver']", _unexpected("method")),
    (lambda c: c["solver"].update(method="gradient_descent"), "$['solver']",
     _unexpected("method")),
    (lambda c: c["solver"].update(method="nonlinear_cg"), "$['solver']",
     _unexpected("method")),
    (lambda c: c["solver"].update(precondition_h1=False), "$['solver']",
     _unexpected("precondition_h1")),
    (lambda c: c["solver"].update(lbfgs_memory=0), "$['solver']", _unexpected("lbfgs_memory")),
    (lambda c: c["solver"].update(divergence_mean_norm=-1), "$['solver']",
     _unexpected("divergence_mean_norm")),
    (lambda c: c["solver"].update(init_noise=-1.0), "$['solver']", _unexpected("init_noise")),
    (lambda c: c["solver"].update(max_backtracks=-1), "$['solver']",
     _unexpected("max_backtracks")),
    (lambda c: c["solver"].update(armijo_c1=1e-4), "$['solver']", _unexpected("armijo_c1")),
    (lambda c: c["solver"].update(backtrack_factor=0.5), "$['solver']",
     _unexpected("backtrack_factor")),
], ids=["seed", "method", "gradient_descent", "nonlinear_cg", "precondition_h1",
        "lbfgs_memory", "divergence_mean_norm", "init_noise", "max_backtracks", "armijo_c1",
        "backtrack_factor"])
def test_rejected_config_is_located_and_leaves_no_output_directory(tmp_path, capsys, edit,
                                                                   where, message):
    out = tmp_path / "out"
    cfg_dict = manufactured_config(out)
    edit(cfg_dict)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"torus-action: error: config {cfg} rejected at {where}: {message}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "certify", "check-grad"])
def test_negative_seed_flag_is_rejected_by_the_option(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--seed", "-5"])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-5'" in capsys.readouterr().err
    assert not out.exists()


def qshift_1d_config(out_dir):
    return {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [16]},
        "scheme": "spectral",
        "potential": {
            "kind": "quadratic_shift",
            "n": 1,
            "shift": {"terms": [{"trig": "cos", "freq": [1], "coeff": [0.8]}]},
        },
        "outputs": {"directory": str(out_dir)},
        "seed": 0,
    }


@pytest.mark.parametrize("solver, name", [
    ({"divergence_mean_norm": float("nan")}, "divergence_mean_norm"),
    ({"tol_grad_inf": -1.0}, "tol_grad_inf"),
    ({"tol_residual_inf": float("nan")}, "tol_residual_inf"),
    ({"tol_grad_inf": float("nan")}, "tol_grad_inf"),
])
def test_non_finite_or_negative_tolerances_are_rejected_up_front(tmp_path, capsys,
                                                                 solver, name):
    # the config is solvable: a NaN divergence threshold used to report it
    # diverged, and a negative tolerance ended in a line-search failure; the
    # threshold is a constant now, and tol_grad_inf the one tolerance, so the
    # other keys themselves are rejected
    cfg_dict = qshift_1d_config(tmp_path / "out")
    cfg_dict["solver"] = solver
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    if name in CONFIG_SCHEMA["properties"]["solver"]["properties"]:
        message = f"{name} must be finite"
    else:
        message = _unexpected(name)
    assert f"config {cfg} rejected at $['solver']: {message}" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_trace_fluct_h1_column_is_the_fluctuation_norm(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, qshift_1d_config(out))
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["iterations"] + 1
    assert all(float(row["fluct_h1"]) >= 0.0 for row in rows)
    # the last row comes from the carried spectrum, the report from the
    # returned samples' own transform
    assert_allclose(float(rows[-1]["fluct_h1"]), report["fluctuation_h1_norm"],
                    rtol=1e-12)


def test_load_config_round_trip(tmp_path):
    cfg_dict = manufactured_config(tmp_path / "out")
    cfg = write_config(tmp_path, cfg_dict)
    loaded = load_config(cfg)
    assert loaded["grid"]["p"] == 2
    assert loaded["scheme"] == "spectral"


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, config", [
    ("solve", "manufactured_2d.json"),
    ("certify", "certify_log_sum_exp.json"),
    ("oracle-compare", "oracle_compare_3d_fd2.json"),
    ("check-grad", "solve_far_minimum.json"),
    ("wirtinger", "solve_far_minimum.json"),
])
def test_command_process_loads_no_scipy_module(tmp_path, command, config):
    # the transforms load scipy's pocketfft extension by path, and the dense
    # oracle diagonalizes with numpy.linalg, so no command pays scipy's imports
    script = (
        "import sys, torus_action.cli as cli; "
        f"code = cli.main([{command!r}, '--config', {str(CONFIGS / config)!r}, "
        f"'--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert (tmp_path / "report.json").exists()


def test_module_invocation(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, manufactured_config(out))
    proc = subprocess.run(
        [sys.executable, "-m", "torus_action.cli", "solve", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (out / "report.json").exists()
