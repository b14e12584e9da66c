"""The config check: jsonschema's messages and paths, located without it."""

import copy
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torus_action import SolverOptions, TorusGrid, potential_from_dict
from torus_action.cli import CONFIG_SCHEMA, load_config, main
from torus_action.potentials import POTENTIAL_KEYS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"

TWO_PI = 2.0 * math.pi


def manufactured():
    return {
        "command": "solve",
        "grid": {"p": 2, "periods": [TWO_PI, TWO_PI], "resolutions": [8, 8]},
        "scheme": "spectral",
        "potential": {
            "kind": "manufactured",
            "n": 2,
            "target": {"terms": [
                {"trig": "sin", "freq": [1, 0], "coeff": [1.0, 0.0]},
                {"trig": "cos", "freq": [1, 2], "coeff": [0.0, 0.5]},
            ]},
        },
        "solver": {"tol_grad_inf": 1e-10, "max_iters": 50},
        "outputs": {"directory": "out", "field_dump": False, "trace": True},
        "seed": 1,
    }


def quadratic_form():
    return {
        "grid": {"p": 1, "periods": [TWO_PI], "resolutions": [16]},
        "scheme": "fd2",
        "potential": {
            "kind": "quadratic_form",
            "n": 2,
            "matrix": [[2.0, 0.5], [0.5, 1.0]],
            "drift": {"terms": [{"trig": "cos", "freq": [0], "coeff": [1.0, 0.5]}]},
        },
    }


VALID = [
    manufactured(),
    quadratic_form(),
    *(json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))),
]


def write(config) -> str:
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(config, fh)
    return fh.name


def ours(config):
    """(where, message) from load_config, or None when the config loads."""
    path = write(config)
    try:
        load_config(path)
    except ValueError as exc:
        head = f"config {path} rejected at "
        text = str(exc)
        assert text.startswith(head), text
        where, _, message = text[len(head):].partition(": ")
        return where, message
    finally:
        Path(path).unlink()
    return None


def branch_schema(config):
    """CONFIG_SCHEMA with the potential's oneOf narrowed to the named kind."""
    schema = copy.deepcopy(CONFIG_SCHEMA)
    kind = config["potential"]["kind"]
    schema["properties"]["potential"] = next(
        b for b in schema["properties"]["potential"]["oneOf"]
        if b["properties"]["kind"]["const"] == kind
    )
    return schema


def jsonschema_answer(config):
    errors = list(jsonschema.Draft202012Validator(branch_schema(config)).iter_errors(config))
    assert len(errors) == 1, [e.message for e in errors]
    error = errors[0]
    return "$" + "".join(f"[{k!r}]" for k in error.absolute_path), error.message


def edited(base, edit):
    config = copy.deepcopy(base)
    edit(config)
    return config


SINGLE_ERRORS = {
    "type": [
        lambda c: c["grid"].update(p="2"),
        lambda c: c["grid"].update(periods=[TWO_PI, "x"]),
        lambda c: c["solver"].update(max_iters="many"),
        lambda c: c["solver"].update(tol_grad_inf=True),
        lambda c: c["outputs"].update(trace=1),
        lambda c: c["potential"]["target"]["terms"][1].update(coeff=[0.0, None]),
        lambda c: c.update(seed=True),
        lambda c: c.update(potential=[]),
    ],
    "enum": [
        lambda c: c.update(scheme="fft"),
        lambda c: c.update(command="run"),
        lambda c: c.update(scheme=None),
        lambda c: c["potential"]["target"]["terms"][0].update(trig="tan"),
    ],
    "required": [
        lambda c: c["grid"].pop("resolutions"),
        lambda c: c.pop("scheme"),
        lambda c: c["potential"].pop("target"),
        lambda c: c["potential"]["target"]["terms"][0].pop("freq"),
    ],
    "additionalProperties": [
        lambda c: c.update(mystery=1),
        lambda c: c.update(zeta=1, alpha=2),
        lambda c: c["potential"].update(matrix=[[1.0]]),
        lambda c: c["outputs"].update(format="csv"),
        lambda c: c["solver"].update(seed=3),
    ],
    "minimum": [
        lambda c: c["potential"].update(n=0),
        lambda c: c["potential"].update(n=-3),
    ],
}


@pytest.mark.parametrize("keyword, index", [
    (keyword, index) for keyword, edits in SINGLE_ERRORS.items() for index in range(len(edits))
])
def test_single_error_matches_jsonschema_on_the_kind_branch(keyword, index):
    config = edited(manufactured(), SINGLE_ERRORS[keyword][index])
    if not isinstance(config["potential"], dict):
        # no kind to pick a branch by: jsonschema answers with the oneOf
        assert ours(config) == ("$['potential']", "[] is not of type 'object'")
        return
    assert ours(config) == jsonschema_answer(config)


def test_potential_errors_are_located_inside_the_kind():
    # jsonschema reports both at $['potential'] as "not valid under any of
    # the given schemas", naming neither n nor kind
    assert ours(edited(manufactured(), lambda c: c["potential"].update(n=0))) == (
        "$['potential']['n']", "0 is less than the minimum of 1")
    assert ours(edited(manufactured(), lambda c: c["potential"].update(kind=7))) == (
        "$['potential']['kind']",
        "7 is not one of ['quadratic_shift', 'linear_drift', 'quadratic_form', "
        "'log_sum_exp', 'manufactured']")
    assert ours(edited(manufactured(), lambda c: c["potential"].pop("kind"))) == (
        "$['potential']", "'kind' is a required property")


def test_the_least_deep_of_several_errors_is_reported():
    config = edited(manufactured(), lambda c: (c.update(mystery=1), c["grid"].update(p="x")))
    assert ours(config) == ("$", "Additional properties are not allowed ('mystery' was unexpected)")


@pytest.mark.parametrize("edit, where, message", [
    (lambda c: c["solver"].update(max_iters=10.0), "$['solver']['max_iters']",
     "10.0 is not of type 'integer'"),
    (lambda c: c["grid"].update(resolutions=[8.0, 8]), "$['grid']['resolutions'][0]",
     "8.0 is not of type 'integer'"),
    (lambda c: c["potential"].update(n=2.0), "$['potential']['n']",
     "2.0 is not of type 'integer'"),
    (lambda c: c.update(seed=1.0), "$['seed']", "1.0 is not of type 'integer'"),
])
def test_integral_floats_are_not_integers(edit, where, message):
    # jsonschema's integer type accepts 10.0; solve then failed on it with
    # "'float' object cannot be interpreted as an integer"
    assert ours(edited(manufactured(), edit)) == (where, message)


def test_integral_float_max_iters_exits_1_with_a_located_message(tmp_path, capsys):
    config = json.loads((CONFIGS / "manufactured_2d.json").read_text())
    config["solver"] = {"max_iters": 10.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "rejected at $['solver']['max_iters']: 10.0 is not of type 'integer'" in err


@pytest.mark.parametrize("name", ["max_iters", "seed"])
@pytest.mark.parametrize("value", [float("nan"), 2.5, 10.0, True])
def test_solver_options_reject_integer_fields_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SolverOptions(**{name: value})


def test_solver_options_reject_a_negative_seed():
    # numpy's generator would fail later without naming the seed
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        SolverOptions(seed=-1)


def test_solver_options_accept_numpy_integers():
    opts = SolverOptions(max_iters=np.int64(5), seed=np.int32(3))
    assert opts.max_iters == 5 and opts.seed == 3


def test_solver_block_is_built_from_the_options():
    solver = CONFIG_SCHEMA["properties"]["solver"]
    names = [f.name for f in fields(SolverOptions)]
    assert names == ["tol_grad_inf", "max_iters", "seed"]
    assert solver["properties"] == {
        "tol_grad_inf": {"type": "number"},
        "max_iters": {"type": "integer"},
    }


# One value of each form in the table, all for n = 1 on a 2 pi box.
_PATH = {"terms": [{"trig": "cos", "freq": [1], "coeff": [0.5]}]}
_FORM_VALUES = {"path": _PATH, "matrix": [[2.0]], "paths": [_PATH]}


@pytest.mark.parametrize("kind", list(POTENTIAL_KEYS))
def test_each_kind_in_the_table_is_checked_alike_by_the_schema_and_the_builder(kind):
    grid = TorusGrid((TWO_PI,), (8,))
    keys = POTENTIAL_KEYS[kind]
    required = [key for key, (_, needed) in keys.items() if needed]
    every = {"kind": kind, "n": 1, **{key: _FORM_VALUES[form] for key, (form, _) in keys.items()}}
    least = {k: v for k, v in every.items() if k in ("kind", "n", *required)}
    config = {"grid": {"p": 1, "periods": [TWO_PI], "resolutions": [8]}, "scheme": "spectral"}
    for spec in (every, least):
        assert ours(dict(config, potential=spec)) is None
        assert potential_from_dict(spec, grid).potential.kind == kind
    for key in required:
        spec = {k: v for k, v in least.items() if k != key}
        assert ours(dict(config, potential=spec)) == (
            "$['potential']", f"{key!r} is a required property")
        with pytest.raises(ValueError, match=f"^potential kind {kind!r} requires {key!r}$"):
            potential_from_dict(spec, grid)


def _keywords(schema, found):
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key != "properties":
                found.add(key)
            _keywords(value if key != "properties" else list(value.values()), found)
    elif isinstance(schema, list):
        for item in schema:
            _keywords(item, found)
    return found


def test_the_schema_uses_only_the_keywords_the_check_interprets():
    interpreted = {"$schema", "type", "enum", "const", "required", "additionalProperties",
                   "properties", "items", "minimum", "oneOf"}
    assert _keywords(CONFIG_SCHEMA, set()) <= interpreted


def test_loading_a_config_does_not_import_jsonschema():
    code = (
        "import sys\n"
        "from torus_action.cli import load_config\n"
        f"load_config({str(CONFIGS / 'manufactured_2d.json')!r})\n"
        "print('jsonschema' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC), "PATH": ""}, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# fuzz: a mutated config loads or is rejected with a location, nothing else
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats(allow_nan=True)
    | st.text(max_size=6) | st.sampled_from(["cos", "sin", "spectral", "lbfgs", "kind"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "terms", "p", "x"]) | st.text(max_size=4),
                      inner, max_size=3),
    max_leaves=6,
)


def _containers(value, out):
    if isinstance(value, (dict, list)):
        out.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_configs_load_or_are_rejected_at_a_location(data):
    config = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    for _ in range(data.draw(st.integers(1, 3))):
        container = data.draw(st.sampled_from(_containers(config, [])))
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" or not keys:
            if isinstance(container, dict):
                container[data.draw(st.text(max_size=4))] = data.draw(JSON_VALUES)
            else:
                container.append(data.draw(JSON_VALUES))
            continue
        key = data.draw(st.sampled_from(keys))
        if action == "delete":
            del container[key]
        else:
            container[key] = data.draw(JSON_VALUES)
    path = write(config)
    try:
        loaded = load_config(path)
    except ValueError as exc:
        assert f"config {path} rejected at $" in str(exc)
    else:
        assert loaded == config or json.dumps(loaded) == json.dumps(config)
    finally:
        Path(path).unlink()
