"""Command-line front end: JSON config in, deterministic report and dumps out.

Exit codes: 0 for converged or solvable outcomes, 2 for expected negative
outcomes (diverged, not solvable, audit over threshold), 1 for errors of any
kind (bad config, bad dimensions, failed factorization).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .certify import certify, wirtinger_audit, wirtinger_constant
from .grid import Field, build_grid
from .minimize import SolveStatus, SolverOptions, solve
from .operators import DiffOperator
from .oracle import assemble_quadratic_system, dense_solve
from .potentials import check_gradient, potential_from_dict

COMMANDS = ("solve", "certify", "check-grad", "wirtinger", "oracle-compare")

_PATH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["terms"],
    "properties": {
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["trig", "freq", "coeff"],
                "properties": {
                    "trig": {"enum": ["cos", "sin"]},
                    "freq": {"type": "array", "items": {"type": "integer"}},
                    "coeff": {"type": "array", "items": {"type": "number"}},
                },
            },
        }
    },
}

_POTENTIAL_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n"],
            "properties": {
                "kind": {"const": "quadratic_shift"},
                "n": {"type": "integer", "minimum": 1},
                "shift": _PATH_SCHEMA,
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n", "drift"],
            "properties": {
                "kind": {"const": "linear_drift"},
                "n": {"type": "integer", "minimum": 1},
                "drift": _PATH_SCHEMA,
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n", "matrix"],
            "properties": {
                "kind": {"const": "quadratic_form"},
                "n": {"type": "integer", "minimum": 1},
                "matrix": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "drift": _PATH_SCHEMA,
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n"],
            "properties": {
                "kind": {"const": "log_sum_exp"},
                "n": {"type": "integer", "minimum": 1},
                "directions": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "offsets": {"type": "array", "items": _PATH_SCHEMA},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "n", "target"],
            "properties": {
                "kind": {"const": "manufactured"},
                "n": {"type": "integer", "minimum": 1},
                "target": _PATH_SCHEMA,
            },
        },
    ]
}

# The solver block holds SolverOptions' fields, bar the seed, which is a
# top-level key; SolverOptions itself checks their values.
_SOLVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        f.name: {"type": {"int": "integer", "float": "number"}[f.type]}
        for f in dataclasses.fields(SolverOptions)
        if f.name != "seed"
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "scheme", "potential"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["p", "periods", "resolutions"],
            "properties": {
                "p": {"type": "integer"},
                "periods": {"type": "array", "items": {"type": "number"}},
                "resolutions": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "scheme": {"enum": ["spectral", "fd2"]},
        "potential": _POTENTIAL_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "field_dump": {"type": "boolean"},
                "trace": {"type": "boolean"},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _is_type(instance, name: str) -> bool:
    if isinstance(instance, bool):  # a subclass of int, but not a JSON number
        return name == "boolean"
    return isinstance(instance, _JSON_TYPES[name])


def _schema_errors(instance, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way ``instance`` breaks ``schema``.

    Interprets the keywords CONFIG_SCHEMA uses, with jsonschema's messages:
    type, enum, const, required, additionalProperties (false), properties,
    items, minimum and oneOf.  ``integer`` means a JSON integer, so 10.0 is
    not one, and no bool passes for a number.  A oneOf of objects told apart
    by a ``kind`` const takes the branch that ``kind`` names, so an error
    inside it is reported where it is.
    """
    if "oneOf" in schema:
        branches = {b["properties"]["kind"]["const"]: b for b in schema["oneOf"]}
        if not isinstance(instance, dict):
            yield path, f"{instance!r} is not of type 'object'"
        elif "kind" not in instance:
            yield path, "'kind' is a required property"
        elif not isinstance(instance["kind"], str) or instance["kind"] not in branches:
            yield path + ("kind",), f"{instance['kind']!r} is not one of {list(branches)!r}"
        else:
            yield from _schema_errors(instance, branches[instance["kind"]], path)
        return
    if "type" in schema and not _is_type(instance, schema["type"]):
        # the other keywords here do not apply to a value of another type
        yield path, f"{instance!r} is not of type {schema['type']!r}"
        return
    if "enum" in schema and instance not in schema["enum"]:
        yield path, f"{instance!r} is not one of {schema['enum']!r}"
    if "const" in schema and instance != schema["const"]:
        yield path, f"{schema['const']!r} was expected"
    if "minimum" in schema and instance < schema["minimum"]:
        yield path, f"{instance!r} is less than the minimum of {schema['minimum']!r}"
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in instance:
                yield path, f"{name!r} is a required property"
        for name, sub in properties.items():
            if name in instance:
                yield from _schema_errors(instance[name], sub, path + (name,))
        extras = sorted(k for k in instance if k not in properties)
        if schema.get("additionalProperties") is False and extras:
            verb = "was" if len(extras) == 1 else "were"
            listed = ", ".join(repr(k) for k in extras)
            yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            yield from _schema_errors(item, schema["items"], path + (index,))


def load_config(path) -> dict:
    """Parse and schema-validate a JSON config, with located diagnostics.

    Of several errors the least deep is reported, as jsonschema's best match
    does.
    """
    text = Path(path).read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    errors = list(_schema_errors(config, CONFIG_SCHEMA))
    if errors:
        at, message = min(errors, key=lambda error: len(error[0]))
        where = "$" + "".join(f"[{k!r}]" for k in at)
        raise ValueError(f"config {path} rejected at {where}: {message}")
    return config


def dump_field(u: Field, path) -> None:
    """Write a field as a one-line text header plus little-endian float64 values."""
    grid = u.grid
    header = (
        "TORUSFIELD v1"
        f" p={grid.p}"
        f" n={u.n}"
        f" N={','.join(str(N) for N in grid.resolutions)}"
        f" T={','.join(repr(T) for T in grid.periods)}"
        " layout=node-major\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_field(path) -> Field:
    """Read a field dump back; reconstructs the grid from the header."""
    with open(path, "rb") as fh:
        raw = fh.readline()
        payload = fh.read()
    header = raw.decode("ascii").strip()
    parts = header.split()
    if parts[:2] != ["TORUSFIELD", "v1"]:
        raise ValueError(f"not a TORUSFIELD v1 dump: header {header!r}")
    fields = dict(part.split("=", 1) for part in parts[2:])
    if fields.get("layout") != "node-major":
        raise ValueError(f"unsupported layout {fields.get('layout')!r}")
    p = int(fields["p"])
    n = int(fields["n"])
    resolutions = tuple(int(N) for N in fields["N"].split(","))
    periods = tuple(float(T) for T in fields["T"].split(","))
    grid = build_grid(p, periods, resolutions)
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != grid.node_count * n:
        raise ValueError(
            f"dump holds {values.size} values, expected {grid.node_count * n}"
        )
    return Field(grid, values.astype(float), n=n)


def write_trace(trace: np.ndarray, path) -> None:
    lines = ["iter,action,grad_inf,mean_norm,fluct_h1"]
    for i, row in enumerate(np.asarray(trace, dtype=float)):
        lines.append(f"{i}," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_report(report: dict, path) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    )


def _certificate_dict(cert) -> dict:
    return {
        "stationary_mean": None
        if cert.stationary_mean is None
        else list(cert.stationary_mean),
        "grad_norm": cert.grad_norm,
        "coercivity": cert.coercivity.value,
        "wirtinger_constant": cert.wirtinger_constant,
        "verdict": cert.verdict.value,
        "notes": list(cert.notes),
        "escape_ray": None if cert.escape_ray is None else list(cert.escape_ray),
    }


def run(
    config_path,
    command: str | None = None,
    out_dir=None,
    seed: int | None = None,
) -> int:
    """Execute one config end to end; returns the process exit code."""
    started = time.perf_counter()
    config = load_config(config_path)

    config_command = config.get("command")
    if command is None:
        command = config_command or "solve"
    elif config_command is not None and config_command != command:
        raise ValueError(
            f"config requests command {config_command!r} but {command!r} was invoked"
        )
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")

    if seed is None:
        seed = int(config.get("seed", 0))

    grid_spec = config["grid"]
    grid = build_grid(
        grid_spec["p"], grid_spec["periods"], grid_spec["resolutions"]
    )
    op = DiffOperator(grid, config["scheme"])
    bundle = potential_from_dict(config["potential"], grid)
    pot = bundle.potential
    if command == "solve":
        try:
            opts = SolverOptions(**config.get("solver", {}), seed=seed)
        except ValueError as exc:
            raise ValueError(f"config {config_path} rejected at $['solver']: {exc}") from exc
    elif command == "oracle-compare" and (bundle.quad_matrix is None or bundle.quad_drift is None):
        raise ValueError(
            f"potential kind {pot.kind!r} has no quadratic structure; "
            "oracle-compare needs quadratic_shift, quadratic_form, or manufactured"
        )

    outputs = config.get("outputs", {})
    directory = Path(out_dir) if out_dir is not None else Path(outputs.get("directory", "out"))

    report = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
    }
    exit_code = 0

    if command == "solve":
        result = solve(grid, pot, op, opts)
        report.update(
            {
                "status": result.status.value,
                "iterations": result.iterations,
                "action": {
                    "kinetic": result.action.kinetic,
                    "potential_part": result.action.potential_part,
                    "total": result.action.total,
                    "grad_inf_norm": result.action.grad_inf_norm,
                },
                "residual_inf": result.residual_inf,
                "residual_l2": result.residual_l2,
                "mean": list(result.mean),
                "fluctuation_h1_norm": result.fluctuation_h1_norm,
                "line_search_failed": result.line_search_failed,
                "message": result.message,
            }
        )
        if bundle.exact is not None:
            report["exact_max_error"] = float(
                np.abs(result.u.values - bundle.exact.values).max()
            )
        if result.status is SolveStatus.DIVERGED_NON_COERCIVE:
            cert = certify(grid, pot, op)
            report["certificate"] = _certificate_dict(cert)
        exit_code = 0 if result.status is SolveStatus.CONVERGED else 2

    elif command == "certify":
        cert = certify(grid, pot, op)
        report["certificate"] = _certificate_dict(cert)
        exit_code = 0 if cert.verdict.value == "solvable" else 2

    elif command == "check-grad":
        worst = check_gradient(pot, samples=200, seed=seed)
        threshold = 1e-5
        report.update(
            {
                "max_relative_error": worst,
                "samples": 200,
                "threshold": threshold,
                "passed": bool(worst <= threshold),
            }
        )
        exit_code = 0 if worst <= threshold else 2

    elif command == "wirtinger":
        constant = wirtinger_constant(op)
        audit = wirtinger_audit(op, trials=100, seed=seed)
        bound = constant * (1.0 + 1e-10)
        report.update(
            {
                "constant": constant,
                "audit_max_ratio": audit,
                "trials": 100,
                "passed": bool(audit <= bound),
            }
        )
        exit_code = 0 if audit <= bound else 2

    elif command == "oracle-compare":
        g_field = Field(grid, bundle.quad_drift(grid.coords()))
        system = assemble_quadratic_system(grid, op, bundle.quad_matrix, g_field)
        dense = dense_solve(system)
        opts = SolverOptions(seed=seed, tol_grad_inf=1e-10)
        result = solve(grid, pot, op, opts)
        gap = float(np.abs(dense.values - result.u.values).max())
        threshold = 1e-8
        report.update(
            {
                "max_abs_gap": gap,
                "dense_unknowns": grid.node_count * pot.n,
                "solver_status": result.status.value,
                "threshold": threshold,
                "passed": bool(gap <= threshold),
            }
        )
        exit_code = 0 if gap <= threshold else 2

    # created only once every step has run, so a failure leaves none
    directory.mkdir(parents=True, exist_ok=True)
    if command == "solve":
        if outputs.get("field_dump", True):
            dump_field(result.u, directory / "field.bin")
        if outputs.get("trace", True):
            write_trace(result.trace, directory / "trace.csv")
    report["wall_time_s"] = time.perf_counter() - started
    write_report(report, directory / "report.json")
    return exit_code


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torus-action",
        description="Multi-periodic Poisson-gradient solver and certification tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "minimize the action and report the field"),
        ("certify", "decide solvability without running the field solver"),
        ("check-grad", "audit the potential gradient by central differences"),
        ("wirtinger", "report the mean-zero Poincare constant and audit it"),
        ("oracle-compare", "cross-check the minimizer against a dense solve"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=_seed, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        return run(args.config, command=args.command, out_dir=args.out, seed=args.seed)
    except Exception as exc:
        print(f"torus-action: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
