"""Bit-identity check: one sha256 per benchmark case and per CLI run.

Run from the root of a checkout:

    python3 tools/bitcheck.py [--root CHECKOUT] > hashes.txt

``--root`` names the checkout whose package, benchmark cases and shipped
configs are hashed; it defaults to the checkout that holds this script, so
one copy of the script serves any older checkout too.  Each line is a label
and a sha256:

- ``case <workload>/<seed>/<name>`` for each case of the ``ladder``,
  ``large-grid`` and ``cli`` workloads at seeds 1 and 2, built as the
  benchmark builds it.  The hash covers ``solve``, the Newton-Krylov polish
  of its result at 1e-10 and at 1e-12, and ``certify``;
- ``cli <config>/<command>`` for each shipped config under each of the five
  commands, run through ``torus_action.cli.run``.  The hash covers the exit
  code, ``report.json`` without ``wall_time_s``, ``field.bin`` and
  ``trace.csv``.

A step that raises is hashed as its exception's type and message.  Two
trees give the same bits exactly when their outputs are equal line by line.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# the benchmark's thread pinning, set before numpy is imported
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("ladder", "large-grid", "cli")
SEEDS = (1, 2)
POLISH_TOLS = (1e-10, 1e-12)
COMMANDS = ("solve", "certify", "check-grad", "wirtinger", "oracle-compare")


def encode(value, out: list) -> None:
    """Append a canonical byte form of ``value`` to ``out``.

    Dataclasses give their public fields by name, so bookkeeping held in
    private fields does not enter; arrays give their dtype, shape and bytes;
    floats their exact hex form.
    """
    import numpy as np
    from torus_action import Field

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(f"<{type(value).__name__}>".encode())
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                out.append(f.name.encode())
                encode(getattr(value, f.name), out)
    elif isinstance(value, enum.Enum):
        out.append(f"enum:{value.value}".encode())
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        out.append(f"array:{array.dtype.str}:{array.shape}".encode())
        out.append(array.tobytes())
    elif isinstance(value, (bool, np.bool_)):
        out.append(f"bool:{bool(value)}".encode())
    elif isinstance(value, (float, np.floating)):
        out.append(f"float:{float(value).hex()}".encode())
    elif isinstance(value, (int, np.integer)):
        out.append(f"int:{int(value)}".encode())
    elif isinstance(value, (tuple, list)):
        out.append(f"seq:{len(value)}".encode())
        for item in value:
            encode(item, out)
    elif isinstance(value, dict):
        out.append(f"dict:{len(value)}".encode())
        for key in sorted(value):
            out.append(str(key).encode())
            encode(value[key], out)
    elif isinstance(value, Field):
        encode(value.values, out)
    else:
        out.append(f"{type(value).__name__}:{value!r}".encode())


def attempt(step, out: list, *args, **kwargs):
    """``step(*args, **kwargs)``, encoded into ``out``; None if it raised."""
    try:
        value = step(*args, **kwargs)
    except Exception as exc:  # a raise is an outcome to compare, not a failure
        out.append(f"raised:{type(exc).__name__}:{exc}".encode())
        return None
    encode(value, out)
    return value


def case_hash(item, ta) -> str:
    """solve, its polish at each of POLISH_TOLS, and certify, on one built case."""
    grid, op, pot = item["grid"], item["op"], item["pot"]
    opts = item.get("opts") or ta.SolverOptions(**item["config"].get("solver", {}))
    out = []
    result = attempt(ta.solve, out, grid, pot, op, opts, init=item.get("init"))
    for tol in POLISH_TOLS:
        out.append(f"polish:{tol!r}".encode())
        if result is not None:
            attempt(ta.newton_krylov_refine, out, result, pot, op, tol=tol)
    out.append(b"certify")
    attempt(ta.certify, out, grid, pot, op)
    return hashlib.sha256(b"\0".join(out)).hexdigest()


def cli_hash(cli, config: Path, command: str, directory: Path) -> str:
    """Exit code, report.json minus wall_time_s, field.bin and trace.csv."""
    out = []
    try:
        out.append(f"exit:{cli.run(str(config), command, out_dir=directory)}".encode())
    except Exception as exc:
        out.append(f"raised:{type(exc).__name__}:{exc}".encode())
    for name in ("report.json", "field.bin", "trace.csv"):
        path = directory / name
        if not path.exists():
            out.append(f"{name}:absent".encode())
        elif name == "report.json":
            report = json.loads(path.read_text())
            report.pop("wall_time_s", None)
            out.append(json.dumps(report, sort_keys=True).encode())
        else:
            out.append(path.read_bytes())
    return hashlib.sha256(b"\0".join(out)).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to hash (default: this script's)")
    root = parser.parse_args(argv).root.resolve()
    os.environ.update(dict.fromkeys(PINNED, "1"))
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import bench_cases
    import torus_action as ta
    import torus_action.cli as cli
    from worker import build

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for workload in WORKLOADS:
            for seed in SEEDS:
                cases = bench_cases.make_cases(workload, seed, root=root)
                bench_cases.write_configs(cases, scratch / f"{workload}-{seed}")
                built, _ = build(cases)
                for item in built:
                    label = f"case {workload}/{seed}/{item['case']['name']}"
                    print(label, case_hash(item, ta), flush=True)
        for config in sorted((root / "configs").glob("*.json")):
            for command in COMMANDS:
                directory = scratch / "cli" / f"{config.stem}-{command}"
                print(f"cli {config.stem}/{command}", cli_hash(cli, config, command, directory),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
