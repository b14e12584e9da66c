"""Child processes of the benchmark; run.py starts them one at a time.

    worker.py setup --cases FILE
        Fresh-interpreter set-up: import the package, load every case's
        config and build its grid, operator and potential.  Prints the
        set-up, import and load_config times as JSON.
    worker.py run --cases FILE --workload W --seconds S --trace 0|1 --out DIR
        Set-up as above, a warm-up pass, then timed passes over the cases of
        an in-process workload (ladder or large-grid).  With --trace 1 the
        second half of the passes runs traced.
    worker.py roundtrip --seed N
        One laplacian call on each large-grid field, timed alone.
    worker.py cli-trace --spans FILE -- ARGS...
        The command-line program under the tracer; writes its spans to FILE.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def build(cases):
    """Build every case's objects the way the CLI does before its command."""
    import torus_action as ta
    import torus_action.cli as cli

    load_s = 0.0
    built = []
    for case in cases:
        started = time.perf_counter()
        config = cli.load_config(case["path"])
        load_s += time.perf_counter() - started
        g = config["grid"]
        grid = ta.build_grid(g["p"], g["periods"], g["resolutions"])
        op = ta.DiffOperator(grid, config["scheme"])
        pot = ta.potential_from_dict(config["potential"], grid).potential
        item = {"case": case, "config": config, "grid": grid, "op": op, "pot": pot}
        if "init_sign" in case:
            opts = ta.SolverOptions(**config.get("solver", {}))
            item["opts"] = opts
            item["init"] = case["init_sign"] * ta.default_init(grid, pot.n, opts)
        built.append(item)
    return built, load_s


def timed_setup(cases):
    """Import and build in this fresh interpreter; returns timings and objects."""
    started = time.perf_counter()
    import torus_action.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    built, load_s = build(cases)
    done = time.perf_counter()
    return {"setup_s": done - started, "import_s": imported - started,
            "load_config_s": load_s}, built


def _check_source(root):
    import torus_action

    src = (root / "src").resolve()
    if src not in Path(torus_action.__file__).resolve().parents:
        raise SystemExit(f"torus_action was imported from {torus_action.__file__}, not {src}")


def run_case(item, workload, polish_tol):
    import torus_action as ta

    result = ta.solve(item["grid"], item["pot"], item["op"], item["opts"], init=item["init"])
    if workload == "large-grid":
        result = ta.newton_krylov_refine(result, item["pot"], item["op"], tol=polish_tol)
    return result.status.value, result.u.values


def one_pass(built, workload, polish_tol):
    """Run every case once; returns the pass time, case times and outputs."""
    times, outputs = [], []
    started = time.perf_counter()
    for item in built:
        t0 = time.perf_counter()
        try:
            outputs.append(run_case(item, workload, polish_tol))
        except Exception as exc:  # a failed operation; recorded, not fatal
            outputs.append((f"raised {type(exc).__name__}: {exc}", None))
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - started, times, outputs


def timed_passes(built, workload, polish_tol, seconds, reference):
    """Passes until the next one would overrun ``seconds``, at least two."""
    import numpy as np

    passes, case_times, mismatches = [], [], 0
    started = time.perf_counter()
    while True:
        dt, times, outputs = one_pass(built, workload, polish_tol)
        passes.append(dt)
        case_times.append(times)
        for (status, u), (ref_status, ref_u) in zip(outputs, reference):
            same = status == ref_status and (
                u is None and ref_u is None
                or u is not None and ref_u is not None and np.array_equal(u, ref_u))
            mismatches += not same
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + statistics.median(passes) > seconds:
            return passes, case_times, mismatches


def run_workload(args):
    import bench_cases

    cases = json.loads(Path(args.cases).read_text())
    timing, built = timed_setup(cases)
    _check_source(Path(args.root))
    import bench_checks

    workload = args.workload
    polish_tol = bench_cases.LARGE_POLISH_TOL

    _, _, reference = one_pass(built, workload, polish_tol)  # warm-up pass
    half = args.seconds / 2 if args.trace else args.seconds
    passes, case_times, mismatches = timed_passes(built, workload, polish_tol, half, reference)
    out = {"setup": timing, "passes": passes, "case_times": case_times,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
        built, _ = build(cases)  # rebuilt so the new potentials are traced
        tracer.take()
        traced, layers, spans = [], [], []
        started = time.perf_counter()
        while True:
            dt, _, outputs = one_pass(built, workload, polish_tol)
            batch, counts = tracer.take()
            spans.append(batch)
            traced.append(dt)
            layers.append(bench_trace.layer_totals(batch, counts))
            if time.perf_counter() - started + statistics.median(traced) > half:
                break
        out.update({"traced_passes": traced, "layer_totals": layers})
        _write_spans(Path(args.out) / "spans.json", spans)

    errors, failed = [], 0
    for item, (status, u) in zip(built, reference):
        case = item["case"]
        if u is None:
            problems = [status]
        else:
            tol = polish_tol if workload == "large-grid" else None
            problems = bench_checks.check_solution(item["config"], status, u, tol)
        if problems:
            failed += 1
            if not case["fault"]:
                errors += [f"{case['name']}: {p}" for p in problems]
    if mismatches:
        errors.append(f"{mismatches} outputs differ between passes")
    out.update({"failed_per_pass": failed, "errors": errors})
    print(json.dumps(out))


def _write_spans(path, batches):
    names = {}
    rows = []
    for number, batch in enumerate(batches):
        for name, start, end, parent in batch:
            rows.append([number, names.setdefault(name, len(names)), start, end, parent])
    path.write_text(json.dumps({"columns": ["pass", "name", "start", "end", "parent"],
                                "names": list(names), "spans": rows}))


def roundtrip(args):
    """Sum over the large-grid fields of one laplacian call, median of nine."""
    import bench_cases
    import numpy as np
    import torus_action as ta

    total = 0.0
    for case in bench_cases.make_cases("large-grid", args.seed):
        config = case["config"]
        g = config["grid"]
        grid = ta.build_grid(g["p"], g["periods"], g["resolutions"])
        op = ta.DiffOperator(grid, config["scheme"])
        u = ta.Field(grid, np.random.default_rng(args.seed).normal(
            size=grid.shape + (config["potential"]["n"],)))
        ta.laplacian(op, u)
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            ta.laplacian(op, u)
            samples.append(time.perf_counter() - t0)
        total += statistics.median(samples)
    print(json.dumps({"roundtrip_s": total}))


def cli_trace(args):
    started = time.perf_counter()
    import torus_action.cli as cli

    import_s = time.perf_counter() - started
    import bench_trace

    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        code = cli.main(args.argv)
    finally:
        spans, counts = tracer.take()
        totals = bench_trace.layer_totals(spans, counts)
        _write_spans(Path(args.spans), [spans])
        Path(args.spans).with_suffix(".totals.json").write_text(
            json.dumps({"import_s": import_s, "totals": totals}))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--cases", required=True)
    run = sub.add_parser("run")
    run.add_argument("--cases", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out", required=True)
    run.add_argument("--root", required=True)
    rt = sub.add_parser("roundtrip")
    rt.add_argument("--seed", type=int, required=True)
    tr = sub.add_parser("cli-trace")
    tr.add_argument("--spans", required=True)
    tr.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        cases = json.loads(Path(args.cases).read_text())
        timing, _ = timed_setup(cases)
        print(json.dumps(timing))
    elif args.mode == "run":
        run_workload(args)
    elif args.mode == "roundtrip":
        roundtrip(args)
    else:
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli_trace(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
