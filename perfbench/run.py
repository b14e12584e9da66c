"""Benchmark of torus-action: the ladder, large-grid and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads, the metrics and reference figures.

Every child process runs alone, with BLAS and OpenMP pinned to one thread.
This process never imports the package, and imports numpy only after the
set-up samples, to check cli outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_cases  # noqa: E402  (after the thread pinning, on purpose)

WORKLOADS = ("ladder", "large-grid", "cli")
SETUP_SAMPLES = 3  # fresh-interpreter set-ups per run, besides the worker's own
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv):
    """Run one child to its end; returns (exit code, stdout, stderr)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {' '.join(argv)}")
    return proc.returncode, out or "", err or ""


def run_timed_child(argv, stderr_path):
    """Run one child alone and time it from spawn to reaping; also its peak RSS."""
    with open(stderr_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if elapsed >= CHILD_TIMEOUT:
        raise BenchError(f"child timed out: {' '.join(argv)}")
    return proc.returncode, elapsed, usage.ru_maxrss


def last_json(text, what):
    lines = [line for line in text.strip().splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def setup_samples(cases_file, count):
    """Timed set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        code, out, err = run_child([sys.executable, str(HERE / "worker.py"), "setup",
                                    "--cases", str(cases_file)])
        if code != 0:
            raise BenchError(f"set-up failed: {err.strip()[-2000:]}")
        samples.append(last_json(out, "set-up"))
    return samples


def roundtrip_seconds(seed):
    code, out, err = run_child([sys.executable, str(HERE / "worker.py"), "roundtrip",
                                "--seed", str(seed)])
    if code != 0:
        raise BenchError(f"roundtrip failed: {err.strip()[-2000:]}")
    return last_json(out, "roundtrip")["roundtrip_s"]


def in_process(args, cases_file, out_dir):
    argv = [sys.executable, str(HERE / "worker.py"), "run", "--cases", str(cases_file),
            "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out_dir), "--root", str(ROOT)]
    code, out, err = run_child(argv)
    if code != 0:
        raise BenchError(f"workload run failed: {err.strip()[-2000:]}")
    res = last_json(out, "workload run")
    cases = len(res["case_times"][0])
    return {
        "setup": [res["setup"]],
        "passes": res["passes"],
        "case_times": res["case_times"],
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "attempted": cases * len(res["passes"]),
        "failed": res["failed_per_pass"] * len(res["passes"]),
        "errors": res["errors"],
        "traced_passes": res.get("traced_passes", []),
        "layer_totals": res.get("layer_totals", []),
    }


def cli_argv(case, case_dir, traced):
    args = [case["command"], "--config", str(case["path"]), "--out", str(case_dir)]
    if traced:
        return [sys.executable, str(HERE / "worker.py"), "cli-trace",
                "--spans", str(case_dir / "spans.json"), "--"] + args
    return [sys.executable, "-m", "torus_action.cli"] + args


def cli_pass(cases, out_dir, traced=False):
    """Each case in a fresh process, one at a time; returns times and outcomes.

    The pass time is the sum of the processes' times, from spawn to reaping,
    so the checks made between them do not count.
    """
    times, outcomes, rss = [], [], []
    for case in cases:
        case_dir = out_dir / case["name"]
        if case_dir.exists():
            shutil.rmtree(case_dir)
        case_dir.mkdir(parents=True)
        code, elapsed, maxrss = run_timed_child(cli_argv(case, case_dir, traced),
                                                case_dir / "stderr.txt")
        times.append(elapsed)
        rss.append(maxrss)
        outcomes.append(check_cli_case(case, case_dir, code))
    return sum(times), times, outcomes, rss


def check_cli_case(case, case_dir, code):
    """(failed, errors) of one CLI run, checked against theory."""
    import bench_checks

    config = json.loads(Path(case["path"]).read_text())
    stderr = (case_dir / "stderr.txt").read_text()
    report_path = case_dir / "report.json"
    if code == 1 or not report_path.exists():
        return True, [f"exit {code}: {stderr.strip()[-300:]}"]
    report = json.loads(report_path.read_text())
    command = case["command"]
    if command == "certify":
        errors = bench_checks.check_certificate(config, code, report)
    elif command == "check-grad":
        errors = bench_checks.check_gradient_audit(code, report)
    elif command == "wirtinger":
        errors = bench_checks.check_wirtinger(config, code, report)
    elif command == "oracle-compare":
        errors = bench_checks.check_oracle(config, code, report)
    else:
        errors = check_cli_solve(config, case_dir, code, report)
    return bool(errors), errors


def check_cli_solve(config, case_dir, code, report):
    import bench_checks

    outputs = config.get("outputs", {})
    status = report.get("status")
    errors = []
    want_code = 0 if status == "converged" else 2
    if code != want_code:
        errors.append(f"exit {code} with status {status}")
    if outputs.get("field_dump", True):
        raw = (case_dir / "field.bin").read_bytes()
        errors += bench_checks.check_field_file(config, raw)
        if not errors:
            u = bench_checks.field_values(config, raw)
            errors += bench_checks.check_solution(config, status, u)
    if outputs.get("trace", True):
        errors += bench_checks.check_trace((case_dir / "trace.csv").read_text(),
                                           int(report.get("iterations", -1)))
    if status == "diverged_non_coercive":
        errors += bench_checks.check_certificate(
            dict(config, command="certify"), 2, report)
    return errors


def cli_workload(args, cases, out_dir):
    # Warm-up: the first case of each command, untimed (the set-up samples
    # have already imported the package in fresh processes).  Then passes
    # until the next would overrun the budget.
    firsts = {}
    for case in cases:
        firsts.setdefault(case["command"], case)
    cli_pass(list(firsts.values()), out_dir)
    result = {"passes": [], "case_times": [], "rss": [], "attempted": 0, "failed": 0,
              "errors": [], "traced_passes": [], "layer_totals": []}

    def passes(budget, traced):
        started = time.perf_counter()
        done = []
        while True:
            dt, times, outcomes, rss = cli_pass(cases, out_dir, traced)
            done.append(dt)
            if traced:
                result["traced_passes"].append(dt)
                result["layer_totals"].append(cli_layer_totals(cases, out_dir))
            else:
                result["passes"].append(dt)
                result["case_times"].append(times)
                result["rss"].extend(rss)
                result["attempted"] += len(cases)
                for case, (failed, errors) in zip(cases, outcomes):
                    result["failed"] += failed
                    if errors and not case["fault"]:
                        result["errors"] += [f"{case['name']}: {e}" for e in errors]
            if time.perf_counter() - started + statistics.median(done) > budget:
                return

    passes(args.seconds / 2 if args.trace else args.seconds, traced=False)
    if args.trace:
        passes(args.seconds / 2, traced=True)
    result["peak_rss_mb"] = max(result["rss"]) / 1024.0
    return result


def cli_layer_totals(cases, out_dir):
    import bench_trace

    total = {}
    for case in cases:
        path = out_dir / case["name"] / "spans.totals.json"
        total = bench_trace.add_totals(total, json.loads(path.read_text())["totals"])
    return total


def median_dict(rows, key):
    return statistics.median(r[key] for r in rows)


def case_means(case_times):
    """Each case's mean time over the passes; case_times is per pass.

    The host's speed switches between a fast and a slow state for seconds
    at a time, so a short case's times form two clusters, and their median
    jumps from one to the other as the share of fast time in a run crosses
    one half.  A mean moves with that share in proportion.  (A minimum
    suits cases of milliseconds but spreads more on cases of seconds.)
    """
    return [statistics.fmean(times) for times in zip(*case_times)]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torus_action" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'torus_action'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / args.workload
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)

    cases = bench_cases.make_cases(args.workload, args.seed, ROOT)
    bench_cases.write_configs(cases, out_dir / "configs")
    cases_file = out_dir / "cases.json"
    cases_file.write_text(json.dumps(cases, indent=1))

    try:
        # The cli workload has no worker of its own to add a set-up sample.
        setups = setup_samples(cases_file, SETUP_SAMPLES + (args.workload == "cli"))
        if args.workload == "cli":
            res = cli_workload(args, cases, out_dir)
        else:
            res = in_process(args, cases_file, out_dir)
            setups += res["setup"]
        metrics = (layer_metrics(args, setups, res) if args.trace
                   else end_to_end(setups, res))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for i, case in enumerate(cases):
        times = [p[i] for p in res["case_times"]]
        print(f"case {case['name']}: min {min(times):.4f} s, mean {statistics.fmean(times):.4f} s",
              file=sys.stderr)
    for message in res["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not res["errors"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


def end_to_end(setups, res):
    return {
        "setup_s": {"value": median_dict(setups, "setup_s"), "unit": "s"},
        "pass_s": {"value": statistics.fmean(res["passes"]), "unit": "s"},
        "case_s.p50": {"value": statistics.median(case_means(res["case_times"])), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def layer_metrics(args, setups, res):
    import bench_trace

    per_pass = [bench_trace.layer_metrics(t) for t in res["layer_totals"]]
    metrics = {
        "cli.import_s": {"value": median_dict(setups, "import_s"), "unit": "s"},
        "cli.load_config_s": {"value": median_dict(setups, "load_config_s"), "unit": "s"},
    }
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
    metrics["operators.roundtrip_s"] = {"value": roundtrip_seconds(args.seed), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.fmean(res["traced_passes"]) - statistics.fmean(res["passes"]),
        "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
