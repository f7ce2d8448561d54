#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig11_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call builds `popk-perfbench`
(this directory's Cargo package) into `$CARGO_TARGET_DIR`, default
`.bench_build`. With `--trace 0` the run repeats untraced passes of the
workload, one process each, for `--seconds`, checks every output and
reports the end-to-end metrics; with `--trace 1` it makes one traced
run and reports the per-layer metrics. Human-readable lines come first;
the last line of standard output is the JSON result. `README.md` in
this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fig11_sweep", "rv32_sweep", "serve_mix", "char_studies"]


def log(msg):
    print(msg, flush=True)


def nproc():
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def build():
    """Build the pass binary; return its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return target / "release" / "popk-perfbench"


# A pass takes seconds; one still running after this is hung.
CALL_TIMEOUT_S = 120


def call(binary, args):
    """Run one benchmark process to completion; return its JSON output
    (None if it failed) and its (CPU seconds, peak RSS in KiB) from
    `wait4`. A process that outlives `CALL_TIMEOUT_S` is killed."""
    proc = subprocess.Popen([str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"  FAILED: {args[0]} exited {proc.returncode}")
        return None, None
    return json.loads(out), (usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def untraced(binary, workload, seed, seconds, work):
    threads = str(nproc())
    base = ["--workload", workload, "--threads", threads, "--dir", str(work)]
    plan = None
    if workload == "serve_mix":
        plan = benchlib.serve_plan(seed)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        base += ["--plan", str(plan_path)]
        log(f"serve plan (seed {seed}): budgets {plan['budgets']}, "
            f"{len(plan['keys'])} keys, classes {benchlib.plan_classes(plan)}")
        log("plan " + json.dumps(plan, separators=(",", ":")))
    # At least two passes, so a run never rests on one; then another
    # while a pass as long as the last still fits in `seconds`.
    passes, usages, crashed = [], [], 0
    start = time.monotonic()
    last = 0.0
    while len(passes) + crashed < 2 or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        out, usage = call(binary, ["pass"] + base)
        last = time.monotonic() - t
        if out is None:
            crashed += 1
            if crashed > 2 and not passes:
                break
            continue
        passes.append(out)
        usages.append(usage)
    if not passes:
        raise SystemExit("perfbench: no pass completed")

    attempted = sum(p["attempted"] for p in passes) + crashed
    errors = [e for p in passes for e in p["errors"]] + ["pass process failed"] * crashed
    refs = json.loads((HERE / "refs.json").read_text())
    if workload in refs:
        for p in passes:
            attempted += len(p["digests"])
            for i, (got, want) in enumerate(zip(p["digests"], refs[workload])):
                if got != want:
                    errors.append(f"output {i} digest {got}, reference {want}")
            if len(p["digests"]) != len(refs[workload]):
                errors.append("pass reported the wrong number of outputs")
    if plan is not None:
        expected, _ = call(binary, ["verify-serve", "--plan", str(work / "plan.json"),
                                    "--threads", threads, "--dir", str(work)])
        if expected is None:
            expected = {str(i): None for i in range(len(plan["keys"]))}
        for p in passes:
            served = p["extra"]["bodies"]
            attempted += len(expected)
            for k, d in expected.items():
                if served.get(k) != d:
                    errors.append(f"serve key {k}: body differs from a direct simulation")

    metrics = benchlib.aggregate(passes, usages)
    wall = sum(p["wall_s"] for p in passes)
    log(f"{workload} seed {seed}: {len(passes)} pass(es), {wall:.2f} s measured, "
        f"{nproc()} threads")
    report(workload, passes, metrics, attempted, len(errors))
    for e in errors[:20]:
        log(f"  FAILED: {e}")
    return metrics, attempted, len(errors)


def report(workload, passes, metrics, attempted, failed):
    """Print the workload-specific end-to-end metrics by name, unit and
    sample count, then the metrics of the result line."""
    wall = sum(p["wall_s"] for p in passes)
    minsts = sum(p["instructions"] for p in passes) / wall / 1e6
    n_setup = sum(len(p["setup_s"]) for p in passes)
    lines = [("setup_s", metrics["setup_s"], "s", f"median of {n_setup} set-ups")]
    if workload in ("fig11_sweep", "rv32_sweep"):
        lines.append(("sweep_minsts_per_s", minsts, "Minsts/s", f"{len(passes)} sweeps"))
    if workload == "char_studies":
        lines.append(("char_minsts_per_s", minsts, "Minsts/s", f"{len(passes)} passes"))
    lines.append(("cpu_s", metrics["cpu_s"], "s", f"median of {len(passes)} passes"))
    lines.append(("peak_rss_mb", metrics["peak_rss_mb"], "MiB", f"median of {len(passes)} passes"))
    if workload == "serve_mix":
        lines.append(("serve_req_per_s", metrics["ops_per_s"], "1/s",
                      f"{sum(p['ops'] for p in passes)} submits, "
                      f"{sum(p['extra']['late_followers'] for p in passes)} late followers"))
        for path in ("hit", "fresh", "attach"):
            t = benchlib.timing([v for p in passes for v in p["extra"][path]])
            if t["median"] is not None:
                lines.append((f"serve_{path}_ms_p50", t["median"], "ms", f"n={t['n']}"))
            if "tail" in t:
                lines.append((f"serve_{path}_ms_p{t['p']:g}", t["tail"], "ms", f"n={t['n']}"))
    lines.append(("failed_ratio", benchlib.failed_ratio(attempted, failed), "ratio",
                  f"{failed}/{attempted}"))
    for name in ("ops_per_s", "wait_ms_p50"):
        n = sum(len(p["waits_ms"]) for p in passes)
        lines.append((name, metrics[name], "1/s" if name == "ops_per_s" else "ms",
                      f"result-line metric, n={n}"))
    for name, value, unit, note in lines:
        log(f"  {name:<22} {value:>12.6g} {unit:<9} ({note})")


def traced(binary, workload, seed, work, spec):
    threads = str(nproc())
    plan = benchlib.serve_plan(seed, "full" if workload == "serve_mix" else "small")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    log(f"serve plan (seed {seed}, {plan['scale']}): budgets {plan['budgets']}, "
        f"classes {benchlib.plan_classes(plan)}")
    log("plan " + json.dumps(plan, separators=(",", ":")))
    spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
    out, _ = call(binary, ["trace", "--workload", workload, "--threads", threads,
                           "--dir", str(work), "--plan", str(plan_path),
                           "--spans", str(spans)])
    if out is None:
        raise SystemExit("perfbench: traced run failed")
    log(f"{workload} seed {seed}: traced run, spans in {spans.relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = list(out["errors"])
    for name in units:
        if name not in out["metrics"]:
            errors.append(f"traced run did not report {name}")
    for name, value in out["metrics"].items():
        n = out["samples"].get(name)
        note = f" (n={n})" if n is not None else ""
        log(f"  {name:<38} {value:>14.6g} {units.get(name, '?')}{note}")
    log("  self time by span layer (ms):")
    for layer, ns in out["self_ns"].items():
        log(f"    {layer:<30} {ns / 1e6:>12.3f}")
    for e in errors[:20]:
        log(f"  FAILED: {e}")
    metrics = {k: v for k, v in out["metrics"].items() if k in units}
    return metrics, out["attempted"], len(errors)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="a workload, or `all` to run the four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    results = {}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        results[workload] = run_one(binary, workload, args, spec)
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last), flush=True)


def run_one(binary, workload, args, spec):
    """One run of one workload; returns its result object."""
    work = ROOT / ".bench_out" / f"work-{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced(binary, workload, args.seed, work, spec)
            declared = spec["per_layer"]
        else:
            metrics, attempted, failed = untraced(
                binary, workload, args.seed, args.seconds, work)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }


if __name__ == "__main__":
    main()
