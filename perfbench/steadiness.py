#!/usr/bin/env python3
"""Steadiness report over repeated runs of the benchmark.

    python3 perfbench/steadiness.py --runs 10 --out .bench_out/steady-a
    python3 perfbench/steadiness.py --out .bench_out/steady-a --compare .bench_out/steady-b

With `--runs N` it first runs `run.py` N times per workload (seeds 1..N,
or from `--first-seed`), saving each result line as
`<out>/<workload>-<seed>.json`. It then prints, for each workload and
end-to-end metric in `<out>`, the sample count, median, quartiles and
the spread (q3 - q1) / median against the metric's bound, flagging a
spread above the bound and noting one above a third of it. With
`--compare DIR`, DIR holds an earlier set of runs: the report also
prints how much worse `<out>`'s median is than DIR's, as a share of
DIR's, against the bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load(out):
    """{workload: {metric: [values]}} from the result files in `out`."""
    sets = {}
    for f in sorted(Path(out).glob("*.json")):
        workload = f.stem.rsplit("-", 1)[0]
        result = json.loads(f.read_text())
        if not result.get("correct"):
            print(f"warning: {f.name} reports failed operations", file=sys.stderr)
        for name, m in result["metrics"].items():
            sets.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return sets


def run_all(spec, out, runs, first_seed, workloads):
    out.mkdir(parents=True, exist_ok=True)
    for w in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            (out / f"{w}-{seed}.json").write_text(lines[-1] + "\n")
            (out / f"{w}-{seed}.log").write_text(proc.stdout)
            print(f"{w} seed {seed}: done", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.runs:
        run_all(spec, args.out, args.runs, args.first_seed, workloads)

    base = load(args.out)
    other = load(args.compare) if args.compare else {}
    flagged = 0
    print(f"{'workload':<14} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + ("  shift" if other else ""))
    for w in workloads:
        for name, m in metrics.items():
            values = base.get(w, {}).get(name, [])
            if len(values) < 2:
                print(f"{w:<14} {name:<12} {len(values):>3}  (too few runs)")
                continue
            q1, med, q3, sp = benchlib.spread(values)
            mark = "FLAG" if sp > m["bound"] else ("> 1/3" if sp > m["bound"] / 3 else "ok")
            line = (f"{w:<14} {name:<12} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{sp:>7.3f} {m['bound']:>6.2f} {mark}")
            flagged += sp > m["bound"]
            ov = other.get(w, {}).get(name, [])
            if len(ov) >= 2:
                _, first, _, _ = benchlib.spread(ov)
                worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                line += f"  {worse:+.3f}" + (" FLAG" if worse > m["bound"] else "")
                flagged += worse > m["bound"]
            print(line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
