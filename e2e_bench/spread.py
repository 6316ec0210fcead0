#!/usr/bin/env python3
"""Run the end-to-end benchmark over several seeds and report its spread.

Usage (from the repository root):

    python3 e2e_bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...
                                [--seconds N] [--trace] [--out SET.json] [--against OTHER.json]

For every workload (default: all of BENCHMARK.json), runs the benchmark
command of BENCHMARK.json `--runs` times with seeds `--first-seed`,
`--first-seed + 1`, ... and prints, for each metric, the median, the
quartiles (Python's `statistics.quantiles(values, n=4)`) and the spread:
the interquartile distance as a share of the median. End-to-end metrics
are compared with their regression bound: a spread below a third of the
bound is steady. `--out` saves every value plus host metadata as JSON;
`--against` compares this set's medians with a saved set's, metric by
metric, against the same bounds. Exits non-zero if any run failed, any
spread exceeded its bound, or a median moved by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_meta():
    def cmd(*args):
        try:
            out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
        except OSError:
            return "unknown"

    commit = cmd("git", "rev-parse", "--short", "HEAD")
    if commit != "unknown" and cmd("git", "status", "--porcelain") != "unknown":
        commit += "-dirty"
    return {"cores": os.cpu_count(), "commit": commit, "rustc": cmd("rustc", "--version")}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    prior = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    result = {"host": host_meta(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    bad = False
    for name in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if out.returncode != 0 or not last or not last["correct"]:
                print(f"{name} seed {seed}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}")
                bad = True
                continue
            for metric, v in last["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        stats = {m: dict(summarize(v), values=v) for m, v in values.items() if len(v) >= 2}
        result["workloads"][name] = stats
        print(f"== {name} ({args.runs} seeds from {args.first_seed}, {args.seconds} s)")
        for metric, s in stats.items():
            line = f"  {metric:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:7.2%}"
            bound = bounds.get(metric)
            if bound is not None:
                verdict = "steady" if s["spread"] < bound / 3 else "within bound" if s["spread"] <= bound else "EXCEEDS BOUND"
                bad |= s["spread"] > bound
                line += f"  bound {bound:.0%}: {verdict}"
                old = prior.get(name, {}).get(metric)
                if old:
                    better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
                    change = (s["median"] - old["median"]) / old["median"]
                    worse = change if better == "lower" else -change
                    line += f"; vs saved median {change:+.2%}" + (" WORSE THAN BOUND" if worse > bound else "")
                    bad |= worse > bound
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
