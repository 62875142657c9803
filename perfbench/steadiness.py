#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --out FILE \\
        [--workloads select_index,window_agg,...]

Runs perfbench/run.py once per (workload, seed), seeds first-seed ..
first-seed+runs-1, and writes FILE (JSON): every run's metrics and, per
workload and metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, and each run's wall time. The ungated
metrics the run prints (as "metric <name> <value> <unit> n=<samples>") get
the same statistics under "printed_stats" where every run measured them. With
--compare OLD it also prints each median's drift from the medians of an
earlier FILE, worse-direction positive.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def printed_metrics(stdout):
    """{name: value} of the report's "metric" lines with samples > 0."""
    found = {}
    for line in stdout.split("\n"):
        parts = line.split()
        if (len(parts) == 5 and parts[0] == "metric" and
                parts[4].startswith("n=") and int(parts[4][2:]) > 0):
            found[parts[1]] = float(parts[2])
    return found


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    old = None
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)

    report = {"seconds": seconds, "seeds": [args.first_seed,
                                            args.first_seed + args.runs - 1],
              "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed} failed")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "failed": result["failed"],
                         "wall_s": round(time.monotonic() - start, 1),
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "printed": printed_metrics(proc.stdout)})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()) +
                f" ({runs[-1]['wall_s']} s)", flush=True)
        stats = {name: summarize([r["metrics"][name] for r in runs])
                 for name in runs[0]["metrics"]}
        printed_stats = {
            name: summarize([r["printed"][name] for r in runs])
            for name in runs[0]["printed"] if name not in stats and
            all(name in r["printed"] for r in runs)}
        report["workloads"][workload] = {"runs": runs, "stats": stats,
                                         "printed_stats": printed_stats}
        for name, s in stats.items():
            line = (f"  {workload:13s} {name:14s} median {s['median']:12.5g} "
                    f"spread {s['spread']:6.3f} (bound {bounds[name]}")
            if name != "setup_s":
                line += f", target < {bounds[name] / 3:.3f}"
            line += ")"
            if old and workload in old["workloads"]:
                was = old["workloads"][workload]["stats"][name]["median"]
                drift = (s["median"] - was) / was if was else 0.0
                if better[name] == "higher":
                    drift = -drift
                line += f" drift {drift:+.3f}"
            print(line, flush=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
