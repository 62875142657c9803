#!/usr/bin/env python3
"""Builds and runs the shared-plan benchmark (one workload per call).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds librumor
and the mqo_bench binary (Release, see perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. The binary's report is passed through, followed by a host and build
record, and the last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"}. Each result is also kept in
<build dir>/perfbench/results/, and a traced run's spans in
<build dir>/perfbench/traces/ (Chrome trace format).

Workloads: select_index, window_agg, pattern_join, query_churn.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "mqo_bench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_record():
    """The code measured: git commit when run in a clone, and always a
    digest of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    record = {"source_sha256": digest.hexdigest(), "commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True).stdout.strip()
            record["commit"] = head.stdout.strip() + ("+dirty" if dirty else "")
    return record


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault", choices=("digest", "drop_event"),
                        help="plant a fault (self-test of the gate)")
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")
    binary = build(build_dir)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(build_dir, "traces", tag + ".json")]
    if args.fault:
        command += ["--fault", args.fault]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"mqo_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"mqo_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(names) ^ set(result['metrics']))}")

    build_record = {}
    for line in lines:
        if line.startswith("build "):
            build_record = json.loads(line[len("build "):])
    record = {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "kernel": platform.release()},
        "build": build_record,
        "source": source_record(),
        "run": {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "fault": args.fault},
    }
    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump({"record": record, "report": lines[:-1], "result": result},
                  f, indent=1)
    print("\n".join(lines[:-1]))
    print("record " + json.dumps(record))
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
