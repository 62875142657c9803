#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness gate and of its determinism.

    python3 perfbench/selftest.py

1. A planted fault drives error_rate above 0: one flipped digest bit
   (select_index), and one event dropped from the reference run (window_agg).
2. One seed gives the same input hash and per-query digest hash on two
   untraced runs and on a traced run; a second seed changes both.

Prints one line per check and exits 0 only if every check holds.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, trace=0, fault=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace)]
    if fault:
        command += ["--fault", fault]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("hash"):
            out[parts[0]] = parts[1]
        if len(parts) >= 3 and parts[:2] == ["metric", "error_rate"]:
            out["error_rate"] = float(parts[2])
    return out


def main():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    for workload, fault in (("select_index", "digest"),
                            ("window_agg", "drop_event")):
        r = run(workload, 1, fault=fault)
        check(r["error_rate"] > 0 and r["result"]["failed"] > 0 and
              not r["result"]["correct"],
              f"{workload} --fault {fault}: error_rate {r['error_rate']:.3g}, "
              f"failed {r['result']['failed']}")

    first = run("pattern_join", 11)
    check(first["error_rate"] == 0 and first["result"]["correct"],
          "pattern_join seed 11 without a fault: error_rate 0")
    again = run("pattern_join", 11)
    traced = run("pattern_join", 11, trace=1)
    other = run("pattern_join", 12)
    for key in ("input_hash", "digest_hash"):
        check(first[key] == again[key] == traced[key],
              f"seed 11 {key} repeats untraced and traced: {first[key]}")
        check(first[key] != other[key],
              f"seed 12 changes {key}: {other[key]}")
    check(traced["traced_digest_hash"] == first["digest_hash"],
          "traced pass A digests equal the untraced run's")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
