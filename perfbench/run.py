#!/usr/bin/env python3
"""Build and run the Pro-Temp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe from source
with dune into .bench_build/, runs it, checks that the metrics it printed
are exactly the ones BENCHMARK.json declares for the mode (end_to_end for
--trace 0, per_layer for --trace 1) with the declared units, and passes
its output through.  The last line of standard output is the result
object.  Exits non-zero, without a result line, when the build fails,
the program fails a check, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, ".bench_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def host_metadata():
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "# host: git_rev %s, nproc %d" % (rev, len(os.sched_getaffinity(0)))


def build():
    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850,
    )
    return proc.returncode == 0 and os.path.isfile(EXE)


def metric_mismatch(result, trace, spec_path):
    """None when the result line names exactly the metrics BENCHMARK.json
    declares for the mode, with the declared units; else a message."""
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got == want:
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
    return ("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "wrong unit %s" % (missing, extra, wrong))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    print(host_metadata())
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print("perfbench: a check failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    mismatch = metric_mismatch(json.loads(lines[-1]), args.trace,
                               os.path.join(ROOT, "BENCHMARK.json"))
    if mismatch:
        print("perfbench: " + mismatch, file=sys.stderr)
        return 4
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
