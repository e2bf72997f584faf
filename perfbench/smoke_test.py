"""Smoke test of the benchmark, run by `dune runtest`.

    python3 smoke_test.py MAIN_EXE BENCHMARK_JSON

Runs every workload at reduced size with tracing off, and one traced run
(which covers all workloads), and checks that each exits 0 and that its
last line is a correct result naming exactly the metrics BENCHMARK.json
declares for its mode.
"""

import json
import os
import subprocess
import sys

from run import metric_mismatch


def main():
    exe, spec_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(spec_path) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    runs = [(w, 0) for w in workloads] + [(workloads[0], 1)]
    failed = False
    for workload, trace in runs:
        proc = subprocess.run(
            [exe, "--smoke", "--workload", workload, "--seed", "1",
             "--seconds", "0", "--trace", str(trace), "--out", "smoke_out"],
            capture_output=True, text=True, timeout=120)
        what = "%s --trace %d" % (workload, trace)
        if proc.returncode != 0:
            print("FAIL %s: exit %d\n%s" % (what, proc.returncode, proc.stdout))
            failed = True
            continue
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        problem = metric_mismatch(result, trace, spec_path)
        if not result["correct"] or problem:
            print("FAIL %s: %s" % (what, problem or "incorrect"))
            failed = True
        else:
            print("ok %s: %d metrics" % (what, len(result["metrics"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
