"""Steadiness check: run one workload k times and report each metric's spread.

    python3 perfbench/steady.py --workload NAME [-k 5] [--first-seed 1]

Run from the root of a checkout.  Run i is an untraced run with seed
first-seed + i and ``run_seconds`` from BENCHMARK.json.  For every
end-to-end metric it prints
the median of the k values and their interquartile distance as a share of
the median (``statistics.quantiles(values, n=4)``), and flags a spread above
a tenth.  The last line is a JSON summary that includes each run's host
record (git rev, Python version, nproc, load average at start and end).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import spread
from run import HERE, ROOT, WORKLOADS

FLAG_SPREAD = 0.10


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(ln)["host"] for ln in lines
                if ln.startswith('{"host"'))
    return json.loads(lines[-1]), host


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.k < 2:
        p.error("-k must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    results, hosts = [], []
    for i in range(args.k):
        seed = args.first_seed + i
        result, host = run_once(args.workload, seed, seconds)
        results.append(result)
        hosts.append(dict(host, seed=seed))
        print(json.dumps({"seed": seed, **result}), flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        sp = spread(values) if med else 0.0
        summary[name] = {"median": med, "spread": sp, "values": values,
                         "unit": results[0]["metrics"][name]["unit"]}
        flag = "  <-- spread above a tenth" if sp > FLAG_SPREAD else ""
        print(f"{name:<36} median {med:14.6g} {summary[name]['unit']:<6} "
              f"spread {100 * sp:6.2f} %{flag}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "hosts": hosts,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
