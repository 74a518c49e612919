"""Benchmark harness for k3moonshine (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see BENCHMARK.json for why each was chosen):

  acceptance  the ten acceptance criteria at the CLI defaults in one fresh
              process (``verify-all``); the seed permutes the order
  cli-cold    a seeded draw from a fixed grid of requests to the nine
              non-battery subcommands, each a fresh CLI process
  tables      derive the M23, Mukai and Co0 fixtures into a scratch
              directory, byte-compare them, build the lattice report

The amount of work is fixed by ``--seconds``: a workload runs
``round(seconds / SECONDS_PER_PASS)`` passes (at least one), each in fresh
processes, so sample counts do not depend on host speed.  Every output is
checked: verdicts, fixture bytes, lattice verdicts and CLI stdout bytes and
exit codes against ``perfbench/goldens``.

Every timed process runs under the host-speed gauge (``perfbench/gauge.py``),
and every time below is scaled to the gauge's reference speed: the host
alternates, for seconds to minutes at a time, between a fast state and one
up to twice as slow, which unscaled times carry in full.  The report also
prints the times as measured.

End-to-end metrics (``--trace 0``):

  wall_s       one pass, the sum of its operations' times (criteria,
               fixture derivations and the lattice report, CLI requests),
               averaged over the run's passes
  setup_s      the median of SETUP_PROBES fresh set-up processes placed
               evenly between the run's operations (spawn to exit):
               interpreter start until the package is imported and every
               fixture loaded and validated; for cli-cold, until
               ``k3moonshine.cli`` is imported
  peak_rss_mb  peak RSS of the child processes (getrusage)

The report also prints op_p50_ms and op_tail_ms over every operation of the
run, with the tail's percentile and sample count, and error_rate.

With ``--trace 1`` the passes run as usual and one more pass runs under the
outside-in span tracer (``perfbench/spans.py``); the per-layer metrics come
from that pass, span times as measured, and ``trace.overhead_s`` is its
scaled wall time minus the median untraced pass.
The last line of stdout is the JSON result; the lines before it are a
readable report and a record of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cligrid  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from measure import ChildFailed, run_gauged, tail  # noqa: E402

WORKLOADS = ("acceptance", "cli-cold", "tables")
# run time budgeted per pass, set-up probes included: a run makes
# round(seconds / SECONDS_PER_PASS) passes, and at least one
SECONDS_PER_PASS = {"acceptance": 30.0, "cli-cold": 15.0, "tables": 6.0}
SETUP_PROBES = 12
ACCEPTANCE_OPS = tuple(str(i) for i in range(1, 11))
TRACE_EXTRA = (tuple(f"acceptance.c{i}_s" for i in ACCEPTANCE_OPS)
               + tuple(f"cli.{s}.p50_ms" for s in cligrid.SUBCOMMANDS)
               + ("trace.overhead_s",))
PER_LAYER = spans.SPAN_METRICS + TRACE_EXTRA
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    if kind.endswith("_ms"):
        return "ms"
    if kind.endswith("_s"):
        return "s"
    return "ratio" if kind == "hit_ratio" else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("K3MOONSHINE_DATA", None)
    # an installed package runs from cached bytecode; Run writes the caches
    # first, so set-up time does not depend on whether the caller's
    # environment forbids writing them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def load_goldens() -> dict:
    out = {}
    for name in ("acceptance", "tables", "cli"):
        with open(os.path.join(HERE, "goldens", f"{name}.json")) as fh:
            out[name] = json.load(fh)
    return out


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def host_record(loadavg_start: str) -> dict:
    """What makes numbers from different hosts comparable, or not."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    return {"git_rev": git_rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_start": loadavg_start,
            "loadavg_end": loadavg()}


def probe_slots(ops_per_pass: int, passes: int) -> list:
    """Where the run's SETUP_PROBES set-up probes go, per pass.

    Probe k runs before operation k * total // SETUP_PROBES of the run's
    ``passes * ops_per_pass`` operations, so the probes are spread evenly
    over the run; each pass gets the indices of its own operations.
    """
    total = ops_per_pass * passes
    slots = [[] for _ in range(passes)]
    for k in range(SETUP_PROBES):
        g = k * total // SETUP_PROBES
        slots[g // ops_per_pass].append(g % ops_per_pass)
    return slots


def cli_setup_probe(env: dict) -> tuple:
    """Spawn-to-exit time of a fresh interpreter importing the CLI:
    (scaled, as measured)."""
    seconds, raw, code, _ = run_gauged(["-c", "import k3moonshine.cli"],
                                       ROOT, env, limit=120)
    if code != 0:
        raise RuntimeError(f"set-up process exited {code}")
    return seconds, raw


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, ok: bool, note: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


def check_worker_op(workload: str, op: dict, goldens: dict) -> bool:
    if workload == "acceptance":
        want = goldens["acceptance"].get(op["op"])
        return (want is not None and op["ok"] == want["ok"]
                and (op["ok"] or op["detail"] == want["detail"]))
    if op["op"] == "lattice-report":
        return op["detail"] == goldens["tables"]["lattice-report"]
    return op["ok"]


def expected_ops(workload: str) -> list:
    if workload == "acceptance":
        return sorted(ACCEPTANCE_OPS)
    data = os.path.join(ROOT, "src", "k3moonshine", "data")
    return sorted([f for f in os.listdir(data) if f.endswith(".tbl")
                   and f not in worker.UNDERIVED] + ["lattice-report"])


def worker_pass(workload, seed, env, goldens, tally, spans_path, probes):
    """One acceptance or tables pass.

    Returns ({op: (scaled seconds, seconds)} or None, [(scaled, seconds)]
    of the set-up probes).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), spans_path or "-",
           ",".join(map(str, probes)) or "-"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=160)
    except subprocess.TimeoutExpired:
        tally.record(False, "worker timed out")
        return None, []
    if proc.returncode != 0:
        tally.record(False, f"worker exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        return None, []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = {}
    seen = sorted(op["op"] for op in result["ops"])
    if seen != expected_ops(workload):
        tally.record(False, f"operations run: {seen}")
    for op in result["ops"]:
        tally.record(check_worker_op(workload, op, goldens),
                     f"{op['op']}: {op['detail']}")
        ops[op["op"]] = (op["s"], op["raw_s"])
    return ops, list(zip(result["setup_probes"], result["setup_probes_raw"]))


def cli_pass(seed, env, goldens, tally, spans_dir, probes):
    """One cli-cold pass, timed like ``worker_pass``."""
    ops, setups = {}, []
    for i, argv in enumerate(cligrid.draw(seed)):
        setups += [cli_setup_probe(env) for _ in range(probes.count(i))]
        path = None if spans_dir is None else \
            os.path.join(spans_dir, f"cli-cold-s{seed}-r{i}.jsonl")
        try:
            seconds, raw, code, out = cligrid.run_request(argv, ROOT, env,
                                                          path)
        except ChildFailed as exc:
            why = str(exc) or "timed out"
            tally.record(False, f"{cligrid.key(argv)}: {why}")
            continue
        golden = goldens["cli"].get(cligrid.key(argv))
        tally.record(golden is not None and cligrid.matches(golden, code, out),
                     f"{cligrid.key(argv)}: exit {code}, stdout differs")
        ops[cligrid.key(argv)] = (seconds, raw)
    return ops, setups


def ops_per_pass(workload: str) -> int:
    if workload == "cli-cold":
        return len(cligrid.draw(0))
    return len(expected_ops(workload))


def one_pass(workload, seed, pass_index, env, goldens, tally,
             spans_dir=None, probes=()):
    """One pass, timed like ``worker_pass``.

    The seed of a pass draws its requests (cli-cold) or permutes its order,
    so the passes of one run differ.
    """
    pass_seed = seed * 1000 + pass_index
    if workload == "cli-cold":
        return cli_pass(pass_seed, env, goldens, tally, spans_dir,
                        list(probes))
    path = None if spans_dir is None else \
        os.path.join(spans_dir, f"{workload}-s{seed}.jsonl")
    return worker_pass(workload, pass_seed, env, goldens, tally, path, probes)


class Run:
    """The untraced passes of one run and the set-up probes within them.

    Times are kept scaled to the gauge's reference speed and as measured:
    ``walls`` and ``raw_walls`` per pass, ``times`` per operation and
    ``setups`` and ``raw_setups`` per set-up probe.
    """

    def __init__(self, workload, seed, passes, env, goldens, tally):
        self.walls: list = []
        self.raw_walls: list = []
        self.times: dict = defaultdict(list)
        self.setups: list = []
        self.raw_setups: list = []
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(ROOT, "src")],
                       env=env, check=True, capture_output=True, timeout=120)
        for p, probes in enumerate(probe_slots(ops_per_pass(workload),
                                               passes)):
            ops, setups = one_pass(workload, seed, p, env, goldens, tally,
                                   probes=probes)
            self.setups += [s for s, _ in setups]
            self.raw_setups += [raw for _, raw in setups]
            if ops is None:
                continue
            self.walls.append(sum(s for s, _ in ops.values()))
            self.raw_walls.append(sum(raw for _, raw in ops.values()))
            for op, (seconds, _) in ops.items():
                self.times[op].append(seconds)

    def end_to_end(self) -> dict:
        return {"wall_s": statistics.fmean(self.walls),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024}

    def latencies_ms(self) -> list:
        return [s * 1000.0 for times in self.times.values() for s in times]

    def by_subcommand(self) -> dict:
        """cli-cold: every request time of the run, per subcommand."""
        out = defaultdict(list)
        for request, times in self.times.items():
            out[cligrid.subcommand(request.split())] += times
        return out


def layer_metrics(workload, seed, run, env, goldens, tally) -> tuple:
    """One more pass under the tracer, and the per-layer metrics."""
    out = os.path.join(HERE, "_out", f"spans-{workload}-s{seed}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ops, _ = one_pass(workload, seed, 0, env, goldens, tally, spans_dir=out)
    if ops is None:
        return None
    traced_wall = sum(s for s, _ in ops.values())
    files = sorted(os.path.join(out, f) for f in os.listdir(out))
    metrics, shares, traced_s = spans.summarize(files)
    for i in ACCEPTANCE_OPS:
        metrics[f"acceptance.c{i}_s"] = statistics.median(run.times[i]) \
            if workload == "acceptance" else 0.0
    by_sub = run.by_subcommand() if workload == "cli-cold" else {}
    for sub in cligrid.SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = \
            statistics.median(by_sub[sub]) * 1000.0 if sub in by_sub else 0.0
    metrics["trace.overhead_s"] = traced_wall - statistics.median(run.walls)
    return metrics, shares, traced_s, traced_wall


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "k3moonshine",
                                       "__init__.py")):
        print(f"no k3moonshine sources under {ROOT}/src", file=sys.stderr)
        return 2
    loadavg_start = loadavg()
    goldens = load_goldens()
    env = child_env()
    passes = max(1, round(args.seconds / SECONDS_PER_PASS[args.workload]))
    tally = Tally()
    run = Run(args.workload, args.seed, passes, env, goldens, tally)
    if not run.walls:
        print("no pass completed: " + "; ".join(tally.notes), file=sys.stderr)
        return 1
    e2e = run.end_to_end()
    if args.trace:
        traced = layer_metrics(args.workload, args.seed, run, env, goldens,
                               tally)
        if traced is None:
            print("traced pass failed: " + "; ".join(tally.notes),
                  file=sys.stderr)
            return 1
        layers, shares, traced_s, traced_wall = traced
    host = host_record(loadavg_start)

    print(f"# workload={args.workload} seed={args.seed} passes={passes} "
          f"operations per pass={ops_per_pass(args.workload)}")
    print(json.dumps({"host": host}))
    for name, value in e2e.items():
        print(f"{name:<14} {value:12.4f} {UNITS[name]}")
    latencies = run.latencies_ms()
    value, pct, n = tail(latencies)
    print(f"{'op_p50_ms':<14} {statistics.median(latencies):12.4f} ms")
    print(f"{'op_tail_ms':<14} {value:12.4f} ms  (p{pct:.1f} of {n})")
    print(f"{'error_rate':<14} {tally.failed / tally.attempted:12.4f} ratio "
          f"({tally.failed}/{tally.attempted})")
    if args.workload == "cli-cold":
        by_sub = run.by_subcommand()
        total = sum(map(sum, by_sub.values()))
        print("# share of wall_s: " + ", ".join(
            f"{sub} {100 * sum(by_sub[sub]) / total:.1f} %"
            for sub in cligrid.SUBCOMMANDS))
    print("# as measured: wall_s "
          f"{statistics.fmean(run.raw_walls):.4f} s, setup_s "
          f"{statistics.median(run.raw_setups):.4f} s")
    print("# pass walls " + " ".join(f"{w:.3f}" for w in run.walls)
          + " s (as measured " + " ".join(f"{w:.3f}" for w in run.raw_walls)
          + " s); setup probes "
          + " ".join(f"{s:.3f}" for s in run.setups) + " s")
    for note in tally.notes:
        print(f"# FAILED {note}")
    if args.trace:
        print(f"# traced pass {traced_wall:.4f} s, untraced median "
              f"{statistics.median(run.walls):.4f} s, overhead "
              f"{layers['trace.overhead_s']:+.4f} s")
        print(f"# self-time share of {traced_s:.3f} s traced:")
        for layer, share in shares.items():
            print(f"#   {layer:<12} {100 * share:6.2f} %")
        metrics = {m: {"value": layers[m], "unit": layer_unit(m)}
                   for m in PER_LAYER}
    else:
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in e2e.items()}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
