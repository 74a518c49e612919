"""One timed pass of the `acceptance` or `tables` workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SPANS_FILE PROBES
    python3 perfbench/worker.py setup

Run from the root of a checkout with ``src`` on PYTHONPATH.  SPANS_FILE is
``-`` for an untraced pass; otherwise the tracer is installed before set-up
and its spans are written there.  Either way the pass runs under the
host-speed gauge (``gauge.py``).  PROBES is a comma-separated list of
operation indices (``-`` for none): before operation i the pass times one
fresh ``setup`` process, under the gauge, from spawn to exit, once per
occurrence of i, so that set-up probes are spread over the run.  The pass
prints one JSON object: per operation its time (scaled to the reference
speed, and as measured) and observed outcome, and the probe times.  The
parent harness compares the outcomes with the expected ones.  The ``setup``
form only imports the package and loads the fixtures.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import time

from gauge import Gauge
from measure import run_gauged, scaled

HERE = os.path.dirname(os.path.abspath(__file__))

# fixtures the tables workload leaves underived; see CHANGES.md
UNDERIVED = ("m24.tbl",)


def setup_fixtures():
    """Import the package and load (and so validate) every fixture."""
    from k3moonshine import tables
    for i in range(1, 12):
        tables.load_mukai(i)
    tables.load_m23()
    tables.load_m24()
    tables.load_co0_restricted()


class Prober:
    """Times fresh set-up processes before the operations named in PROBES."""

    def __init__(self, probes: str):
        self.before = [] if probes == "-" else \
            [int(i) for i in probes.split(",")]
        self.seconds: list = []
        self.raw: list = []

    def __call__(self, op_index: int):
        for _ in range(self.before.count(op_index)):
            seconds, raw, code, _ = run_gauged(
                [os.path.abspath(__file__), "setup"], os.getcwd(), None,
                limit=120)
            if code != 0:
                raise RuntimeError(f"set-up process exited {code}")
            self.seconds.append(seconds)
            self.raw.append(raw)


def acceptance_pass(seed: int, probe) -> list:
    """The ten criteria at the CLI defaults, in a seeded order."""
    from k3moonshine import acceptance
    from k3moonshine.cli import build_parser
    defaults = build_parser().parse_args(["verify-all"])
    setup_fixtures()
    checks = list(acceptance.CHECKS)
    random.Random(seed).shuffle(checks)
    ops = []
    for i, (name, fn) in enumerate(checks):
        probe(i)
        t0 = time.perf_counter()
        try:
            ok, detail = fn(q_order=defaults.q_order, t_order=defaults.t_order)
        except Exception as exc:  # reported as a wrong verdict, not hidden
            ok, detail = False, f"exception: {exc!r}"
        ops.append({"op": name.split()[0], "span": (t0, time.perf_counter()),
                    "ok": bool(ok), "detail": str(detail)})
    return ops


def _lattice_report(scratch: str, committed: str) -> dict:
    from k3moonshine.chartab import CharacterTable
    from k3moonshine.replattice import build_lattice_report, sufficiency_scan
    from k3moonshine.tables import SYMPLECTIC_M23_LABELS, SYMPLECTIC_M24_LABELS

    def derived(name):
        return CharacterTable.load(os.path.join(scratch, name))

    with open(os.path.join(scratch, "co0_restricted.tbl")) as fh:
        co0 = CharacterTable.loads_unchecked(fh.read())
    rep = build_lattice_report(
        [derived(f"mukai_{i:02d}.tbl") for i in range(1, 12)],
        CharacterTable.load(os.path.join(committed, "m24.tbl")),
        derived("m23.tbl"), co0,
        SYMPLECTIC_M24_LABELS, SYMPLECTIC_M23_LABELS)
    four, triples = sufficiency_scan(list(rep.N_i), rep.N)
    return {"M_over_N": str(rep.M_over_N),
            "Ni_over_N": [str(q) for q in rep.Ni_over_N],
            "K_equals_N": rep.K_equals_N, "Kp_equals_N": rep.Kp_equals_N,
            "Kdp_index_in_N": rep.Kdp_index_in_N,
            "all_quadruples_sufficient": all(four.values()),
            "triples_reaching_N": len(triples)}


def tables_pass(seed: int, probe) -> list:
    """Derive the fixtures into a scratch directory, one at a time.

    ``generate_all`` derives exactly the fixtures missing from its
    directory, so the scratch directory starts with an empty placeholder per
    fixture and each derivation removes one placeholder first; the
    placeholders are empty, so nothing committed can stand in for a derived
    table.  Each derived file is byte-compared with the committed one.
    """
    from k3moonshine import tables
    committed = tables.data_dir()
    names = sorted(f for f in os.listdir(committed) if f.endswith(".tbl"))
    order = [n for n in names if n not in UNDERIVED]
    random.Random(seed).shuffle(order)
    scratch = os.path.join(HERE, "_out", f"tables-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    for name in names:
        open(os.path.join(scratch, name), "w").close()
    ops = []
    try:
        for i, name in enumerate(order):
            probe(i)
            os.remove(os.path.join(scratch, name))
            t0 = time.perf_counter()
            written = tables.generate_all(scratch)
            span = (t0, time.perf_counter())
            with open(os.path.join(scratch, name), "rb") as a, \
                    open(os.path.join(committed, name), "rb") as b:
                same = a.read() == b.read()
            ops.append({"op": name, "span": span,
                        "ok": written == [name] and same,
                        "detail": f"written={written} identical={same}"})
        probe(len(order))
        t0 = time.perf_counter()
        report = _lattice_report(scratch, committed)
        ops.append({"op": "lattice-report", "span": (t0, time.perf_counter()),
                    "ok": True, "detail": report})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ops


PASSES = {"acceptance": acceptance_pass, "tables": tables_pass}


def main(argv) -> int:
    if argv == ["setup"]:
        setup_fixtures()
        return 0
    workload, seed, spans_path = argv[0], int(argv[1]), argv[2]
    probe = Prober(argv[3])
    tracer = None
    if spans_path != "-":
        from spans import Tracer
        tracer = Tracer(os.path.splitext(os.path.basename(spans_path))[0])
        tracer.install()
    gauge = Gauge().start()
    try:
        ops = PASSES[workload](seed, probe)
    finally:
        gauge.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    for op in ops:
        a, b = op.pop("span")
        op["raw_s"] = b - a
        op["s"] = scaled(gauge.events, a, b)
    print(json.dumps({"ops": ops, "setup_probes": probe.seconds,
                      "setup_probes_raw": probe.raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
