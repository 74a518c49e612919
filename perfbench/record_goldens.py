"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Run from the root of a checkout.  Writes ``perfbench/goldens``:

  acceptance.json  each criterion's verdict at the CLI defaults, with the
                   detail of every failing criterion (what verify-all prints)
  tables.json      the lattice report built from freshly derived fixtures
  cli.json         stdout and exit code of every request in the cli-cold grid

Re-record only when a change is meant to alter these outputs.  Recording
refuses a grid request that does not exit 0 and a derived fixture that
differs from the committed one.
"""

from __future__ import annotations

import json
import os
import sys

import cligrid
import worker
from run import HERE, ROOT, child_env


def write(name: str, data: dict):
    path = os.path.join(HERE, "goldens", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(data)} entries)")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("K3MOONSHINE_DATA", None)
    verdicts = {}
    no_probes = worker.Prober("-")
    for op in worker.acceptance_pass(0, no_probes):
        verdicts[op["op"]] = {"ok": op["ok"]} if op["ok"] else \
            {"ok": False, "detail": op["detail"]}
    write("acceptance", verdicts)

    ops = worker.tables_pass(0, no_probes)
    bad = [op for op in ops if not op["ok"]]
    if bad:
        raise SystemExit(f"derived fixtures differ: {bad}")
    write("tables", {"lattice-report": ops[-1]["detail"]})

    env = child_env()
    golden = {}
    for argv in cligrid.grid():
        _, _, code, out = cligrid.run_request(argv, ROOT, env)
        if code != 0:
            raise SystemExit(f"{cligrid.key(argv)} exited {code}")
        golden[cligrid.key(argv)] = {"exit": code, "stdout": out.decode()}
    write("cli", golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
