"""The `cli-cold` workload: a fixed grid of CLI requests and its seeded draw.

Every request runs as a fresh ``python3 -m k3moonshine.cli`` process (under
the host-speed gauge, ``gauge.py``), so it pays interpreter start, import
and fixture validation, as a CLI user does.
The grid holds, for each of the nine subcommands, every class, N, sector
and output format at two sizes, the smallest and the CLI default; the
traffic mix is the rule stated at ``REQUESTS_PER_SUBCOMMAND``.  Each
request's stdout bytes and exit code are checked against goldens recorded
for every request of the grid (``perfbench/record_goldens.py``).
"""

from __future__ import annotations

import os
import random

from measure import run_gauged

HERE = os.path.dirname(os.path.abspath(__file__))

CLASSES = ("1A", "2A", "3A", "4A", "5A", "6A", "7AB", "8A")
FORMATS = ((), ("--format", "json"), ("--format", "csv"))
SUBCOMMANDS = ("ellgenus", "equivariant", "symt", "n4-decompose",
               "genus-decompose", "lattice-check", "m23-table",
               "moonshine-verify", "audit-integrality")
# size option of each subcommand: (flag, smallest, CLI default)
SIZES = {
    "ellgenus": ("--q-order", 1, 6),
    "equivariant": ("--q-order", 1, 4),
    "symt": ("--terms", 1, 8),
    "n4-decompose": ("--q-order", 1, 6),
    "genus-decompose": ("--q-order", 1, 5),
    "m23-table": ("--t-order", 1, 21),
    "moonshine-verify": ("--q-order", 1, 5),
    "audit-integrality": ("--t-order", 1, 6),
}
# The traffic mix follows one rule, not usage data (the repository has
# none): every pass sends each subcommand REQUESTS_PER_SUBCOMMAND requests,
# one at its smallest size and one at its CLI default; lattice-check, which
# takes no size, gets two different output formats.  The seed draws the
# remaining parameters: class, N, sector, --rational and output format.
REQUESTS_PER_SUBCOMMAND = 2


def requests_at(sub: str, size) -> list:
    """Every request of the grid to ``sub`` at ``size`` (None: no size)."""
    at = [] if size is None else [SIZES[sub][0], str(size)]
    if sub in ("ellgenus", "lattice-check", "m23-table"):
        return [[*f, sub, *at] for f in FORMATS]
    if sub in ("equivariant", "moonshine-verify"):
        return [[sub, "--class", c, *at] for c in CLASSES]
    if sub == "symt":
        return [[sub, "--class", c, *at, *r]
                for c in CLASSES for r in ((), ("--rational",))]
    if sub == "n4-decompose":
        # NS requests with N > q_order + 3 crash at this commit (see
        # CHANGES.md), so the grid leaves them out
        return [[sub, "--n", str(n), "--sector", sector, *at]
                for sector in ("NS", "R") for n in range(11)
                if sector == "R" or n <= size + 3]
    return [[sub, *at]]


def sizes(sub: str) -> tuple:
    return SIZES[sub][1:] if sub in SIZES else (None,)


def grid() -> list:
    return [argv for sub in SUBCOMMANDS for size in sizes(sub)
            for argv in requests_at(sub, size)]


def draw(seed: int) -> list:
    """The requests of a pass, by the rule above, shuffled."""
    rng = random.Random(f"cli-cold:{seed}")
    requests = []
    for sub in SUBCOMMANDS:
        if sub in SIZES:
            requests += [rng.choice(requests_at(sub, size))
                         for size in sizes(sub)]
        else:
            requests += rng.sample(requests_at(sub, None),
                                   REQUESTS_PER_SUBCOMMAND)
    rng.shuffle(requests)
    return requests


def key(argv) -> str:
    return " ".join(argv)


def subcommand(argv) -> str:
    return next(a for a in argv if a in SUBCOMMANDS)


def run_request(argv, root: str, env: dict, spans_path=None) -> tuple:
    """Run one request in a fresh process under the gauge, and under the
    tracer if ``spans_path`` is given: (scaled seconds, seconds, exit code,
    stdout)."""
    if spans_path is None:
        args = ["-m", "k3moonshine.cli", *argv]
    else:
        args = [os.path.join(HERE, "spans.py"), spans_path, *argv]
    return run_gauged(args, root, env, limit=150)


def matches(golden: dict, code: int, stdout: bytes) -> bool:
    return golden["exit"] == code and golden["stdout"].encode() == stdout
