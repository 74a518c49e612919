"""Host-speed gauge: elapsed time rescaled to a fixed reference speed.

    python3 perfbench/gauge.py EVENTS_FILE -m MODULE [ARGS...]
    python3 perfbench/gauge.py EVENTS_FILE -c CODE
    python3 perfbench/gauge.py EVENTS_FILE SCRIPT [ARGS...]

The shared host this benchmark was sized on runs the same Python code at
speeds up to twice apart, in phases lasting from seconds to minutes; CPU
time tracks wall time and no steal time shows, so neither CPU time nor the
fastest of several runs removes the phases from a time.  A timed process
therefore runs a gauge: every INTERVAL_S of its CPU time a SIGPROF handler
runs ``unit``, a fixed piece of pure-Python work (Fraction and dict
arithmetic, like the package's own), twice and times the second, warm run,
so that the sample does not depend on what the program left in the caches;
it records when the timed run ran.  ``measure.scaled`` turns an interval of
that process into the time it would have taken at the reference speed, at
which one gauge sample takes REF_SAMPLE_S.  Any change to the program's own
work still shows in full; what cancels is the host's speed at the moment.
The handler's own time is left out of the result.

The command-line form runs a module, a code string or a script under the
gauge, as ``python3 -m``, ``-c`` or a script path would, and writes the
gauge's samples to EVENTS_FILE when the process exits.
"""

from __future__ import annotations

import atexit
import json
import os
import runpy
import signal
import sys
import time
from fractions import Fraction

# CPU time between samples; a sample costs about 1 % of it
INTERVAL_S = 0.02
# time of one timed ``unit`` at the reference speed, about the host's fast
# state
REF_SAMPLE_S = 0.00007
# untimed samples first: the interpreter specializes ``unit`` meanwhile
WARMUP = 8
# a sample's speed is the median over it and WINDOW samples on each side
WINDOW = 4


def unit() -> Fraction:
    s = Fraction(0)
    for i in range(1, 24):
        s += Fraction(i, i + 3)
    d = {}
    for i in range(120):
        d[i] = i * i
    return s


class Gauge:
    """Samples of the host's speed, taken on SIGPROF.

    Each is (begin, start, end): the handler ran from begin to end, and its
    timed ``unit`` from start to end.
    """

    def __init__(self):
        self.events: list = []

    def sample(self, *_):
        begin = time.perf_counter()
        unit()
        start = time.perf_counter()
        unit()
        self.events.append((begin, start, time.perf_counter()))

    def start(self) -> "Gauge":
        for _ in range(WARMUP):
            unit()
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()


def main(argv) -> None:
    events_path, mode, rest = argv[0], argv[1], argv[2:]
    gauge = Gauge().start()

    def dump():
        gauge.stop()
        with open(events_path, "w") as fh:
            json.dump(gauge.events, fh)

    atexit.register(dump)
    if mode == "-m":
        sys.argv = rest
        sys.path[0] = os.getcwd()
        runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
    elif mode == "-c":
        sys.argv = ["-c"]
        sys.path[0] = ""
        exec(compile(rest[0], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = [mode, *rest]
        sys.path[0] = os.path.dirname(os.path.abspath(mode))
        runpy.run_path(mode, run_name="__main__")


if __name__ == "__main__":
    main(sys.argv[1:])
