"""Timing of child processes, its rescaling to the reference speed, and
the order statistics of the harness."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

from gauge import REF_SAMPLE_S, WINDOW

TAIL_BEYOND = 10
HERE = os.path.dirname(os.path.abspath(__file__))
GAUGE = os.path.join(HERE, "gauge.py")
OUT = os.path.join(HERE, "_out")


def tail(samples) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The value is the sample of
    nearest rank n - 10, so exactly ten samples lie above it.  With ten
    samples or fewer no percentile qualifies, and the maximum (p100) is
    returned.
    """
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return s[rank - 1], 100.0 * rank / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


class ChildFailed(Exception):
    pass


class ChildTimeout(ChildFailed):
    pass


def _expire(signum, frame):
    raise ChildTimeout


def run_timed(cmd, cwd, env, limit: int) -> tuple:
    """Run a child to completion: (seconds from spawn to exit, code, stdout).

    ``subprocess.run(timeout=...)`` polls for the child's exit with sleeps
    of up to 50 ms, which would quantize every latency; here the wait
    blocks, and SIGALRM enforces the time limit (raising ChildTimeout after
    the child is killed).
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    signal.alarm(limit)
    try:
        out, _ = proc.communicate()
    except ChildTimeout:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, proc.returncode, out


def scaled(events, a: float, b: float) -> float:
    """Seconds the interval [a, b] would take at the reference speed.

    ``events`` are gauge samples (begin, start, end).  Each stretch of
    [a, b] outside the samples' handlers counts its length times
    REF_SAMPLE_S over the smoothed sample time at the stretch's end (the
    last stretch uses the last sample before b).  An interval with no
    sample inside it takes the speed of the nearest sample.
    """
    if not events:
        raise ValueError("no gauge samples")
    events = sorted(events)
    times = [end - start for _, start, end in events]
    smooth = [statistics.median(times[max(0, i - WINDOW):i + WINDOW + 1])
              for i in range(len(times))]
    inside = [i for i, (begin, _, end) in enumerate(events)
              if a <= begin and end <= b]
    if not inside:
        mid = (a + b) / 2
        near = min(range(len(events)),
                   key=lambda i: abs(events[i][0] - mid))
        return (b - a) * REF_SAMPLE_S / smooth[near]
    total, prev = 0.0, a
    for i in inside:
        total += (events[i][0] - prev) * REF_SAMPLE_S / smooth[i]
        prev = events[i][2]
    return total + (b - prev) * REF_SAMPLE_S / smooth[inside[-1]]


def run_gauged(args, cwd, env, limit: int) -> tuple:
    """Run ``gauge.py EVENTS_FILE *args`` to completion.

    EVENTS_FILE lies in ``perfbench/_out`` and is removed again.  Returns
    (scaled seconds, seconds, exit code, stdout); both times run from spawn
    to exit.  A child that leaves no samples (killed by a signal) raises
    ChildFailed.
    """
    events_path = os.path.join(OUT, f"gauge-{os.getpid()}.json")
    os.makedirs(OUT, exist_ok=True)
    if os.path.exists(events_path):
        os.remove(events_path)
    a = time.perf_counter()
    seconds, code, out = run_timed([sys.executable, GAUGE, events_path, *args],
                                   cwd, env, limit)
    b = time.perf_counter()
    try:
        with open(events_path) as fh:
            events = [tuple(e) for e in json.load(fh)]
        os.remove(events_path)
    except (OSError, ValueError):
        raise ChildFailed(f"exit {code}, no gauge samples") from None
    return scaled(events, a, b), seconds, code, out
