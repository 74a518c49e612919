"""Self-tests of the benchmark harness.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout.  They cover the span arithmetic, the tail
rule, the rescaling to the gauge's reference speed, the seeded cli-cold
draw, the output checkers (a wrong output must count as a failure) and the
tracer's rebinding of every name binding.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cligrid  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from gauge import REF_SAMPLE_S  # noqa: E402
from measure import (ChildFailed, run_gauged, scaled, spread,  # noqa: E402
                     tail)


def write_spans(path, run_id, records, elapsed):
    meta = {"run": run_id, "kind": "meta", "elapsed_s": elapsed,
            "term_pairs": 0, "keys": {}, "load_hits": 3, "load_misses": 1}
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for sid, parent, name, start, end in records:
            fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end})
                     + "\n")


class SpanArithmetic(unittest.TestCase):
    # series.mul [0, 10] holds cyclotomic.mul [1, 4] (which holds
    # cyclotomic.inverse [2, 3]) and cyclotomic.mul [5, 9]
    TREE = [(3, 2, "cyclotomic.inverse", 2.0, 3.0),
            (2, 1, "cyclotomic.mul", 1.0, 4.0),
            (4, 1, "cyclotomic.mul", 5.0, 9.0),
            (1, 0, "series.mul", 0.0, 10.0)]

    def test_self_times(self):
        self.assertEqual(spans.self_times(self.TREE),
                         {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})

    def test_summarize_sums_runs_and_shares(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"r{i}.jsonl") for i in (1, 2)]
            for i, path in enumerate(paths):
                write_spans(path, f"r{i}", self.TREE, 20.0)
            metrics, shares, traced_s = spans.summarize(paths)
        self.assertEqual(metrics["cyclotomic.mul.calls"], 4)
        self.assertEqual(metrics["cyclotomic.mul.self_s"], 12.0)
        self.assertEqual(metrics["series.mul.self_s"], 6.0)
        self.assertEqual(metrics["tables.load.hit_ratio"], 0.75)
        self.assertEqual(traced_s, 40.0)
        self.assertEqual(shares, {"cyclotomic": 0.35, "series": 0.15})


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(42, 0, -1))
        value, pct, n = tail(samples)
        self.assertEqual(n, 42)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 100 * 32 / 42)

    def test_eleven_samples(self):
        self.assertEqual(tail(range(11)), (0, 100 / 11, 11))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(tail([3, 1, 2]), (3, 100.0, 3))

    def test_spread(self):
        self.assertAlmostEqual(spread([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (4.5 - 1.5) / 3.0)


def samples(at, sample_s, handler_s=0.001):
    """Gauge samples whose handlers begin at ``at``, each timing sample_s."""
    return [(t, t + handler_s - sample_s, t + handler_s) for t in at]


class Rescaling(unittest.TestCase):
    def test_reference_speed_keeps_the_time_less_the_handlers(self):
        events = samples([1.0, 2.0, 3.0], REF_SAMPLE_S)
        self.assertAlmostEqual(scaled(events, 0.5, 4.0), 3.5 - 0.003)

    def test_half_speed_halves_the_time(self):
        events = samples([1.0, 2.0, 3.0], 2 * REF_SAMPLE_S)
        self.assertAlmostEqual(scaled(events, 0.5, 4.0), (3.5 - 0.003) / 2)

    def test_each_stretch_takes_its_own_speed(self):
        # two phases, longer than the smoothing window: 12 fast samples, 12
        # at half speed, one a second; the stretch up to each sample
        # takes that sample's speed
        fast = samples(range(1, 13), REF_SAMPLE_S, 0.0)
        slow = samples(range(13, 25), 2 * REF_SAMPLE_S, 0.0)
        self.assertAlmostEqual(scaled(fast + slow, 0.0, 24.0), 12 + 12 / 2)

    def test_no_sample_inside_takes_the_nearest(self):
        events = samples(range(1, 6), REF_SAMPLE_S) + \
            samples(range(20, 25), 4 * REF_SAMPLE_S)
        self.assertAlmostEqual(scaled(events, 15.0, 16.0), 0.25)

    def test_outlier_sample_is_smoothed_away(self):
        events = samples(range(1, 10), REF_SAMPLE_S, 0.0)
        events[4] = (5.0, 5.0 - 50 * REF_SAMPLE_S, 5.0)
        self.assertAlmostEqual(scaled(events, 0.0, 10.0), 10.0)

    def test_gauged_child_runs_unchanged(self):
        seconds, raw, code, out = run_gauged(
            ["-c", "import sys; print(sys.argv); sys.exit(3)"], ROOT, None,
            limit=60)
        self.assertEqual((code, out), (3, b"['-c']\n"))
        self.assertGreater(seconds, 0.0)
        self.assertGreater(raw, 0.0)

    def test_child_killed_by_a_signal_is_a_failure(self):
        with self.assertRaises(ChildFailed):
            run_gauged(["-c", "import os; os.kill(os.getpid(), 9)"], ROOT,
                       None, limit=60)


class CliDraw(unittest.TestCase):
    def test_same_seed_same_requests(self):
        self.assertEqual(cligrid.draw(7), cligrid.draw(7))

    def test_other_seed_other_draw(self):
        self.assertNotEqual(cligrid.draw(7), cligrid.draw(8))

    def test_draw_follows_the_rule(self):
        grid = {cligrid.key(a) for a in cligrid.grid()}
        for seed in range(20):
            requests = cligrid.draw(seed)
            keys = [cligrid.key(a) for a in requests]
            self.assertTrue(set(keys) <= grid)
            self.assertEqual(len(set(keys)), len(keys))
            subs = [cligrid.subcommand(a) for a in requests]
            for sub in cligrid.SUBCOMMANDS:
                self.assertEqual(subs.count(sub),
                                 cligrid.REQUESTS_PER_SUBCOMMAND, sub)
            for sub, (flag, smallest, default) in cligrid.SIZES.items():
                sizes = sorted(int(a[a.index(flag) + 1]) for a in requests
                               if cligrid.subcommand(a) == sub)
                self.assertEqual(sizes, [smallest, default], sub)

    def test_default_sizes_are_the_cli_defaults(self):
        from k3moonshine.cli import build_parser
        for sub, (flag, _, default) in cligrid.SIZES.items():
            argv = cligrid.requests_at(sub, default)[0]
            i = argv.index(flag)
            args = build_parser().parse_args(argv[:i] + argv[i + 2:])
            self.assertEqual(getattr(args, flag[2:].replace("-", "_")),
                             default, sub)

    def test_every_grid_request_has_a_golden(self):
        goldens = run.load_goldens()["cli"]
        self.assertEqual(set(goldens), {cligrid.key(a) for a in cligrid.grid()})


class Checkers(unittest.TestCase):
    goldens = run.load_goldens()
    CHEAP = ["ellgenus", "--q-order", "1"]

    def cli_error_rate(self, goldens):
        tally = run.Tally()
        draw = cligrid.draw
        cligrid.draw = lambda seed: [self.CHEAP]
        try:
            run.cli_pass(0, run.child_env(), goldens, tally, None, [])
        finally:
            cligrid.draw = draw
        return tally.failed / tally.attempted

    def test_cli_golden_matches(self):
        self.assertEqual(self.cli_error_rate(self.goldens), 0.0)

    def test_flipped_golden_byte_is_an_error(self):
        goldens = copy.deepcopy(self.goldens)
        entry = goldens["cli"][cligrid.key(self.CHEAP)]
        text = entry["stdout"]
        entry["stdout"] = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
        self.assertGreater(self.cli_error_rate(goldens), 0.0)

    def test_wrong_exit_code_is_an_error(self):
        goldens = copy.deepcopy(self.goldens)
        goldens["cli"][cligrid.key(self.CHEAP)]["exit"] = 1
        self.assertGreater(self.cli_error_rate(goldens), 0.0)

    def acceptance_error_rate(self, flip: str) -> float:
        tally = run.Tally()
        for op, want in self.goldens["acceptance"].items():
            ok = want["ok"] != (op == flip)
            detail = want.get("detail", "done")
            tally.record(run.check_worker_op(
                "acceptance", {"op": op, "ok": ok, "detail": detail},
                self.goldens), op)
        return tally.failed / tally.attempted

    def test_expected_verdicts_pass(self):
        self.assertEqual(self.goldens["acceptance"]["8"]["ok"], False)
        self.assertTrue(self.goldens["acceptance"]["8"]["detail"]
                        .startswith("[N : K''] = 1,"))
        self.assertEqual(self.acceptance_error_rate(flip=""), 0.0)

    def test_criterion_8_passing_is_an_error(self):
        self.assertEqual(self.acceptance_error_rate(flip="8"), 0.1)

    def test_flipped_pass_is_an_error(self):
        self.assertEqual(self.acceptance_error_rate(flip="3"), 0.1)

    def test_other_criterion_8_detail_is_an_error(self):
        op = {"op": "8", "ok": False, "detail": "[N : K''] = 2"}
        self.assertFalse(run.check_worker_op("acceptance", op, self.goldens))

    def test_lattice_report_mismatch_is_an_error(self):
        report = dict(self.goldens["tables"]["lattice-report"],
                      Kdp_index_in_N=2)
        op = {"op": "lattice-report", "ok": True, "detail": report}
        self.assertFalse(run.check_worker_op("tables", op, self.goldens))


class Harness(unittest.TestCase):
    def test_probe_slots_spread_every_probe(self):
        for ops, passes in ((10, 1), (14, 5), (18, 2)):
            slots = run.probe_slots(ops, passes)
            self.assertEqual(len(slots), passes)
            self.assertEqual(sum(map(len, slots)), run.SETUP_PROBES)
            self.assertTrue(all(0 <= i < ops for s in slots for i in s))
            self.assertTrue(all(slots))

    def test_worker_timeout_is_a_failure(self):
        def expire(*args, **kwargs):
            raise run.subprocess.TimeoutExpired(args[0], 160)
        tally, real = run.Tally(), run.subprocess.run
        run.subprocess.run = expire
        try:
            result = run.worker_pass("tables", 0, {}, {}, tally, None, [])
        finally:
            run.subprocess.run = real
        self.assertEqual(result, (None, []))
        self.assertEqual((tally.failed, tally.attempted), (1, 1))


class Bindings(unittest.TestCase):
    def snapshot(self):
        spans.import_package()
        return {(prefix, path): find
                for prefix, module, path, _ in spans.TARGETS
                for find in [spans.find_bindings(module, path)]}

    def test_untraced_run_leaves_originals(self):
        before = self.snapshot()
        worker.setup_fixtures()
        for (prefix, path), (raw, owners) in before.items():
            self.assertFalse(spans.is_traced(raw), path)
            for owner, attr in owners:
                self.assertIs(vars(owner)[attr], raw, f"{owner}.{attr}")

    def test_bindings_cover_imports_by_name(self):
        before = self.snapshot()
        _, owners = before[("modforms.eta_power", "eta_power")]
        self.assertLessEqual(
            {"k3moonshine.modforms", "k3moonshine.n4char",
             "k3moonshine.mckay"},
            {getattr(o, "__name__", "") for o, _ in owners})
        _, owners = before[("series.mul", "TruncatedSeries.__mul__")]
        self.assertEqual({a for _, a in owners}, {"__mul__", "__rmul__"})

    def test_traced_run_counts_every_binding(self):
        from k3moonshine import mckay, modforms, n4char
        from k3moonshine.series import TruncatedSeries
        before = self.snapshot()
        tracer = spans.Tracer("test").install()
        try:
            for _, (raw, owners) in before.items():
                for owner, attr in owners:
                    self.assertTrue(spans.is_traced(vars(owner)[attr]))
            for mod in (modforms, n4char, mckay):
                mod.eta_power(1, 24)
            s = TruncatedSeries.const(1, 48)
            _ = s * s, 2 * s, s * 2
        finally:
            tracer.uninstall()
        names = [name for _, _, name, _, _ in tracer.spans]
        self.assertEqual(names.count("modforms.eta_power"), 3)
        self.assertEqual(len(tracer.keys["modforms.eta_power"]), 1)
        self.assertGreaterEqual(names.count("series.mul"), 3)
        self.assertGreaterEqual(tracer.term_pairs, 3)
        after = self.snapshot()
        self.assertEqual(before, after)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_harness_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.UNITS)
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(len(run.PER_LAYER), 122)
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]))


if __name__ == "__main__":
    unittest.main()
