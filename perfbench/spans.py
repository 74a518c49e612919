"""Outside-in span tracer for k3moonshine.

The tracer wraps public functions and methods of the package from outside:
it rebinds every name under which a traced object is reachable (module
globals that imported it by name, class attributes such as
``TruncatedSeries.__rmul__``, which is the same function as ``__mul__``) and
restores the originals on ``uninstall``.  Nothing is patched unless a
``Tracer`` is installed, so an untraced run executes the package unchanged.

Spans are kept in memory and written as JSON lines when the traced process
ends; ``summarize`` turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, record distinct argument tuples)
TARGETS = (
    ("series.mul", "series", "TruncatedSeries.__mul__", False),
    ("series.invert", "series", "TruncatedSeries.invert", False),
    ("series.divide_exact", "series", "TruncatedSeries.divide_exact", False),
    ("series.substitute_q_shift", "series",
     "TruncatedSeries.substitute_q_shift", False),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__", False),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse", False),
    ("modforms.eta_power", "modforms", "eta_power", True),
    ("modforms.jacobi_theta", "modforms", "jacobi_theta", True),
    ("modforms.weak_jacobi_phi", "modforms", "weak_jacobi_phi", True),
    ("genus.elliptic_genus", "genus", "elliptic_genus", True),
    ("genus.equivariant_elliptic_genus", "genus",
     "equivariant_elliptic_genus", True),
    ("genus.jacobi_split", "genus", "jacobi_split", False),
    ("n4char.h_series", "n4char", "h_series", True),
    ("n4char.polar_part", "n4char", "polar_part", True),
    ("n4char.ch_vn_h_form", "n4char", "ch_vn_h_form", True),
    ("n4char.ramond_basis_character", "n4char", "ramond_basis_character", True),
    ("n4char.decompose_into_n4", "n4char", "decompose_into_n4", False),
    ("n4char.twining_to_symtraces", "n4char", "twining_to_symtraces", False),
    ("n4char.ch_v_product", "n4char", "ch_v_product", False),
    ("n4char.ch_vn_closed", "n4char", "ch_vn_closed", False),
    ("mckay.sigma_coefficients", "mckay", "sigma_coefficients", True),
    ("mckay.f_series", "mckay", "f_series", True),
    ("mckay.twining_genus", "mckay", "twining_genus", True),
    ("mckay.m2_basis", "mckay", "m2_basis", True),
    ("qpoly.expand", "qpoly", "RationalFunction.expand", False),
    ("qpoly.reconstruct_rational", "qpoly", "reconstruct_rational", False),
    ("lattice.hermite_normal_form", "lattice", "hermite_normal_form", False),
    ("lattice.smith_normal_form", "lattice", "smith_normal_form", False),
    ("replattice.restricted_lattice", "replattice", "restricted_lattice", False),
    ("replattice.mukai_lattice_N", "replattice", "mukai_lattice_N", False),
    ("replattice.decompose_family", "replattice", "decompose_family", False),
    ("replattice.m_chi_rational", "replattice", "m_chi_rational", False),
    ("groups.enumerate_group", "groups", "enumerate_group", False),
    ("groups.conjugacy_classes", "groups", "conjugacy_classes", False),
    ("groups.rational_character_table", "groups",
     "rational_character_table", False),
    ("mukai.mukai_table", "mukai", "mukai_table", False),
    ("mill.class_data", "mill", "class_data", True),
    ("mill.mill_rational_table", "mill", "mill_rational_table", True),
    ("chartab.loads", "chartab", "CharacterTable.loads", False),
    ("chartab.validate", "chartab", "CharacterTable.validate", False),
    ("chartab.dumps", "chartab", "CharacterTable.dumps", False),
    ("tables.load", "tables", "load_m23", False),
    ("tables.load", "tables", "load_m24", False),
    ("tables.load", "tables", "load_mukai", False),
    ("tables.load", "tables", "load_co0_restricted", False),
    ("tables.generate_all", "tables", "generate_all", False),
)

LOAD_FUNCTIONS = ("load_m23", "load_m24", "load_mukai", "load_co0_restricted")


def _span_metric_names() -> tuple:
    names = []
    for prefix, _, _, distinct in TARGETS:
        if prefix == "series.mul":
            kinds = ("calls", "self_s", "term_pairs")
        elif prefix == "tables.load":
            kinds = ("calls", "hit_ratio", "self_s")
        elif prefix == "tables.generate_all":
            kinds = ("self_s",)
        elif distinct:
            kinds = ("calls", "distinct", "self_s")
        else:
            kinds = ("calls", "self_s")
        names += [f"{prefix}.{kind}" for kind in kinds]
    return tuple(dict.fromkeys(names))


# metrics computed from spans; the harness adds the per-workload ones
SPAN_METRICS = _span_metric_names()


def import_package():
    """Import every k3moonshine module, so that all bindings exist."""
    pkg = importlib.import_module("k3moonshine")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"k3moonshine.{info.name}")
    return pkg


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "k3moonshine"
                                  or name.startswith("k3moonshine."))]


def find_bindings(target_module: str, path: str):
    """Every (owner, attribute name) bound to the traced object.

    For a method, the owners are the class (all aliases of the function in
    its ``__dict__``); for a function, every package module whose globals
    hold the same object.
    """
    module = importlib.import_module(f"k3moonshine.{target_module}")
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        return raw, [(cls, a) for a, v in vars(cls).items() if v is raw]
    raw = getattr(module, path)
    return raw, [(m, a) for m in package_modules()
                 for a, v in vars(m).items() if v is raw]


def is_traced(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "perfbench_span")


def _term_pair_counter():
    """len(a) * len(b) for a series product, len(a) for a scalar multiple."""
    from fractions import Fraction
    from k3moonshine.cyclotomic import CyclotomicNumber
    from k3moonshine.series import TruncatedSeries
    scalars = (int, Fraction, CyclotomicNumber)

    def pairs(args) -> int:
        a, b = args[0], args[1]
        if isinstance(b, TruncatedSeries):
            return len(a.terms) * len(b.terms)
        return len(a.terms) if isinstance(b, scalars) else 0

    return pairs


class Tracer:
    """Records spans around calls into the traced package functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (id, parent, name, start, end)
        self.keys: dict = defaultdict(set)
        self.term_pairs = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list = []       # (owner, attribute, original)
        self._load_originals: list = []
        self._started = None

    def _wrap(self, name: str, fn, distinct: bool):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.perf_counter
        keys = self.keys[name] if distinct else None
        pairs = _term_pair_counter() if name == "series.mul" else None

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(repr((args, sorted(kwargs.items()))))
            if pairs is not None:
                self.term_pairs += pairs(args)
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        functools.update_wrapper(traced, fn)
        traced.perfbench_span = name
        return traced

    def install(self):
        import_package()
        for name, module, path, distinct in TARGETS:
            raw, owners = find_bindings(module, path)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__, distinct))
            else:
                new = self._wrap(name, raw, distinct)
            if path in LOAD_FUNCTIONS:
                self._load_originals.append(raw)
            for owner, attr in owners:
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
        self._started = time.perf_counter()
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, path: str):
        """Write the spans and the run's counters as JSON lines."""
        hits = sum(f.cache_info().hits for f in self._load_originals)
        misses = sum(f.cache_info().misses for f in self._load_originals)
        meta = {"run": self.run_id, "kind": "meta",
                "elapsed_s": time.perf_counter() - self._started,
                "term_pairs": self.term_pairs,
                "keys": {k: sorted(v) for k, v in self.keys.items()},
                "load_hits": hits, "load_misses": misses}
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover.

    ``spans`` holds (id, parent, name, start, end) of one process; calls are
    serial, so child spans of one parent never overlap.
    """
    covered: dict = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid]
            for sid, _, _, start, end in spans}


def read_span_file(path: str):
    meta, spans = None, []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("kind") == "meta":
                meta = rec
            else:
                spans.append((rec["id"], rec["parent"], rec["name"],
                              rec["start"], rec["end"]))
    return meta, spans


def summarize(paths) -> tuple:
    """Per-layer metrics and self-time shares over the given span files.

    Returns (metrics, shares, traced_s): ``metrics`` maps every name in
    SPAN_METRICS to its value, ``shares`` maps each layer to its self time
    as a share of the traced time, ``traced_s`` is that traced time.
    """
    calls: dict = defaultdict(int)
    selfs: dict = defaultdict(float)
    keys: dict = defaultdict(set)
    term_pairs = hits = misses = 0
    traced_s = 0.0
    for path in paths:
        meta, spans = read_span_file(path)
        traced_s += meta["elapsed_s"]
        term_pairs += meta["term_pairs"]
        hits += meta["load_hits"]
        misses += meta["load_misses"]
        for name, ks in meta["keys"].items():
            keys[name].update(ks)
        own = self_times(spans)
        for sid, _, name, _, _ in spans:
            calls[name] += 1
            selfs[name] += own[sid]
    per_kind = {"calls": calls, "self_s": selfs,
                "distinct": {k: len(v) for k, v in keys.items()}}
    metrics = {}
    for m in SPAN_METRICS:
        prefix, kind = m.rsplit(".", 1)
        if kind == "term_pairs":
            metrics[m] = term_pairs
        elif kind == "hit_ratio":
            metrics[m] = hits / (hits + misses) if hits + misses else 0.0
        else:
            metrics[m] = per_kind[kind].get(prefix, 0)
    shares: dict = defaultdict(float)
    for prefix, value in selfs.items():
        shares[prefix.split(".")[0]] += value / traced_s if traced_s else 0.0
    return metrics, dict(sorted(shares.items())), traced_s


def main(argv) -> int:
    """Run one CLI request under the tracer: spans.py SPANS_FILE CLI_ARGS..."""
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(os.path.splitext(os.path.basename(spans_path))[0])
    tracer.install()
    from k3moonshine import cli
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
