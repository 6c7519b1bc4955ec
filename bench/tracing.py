"""In-memory tracer for the traced benchmark run, and the per-layer
metrics derived from what it records.

The tracer wraps public functions of tuttelab from outside, so the library
is unchanged.  Coarse boundaries (the workload operation, a verify suite,
``expand``, ``brute_force_gf``, ``all_maps``, a ``potts`` batch) become
spans: name, attributes, start, end, parent, self time and counts.  The hot
ring operations and the per-map calls only add to aggregated call counts
and self times, because a span per call would cost more than the call.
Self time is a call's duration minus the time of the wrapped calls nested
in it.  Everything stays in memory until ``export`` at the end of the
child.

Functions are replaced in every tuttelab module that bound them by name
(``tuttelab.equations`` imports ``fixed_point`` this way), and methods on
their classes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

EQUATIONS = ("MAPS_1CAT", "NT", "NQ", "BIP", "EULER_NT", "POTTS_MAPS",
             "TUTTE_MAPS", "TUTTE_NONSEP_TRI", "POTTS_QUASI_TRI",
             "TUTTE_QUASI_TRI", "BIPOLAR_MAPS", "BIPOLAR_TRI")
SUITES = ("counts", "potts", "equations", "closed_forms", "kernels",
          "algebraic", "desystems", "bijections")

#: Every per-layer metric, in report order, with its unit.  A metric whose
#: layer does no work on a workload reads 0 there.
LAYER_METRICS = (
    [(f"verify.{s}_s", "s") for s in SUITES]
    + [("cli.exit_s", "s")]
    + [(f"generate.all_maps_s.n{n}", "s") for n in (5, 6, 7)]
    + [("maps.built.n6", "count"), ("maps.built.n7", "count"),
       ("generate.all_maps.kept_ratio.n6", "ratio"),
       ("generate.all_maps.kept_ratio.n7", "ratio"),
       ("generate.non_separable_near_triangulations_s", "s"),
       ("generate.non_separable_near_triangulations.kept_ratio", "ratio"),
       ("generate.all_maps_oracle_s.n4", "s")]
    + [(f"equations.brute_force_gf_s.{e}", "s") for e in EQUATIONS]
    + [(f"equations.expand_s.{e}", "s") for e in EQUATIONS]
    + [(f"series.fixed_point.rounds.{e}", "count") for e in EQUATIONS]
    + [(f"{op}.{kind}", unit) for op in ("poly.subs", "poly.mul", "poly.add",
                                         "series.mul")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("potts.census_s", "s"), ("potts.sample_s", "s"),
       ("potts.tutte_s", "s"), ("potts.potts_us.p50", "us"),
       ("potts.potts_us.tail", "us"), ("potts.memo_hit_ratio", "ratio"),
       ("potts.memo_entries", "count"),
       ("bijections.mullin_decode_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class Span:
    __slots__ = ("id", "parent", "name", "attrs", "start", "end", "child",
                 "counts")

    def __init__(self, id_, parent, name, attrs, start):
        self.id, self.parent, self.name = id_, parent, name
        self.attrs, self.start = attrs, start
        self.end = self.child = None
        self.counts = {}

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "attrs": self.attrs, "start": self.start, "end": self.end,
                "self_s": self.end - self.start - self.child,
                "counts": self.counts}


class Tracer:
    def __init__(self):
        self._frames = []      # nested wrapped-call seconds of each open call
        self._open = []        # open spans, innermost last
        self._ids = itertools.count(1)
        self.spans = []
        self.hot = {}          # name -> [calls, self seconds]
        self.samples = defaultdict(list)   # name -> seconds of each call

    # -- recording -------------------------------------------------------

    def _enter(self, name, attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(next(self._ids), parent, name, attrs, perf_counter())
        self._open.append(s)
        self._frames.append(0.0)
        return s

    def _exit(self, s, keep=True):
        s.end = perf_counter()
        s.child = self._frames.pop()
        self._open.pop()
        if self._frames:
            self._frames[-1] += s.end - s.start
        if keep:
            self.spans.append(s)

    @contextmanager
    def span(self, name, **attrs):
        s = self._enter(name, attrs)
        try:
            yield s
        finally:
            self._exit(s)

    def count(self, key, k=1):
        """Add to a count of the innermost open span."""
        if self._open:
            counts = self._open[-1].counts
            counts[key] = counts.get(key, 0) + k

    # -- wrappers ----------------------------------------------------------

    def _hot(self, name, fn, keep_samples=False):
        agg = self.hot.setdefault(name, [0, 0.0])
        frames = self._frames
        record = self.samples[name].append if keep_samples else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg[0] += 1
                agg[1] += elapsed - frames.pop()
                if frames:
                    frames[-1] += elapsed
                if record is not None:
                    record(elapsed)
        return wrapper

    def _spanned(self, name, fn, attrs, record_len=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._enter(name, attrs(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
                if record_len:
                    s.attrs["returned"] = len(result)
                return result
            finally:
                self._exit(s)
        return wrapper

    def _all_maps(self, fn):
        """A span per call that built maps (memo hits leave none); the maps
        returned are counted as scanned by the caller's span."""
        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            s = self._enter("generate.all_maps", {"n": n})
            result = None
            try:
                result = fn(n, *args, **kwargs)
                return result
            finally:
                s.attrs["returned"] = len(result) if result is not None else 0
                self._exit(s, keep="maps.built" in s.counts)
                self.count("maps.scanned", s.attrs["returned"])
        return wrapper

    def _fixed_point(self, fn):
        """Count calls of the update function: the fixed-point rounds."""
        count = self.count

        @functools.wraps(fn)
        def wrapper(update, *args, **kwargs):
            def counted(f):
                count("fixed_point.rounds")
                return update(f)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _counted_init(self, init):
        count = self.count

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            count("maps.built")
        return wrapper

    def install(self):
        """Import every tuttelab module and wrap the traced functions."""
        pkg = importlib.import_module("tuttelab")
        mods = [importlib.import_module(f"tuttelab.{info.name}")
                for info in pkgutil.iter_modules(pkg.__path__)]
        from tuttelab import (bijections, equations, generate, maps, poly,
                              potts, series)

        def replace(fn, wrapper):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

        def eq_attrs(eq, *args, **kwargs):
            return {"eq": getattr(eq, "value", repr(eq))}

        def n_attrs(n, *args, **kwargs):
            return {"n": n}

        replace(series.fixed_point, self._fixed_point(series.fixed_point))
        replace(equations.expand, self._spanned(
            "equations.expand", equations.expand, eq_attrs))
        replace(equations.brute_force_gf, self._spanned(
            "equations.brute_force_gf", equations.brute_force_gf, eq_attrs))
        replace(generate.all_maps, self._all_maps(generate.all_maps))
        replace(generate.all_maps_oracle, self._spanned(
            "generate.all_maps_oracle", generate.all_maps_oracle, n_attrs))
        nsnt = generate.non_separable_near_triangulations
        replace(nsnt, self._spanned(
            "generate.non_separable_near_triangulations", nsnt, n_attrs,
            record_len=True))
        replace(potts.potts, self._hot("potts.potts", potts.potts,
                                       keep_samples=True))
        replace(potts.tutte, self._hot("potts.tutte", potts.tutte))
        replace(bijections.mullin_decode,
                self._hot("bijections.mullin_decode", bijections.mullin_decode))
        for cls, attr, name in (
                (poly.MultiPoly, "__add__", "poly.add"),
                (poly.MultiPoly, "__radd__", "poly.add"),
                (poly.MultiPoly, "__mul__", "poly.mul"),
                (poly.MultiPoly, "__rmul__", "poly.mul"),
                (poly.MultiPoly, "subs", "poly.subs"),
                (series.TSeries, "__mul__", "series.mul"),
                (series.TSeries, "__rmul__", "series.mul")):
            setattr(cls, attr, self._hot(name, cls.__dict__[attr]))
        maps.RootedMap.__init__ = self._counted_init(maps.RootedMap.__init__)

    def export(self) -> dict:
        """Plain data for the parent: spans, aggregates, samples, memo."""
        potts = sys.modules.get("tuttelab.potts")
        info = getattr(getattr(potts, "_potts_of_key", None), "cache_info",
                       None)
        return {"spans": [s.as_dict() for s in self.spans],
                "hot": {k: list(v) for k, v in self.hot.items()},
                "samples": dict(self.samples),
                "potts_memo": info()._asdict() if info else None}


# -- per-layer metrics (parent side) -------------------------------------------


def tail_percentile(n):
    """The highest of 50, 90, 99, 99.9, 99.99 with at least ten of n
    samples beyond it (50 when there are fewer than 20 samples)."""
    best = 50.0
    for p in (90.0, 99.0, 99.9, 99.99):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of an unsorted list (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(trace, exit_s, overhead_ratio):
    """{metric: value} for every name in LAYER_METRICS, plus notes."""
    spans = trace["spans"]
    hot = trace["hot"]
    out = {name: 0 for name, _ in LAYER_METRICS}
    notes = {}

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="incl", **attrs):
        picked = [s for s in spans_named(name)
                  if all(s["attrs"].get(k) == v for k, v in attrs.items())]
        if key == "incl":
            return sum(s["end"] - s["start"] for s in picked)
        if key == "self":
            return sum(s["self_s"] for s in picked)
        return sum(s["counts"].get(key, 0) for s in picked)

    for suite in SUITES:
        out[f"verify.{suite}_s"] = total(f"verify.{suite}")
    out["cli.exit_s"] = exit_s
    for n in (5, 6, 7):
        out[f"generate.all_maps_s.n{n}"] = total("generate.all_maps", "self",
                                                 n=n)
    for n in (6, 7):
        built = total("generate.all_maps", "maps.built", n=n)
        out[f"maps.built.n{n}"] = built
        returned = sum(s["attrs"]["returned"]
                       for s in spans_named("generate.all_maps")
                       if s["attrs"]["n"] == n)
        out[f"generate.all_maps.kept_ratio.n{n}"] = (returned / built
                                                     if built else 0)
    nsnt = "generate.non_separable_near_triangulations"
    out[f"{nsnt}_s"] = total(nsnt, "self")
    scanned = total(nsnt, "maps.scanned")
    kept = sum(s["attrs"].get("returned", 0) for s in spans_named(nsnt))
    out[f"{nsnt}.kept_ratio"] = kept / scanned if scanned else 0
    out["generate.all_maps_oracle_s.n4"] = total("generate.all_maps_oracle",
                                                 n=4)
    for eq in EQUATIONS:
        out[f"equations.brute_force_gf_s.{eq}"] = total(
            "equations.brute_force_gf", eq=eq)
        out[f"equations.expand_s.{eq}"] = total("equations.expand", eq=eq)
        out[f"series.fixed_point.rounds.{eq}"] = total(
            "equations.expand", "fixed_point.rounds", eq=eq)
    for op in ("poly.subs", "poly.mul", "poly.add", "series.mul"):
        calls, self_s = hot.get(op, (0, 0.0))
        out[f"{op}.calls"] = calls
        out[f"{op}.self_s"] = self_s
    out["potts.census_s"] = total("potts.census")
    out["potts.sample_s"] = total("potts.sample")
    out["potts.tutte_s"] = total("potts.tutte")
    us = [s * 1e6 for s in trace["samples"].get("potts.potts", [])]
    tail = tail_percentile(len(us))
    out["potts.potts_us.p50"] = percentile(us, 50)
    out["potts.potts_us.tail"] = percentile(us, tail)
    notes["potts.potts_us"] = f"{len(us)} calls, tail = p{tail:g}"
    memo = trace["potts_memo"]
    if memo:
        lookups = memo["hits"] + memo["misses"]
        out["potts.memo_hit_ratio"] = memo["hits"] / lookups if lookups else 0
        out["potts.memo_entries"] = memo["currsize"]
    out["bijections.mullin_decode_s"] = hot.get("bijections.mullin_decode",
                                                (0, 0.0))[1]
    out["trace.overhead_ratio"] = overhead_ratio
    return out, notes
