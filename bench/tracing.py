"""Outside-in tracing of dsfusion's layers.

``Tracer`` rebinds every public function of the layer modules to a wrapper
that records a span (name, start, end, parent) in flat in-memory arrays.
A name is rebound in its defining module and in every module that imported
it by name (``classify`` imports ``combine_all`` and the mass builders,
``data`` the classifiers and trainers, ``cli`` the loaders and ``evaluate``),
so calls through either binding are seen. Functions that look up a sibling
as a module global, such as ``combine_all`` calling ``combine``, get a child
span for the inner call.

Classes are not wrapped, so time spent constructing a ``MassFunction`` or a
``Prediction`` counts as self time of the function that built it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("evidence", "bpa", "classify", "data", "cli")


def bindings_of(mods: dict, fn) -> list[tuple[object, str]]:
    """Every (module, name) among dsfusion's modules that is bound to ``fn``."""
    return [(module, name) for module in mods.values()
            for name, value in list(vars(module).items()) if value is fn]


class Tracer:
    def __init__(self, mods: dict):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised: list[int] = []  # spans that ended in ValueError
        self._stack = [-1]
        self._ids: dict[str, int] = {}
        self._bindings = []
        for layer in LAYERS:
            module = mods[layer]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, self._id(f"{layer}.{attr}"))
                self._bindings += [(m, n, fn, wrapper) for m, n in bindings_of(mods, fn)]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_id: int):
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except ValueError:
                raised.append(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, name, _fn, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn, _wrapper in self._bindings:
            setattr(module, name, fn)

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span, e.g. one benchmark batch, around traced calls."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self._stack.append(i)
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def reset(self) -> None:
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.raised.clear()

    def reduce(self) -> "SpanStats":
        """Calls, inclusive time per name and self time per layer."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += durations[i]
        stats = SpanStats()
        for i, d in enumerate(durations):
            name = self.names[self.name_id[i]]
            stats.calls[name] += 1
            stats.incl_ns[name] += d
            stats.self_ns[name.split(".", 1)[0]] += d - children[i]
            if self.parent[i] < 0:
                stats.root_ns += d
        for i in self.raised:
            stats.raised[self.names[self.name_id[i]]] += 1
        return stats

    def dump(self, path: Path) -> None:
        """Write the recorded spans as gzipped JSON columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


class SpanStats:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.root_ns = 0

    def add(self, other: "SpanStats", time_scale: float) -> None:
        """Accumulate ``other``, multiplying its times by ``time_scale``."""
        self.calls += other.calls
        self.raised += other.raised
        for mine, theirs in ((self.incl_ns, other.incl_ns), (self.self_ns, other.self_ns)):
            for key, ns in theirs.items():
                mine[key] += ns * time_scale
        self.root_ns += other.root_ns * time_scale


def cache_lookups(bpa) -> tuple[int, int] | None:
    """(hits, misses) summed over the bpa LRU caches, or None once they are gone."""
    caches = [getattr(bpa, name, None) for name in ("_scaled_mass_cached", "_table_mass_cached")]
    infos = [c.cache_info() for c in caches if hasattr(c, "cache_info")]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


MASS_BUILDERS = ("sigmoid_mass", "scaled_sigmoid_mass", "table_mass", "boundary_mass", "distance_mass")
BPA_TRAINERS = ("modified_median_threshold", "select_feature", "fit_boundaries")
CLASSIFY_TRAINERS = ("train_binary", "train_three_class")
CLASSIFIERS = ("classify_binary", "classify_three_class", "classify_email")
LOADERS = ("load_wbcd", "load_iris", "load_email")


def layer_metrics(stats: SpanStats, passes: int, items: int,
                  cache: tuple[int, int] | None, overhead_ratio: float) -> dict:
    """Per-layer metrics over ``passes`` traced passes of ``items`` items in total."""

    def calls(layer, names):
        return sum(stats.calls[f"{layer}.{n}"] for n in names)

    def incl(layer, names):
        return sum(stats.incl_ns[f"{layer}.{n}"] for n in names)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    folds = calls("classify", CLASSIFY_TRAINERS)
    wall = stats.root_ns
    metrics = {
        "evidence.combine.calls_per_item": (per(stats.calls["evidence.combine"], items), "calls/item"),
        "evidence.combine.us_per_call": (
            per(stats.incl_ns["evidence.combine"], stats.calls["evidence.combine"], 1e-3), "us"),
        "evidence.self_share": (per(stats.self_ns["evidence"], wall), "ratio"),
        "bpa.mass.calls_per_item": (per(calls("bpa", MASS_BUILDERS), items), "calls/item"),
        "bpa.mass.us_per_call": (
            per(incl("bpa", MASS_BUILDERS), calls("bpa", MASS_BUILDERS), 1e-3), "us"),
        "bpa.self_share": (per(stats.self_ns["bpa"], wall), "ratio"),
        "bpa.train.ms_per_fold": (per(incl("bpa", BPA_TRAINERS), folds, 1e-6), "ms"),
        "classify.train.ms_per_fold": (per(incl("classify", CLASSIFY_TRAINERS), folds, 1e-6), "ms"),
        "classify.us_per_record": (
            per(incl("classify", CLASSIFIERS), calls("classify", CLASSIFIERS), 1e-3), "us"),
        "classify.self_share": (per(stats.self_ns["classify"], wall), "ratio"),
        "classify.fallbacks": (per(stats.raised["classify.classify_binary"], passes), "count"),
        "data.load.ms": (per(incl("data", LOADERS), calls("data", LOADERS), 1e-6), "ms"),
        "data.evaluate.ms_per_cv": (
            per(stats.incl_ns["data.evaluate"], stats.calls["data.evaluate"], 1e-6), "ms"),
        "data.self_share": (per(stats.self_ns["data"], wall), "ratio"),
        "cli.self_ms_per_call": (per(stats.self_ns["cli"], stats.calls["cli.main"], 1e-6), "ms"),
        "cli.self_share": (per(stats.self_ns["cli"], wall), "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    if cache is not None:
        hits, misses = cache
        metrics["bpa.cache_hit_ratio"] = (per(hits, hits + misses), "ratio")
    return metrics
