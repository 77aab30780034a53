"""Spans around amplekit's layer functions, recorded from outside the program.

`Tracer.install()` replaces each function in LAYERS by a wrapper on its
module.  amplekit calls these functions through module attributes (for
example `peeling` calls `graph.corners`, `repmap` calls
`shatter._strongly_shattered_sets`, and `shatter`'s own entry points call
`_shattered_sets` through the module globals), so every call, also one
between layers, passes a wrapper and gets a span: name, start, end and the
span that was open when it began.  A span's self time is its duration minus
that of its child spans; module self time is the sum over the module's spans.
Time in helpers that are not wrapped counts toward the innermost wrapped
caller.

Functions called tens of thousands of times in a run (`graph.is_corner`,
`shatter._is_shattered`, `core.reduction_tags`) are not wrapped: the wrapper
cost would be a visible share of their time.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "shatter", "graph", "peeling", "repmap", "compress",
           "matching", "generate", "cli")


def _sized(counter):
    return lambda args, result: {counter: len(result)}


def _cubes(args, tags):
    return {"graph.cubes": sum(len(ts) for ts in tags.values())}


def _peeling(args, result):
    # |C| - 1 concepts are peeled when the search succeeds
    return {"peeling.expansions": result.expansions,
            "peeling.useful": args[0].size - 1 if result.peelable else 0}


# module.function -> None, or the work counts to read off a call's arguments
# and result
LAYERS = {
    "core.parse_class_text": None,
    "core.format_class": None,
    "shatter._shattered_sets": _sized("shatter.shattered_sets"),
    "shatter._strongly_shattered_sets": _sized("shatter.strongly_shattered_sets"),
    "shatter._is_ample_fast": None,
    "shatter.forbidden_labels": None,
    "graph.cube_tags": _cubes,
    "graph.corners": _sized("graph.corners_found"),
    "graph.is_isometric": None,
    "graph.edges": None,
    "graph.is_connected": None,
    "peeling.corner_peeling_search": _peeling,
    "peeling.collapse_sequence": None,
    "peeling.ordering_to_shelling": None,
    "repmap.parse_repmap_text": None,
    "repmap.format_repmap": None,
    "repmap.build_maximum_repmap": None,
    "repmap.verify_repmap": None,
    "repmap.tail_matching_analysis": None,
    "compress.reconstruct_unique": None,
    "matching.hopcroft_karp": _sized("matching.matched"),
    "generate.random_ample": None,
    "generate.batch_row": None,
}
ROOT = "cli.main"
COUNTERS = ("shatter.shattered_sets", "shatter.strongly_shattered_sets",
            "graph.cubes", "graph.corners_found", "peeling.expansions",
            "matching.matched")


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if counts is not None:
                self.counts.update(counts(args, result))
            return result
        return wrapper

    def install(self) -> None:
        for qual, counts in LAYERS.items():
            mod_name, fn_name = qual.split(".")
            mod = importlib.import_module("amplekit." + mod_name)
            fn = getattr(mod, fn_name)
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self.wrap(qual, fn, counts))

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - child[i] for i, (_, t0, t1, _p) in enumerate(self.spans)]

    def inclusive(self, first: int, last: int) -> dict:
        """Inclusive seconds per function over spans first..last-1."""
        out = defaultdict(float)
        for name, t0, t1, _ in self.spans[first:last]:
            out[name] += t1 - t0
        return dict(out)

    def metrics(self) -> dict:
        """Inclusive time and call count per wrapped function, self time per
        module, the work counters and the peeling useful-work ratio."""
        incl = self.inclusive(0, len(self.spans))
        calls = Counter(span[0] for span in self.spans)
        mod_self = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            mod_self[span[0].split(".")[0]] += own
        out = {}
        for name in (*LAYERS, ROOT):
            out[f"{name}_s"] = (incl.get(name, 0.0), "s")
            out[f"{name}_calls"] = (calls[name], "count")
        for mod in MODULES:
            out[f"{mod}.self_s"] = (mod_self[mod], "s")
        for c in COUNTERS:
            out[c] = (self.counts[c], "count")
        exp = self.counts["peeling.expansions"]
        # no peeling in the run reads 0, not an undefined ratio
        out["peeling.useful_ratio"] = (self.counts["peeling.useful"] / exp if exp else 0.0,
                                       "ratio")
        return out
