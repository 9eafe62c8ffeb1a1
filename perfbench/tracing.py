"""Per-layer spans recorded from outside the package.

The package is not instrumented from the inside.  Instead, the names that
its modules look up at call time (``strictcolor.bulk.colorable_mask``,
``strictcolor.lambdacolor.enumerate_grouped``, ...) are rebound to timing
wrappers for the duration of a traced pass and restored afterwards.

Spans nest: every wrapper pushes a frame whose child time its inner spans
add to, so a layer's reported time is its self time, span minus child
spans.  Generator layers (stream generation, row packing) are timed per
``next()`` call, so a generator's span covers exactly the work done to
produce each item and nothing its consumer does in between.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Iterator

import strictcolor
from strictcolor import bulk, lambdacolor, listcolor, strict

# Layers whose self time is reported, in report order.
TIMED_LAYERS = (
    "streams.generate", "bulk.pack", "bulk.mask", "streams.canonical_class",
    "listcolor.l_color", "listcolor.k_choosable", "lambdacolor.partitionable",
    "graphs.chromatic_number", "strict.search", "strict.cmp",
)

# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTS = (
    "streams.rows", "bulk.chunks", "bulk.mask_rows", "bulk.uncolorable_rows",
    "bulk.choice_space_max", "streams.canonical_class_calls",
    "listcolor.l_color_calls", "listcolor.l_color_nodes",
    "listcolor.k_choosable_calls", "lambdacolor.partitionable_calls",
    "lambdacolor.undecided", "graphs.chromatic_number_calls",
    "strict.hj_classes",
)


class Tracer:
    """Self times and counts for one traced stretch of work."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Child time of every open span; the bottom entry is the root.
        self._child = [0.0]

    # -- spans ---------------------------------------------------------

    def _call(self, layer: str | None, fn: Callable,
              after: Callable | None = None) -> Callable:
        """Wrap a plain function; ``after(tracer, args, result)`` counts."""
        child = self._child
        self_s = self.self_s

        @wraps(fn)
        def traced(*args, **kwargs):
            if layer is None:
                out = fn(*args, **kwargs)
            else:
                child.append(0.0)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span = perf_counter() - t0
                    self_s[layer] += span - child.pop()
                    child[-1] += span
            if after is not None:
                after(self, args, out)
            return out
        return traced

    def _gen(self, layer: str, fn: Callable, count: str) -> Callable:
        """Wrap a generator function; each next() is one span."""
        child = self._child
        self_s = self.self_s
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def spans() -> Iterator:
                items = 0
                try:
                    while True:
                        child.append(0.0)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span = perf_counter() - t0
                            self_s[layer] += span - child.pop()
                            child[-1] += span
                        items += 1
                        yield item
                finally:
                    counts[count] += items
            return spans()
        return traced

    # -- counters --------------------------------------------------------

    @staticmethod
    def _count_mask(tr: "Tracer", args: tuple, mask) -> None:
        chunk, n, edges = args[0], args[1], args[2]
        tr.counts["bulk.mask_rows"] += int(chunk.shape[0])
        tr.counts["bulk.uncolorable_rows"] += int(chunk.shape[0]
                                                  - mask.sum())
        if n and len(edges):
            space = (chunk.shape[1] // n) ** n
            if space > tr.counts["bulk.choice_space_max"]:
                tr.counts["bulk.choice_space_max"] = space

    @staticmethod
    def _calls(name: str) -> Callable:
        def after(tr: "Tracer", _args: tuple, _out) -> None:
            tr.counts[name] += 1
        return after

    @staticmethod
    def _count_l_color(tr: "Tracer", _args: tuple, out) -> None:
        tr.counts["listcolor.l_color_calls"] += 1
        tr.counts["listcolor.l_color_nodes"] += out.nodes_searched

    @staticmethod
    def _count_undecided(tr: "Tracer", _args: tuple, verdict) -> None:
        if verdict.choosable is None:
            tr.counts["lambdacolor.undecided"] += 1

    @staticmethod
    def _count_hj(tr: "Tracer", _args: tuple, classes) -> None:
        tr.counts["strict.hj_classes"] += len(classes)

    def _bindings(self) -> list[tuple[object, str, Callable]]:
        """(module, attribute, wrapper) for every rebound name."""
        l_color = self._call("listcolor.l_color", listcolor.l_color,
                             self._count_l_color)
        k_choosable = self._call("listcolor.k_choosable",
                                 listcolor.k_choosable,
                                 self._calls("listcolor.k_choosable_calls"))
        lam_choosable = self._call(None, lambdacolor.lambda_choosable,
                                   self._count_undecided)
        return [
            (lambdacolor, "enumerate_grouped",
             self._gen("streams.generate", lambdacolor.enumerate_grouped,
                       "streams.rows")),
            (listcolor, "enumerate_k_lists",
             self._gen("streams.generate", listcolor.enumerate_k_lists,
                       "streams.rows")),
            (strict, "enumerate_k_lists",
             self._gen("streams.generate", strict.enumerate_k_lists,
                       "streams.rows")),
            (bulk, "row_chunks",
             self._gen("bulk.pack", bulk.row_chunks, "bulk.chunks")),
            (bulk, "colorable_mask",
             self._call("bulk.mask", bulk.colorable_mask, self._count_mask)),
            (strict, "canonical_class",
             self._call("streams.canonical_class", strict.canonical_class,
                        self._calls("streams.canonical_class_calls"))),
            (listcolor, "l_color", l_color),
            (lambdacolor, "l_color", l_color),
            (strict, "l_color", l_color),
            (listcolor, "k_choosable", k_choosable),
            (lambdacolor, "k_choosable", k_choosable),
            (lambdacolor, "lambda_partitionable",
             self._call("lambdacolor.partitionable",
                        lambdacolor.lambda_partitionable,
                        self._calls("lambdacolor.partitionable_calls"))),
            (strictcolor, "lambda_choosable", lam_choosable),
            (strict, "lambda_choosable", lam_choosable),
            (strict, "chromatic_number",
             self._call("graphs.chromatic_number", strict.chromatic_number,
                        self._calls("graphs.chromatic_number_calls"))),
            (strictcolor, "decide_strict_search",
             self._call("strict.search", strictcolor.decide_strict_search)),
            (strictcolor, "decide_strict_cmp",
             self._call("strict.cmp", strictcolor.decide_strict_cmp)),
            (strictcolor, "hoffman_johnson_enumerate",
             self._call(None, strictcolor.hoffman_johnson_enumerate,
                        self._count_hj)),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind the traced names for the duration of the block."""
        saved = []
        try:
            for mod, name, wrapper in self._bindings():
                saved.append((mod, name, getattr(mod, name)))
                setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)
            # Abandoned stream generators report their counts when closed.
            gc.collect()

    def report(self) -> dict[str, float]:
        """Every layer time and count, zero where the layer never ran."""
        out: dict[str, float] = {f"{layer}_s": self.self_s.get(layer, 0.0)
                                 for layer in TIMED_LAYERS}
        out.update({name: self.counts.get(name, 0) for name in EXACT_COUNTS})
        out["streams.rows_per_s"] = _rate(out["streams.rows"],
                                          out["streams.generate_s"])
        out["bulk.mask_rows_per_s"] = _rate(out["bulk.mask_rows"],
                                            out["bulk.mask_s"])
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
