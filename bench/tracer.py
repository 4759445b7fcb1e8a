"""Span recording around the program's public functions, for the traced pass.

`Tracer.install` replaces every public function of each `semfuse` layer
module with a wrapper that records a span (name, layer, start, end,
parent). It also replaces the copies of those functions that other
modules imported by name, such as the ones `semfuse.cli` and
`semfuse.evalkit` hold, and the stage table `semfuse.cli.COMMANDS`.
`Tracer.restore` puts every original back. Spans stay in memory until
`write` saves them.

Per-pair helpers get no wrapper: at millions of calls per pass the wrapper
would dominate what it measures. Their work is counted from input sizes.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from pathlib import Path

LAYERS = ("corpus", "geotime", "embed", "spectra", "rankopt", "tsne", "evalkit", "cli")
UNWRAPPED = frozenset({
    "geotime.haversine_miles",
    "rankopt.dist_exp",
    "rankopt.dist_inv",
    "rankopt.dist_floor_geo",
})
# Spans that keep one argument, for counts of distinct work: the token whose
# salience is computed, and the batch size a score matrix covers.
OBSERVED_ARGS = {
    "embed.word_salience": lambda args: args[0],
    "rankopt.pairwise_scores": lambda args: len(args[0]),
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "arg")

    def __init__(self, name: str, layer: str, start: float, parent: int, arg):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.arg = arg


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        observe = OBSERVED_ARGS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, layer, clock(), stack[-1] if stack else -1,
                              observe(args) if observe and args else None))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index].end = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"semfuse.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
        for module in modules.values():
            namespaces = [vars(module)]
            if module.__name__ == "semfuse.cli":
                namespaces.append(module.COMMANDS)
            for namespace in namespaces:
                for attr, obj in list(namespace.items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        self._restore.append((namespace, attr, obj))
                        namespace[attr] = wrapper

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            namespace[attr] = original
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "layer", "start_s", "end_s", "parent"])
            origin = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.layer, f"{s.start - origin:.9f}", f"{s.end - origin:.9f}", s.parent])


class SpanStats:
    """Totals, counts and self times over a list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self.self_time = [s.end - s.start - c for s, c in zip(spans, child_time)]

    def durations(self, *names: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name in names]

    def total(self, *names: str) -> float:
        return float(sum(self.durations(*names)))

    def calls(self, *names: str) -> int:
        return len(self.durations(*names))

    def args(self, name: str) -> list:
        return [s.arg for s in self.spans if s.name == name]

    def children_named(self, parent_name: str, child_name: str) -> int:
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return sum(1 for s in self.spans if s.name == child_name and s.parent in parents)

    def layer_self(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        """Span time of a layer minus the time its child spans cover."""
        return float(sum(t for s, t in zip(self.spans, self.self_time)
                         if s.layer == layer and s.name not in exclude))
