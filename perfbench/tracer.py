"""In-memory span tracer that wraps covwalk's public functions from outside.

Every public function of the layers below, the public methods of
``cover.CoverSystem`` and ``cli.main`` are replaced by a wrapper that records
a span: name, start, end, parent span and the time covered by child spans.
The package looks these functions up through module globals or the class at
call time, so the wrappers see every call made in this process; calls made
in worker processes are not seen, which is why traced runs use one worker.

PSL(2,R) kernel calls (``hyp2``) are frequent enough that one span each
would dominate memory, so they are aggregated per function instead.  Spans
and aggregates stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time

LAYERS = ("config", "fuchsian", "cover", "walk", "stats", "hyp2")
AGGREGATED_LAYERS = ("hyp2",)


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id, name, start, end, child seconds)
        self.spans: list[tuple] = []
        # name -> [calls, inclusive s, s not nested in a call of the same layer]
        self.agg: dict[str, list] = {}
        self.unwind_engaged = 0
        self.unwind_winding = 0
        self._stack: list[list] = []
        self._ids = itertools.count()

    def wrap(self, fn, name: str, layer: str, keep_span: bool, on_result=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                if parent is None or parent[1] != layer:
                    agg[2] += dur
                if parent is not None:
                    parent[2] += dur
                if keep_span:
                    spans.append(
                        (frame[0], parent[0] if parent else None, name, t0, t1, frame[2])
                    )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_unwind(self, result) -> None:
        if result is not None:
            self.unwind_engaged += 1
            self.unwind_winding += abs(result[4])

    def install(self) -> None:
        import covwalk.cli
        import covwalk.cover

        for layer in LAYERS:
            module = getattr(covwalk, layer)
            keep = layer not in AGGREGATED_LAYERS
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    setattr(module, attr, self.wrap(obj, f"{layer}.{attr}", layer, keep))
        system = covwalk.cover.CoverSystem
        for attr, obj in list(vars(system).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                hook = self._on_unwind if attr == "fast_unwind" else None
                setattr(system, attr, self.wrap(obj, f"cover.{attr}", "cover", True, hook))
        covwalk.cli.main = self.wrap(covwalk.cli.main, "cli.main", "cli", True)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "agg": self.agg,
                    "unwind_engaged": self.unwind_engaged,
                    "unwind_winding": self.unwind_winding,
                },
                fh,
            )
