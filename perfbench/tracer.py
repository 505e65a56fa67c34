"""Spans around the calls into posetff's public functions, recorded from outside.

The tracer replaces every module attribute that holds a public posetff
function with a timing wrapper, for as long as it is active.  Wrapping the
attribute rather than the function object means call sites inside the
package see the wrapper too: ``block_sequence`` reaches ``find_good_element``
through its module's globals, and ``cli`` reaches ``interval_order_of``
through the name that ``from .extension import interval_order_of`` bound in
``cli``'s own namespace.  One wrapper serves every alias of a function, so a
span is named after the module that defines the function.

Generator functions are left alone: their body runs lazily in the caller,
so a span around the call would time only the creation of the generator.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import defaultdict


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('posetff.')}.{fn.__name__}"


class Tracer:
    """Records (id, parent, op, name, start, end) for each wrapped call.

    Spans stay in memory until ``write`` is called.  ``op`` labels the unit
    of work the next spans belong to; the runner sets it before each op.
    """

    def __init__(self, modules):
        self.spans: list[tuple[int, int | None, str | None, str, float, float]] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches = []
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("posetff") or inspect.isgeneratorfunction(fn):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._patches.append((mod, attr, fn, wrappers[fn]))
        self.names = sorted(span_name(fn) for fn in wrappers)

    def _wrap(self, fn):
        name = span_name(fn)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))

        return traced

    def __enter__(self) -> "Tracer":
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def totals(self, keep) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds] over the spans whose op passes ``keep``.

        Self time is a span's duration minus the durations of the spans
        nested directly in it.
        """
        nested = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                nested[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, op, name, start, end in self.spans:
            if keep(op):
                row = out[name]
                row[0] += 1
                row[1] += end - start - nested[sid]
                row[2] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
