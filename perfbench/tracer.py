"""Call tracing of the squarestable layers from outside the package.

Every public function of the traced modules is replaced, at every module
binding of the same function object, by a wrapper that records one span per
call: its name, start, end and parent span.  Spans are folded into running
aggregates as they close (call counts, inclusive and self time, inclusive
time per parent/child edge), so a long run keeps a bounded amount of memory.
A function's self time is its span's duration minus the time covered by the
spans of the wrapped functions it called.

Generator functions get one span per resumption, so the time a corpus
generator spends producing each item is charged to it and not to its
consumer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("generate", "graphs", "solvers", "matchings", "classify", "verify", "cli")
PACKAGE = "squarestable"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edge_inclusive: dict[tuple, float] = defaultdict(float)
        self.cap_refusals = 0
        self.canonical_forms: set = set()
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._cap_error = None

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        self._cap_error = sys.modules[PACKAGE + ".errors"].CapExceededError
        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, binding, wrapper)

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([name, 0.0])
        return parent, time.perf_counter()

    def _close(self, name: str, parent, start: float) -> None:
        end = time.perf_counter()
        _, covered = self._stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - covered
        self.edge_inclusive[(parent, name)] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        keep_form = name == "generate.canonical_graph"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if self.active:
                    self.calls[name] += 1
                while True:
                    if not self.active:
                        yield from inner
                        return
                    parent, start = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, parent, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self._cap_error:
                if layer == "solvers" and (parent is None or not parent.startswith("solvers.")):
                    self.cap_refusals += 1
                raise
            finally:
                self._close(name, parent, start)
            if keep_form:
                self.canonical_forms.add((result.n, tuple(result.adj)))
            return result
        return wrapper

    # -- derived figures -------------------------------------------------

    def children_inclusive(self, parent: str) -> dict[str, float]:
        """Inclusive time of each function called directly by ``parent``."""
        out: dict[str, float] = defaultdict(float)
        for (p, name), seconds in self.edge_inclusive.items():
            if p == parent:
                out[name] += seconds
        return dict(out)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "run_suite_children": self.children_inclusive("verify.run_suite"),
            "cap_refusals": self.cap_refusals,
            "canonical_forms": len(self.canonical_forms),
        }
