"""Layer-boundary tracing from outside the program.

``Tracer.install()`` replaces, in every ``wittlink`` module, each function
that the module binds by name from another ``wittlink`` module with a
wrapper that records a span; it also wraps ``WittVector.from_polys``
(where numerator and denominator are normalized) and ``AbelianField``
construction (where the subgroup check runs).  The benchmark wraps its own
calls into a workload's entry points with ``Tracer.wrap(..., root=True)``.
Calls a module makes to its own functions, and operator methods such as
``Polynomial.__mul__``, are not boundaries: their time is the caller's
self time.

Times are per-thread CPU seconds (``time.thread_time``), so a span that
runs on a pool thread while another thread holds the interpreter lock is
not charged for the wait.  A span's self time is its duration minus the
durations of its children on the same thread.  Spans that start on a pool
thread with nothing open there take the benchmark's current root span as
parent.  Aggregates are kept per thread and merged at the end, so counts
are exact under threads.  Each function keeps at most ``span_cap`` spans
per thread for the written trace; past that only its aggregates grow.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time

_clock = time.thread_time
PACKAGE = "wittlink"


def _modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    return [importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)]


class Tracer:
    def __init__(self, span_cap: int = 1000):
        self.span_cap = span_cap
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[dict] = []  # per-thread state, merged at the end
        self._patched: list[tuple] = []  # (owner, attribute, original)
        self.root = None  # id of the open root span, parent for pool-thread spans
        self.bindings = 0

    # ------------------------------------------------------------ recording
    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "agg": {}, "open": {}, "spans": [], "thread": threading.get_ident()}
            self._local.st = st
            self._threads.append(st)
        return st

    def wrap(self, fn, name: str, root: bool = False):
        """Return ``fn`` wrapped so each call records a span called ``name``."""

        def traced(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else (None if root else self.root)
            if root:
                self.root = span_id
            frame = [span_id, 0.0]
            stack.append(frame)
            opened = st["open"]
            opened[name] = opened.get(name, 0) + 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                opened[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                agg = st["agg"].get(name)
                if agg is None:
                    agg = st["agg"][name] = [0, 0.0, 0.0]  # calls, inclusive, self
                agg[0] += 1
                agg[2] += dur - frame[1]
                if not opened[name]:
                    agg[1] += dur  # outermost call of this name only
                if agg[0] <= self.span_cap:
                    st["spans"].append((span_id, parent, name, st["thread"], start, end))

        functools.update_wrapper(traced, fn)
        return traced

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for mod in _modules():
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", "") or ""
                if (
                    inspect.isfunction(obj)
                    and origin.startswith(PACKAGE + ".")
                    and origin != mod.__name__
                ):
                    layer = origin.rsplit(".", 1)[1]
                    self._patch(mod, attr, self.wrap(obj, f"{layer}.{obj.__name__}"))
                    self.bindings += 1
        witt = importlib.import_module(f"{PACKAGE}.witt")
        cft = importlib.import_module(f"{PACKAGE}.cft")
        from_polys = witt.WittVector.__dict__["from_polys"].__func__
        self._patch(
            witt.WittVector, "from_polys",
            classmethod(self.wrap(from_polys, "witt.WittVector.from_polys")),
        )
        self._patch(
            cft.AbelianField, "__init__",
            self.wrap(cft.AbelianField.__init__, "cft.AbelianField.__init__"),
        )

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # ------------------------------------------------------------ results
    def aggregates(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds], merged over threads."""
        out: dict = {}
        for st in self._threads:
            for name, (calls, incl, self_s) in st["agg"].items():
                cur = out.setdefault(name, [0, 0.0, 0.0])
                cur[0] += calls
                cur[1] += incl
                cur[2] += self_s
        return out

    def write_spans(self, path: str) -> int:
        """Write kept spans as JSON lines, aggregates first; returns spans written."""
        spans = sorted(s for st in self._threads for s in st["spans"])
        with open(path, "w") as fh:
            fh.write(json.dumps({"aggregates": self.aggregates(), "bindings": self.bindings,
                                 "span_cap": self.span_cap, "clock": "thread_time"}) + "\n")
            for span_id, parent, name, thread, start, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "thread": thread, "start": start, "end": end}) + "\n")
        return len(spans)


def cache_counters() -> dict:
    """Summed hits and misses of every functools cache defined in the package."""
    seen = {}
    for mod in _modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and (getattr(obj, "__module__", "") or "").startswith(PACKAGE):
                seen[id(obj)] = obj
    hits = misses = 0
    for obj in seen.values():
        info = obj.cache_info()
        hits += info.hits
        misses += info.misses
    return {"hits": hits, "misses": misses, "caches": len(seen)}
