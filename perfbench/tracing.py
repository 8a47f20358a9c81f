"""Span recorder and function wrappers for the traced benchmark run.

The traced run wraps the program's public functions from outside: each
wrapper records a span (name, start, end, parent, thread) and bumps
call counters, all in memory.  :meth:`Recorder.dump` writes the spans
out once the process is done.  Nothing here is imported by an untraced
run, so untraced runs execute the program exactly as a user would.

Per-layer self time: a span's duration minus the time its child spans
cover.  A layer is the first dotted component of a span name
(``engine.run_plan`` -> ``engine``).  Spans in the rank threads of the
threaded simmpi backend are measured in thread CPU time rather than wall
time: a rank blocked on a message waits while other ranks run, and their
spans already count that time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory spans and counters of one program process."""

    def __init__(self):
        #: (id, name, start, end, parent, thread, busy seconds)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: Span that adopts the root spans of other threads (the threaded
        #: simmpi backend runs rank threads while ``World.run`` blocks).
        self.adopter: int | None = None
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def span(self, name: str, adopt: bool = False):
        return _Span(self, name, adopt)

    def _open(self, name: str) -> tuple[int, int | None, bool]:
        """Push a span; returns (id, parent, measured in thread CPU time)."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        if stack:
            parent, cpu = stack[-1][0], stack[-1][2]
        else:
            parent, cpu = self.adopter, self.adopter is not None
        stack.append((sid, name, cpu))
        return sid, parent, cpu

    def _close(self, sid, name, parent, t0, t1, busy) -> None:
        self._stack().pop()
        self.spans.append(
            (sid, name, t0, t1, parent, threading.current_thread().name, busy))

    # ---- reductions ------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name (outermost calls only)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[6]
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span time not covered by child spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child[span[4]] += span[6]
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1].split(".", 1)[0]] += span[6] - child[span[0]]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [
                    {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                     "parent": s[4], "thread": s[5], "busy": s[6]}
                    for s in self.spans
                ],
                "counters": dict(self.counters),
                "totals": dict(self.totals()),
                "self": dict(self.self_times()),
            }, fh)


class _Span:
    __slots__ = ("rec", "name", "adopt", "sid", "parent", "cpu", "t0", "c0",
                 "prev")

    def __init__(self, rec: Recorder, name: str, adopt: bool):
        self.rec, self.name, self.adopt = rec, name, adopt

    def __enter__(self):
        self.sid, self.parent, self.cpu = self.rec._open(self.name)
        if self.adopt:
            self.prev, self.rec.adopter = self.rec.adopter, self.sid
        self.c0 = time.thread_time() if self.cpu else 0.0
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        busy = time.thread_time() - self.c0 if self.cpu else t1 - self.t0
        if self.adopt:
            self.rec.adopter = self.prev
        self.rec._close(self.sid, self.name, self.parent, self.t0, t1, busy)
        return False


def _wrap(rec: Recorder, fn, name: str, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # Re-entry under the same name (a subclass method calling its
        # base, both wrapped) is one call, not two.
        if not rec.enabled or rec.current_name() == name:
            return fn(*args, **kwargs)
        with rec.span(name):
            result = fn(*args, **kwargs)
        rec.count(name + ".calls")
        if on_call is not None:
            on_call(rec, args, result)
        return result

    return wrapper


def _rebind_function(attr: str, wrapper, original) -> None:
    """Point every loaded ``repro`` module that imported ``original`` by
    name at ``wrapper`` (``from x import f`` copies the binding)."""
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def _store_get(rec, args, result):
    rec.count("engine.store_hits" if result is not None else "engine.store_misses")


def _run_plan(rec, args, result):
    rec.count("engine.jobs", len(args[1].jobs))


def _evaluate_many(rec, args, result):
    rec.count("vec.jobs", len(args[1]))


#: (module, attribute, span name, post-call hook).  ``Class.method``
#: attributes are patched on the class; plain functions are rebound in
#: every module that imported them.
TARGETS = (
    ("repro.apps.base", "build_spec", "apps.build_spec", None),
    ("repro.engine.store", "result_key", "engine.result_key", None),
    ("repro.engine.store", "ResultStore.get", "engine.store_get", _store_get),
    ("repro.engine.store", "ResultStore.put", "engine.store_put", None),
    ("repro.engine.core", "SweepEngine.run_plan", "engine.run_plan", _run_plan),
    ("repro.engine.jobs", "build_plan", "engine.build_plan", None),
    ("repro.vec.evaluate", "VecEvaluator.evaluate_many", "vec.evaluate",
     _evaluate_many),
    ("repro.perfmodel.roofline", "estimate_app", "perfmodel.estimate_app",
     None),
    ("repro.ops.runtime", "OpsContext.par_loop", "ops.par_loop", None),
    ("repro.op2.parloop", "Op2Context.par_loop", "op2.par_loop", None),
    ("repro.op2.halo", "DistOp2Context.par_loop", "op2.par_loop", None),
)

#: Modules imported before patching so that every ``from ... import``
#: copy of a wrapped function exists and gets rebound.
PRELOAD = (
    "repro.harness.figures", "repro.harness.runner", "repro.engine",
    "repro.perfmodel.scaling", "repro.perfmodel.analysis", "repro.vec",
    "repro.serve.server", "repro.serve.payloads", "repro.serve.batch",
    "repro.serve.lru", "repro.cli.run", "repro.cli.trace", "repro.ops",
    "repro.op2", "repro.op2.halo", "repro.simmpi",
)


def install(rec: Recorder) -> None:
    """Wrap every function in :data:`TARGETS` with ``rec``'s spans."""
    for mod_name in PRELOAD:
        importlib.import_module(mod_name)
    for mod_name, attr, name, hook in TARGETS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, original, name, hook))
        else:
            original = getattr(mod, attr)
            _rebind_function(attr, _wrap(rec, original, name, hook), original)
