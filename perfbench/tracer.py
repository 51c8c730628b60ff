"""Span tracer that wraps a program's public functions from outside.

A target is a function, a class (its construction is traced through
`__init__`) or a method, named by module and attribute path. Because the
program's modules import names directly, a function is replaced in every
module of the package that binds it, not just where it is defined.

Each call records one span: id, target, parent span id, start and end in
nanoseconds. Spans live in memory, in one int64 buffer per thread so that
recording takes no lock (a shared lock makes pool threads convoy), until
the run ends. Thread pools the package binds are replaced by a subclass
that hands the submitting span to the worker thread, so work done in pool
threads is parented to the call that started it.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

import numpy as np

NO_PARENT = -1
_ABSENT = object()
_FIELDS = 5  # sid, target index, parent sid, start ns, end ns


class Tracer:
    def __init__(self, package: str, targets, captures=None):
        """targets: (name, module, attribute path) triples; captures maps a
        target name to f(args, kwargs, result) whose value is kept per call."""
        self.package = package
        self.names = [name for name, _, _ in targets]
        self._targets = targets
        self._captures = dict(captures or {})
        self._buffers = []  # one span buffer per thread that made spans
        self._captured = []  # (sid, target index, value)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore = []

    # ------------------------------------------------------------ patching

    def _new_thread(self) -> list:
        """Give the calling thread its own span stack and span buffer."""
        self._local.stack = [NO_PARENT]
        self._local.data = array("q")
        with self._lock:
            self._buffers.append(self._local.data)
        return self._local.stack

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            return self._new_thread()

    def _wrap(self, fn, index: int, capture):
        ids, local, captured = self._ids, self._local, self._captured
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            data = local.data
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                data.extend((sid, index, parent, start, end))
            if capture is not None:
                captured.append((sid, index, capture(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        for index, (name, module, path) in enumerate(self._targets):
            obj = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                obj = getattr(obj, part)
            target = getattr(obj, attr)
            capture = self._captures.get(name)
            if isinstance(target, type):
                self._set(target, "__init__",
                          self._wrap(target.__init__, index, capture))
            elif owners:
                self._set(obj, attr, self._wrap(target, index, capture))
            else:
                wrapped = self._wrap(target, index, capture)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            self._set(m, key, wrapped)
        pool = self._pool_class()
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is ThreadPoolExecutor:
                    self._set(m, key, pool)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def _pool_class(self):
        stack_of = self._stack

        class ParentingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = stack_of()[-1]

                def run():
                    stack = stack_of()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()
                return super().submit(run)

        return ParentingPool

    # ------------------------------------------------------------ results

    def spans(self) -> np.ndarray:
        """(n, 5) int64: sid, target index, parent sid, start ns, end ns."""
        with self._lock:
            flat = np.concatenate([np.frombuffer(b, dtype=np.int64)
                                   for b in self._buffers] or
                                  [np.empty(0, dtype=np.int64)])
        return flat.reshape(-1, _FIELDS)

    def captured(self, name: str) -> list:
        """(sid, value) pairs of one target's captures, in call order."""
        index = self.names.index(name)
        return [(sid, v) for sid, i, v in self._captured if i == index]


class SpanTable:
    """Spans indexed for analysis: parents as row indices, self times."""

    def __init__(self, spans: np.ndarray, names: list[str]):
        self.names = names
        self.sid = spans[:, 0]
        self.target = spans[:, 1]
        self.start = spans[:, 3]
        self.end = spans[:, 4]
        self.parent = spans[:, 2].copy()
        self.row_of = np.full(int(self.sid.max()) + 1 if len(spans) else 0,
                              -1, dtype=np.int64)
        self.row_of[self.sid] = np.arange(len(spans))
        has = self.parent >= 0
        self.parent[has] = self.row_of[self.parent[has]]

    def self_ns(self) -> np.ndarray:
        """Duration minus the part of it covered by child spans. Children
        from pool threads may overlap, so coverage is their union."""
        n = len(self.sid)
        dur = self.end - self.start
        child = np.flatnonzero(self.parent >= 0)
        if not len(child):
            return dur
        order = child[np.lexsort((self.start[child], self.parent[child]))]
        p = self.parent[order]
        group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
        # shift each parent's children into a disjoint time window so one
        # running maximum serves every group
        t0 = int(self.start.min())
        width = int(self.end.max()) - t0 + 1
        s = self.start[order] - t0 + group * width
        e = self.end[order] - t0 + group * width
        reach = np.concatenate(([np.iinfo(np.int64).min],
                                np.maximum.accumulate(e)[:-1]))
        cover = np.maximum(e - np.maximum(s, reach), 0)
        return dur - np.bincount(p, weights=cover, minlength=n).astype(np.int64)

    def under(self, ancestors: set[str]) -> np.ndarray:
        """Mask of spans that have an ancestor among the named targets."""
        wanted = np.isin(self.target,
                         [i for i, n in enumerate(self.names) if n in ancestors])
        found = np.zeros(len(self.sid), dtype=bool)
        cur = self.parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= wanted[cur[live]]
            cur[live] = self.parent[cur[live]]
        return found

    def calls(self, mask: np.ndarray | None = None) -> np.ndarray:
        t = self.target if mask is None else self.target[mask]
        return np.bincount(t, minlength=len(self.names))
