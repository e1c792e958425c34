"""Span tracing of the package's public functions, from outside the package.

`instrument()` replaces every public function of the traced modules, in
every package module that imported it by name, with a wrapper that records a
span: function name, start, end, parent span and thread.  Spans live in
per-thread typed arrays while the run lasts and are written once at the end.
A span's parent is the innermost open span of the same thread.

Only the calling process is traced: work a future change moves into worker
processes is invisible here, and the layer numbers shrink to what the parent
sees.
"""

import contextlib
import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "logsense_ks"
LAYERS = ("params", "grid", "simulator", "diagnostics", "oracles", "cli")
# Public methods that write outputs (classes are otherwise not traced).
WRITER_METHODS = (("simulator", "Trajectory", "write_step_reports_csv"),
                  ("diagnostics", "DiagnosticsRecord", "to_csv"))


class _ThreadSpans:
    """Spans of one thread; parents index into the same thread's arrays."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.stack = []


class Tracer:
    """Records a span per wrapped call; a hook registered under a span name
    also sees that call's arguments and result."""

    def __init__(self):
        self.names = []
        self.threads = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.hooks = {}   # span name -> callable(args, kwargs, result)

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self.threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._spans()
            idx = len(s.name)
            s.name.append(nid)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.end.append(0.0)
            s.failed.append(0)
            s.stack.append(idx)
            s.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.end[idx] = clock()
                s.failed[idx] = 1
                s.stack.pop()
                raise
            s.end[idx] = clock()
            s.stack.pop()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def table(self):
        """All spans as flat numpy arrays with global parent indices."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "failed",
                                "thread")}
        offset = 0
        for t, s in enumerate(self.threads):
            n = len(s.name)
            parent = np.frombuffer(s.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(s.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(s.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(s.end, dtype=np.float64))
            cols["failed"].append(np.frombuffer(s.failed, dtype=np.int8))
            cols["thread"].append(np.full(n, t, dtype=np.int32))
            offset += n
        return {k: np.concatenate(v) for k, v in cols.items()}

    def write(self, path, table):
        np.savez(path, names=np.array(self.names),
                 threads=np.array([s.thread_name for s in self.threads]),
                 **table)


@contextlib.contextmanager
def instrument(tracer):
    """Trace every public function of the package's layer modules."""
    modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                replaced[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    namespaces = [sys.modules[PACKAGE]] + list(modules.values())
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and id(value) in replaced:
                setattr(ns, attr, replaced[id(value)])
                patched.append((ns, attr, value))
    for layer, cls_name, meth in WRITER_METHODS:
        cls = getattr(modules[layer], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if inspect.isfunction(fn):
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn))
            patched.append((cls, meth, fn))
    try:
        yield
    finally:
        for ns, attr, value in reversed(patched):
            setattr(ns, attr, value)


class CountingList(list):
    """A list that counts element reads made through indexing or iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.reads += len(value) if isinstance(key, slice) else 1
        return value

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

