"""Span recording around the public entry points of each layer.

A traced run calls :func:`install`, which wraps every entry point in
:data:`ENTRY_POINTS` so each call records one span: layer name, start
and end (``time.perf_counter_ns``, the system-wide monotonic clock, so
spans from the server process and the load generator share one time
axis), the enclosing span, the wire ``id`` of the request being served
and an optional size (subsets scored, bytes written, queries answered).
Module-level functions are rebound in every loaded module that imported
them; methods are replaced on their class.  Spans stay in memory until
:meth:`Recorder.dump`.

Nothing here changes what the wrapped calls compute: a wrapper records
two clock reads around the original call and returns its result.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span record fields, by position.
LAYER, START, END, PARENT, REQUEST, SIZE = range(6)


class Recorder:
    """In-memory span and garbage-collection event store for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.gc_events: List[Tuple[int, int, int]] = []
        #: Wire id of the request being served (set by the frame decoder
        #: wrapper); one request is in flight at a time.
        self.request = None
        self._local = threading.local()
        #: Open span index -> thread ident, in the order spans began.
        self._open: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._gc_started: Optional[int] = None

    def begin(self, layer: str, size=None) -> int:
        """Open a span; its parent is the innermost open span of this thread.

        A thread with no open span (a serve worker thread running an
        engine call for the event loop) is parented to the most recently
        opened span still open on another thread.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        me = threading.get_ident()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = next(
                    (i for i, owner in reversed(self._open.items()) if owner != me),
                    None,
                )
            index = len(self.spans)
            self.spans.append(
                [layer, time.perf_counter_ns(), None, parent, self.request, size]
            )
            self._open[index] = me
        stack.append(index)
        return index

    def end(self, index: int, size=None) -> None:
        """Close span ``index`` (optionally setting its size)."""
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        if size is not None:
            span[SIZE] = size
        stack = self._local.stack
        if stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)
        with self._lock:
            del self._open[index]

    # -- garbage collector -------------------------------------------------
    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.gc_events.append(
                (self._gc_started, time.perf_counter_ns(), info.get("generation", 0))
            )
            self._gc_started = None

    def watch_gc(self) -> None:
        """Record every collection's pause through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        """Stop recording collections."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def dump(self, path) -> None:
        """Write spans and collection events as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "gc": self.gc_events}, handle)


def load(path) -> Recorder:
    """A recorder holding the spans another process dumped to ``path``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    recorder = Recorder()
    recorder.spans = data["spans"]
    recorder.gc_events = [tuple(event) for event in data["gc"]]
    return recorder


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _subsets(args, kwargs):
    return len(kwargs.get("subsets", args[2] if len(args) > 2 else ()))


def _kernel_subsets(args, kwargs):
    return len(kwargs.get("subsets", args[1] if len(args) > 1 else ()))


def _groups(args, kwargs):
    return sum(len(subsets) for subsets, _cap in args[2])


def _one(args, kwargs):
    return 1


#: ``(module, attribute path, layer, size-from-args)`` for every wrapped
#: entry point.  Size functions see the call's ``(args, kwargs)``.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.datasets.freebase_like", "generate_domain", "datasets.generate", None),
    ("repro.datasets.loader", "graph_fingerprint", "datasets.fingerprint", None),
    ("repro.store.disk", "build_store", "store.build", None),
    ("repro.store.disk", "open_store", "store.open", None),
    ("repro.store.disk", "DiskGraphStore.entity_graph", "store.materialize", None),
    ("repro.core.discovery", "make_context", "scoring.context", None),
    ("repro.scoring.preview_score", "ScoringContext.candidate_pool", "scoring.pool_build", None),
    ("repro.scoring.preview_score", "ScoringContext.patched", "scoring.patch", None),
    ("repro.ext.incremental", "IncrementalEntityGraph.context", "scoring.patch", None),
    ("repro.ext.incremental", "IncrementalEntityGraph.add_entity", "ext.apply", None),
    ("repro.ext.incremental", "IncrementalEntityGraph.add_relationship", "ext.apply", None),
    ("repro.graph.cliques", "k_cliques", "graph.cliques", None),
    ("repro.kernel", "best_allocation", "kernel.score", _kernel_subsets),
    ("repro.core.candidates", "build_allocation_profile", "core.profile", None),
    ("repro.core.serialize", "result_to_dict", "core.serialize", None),
    ("repro.engine.engine", "PreviewEngine.run", "engine", _one),
    ("repro.engine.engine", "PreviewEngine.sweep", "engine", None),
    ("repro.parallel.executor", "ShardedExecutor.best_allocation", "parallel.dispatch", _subsets),
    ("repro.parallel.executor", "ShardedExecutor.build_profiles", "parallel.dispatch", _subsets),
    ("repro.parallel.executor", "ShardedExecutor.build_profile_groups", "parallel.dispatch", _groups),
    ("repro.serve.host", "EngineHost.preview", "serve.host", None),
    ("repro.serve.host", "EngineHost.sweep", "serve.host", None),
    ("repro.serve.host", "EngineHost.mutate", "serve.host", None),
    ("repro.serve.host", "EngineHost.encoded_response", "serve.host", None),
    ("repro.serve.protocol", "decode_frame", "serve.codec", None),
    ("repro.serve.protocol", "encode_frame", "serve.codec", None),
)


def _wrap(fn, layer: str, recorder: Recorder, size: Optional[Callable], name: str):
    """A recording wrapper around ``fn`` (async-aware)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            index = recorder.begin(layer, size(args, kwargs) if size else None)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return traced_async

    if name == "sweep":
        # The sweep's query batch may be a one-shot iterable; the engine
        # lists it first thing, so listing it here changes nothing.
        @functools.wraps(fn)
        def traced_sweep(self, queries, *args, **kwargs):
            queries = list(queries)
            index = recorder.begin(layer, len(queries))
            try:
                return fn(self, queries, *args, **kwargs)
            finally:
                recorder.end(index)

        return traced_sweep

    if name == "decode_frame":
        # Marks the request the following spans belong to.
        @functools.wraps(fn)
        def traced_decode(*args, **kwargs):
            index = recorder.begin(layer)
            try:
                payload = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            recorder.request = payload.get("id")
            recorder.spans[index][REQUEST] = recorder.request
            return payload

        return traced_decode

    if name == "build_store":

        @functools.wraps(fn)
        def traced_build(*args, **kwargs):
            index = recorder.begin(layer)
            written = None
            try:
                written = fn(*args, **kwargs)
                return written
            finally:
                recorder.end(index, written)

        return traced_build

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.begin(layer, size(args, kwargs) if size else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return traced


class Installation:
    """The wrappers :func:`install` put in place, and how to undo them."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def install(recorder: Recorder, entry_points: Sequence = ENTRY_POINTS) -> Installation:
    """Wrap every entry point; returns the handle that uninstalls them."""
    installation = Installation()
    for module_name, path, layer, size in entry_points:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, name = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[name]
            installation.patch(owner, name, _wrap(original, layer, recorder, size, name))
            continue
        original = getattr(module, path)
        traced = _wrap(original, layer, recorder, size, path)
        # Rebind the function wherever it was imported by name, so call
        # sites that hold a direct reference go through the wrapper too.
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    installation.patch(loaded, attribute, traced)
    return installation


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[list]) -> List[int]:
    """Per-span self time: duration minus the time its children cover."""
    child_time = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            child_time[parent] += span[END] - span[START]
    return [
        max(0, (span[END] - span[START]) - child_time[i]) if span[END] is not None else 0
        for i, span in enumerate(spans)
    ]


def nesting_violations(spans: Sequence[list]) -> List[int]:
    """Indices of spans whose interval is not inside their parent's."""
    bad = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent is None:
            continue
        outer = spans[parent]
        if span[END] is None or outer[END] is None:
            bad.append(i)
        elif not (outer[START] <= span[START] and span[END] <= outer[END]):
            bad.append(i)
    return bad


def window(spans: Sequence[list], start_ns: int, end_ns: int) -> List[int]:
    """Indices of closed spans that began inside ``[start_ns, end_ns]``."""
    return [
        i
        for i, span in enumerate(spans)
        if span[END] is not None and start_ns <= span[START] <= end_ns
    ]


def layer_totals(
    spans: Sequence[list], indices: Iterable[int]
) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, summed self time (ns) and summed size."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "size": 0}
    )
    for i in indices:
        span = spans[i]
        entry = totals[span[LAYER]]
        entry["calls"] += 1
        entry["self_ns"] += selfs[i]
        if isinstance(span[SIZE], (int, float)):
            entry["size"] += span[SIZE]
    return totals


def gc_totals(events: Sequence[Tuple[int, int, int]], start_ns: int, end_ns: int):
    """(pause ns, generation-2 collections) of collections in the window."""
    pause = 0
    gen2 = 0
    for began, ended, generation in events:
        if start_ns <= began <= end_ns:
            pause += ended - began
            gen2 += generation == 2
    return pause, gen2
