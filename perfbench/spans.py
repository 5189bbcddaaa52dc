"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public calls into each layer of ``repro`` (see
``Layers.install`` in ``layers.py``) with :meth:`Tracer.wrap`.  Every wrapped
call records one span: name, start, end and the index of the enclosing
span on the same thread.  Spans live in flat ``array`` columns so a
replay of tens of thousands of requests stays small; counts taken at the
same boundaries (bytes in, items, hits) live in a plain dict.

Farm workers are forked, so they inherit the wrappers.  A forked worker
starts from empty buffers (``os.register_at_fork``) and, after each shard,
appends what it recorded to a per-process sidecar file; :meth:`Tracer.merge_sidecars`
folds those files back in when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Children are only ever spans opened on the same thread of the
same process, so work handed to another thread or worker never counts
against the caller.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Count names a forked worker does not report home: events a worker emits
#: are forwarded to, and counted again on, the parent's bus.
PARENT_ONLY_COUNTS = frozenset({"telemetry.events"})


class Tracer:
    """Span and count recorder shared by every wrapper of one run."""

    def __init__(self, sidecar_dir: Path):
        self.sidecar_dir = Path(sidecar_dir)
        self.sidecar_dir.mkdir(parents=True, exist_ok=True)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: While set, wrappers call straight through and record nothing
        #: (the benchmark's own output checks run paused).
        self.paused = False
        self._reset_buffers()
        self._in_child = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- buffers -----------------------------------------------------------
    def _reset_buffers(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()

    def _after_fork(self) -> None:
        self._in_child = True
        self.counts = {}
        self._reset_buffers()

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span; returns its index, or -1 while paused."""
        if self.paused:
            return -1
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            self.name_id.append(self._name(name))
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        if index < 0:
            return
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, amount: float = 1.0) -> None:
        if self.paused:
            return
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[["Tracer", tuple, dict, object], None]] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``on_result(tracer, args, kwargs, result)`` runs after every call,
        paused or not; its counts are dropped while paused.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str, count: str) -> Callable:
        """A generator function whose every ``next`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.finish(index)
                tracer.add(count)
                yield item

        return traced

    def wrap_context(self, fn: Callable, name: str) -> Callable:
        """A context-manager factory whose ``with`` block is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _SpanContext(tracer, name, fn(*args, **kwargs))

        return traced

    def wrap_counter(self, fn: Callable, count: str) -> Callable:
        """``fn`` counted per call, with no span (for very hot calls)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[count] = tracer.counts.get(count, 0.0) + 1.0
            return fn(*args, **kwargs)

        return counted

    # -- farm workers --------------------------------------------------------
    def flush_child(self) -> None:
        """In a forked worker: append recorded spans to this pid's sidecar."""
        if not self._in_child:
            return
        record = {
            "spans": [
                [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.start))
            ],
            "counts": {
                key: value
                for key, value in self.counts.items()
                if key not in PARENT_ONLY_COUNTS
            },
        }
        path = self.sidecar_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.counts = {}
        self._reset_buffers()

    def merge_sidecars(self) -> None:
        """Fold every worker sidecar into this tracer."""
        for path in sorted(self.sidecar_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                offset = len(self.start)
                for name, start, end, parent in record["spans"]:
                    self.name_id.append(self._name(name))
                    self.parent.append(parent + offset if parent >= 0 else -1)
                    self.start.append(start)
                    self.end.append(end)
                for key, value in record["counts"].items():
                    self.add(key, value)
            path.unlink()

    # -- analysis ------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: (inclusive seconds, self seconds)."""
        if not len(self.start):
            return {}, {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - covered
        n_names = len(self.names)
        inclusive = np.bincount(names, weights=duration, minlength=n_names)
        exclusive = np.bincount(names, weights=self_time, minlength=n_names)
        return (
            {self.names[i]: float(inclusive[i]) for i in range(n_names)},
            {self.names[i]: float(exclusive[i]) for i in range(n_names)},
        )


class _SpanContext:
    """Holds one span open for the life of a wrapped ``with`` block."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._index = -1

    def __enter__(self):
        self._index = self._tracer.begin(self._name)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._tracer.finish(self._index)
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer.finish(self._index)


class TimedShard:
    """A shard function that records one ``shards.item`` span per item.

    Module-level and holding only the wrapped function, so it pickles by
    reference into a farm worker, where the inherited tracer records the
    span and flushes it to the worker's sidecar.
    """

    tracer: Optional[Tracer] = None

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item):
        tracer = TimedShard.tracer
        index = tracer.begin("shards.item")
        try:
            return self.fn(item)
        finally:
            tracer.finish(index)
            tracer.add("shards.items")
            tracer.flush_child()


def array_bytes(values: Iterable[object]) -> int:
    """Bytes of every NumPy array among ``values`` (a computed, not
    measured, figure for kernel input traffic)."""
    return sum(value.nbytes for value in values if isinstance(value, np.ndarray))
