"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a wrapped function: its name, start, end and the
span that was open when it began (its parent, on the same thread).  Spans
are appended to per-thread buffers while the program runs and only turned
into numbers -- or written to disk -- when the run ends, so the traced
program pays one wrapper per call and nothing else.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Summing self times over a set of spans therefore
never counts one instant twice, which is what lets per-layer times be
added up and compared with the wall time they came from.

Wrappers are installed by replacing an attribute on its owner (a module
or a class) with a timing shim; :meth:`Tracer.uninstall` puts every
original back.  A function imported by name into another module has to
be wrapped in the module that calls it, because that module holds its
own reference.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = ["Spans", "Tracer", "load_spans", "self_times"]


class _Buffer:
    """One thread's spans, parallel columns indexed by span number."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]  # open spans; -1 is "no parent"


@dataclass
class Spans:
    """Every finished span of a run, flattened across threads.

    ``parent[i]`` is the index of span ``i``'s parent (``-1`` for a root)
    and always smaller than ``i``: spans are numbered when they open.
    """

    names: list[str]
    name: np.ndarray  # per-span index into ``names``
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    gauges: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.name)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are visited in span order, which is their start order, so
    the union is a running merge of intervals sorted by start.
    """
    n = len(parent)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # furthest child end merged so far
    par = parent.tolist()
    st = start.tolist()
    en = end.tolist()
    for i in range(n):
        p = par[i]
        if p < 0:
            continue
        s, e, r = st[i], en[i], reach[p]
        if s >= r:
            covered[p] += e - s
            reach[p] = e
        elif e > r:
            covered[p] += e - r
            reach[p] = e
    return (end - start) - np.asarray(covered, dtype=float)


class Tracer:
    """Wraps functions with span recorders and collects their spans."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        self.gauges: dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._buffers_lock:
            self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _traced(
        self,
        fn: Callable,
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)``
        runs once the span has closed."""
        nid = self._name_id(name)
        local = self._local
        perf = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            i = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(stack[-1])
            buf.starts.append(0.0)
            buf.ends.append(-1.0)  # still open
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                buf.starts[i] = t0
                buf.ends[i] = t1
            if after is not None:
                after(args, result)
            return result

        return shim

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, name, after))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest value seen for a gauge (a level, not a span)."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- output ------------------------------------------------------------
    def spans(self) -> Spans:
        """Every finished span so far; still-open spans are left out."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        names, parents, starts, ends = [], [], [], []
        offset = 0
        for buf in buffers:
            n = len(buf.starts)
            name = np.frombuffer(buf.names, dtype=np.int32, count=n).copy()
            parent = np.frombuffer(buf.parents, dtype=np.int64, count=n).copy()
            parent[parent >= 0] += offset
            names.append(name)
            parents.append(parent)
            starts.append(np.frombuffer(buf.starts, dtype=np.float64, count=n).copy())
            ends.append(np.frombuffer(buf.ends, dtype=np.float64, count=n).copy())
            offset += n
        if not buffers:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            return Spans(list(self._names), empty_i, empty_i, empty_f, empty_f, dict(self.gauges))
        name = np.concatenate(names)
        parent = np.concatenate(parents)
        start = np.concatenate(starts)
        end = np.concatenate(ends)
        done = end >= start
        if not done.all():
            # Drop open spans and re-point children of dropped spans at -1.
            keep = np.flatnonzero(done)
            remap = np.full(len(done), -1, dtype=np.int64)
            remap[keep] = np.arange(len(keep))
            parent = np.where(parent >= 0, remap[np.maximum(parent, 0)], -1)[keep]
            name, start, end = name[keep], start[keep], end[keep]
        return Spans(list(self._names), name, parent, start, end, dict(self.gauges))

    def dump(self, path: str) -> Spans:
        """Write every finished span (and the gauges) to ``path`` as ``.npz``."""
        spans = self.spans()
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=spans.name,
                parent=spans.parent,
                start=spans.start,
                end=spans.end,
                meta=np.frombuffer(
                    json.dumps({"names": spans.names, "gauges": spans.gauges}).encode(),
                    dtype=np.uint8,
                ),
            )
        return spans


def load_spans(path: str) -> Spans:
    """Read spans written by :meth:`Tracer.dump`."""
    with np.load(path) as data:
        meta = json.loads(data["meta"].tobytes().decode())
        return Spans(
            meta["names"],
            data["name"],
            data["parent"],
            data["start"],
            data["end"],
            meta["gauges"],
        )
