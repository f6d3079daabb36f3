"""Outside-in span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions: nothing under ``src/`` is edited and the
program's own ``TRACER`` stays off. A span is (name, start, end, parent,
event id, work count); spans are held in memory as parallel lists and
written as Chrome-trace JSON when the run ends. A layer's self time is its
span's duration minus the part its child spans cover (children of one
parent never overlap here: each thread nests strictly).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

SCORE = "semantics.score"
MATCH = "core.match_batch"
PUBLISH = "broker.publish"
FLUSH = "broker.flush"
CALLBACK = "broker.callback"
SUBSCRIBE = "broker.subscribe"
UNSUBSCRIBE = "broker.unsubscribe"
DRAIN = "broker.drain"


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.events: list[int] = []
        self.work: list[int] = []
        self.threads: list[int] = []
        #: When a list, every scored lookup is appended (for the replay).
        self.capture: list | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open(self, name: str, event: int, work: int) -> int:
        local = self._local
        parent = getattr(local, "current", -1)
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(parent)
            self.events.append(event)
            self.work.append(work)
            self.threads.append(threading.get_ident())
        local.current = index
        return index

    def wrap(self, name: str, fn, *, work=None, event_ids=None):
        """``fn`` with a span around every call.

        ``work`` maps the call's arguments to a work count (lookups,
        pairs); ``event_ids`` is an iterator giving each call its
        per-event id (spans without one inherit their parent's).
        """
        starts, ends, local, clock = self.starts, self.ends, self._local, time.perf_counter

        def traced(*args, **kwargs):
            event = next(event_ids) if event_ids is not None else -1
            index = self._open(name, event, work(*args, **kwargs) if work else 1)
            outer = self.parents[index]
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                local.current = outer

        return traced

    # -- analysis ------------------------------------------------------------

    def window(self, start: float, end: float) -> list[int]:
        """Spans that started inside ``[start, end)`` (one timed region)."""
        return [i for i, t in enumerate(self.starts) if start <= t < end]

    def totals(self, indices: list[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, work, busy seconds, self seconds.

        A name with no span reads all zeros (the result is a defaultdict).
        """
        child_time: dict[int, float] = defaultdict(float)
        for i in indices:
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "work": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i in indices:
            duration = self.ends[i] - self.starts[i]
            row = out[self.names[i]]
            row["calls"] += 1
            row["work"] += self.work[i]
            row["busy_s"] += duration
            row["self_s"] += duration - child_time.get(i, 0.0)
        return out

    def event_of(self, index: int) -> int:
        while index >= 0 and self.events[index] < 0:
            index = self.parents[index]
        return self.events[index] if index >= 0 else -1

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path, *, metadata: dict) -> int:
        """Write the spans as Chrome-trace "X" events; returns the count.

        Runs of sibling ``semantics.score`` spans under one parent are
        written as one slice (with their call, lookup and busy totals):
        a theme-mix pass makes hundreds of score calls per event and the
        file would otherwise not load. Self times are computed from the
        unmerged spans.
        """
        origin = min(self.starts) if self.starts else 0.0
        out = []
        merged: dict[int, dict] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            if name == SCORE and self.parents[i] >= 0:
                slot = merged.get(self.parents[i])
                if slot is None:
                    slot = merged[self.parents[i]] = self._slice(i, origin)
                    slot["args"].update(calls=0, lookups=0, busy_us=0.0)
                    out.append(slot)
                slot["dur"] = (self.ends[i] - origin) * 1e6 - slot["ts"]
                slot["args"]["calls"] += 1
                slot["args"]["lookups"] += self.work[i]
                slot["args"]["busy_us"] += duration * 1e6
                continue
            out.append(self._slice(i, origin))
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": out, "displayTimeUnit": "ms", "metadata": metadata},
                handle,
            )
        return len(out)

    def _slice(self, i: int, origin: float) -> dict:
        return {
            "name": self.names[i],
            "ph": "X",
            "pid": 1,
            "tid": self.threads[i],
            "ts": (self.starts[i] - origin) * 1e6,
            "dur": (self.ends[i] - self.starts[i]) * 1e6,
            "args": {
                "span": i,
                "parent": self.parents[i],
                "event": self.event_of(i),
                "work": self.work[i],
            },
        }


class MeasureProxy:
    """Stands in for ``matcher.measure``: spans around ``score`` calls.

    Exposes what the pipeline reads from a measure — ``score``,
    ``score_batch``, ``vectorized``, ``inner`` — and nothing else; a
    scalar measure keeps seeing one ``score`` call per lookup because
    ``vectorized`` is forwarded, not forced.
    """

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.vectorized = bool(getattr(inner, "vectorized", False))
        self.score = recorder.wrap(SCORE, inner.score)
        if recorder.capture is not None:
            capture, traced = recorder.capture, self.score

            def score(*lookup):
                capture.append(lookup)
                return traced(*lookup)

            self.score = score
        self.score_batch = recorder.wrap(
            SCORE, self._score_batch, work=lambda lookups: len(lookups)
        )

    def _score_batch(self, lookups):
        return self.inner.score_batch(lookups)
