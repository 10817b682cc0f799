"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls it
makes into the program's layers (``repro.serve``, ``repro.runtime``,
``repro.quantization``, ``repro.tensor``, ``repro.nas``). Nothing in the
program is edited: :meth:`Tracer.wrap` swaps a module or class attribute
for a timing wrapper and :meth:`Tracer.restore` puts the original back.

Each span records its name, layer, start, end, parent span and request ids.
The run is single-threaded, so the open-span stack gives the parent.
Spans stay in memory and are written at exit as Chrome trace-event JSON,
which opens in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "requests")

    def __init__(self, sid: int, parent: Optional[int], name: str, layer: str) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.requests: List[int] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Discard(list):
    def append(self, item) -> None:
        pass


class _NullRecord:
    requests = _Discard()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """What the timed runs use: spans cost one call and record nothing."""

    counting = False
    _record = _NullRecord()

    def span(self, name: str, layer: str):
        return self._record


class Tracer:
    """Records nested spans; one instance per traced workload process.

    While ``counting`` is set, :meth:`count_obs_calls` tallies calls into
    ``repro.obs``'s instrumentation helpers in ``obs_calls``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patched: List[tuple] = []
        self.counting = False
        self.obs_calls = 0

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].sid if self._stack else None
        record = Span(len(self.spans), parent, name, layer)
        self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_obs_calls(self, module, names) -> None:
        """Wrap ``module.<name>`` so each call bumps ``obs_calls`` while
        ``counting`` is set (the helpers still run as before)."""
        for attr in names:
            original = getattr(module, attr)

            def counted(*args, _original=original, **kwargs):
                if self.counting:
                    self.obs_calls += 1
                return _original(*args, **kwargs)

            self._patched.append((module, attr, original))
            setattr(module, attr, counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                out.setdefault(record.parent, []).append(record)
        return out

    def self_seconds(self, record: Span, children: Dict[int, List[Span]]) -> float:
        """Duration minus the part of it covered by child spans.

        Children of one span never overlap (the run is single-threaded),
        so their covered time is the sum of their durations.
        """
        covered = sum(child.duration for child in children.get(record.sid, ()))
        return max(record.duration - covered, 0.0)

    def self_seconds_by_layer(self) -> Dict[str, float]:
        children = self.children()
        totals: Dict[str, float] = {}
        for record in self.spans:
            totals[record.layer] = totals.get(record.layer, 0.0) + self.self_seconds(
                record, children
            )
        return totals

    def write_chrome(self, path: str, metadata: Dict) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s.sid, "parent": s.parent, "requests": s.requests},
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "otherData": metadata}, handle)
