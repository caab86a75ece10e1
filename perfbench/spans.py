"""In-memory span recorder and the wrappers that feed it.

Spans are recorded only in a traced run (``--trace 1``).  Each span has
an id, a parent id (the innermost open span of the same thread), a
layer (the ``repro.*`` module family it measures), a
name, start and end times from ``time.perf_counter``, and the id of the
request or net it belongs to (inherited from its parent).  Nothing is
written while the benchmark runs: :meth:`SpanRecorder.dump` writes the
spans as JSON lines when the run ends.

Instrumentation never edits ``src/``.  :meth:`SpanRecorder.wrap` replaces
the attribute a caller looks up (a module-level function as imported by
its caller, or a method on its class) with a timing wrapper and returns
an undo callable; the untraced run installs nothing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional


def maybe_span(recorder: Optional["SpanRecorder"], layer: str, name: str,
               req: Optional[str] = None):
    """``recorder.span(...)``, or nothing when the run is untraced."""
    return nullcontext() if recorder is None else recorder.span(layer, name, req)


class SpanRecorder:
    """Collects spans in memory; computes per-layer self times."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, layer: str, name: str, req: Optional[str] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "layer": layer,
            "name": name,
            "req": req if req is not None else (parent or {}).get("req"),
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        before: Optional[Callable[[tuple, dict], None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[[], None]:
        """Time every call of ``owner.attr`` as a span; returns the undo.

        ``owner`` is a module (for a function as its caller imported it)
        or a class (for a method or classmethod).  ``before`` may edit
        the call's keyword arguments in place, e.g. to attach a profiler;
        ``after`` sees each return value.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr)
        label = name or attr
        recorder = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            with recorder.span(layer, label):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

        def undo() -> None:
            setattr(owner, attr, raw if raw is not None else original)

        return undo

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["layer"]] += duration - child_time[span["id"]]
        return dict(totals)

    def totals(self, layer: str, name: Optional[str] = None) -> tuple:
        """``(seconds, calls)`` over spans of ``layer`` (and ``name``)."""
        seconds, calls = 0.0, 0
        for span in self.spans:
            if span["layer"] == layer and (name is None or span["name"] == name):
                seconds += span["end"] - span["start"]
                calls += 1
        return seconds, calls

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
