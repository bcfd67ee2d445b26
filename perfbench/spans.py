"""In-memory span recording, self-time accounting and trace export.

A :class:`Tracer` keeps every span of its process in a list; nothing is
written until :meth:`Tracer.dump`.  Spans carry a process-unique id
(``"<pid>:<n>"``), the id of the span open on the same thread when they
started, and a correlation id naming the campaign or job they belong to.

A forked worker calls :meth:`Tracer.adopt_fork` first: it drops the
spans copied from the parent but keeps the open-span stack, so the
worker's spans name the parent-process span that forked them.

Self time (:func:`self_times`) is a span's duration minus the part of
it covered by its direct children *on the same thread of the same
process*.  Children in other processes ran concurrently with their
parent and are not subtracted.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter      # CLOCK_MONOTONIC: shared across forks


class Tracer:
    """Span recorder for one process (and, after fork, one worker)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, corr: str | None = None) -> dict:
        parent = self.current()
        if corr is None and parent is not None:
            corr = parent["corr"]
        span = {"id": f"{self.pid}:{next(self._ids)}",
                "parent": parent["id"] if parent else None,
                "name": name, "start": clock(), "end": None,
                "pid": self.pid, "tid": threading.get_ident(),
                "corr": corr, "attrs": {}}
        self._stack().append(span)
        return span

    def finish(self, span: dict) -> None:
        span["end"] = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, corr: str | None = None):
        record = self.start(name, corr)
        try:
            yield record
        finally:
            self.finish(record)

    def adopt_fork(self) -> None:
        """In a forked child: forget the parent's finished spans."""
        self.spans = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)

    def dump(self, spool: str | Path) -> Path:
        path = Path(spool) / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        return path


def load_spool(spool: str | Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(spool).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its same-thread children.

    A child that ran in another process (a forked shard worker) or on
    another thread overlapped its parent instead of nesting inside it,
    so it is not subtracted.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"] \
                and parent["tid"] == s["tid"]:
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            if hi > lo:
                children[parent["id"]].append((lo, hi))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]])
            for s in spans}


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table


def render_table(table: dict[str, dict]) -> str:
    lines = [f"{'span':<24} {'calls':>7} {'total s':>10} {'self s':>10}"]
    for name, row in sorted(table.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<24} {row['calls']:>7} "
                     f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome trace-event JSON (complete events), Perfetto-loadable."""
    if not spans:
        return {"traceEvents": []}
    t0 = min(s["start"] for s in spans)
    events = []
    for s in sorted(spans, key=lambda s: s["start"]):
        args = dict(s["attrs"])
        args.update(id=s["id"], parent=s["parent"], corr=s["corr"])
        events.append({"name": s["name"], "ph": "X", "pid": s["pid"],
                       "tid": s["tid"],
                       "ts": (s["start"] - t0) * 1e6,
                       "dur": (s["end"] - s["start"]) * 1e6,
                       "cat": s["name"].split(".")[0], "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
