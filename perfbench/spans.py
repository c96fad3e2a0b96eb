"""Spans recorded by the benchmark around its own calls into osglines.

A span is (name, start, end, parent, rid, pass): `parent` is the position of
the enclosing span or None, `rid` the job or request id shared by every span
of one operation, `pass` the pass index ("setup" for set-up calls).  Spans
stay in memory and are written out once, when the run ends.  When the tracer
is disabled, `call` is a plain call and nothing is recorded.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list = []
        self._parent = None
        self._rid = None
        self._pass = "setup"

    def begin_op(self, pass_index, rid):
        """Open the root span of one operation (a job, step, request or call)."""
        if self.enabled:
            self._parent = len(self.spans)
            self.spans.append(None)
            self._rid, self._pass = rid, pass_index

    def end_op(self, kind: str, start: float, end: float):
        if self.enabled:
            self.spans[self._parent] = ("bench." + kind, start, end, None,
                                        self._rid, self._pass)
            self._parent, self._rid, self._pass = None, None, "setup"

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._parent
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans[index] = (name, start, end, parent, self._rid, self._pass)

    def write(self, path, scale):
        """One JSON list per line: the span, then the scale of its operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([*span, scale[span[4]]]) + "\n")


def summarize(spans, scale):
    """Per-pass totals, self times by layer, and every duration per span name.

    Returns (totals, self_times, durations): totals[pass][name] and
    self_times[pass][layer] in seconds, durations[name] a list of seconds.
    Each duration is multiplied by scale[rid] of its operation.  A span's
    self time is its duration minus the time its child spans cover; children
    never overlap, since the benchmark is single-threaded.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    self_times = defaultdict(lambda: defaultdict(float))
    durations = defaultdict(list)
    for i, (name, start, end, _, rid, pass_index) in enumerate(spans):
        factor = scale[rid]
        took = (end - start) * factor
        totals[pass_index][name] += took
        self_times[pass_index][name.split(".", 1)[0]] += took - covered[i] * factor
        durations[name].append(took)
    return totals, self_times, durations
