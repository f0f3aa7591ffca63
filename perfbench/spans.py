"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and the process's
`ru_maxrss` when it closes; every span of one repetition carries that
repetition's id.  Spans stay in memory and are handed back when the run
ends.  The untraced run uses `NullTracer`, whose spans cost one
`nullcontext` each.
"""

import contextlib
import resource
import time


class Tracer:
    def __init__(self, rep_id, root_start):
        self.rep_id = rep_id
        self.spans = []
        self._stack = []
        self._root = self._open("rep", root_start)

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"rep": self.rep_id, "name": name, "start": start, "end": None,
                           "parent": parent, "maxrss_kb": None})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, end):
        span = self.spans[index]
        span["end"] = end
        span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name, time.monotonic())
        try:
            yield
        finally:
            self._close(index, time.monotonic())

    def close_root(self, end):
        """End the repetition's root span, which started at the worker's spawn."""
        self._close(self._root, end)


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()

    def close_root(self, end):
        pass


def self_times(spans):
    """Per-name sums of self time: a span's duration minus its children's."""
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    out = {}
    for span, children in zip(spans, child_total):
        out[span["name"]] = out.get(span["name"], 0.0) + (span["end"] - span["start"] - children)
    return out
