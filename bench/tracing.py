"""Spans around the benchmark's calls into spineforms.

A span records name, start, end, parent span and operation id.  Spans
stay in memory in flat lists and are written out once, when the run
ends, so that tracing does no I/O while it measures.
"""

from __future__ import annotations

from pathlib import Path


class NullTracer:
    """Untraced runs: call straight through."""

    op_id = -1

    def __call__(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call made through it.

    ``tracer(name, fn, *args)`` runs ``fn(*args)`` inside a span named
    ``name``; spans opened while another is open become its children.
    Times come from ``clock``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.origin = clock()
        self.spans: list[tuple] = []  # (span, name, start, end, parent, op), in order of ending
        self.op_id = -1
        self._next = 0
        self._stack = [-1]

    def __call__(self, name, fn, *args):
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op_id))

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds).  Self time is a span's duration
        minus the time its child spans cover."""
        child = [0.0] * self._next
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, tuple[int, float]] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - child[sid])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid, name, t0, t1, parent, op in sorted(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    sid, name, t0 - self.origin, t1 - self.origin, parent, op))
