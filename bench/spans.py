"""An in-memory span buffer for one benchmark process.

A span is a named interval with a parent: the span that was open when it
began.  Spans are appended to flat arrays while the benchmark runs and
leave memory only when ``write`` is called at the end, so tracing does
no I/O inside the measured region.  The buffer is single-threaded: spans
must close innermost first, which is what makes a child's interval lie
inside its parent's.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Tail percentiles tried from the highest down, in tenths of a percent; a
# level is usable when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_LEVELS = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10


class SpanBuffer:
    """Append-only spans: name, start, end and parent, in begin order."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(-1)
        self._open.append(idx)
        self.start.append(self._clock())  # read last, so bookkeeping falls outside
        return idx

    def finish(self, idx: int) -> None:
        now = self._clock()
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.end[idx] = now

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def seconds(self, idx: int) -> float:
        return (self.end[idx] - self.start[idx]) * 1e-9

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent, start ns, end ns) of every span, as arrays."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return tuple(np.array(col, dtype=np.int64) for col in (self.name_id, self.parent, self.start, self.end))

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the part of it its children cover."""
        covered = [0] * len(self)
        reach = {}  # parent -> latest covered instant so far
        for i, p in enumerate(self.parent):
            if p < 0:
                continue
            lo = max(self.start[i], self.start[p], reach.get(p, self.start[p]))
            hi = min(self.end[i], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return dur - np.array(covered, dtype=np.int64)

    def write(self, path: str | Path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        name_id, parent, start, end = self.columns()
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), name_id=name_id, parent=parent, start_ns=start, end_ns=end
        )


def tail_level(n: int) -> float | None:
    """The highest tail percentile with at least TAIL_MIN_BEYOND of n samples beyond it."""
    for level in TAIL_LEVELS:
        if n * (1000 - level) >= TAIL_MIN_BEYOND * 1000:
            return level / 10
    return None


def timing_summary(durations_ns) -> dict:
    """Median and tail of durations, in microseconds, with the sample count.

    With fewer samples than the lowest tail level needs, the tail is the
    maximum and ``tail_pct`` is 100.
    """
    us = np.asarray(durations_ns, dtype=np.float64) * 1e-3
    if us.size == 0:
        return {"n": 0, "us_p50": 0.0, "us_tail": 0.0, "tail_pct": None}
    level = tail_level(us.size)
    tail = float(np.percentile(us, level)) if level is not None else float(us.max())
    return {"n": int(us.size), "us_p50": float(np.median(us)), "us_tail": tail, "tail_pct": level or 100.0}

