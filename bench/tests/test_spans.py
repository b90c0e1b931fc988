"""Tests of the benchmark's span buffer.  Run: python3 -m pytest bench/tests"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanBuffer, tail_level, timing_summary  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nesting_links_each_span_to_the_one_open_when_it_began():
    spans = SpanBuffer(FakeClock())
    with spans.span("root") as root:
        with spans.span("child") as child:
            with spans.span("grandchild") as grandchild:
                pass
        with spans.span("sibling") as sibling:
            pass
    with spans.span("second_root") as second:
        pass
    assert list(spans.parent) == [-1, root, child, root, -1]
    assert [spans.names[spans.name_id[i]] for i in (root, child, grandchild, sibling, second)] == [
        "root", "child", "grandchild", "sibling", "second_root"]


def test_spans_must_close_innermost_first():
    spans = SpanBuffer(FakeClock())
    outer = spans.begin("outer")
    spans.begin("inner")
    with pytest.raises(RuntimeError):
        spans.finish(outer)


def test_self_time_is_duration_minus_covered_child_time():
    clock = FakeClock()
    spans = SpanBuffer(clock)
    root = spans.begin("root")  # t=0
    clock.now = 10
    a = spans.begin("a")
    clock.now = 25
    spans.finish(a)  # a covers 15
    clock.now = 30
    b = spans.begin("b")
    clock.now = 32
    leaf = spans.begin("leaf")
    clock.now = 38
    spans.finish(leaf)  # leaf covers 6 of b
    clock.now = 40
    spans.finish(b)  # b covers 10
    clock.now = 100
    spans.finish(root)
    own = spans.self_ns()
    assert own[root] == 100 - 15 - 10
    assert own[a] == 15
    assert own[b] == 10 - 6
    assert own[leaf] == 6


def test_overlapping_children_are_covered_once():
    spans = SpanBuffer(FakeClock())
    spans.names = ["p", "c"]
    spans.name_id.extend([0, 1, 1])
    spans.parent.extend([-1, 0, 0])
    spans.start.extend([0, 10, 15])  # children overlap on [15, 20) and the second runs past its parent
    spans.end.extend([30, 20, 40])
    own = spans.self_ns()
    assert own[0] == 30 - 20  # covered: [10, 30)


def test_spans_stay_in_memory_until_written(tmp_path):
    spans = SpanBuffer()
    path = tmp_path / "spans.npz"
    for i in range(1000):
        with spans.span("outer"):
            with spans.span(f"inner{i % 3}"):
                pass
    assert len(spans) == 2000
    assert list(tmp_path.iterdir()) == []
    spans.write(path)
    saved = np.load(path)
    assert saved["start_ns"].size == 2000
    assert list(saved["names"]) == ["outer", "inner0", "inner1", "inner2"]
    assert np.array_equal(saved["parent"], np.array(spans.parent))
    assert np.all(saved["end_ns"] >= saved["start_ns"])


def test_write_refuses_open_spans(tmp_path):
    spans = SpanBuffer()
    spans.begin("open")
    with pytest.raises(RuntimeError):
        spans.write(tmp_path / "spans.npz")


@pytest.mark.parametrize("n, level", [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                                      (1000, 99.0), (10000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_timing_summary_reports_microseconds_and_count():
    summary = timing_summary(np.arange(1, 101) * 1000)  # 1..100 us
    assert summary["n"] == 100
    assert summary["us_p50"] == pytest.approx(50.5)
    assert summary["tail_pct"] == 90.0
    assert summary["us_tail"] == pytest.approx(np.percentile(np.arange(1, 101), 90))
    few = timing_summary([5000, 1000])
    assert few["tail_pct"] == 100.0 and few["us_tail"] == 5.0

