"""Span self-time arithmetic on hand-built trees, and the recorder's nesting.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder, covered, self_times, unattributed  # noqa: E402


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Self times partition the root's interval.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_are_clipped_to_the_parent():
    spans = [
        ("parent", 0.0, 4.0, -1),
        ("c1", 1.0, 3.0, 0),
        ("c2", 2.0, 5.0, 0),  # overlaps c1 and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_unattributed_is_time_outside_root_spans():
    spans = [("a", 1.0, 2.0, -1), ("a.child", 1.2, 1.5, 0), ("b", 3.0, 4.5, -1)]
    assert unattributed(spans, 0.0, 5.0) == pytest.approx(2.5)


def test_recorder_nests_spans_and_counts_work():
    recorder = Recorder()

    def work(counts, args, kwargs, result, seconds):
        counts["cells"] += args[0] * args[1]

    leaf = recorder.wrap("leaf", lambda x, y: x * y, work)
    counted = recorder.wrap("counted", lambda: None, span=False)

    def outer():
        counted()
        return leaf(2, 3) + leaf(4, 5)

    assert recorder.wrap("outer", outer)() == 26
    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    assert recorder.counts["leaf.calls"] == 2
    assert recorder.counts["counted.calls"] == 1
    assert recorder.counts["cells"] == 26
    assert all(end >= start for _, start, end, _ in recorder.spans)


def test_recorder_closes_a_span_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    after = recorder.wrap("after", lambda: None)
    after()
    assert recorder.spans[1][3] == -1  # the failed span was popped
