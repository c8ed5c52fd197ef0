"""Arithmetic of the benchmark's recorder: self time of nested spans and
the percentile rule. Run with ``python3 -m pytest perfbench/tests``."""

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from recorder import Recorder, covered, percentile, samples_beyond, self_time_by_name, self_times  # noqa: E402


def recorder_at(*times):
    ticks = iter(times)
    return Recorder(clock=lambda: next(ticks))


def test_self_time_subtracts_direct_children_only():
    rec = recorder_at(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0)
    a = rec.open("a")  # [0, 10]
    b = rec.open("b")  # [1, 5]
    d = rec.open("d")  # [2, 4], inside b
    rec.close(d)
    rec.close(b)
    c = rec.open("c")  # [6, 7]
    rec.close(c)
    rec.close(a)
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == [5.0, 2.0, 2.0, 1.0]
    assert sum(self_times(rec.spans)) == 10.0


def test_self_time_by_name_sums_repeated_spans():
    rec = recorder_at(0.0, 1.0, 2.0, 3.0, 5.0, 6.0)
    outer = rec.open("outer")
    for _ in range(2):
        rec.close(rec.open("leaf"))
    rec.close(outer)
    assert self_time_by_name(rec.spans) == {"outer": 3.0, "leaf": 3.0}


def test_spans_carry_the_operation_id():
    rec = recorder_at(0.0, 1.0, 2.0, 3.0)
    rec.op = 7
    rec.close(rec.open("x"))
    rec.op = 8
    rec.close(rec.open("y"))
    assert [s[4] for s in rec.spans] == [7, 8]


def test_coverage_is_a_clipped_union():
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0


def test_closing_out_of_order_raises():
    rec = recorder_at(0.0, 1.0, 2.0)
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(250, 90) == 25
    assert samples_beyond(10, 50) == 5


def test_traced_pass_counts_work_and_restores_the_program():
    import numpy as np

    import instrument
    from parastream import autodiff, layers

    original = autodiff.conv2d, vars(layers.Linear)["__call__"]
    x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
    w = np.ones((4, 3, 3, 3))
    plain = autodiff.conv2d(x, w, padding=1).data
    rec = Recorder()
    with instrument.traced(rec):
        traced = autodiff.conv2d(x, w, padding=1).data
    assert np.array_equal(plain, traced)
    assert (autodiff.conv2d, vars(layers.Linear)["__call__"]) == original
    assert [s[0] for s in rec.spans] == ["autodiff.conv2d"]
    assert rec.counts["autodiff.conv2d.calls"] == 1
    assert rec.counts["autodiff.conv2d.flop"] == 2 * 2 * 4 * 5 * 5 * 3 * 3 * 3
