from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event_eval.errors import (
    BadLength,
    LengthMismatch,
    ValidationError,
    WindowOutOfRange,
)
from event_eval.fusion import (
    BranchErrors,
    align_center,
    fuse_frames,
    mark_windows,
    pool_event_score,
    score_window,
)

from oracles import middle_third, runs_of_ones


def branch(short, long, start=0):
    return BranchErrors(short=tuple(short), long=tuple(long),
                        window_len=len(short), target_start=start)


def mark(triples, tau, video_len, video_id=""):
    """mark_windows on np.array columns of (start, length, score) triples.
    No dtype, as in the loaders: a start past int64 stays a Python int."""
    columns = list(zip(*triples)) or [(), (), ()]
    return mark_windows(*(np.array(c) for c in columns), tau, video_len,
                        video_id)


def row_score(w):
    """score_window of one BranchErrors, as a one-row array."""
    return score_window(np.array([w.short + w.long]))[0]


def mark_scored(windows, tau, video_len, video_id=""):
    """row_score, then mark_windows, over BranchErrors."""
    return mark([(w.target_start, w.window_len, row_score(w))
                 for w in windows], tau, video_len, video_id)


def test_branch_errors_validation():
    branch([1.0, 2.0], [0.0] * 6)
    with pytest.raises(BadLength):
        BranchErrors(short=(1.0,), long=(0.0,) * 6, window_len=2,
                     target_start=0)
    with pytest.raises(BadLength):
        BranchErrors(short=(1.0, 2.0), long=(0.0,) * 5, window_len=2,
                     target_start=0)
    with pytest.raises(ValidationError):
        branch([1.0, -0.5], [0.0] * 6)  # negative reconstruction error
    with pytest.raises(ValidationError):
        branch([1.0, float("nan")], [0.0] * 6)
    with pytest.raises(ValidationError):
        BranchErrors(short=(1.0,), long=(0.0,) * 3, window_len=1,
                     target_start=-2)


def test_align_center_examples():
    assert align_center(list(range(1, 10)), 3) == [4.0, 5.0, 6.0]
    assert align_center([7.0, 8.0, 9.0], 1) == [8.0]
    with pytest.raises(BadLength):
        align_center([0.0] * 8, 3)


def test_align_center_matches_index_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        i = int(rng.integers(1, 40))
        long = list(rng.uniform(0, 5, size=3 * i))
        got = align_center(long, i)
        assert got == middle_third(long, i)
        assert len(got) == i


def test_fuse_frames_examples():
    assert fuse_frames([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == [2.0, 2.0, 2.0]
    x = [0.5, 1.5, 2.25]
    assert fuse_frames(x, x) == x
    with pytest.raises(LengthMismatch):
        fuse_frames([1.0], [1.0, 2.0])


def test_fused_values_between_inputs():
    rng = np.random.default_rng(31)
    a = rng.uniform(0, 4, size=50)
    b = rng.uniform(0, 4, size=50)
    fused = fuse_frames(a, b)
    for fa, fb, fv in zip(a, b, fused):
        assert min(fa, fb) <= fv <= max(fa, fb)


def test_fusion_damps_isolated_spike_to_midpoint():
    short = [0.1, 0.1, 9.9, 0.1, 0.1]
    flat = [0.1] * 5
    fused = fuse_frames(short, flat)
    assert fused[2] == (9.9 + 0.1) / 2.0  # exactly halfway
    assert fused[0] == pytest.approx(0.1)


def test_pool_event_score():
    assert pool_event_score([2.0, 2.0, 2.0]) == 2.0
    assert pool_event_score([3.7] * 11) == pytest.approx(3.7)
    with pytest.raises(ValidationError):
        pool_event_score([])


def test_pool_event_score_sums_left_to_right():
    # 1.0 + 1e-16 rounds back to 1.0; a compensated sum (math.fsum, or
    # Python's sum() since 3.12) keeps the two small terms
    fused = [1.0, 1e-16, 1e-16]
    assert math.fsum(fused) != 1.0
    assert pool_event_score(fused) == 1.0 / 3
    w = branch(fused, [0.0] * 3 + fused + [0.0] * 3)
    assert row_score(w) == 1.0 / 3
    # np.sum adds more than 8 values pairwise, from 8 partial sums, which
    # keep the small terms too
    fused = [1.0] + [1e-16] * 15
    assert np.sum(fused) != 1.0
    assert pool_event_score(fused) == 1.0 / 16
    w = branch(fused, [0.0] * 16 + fused + [0.0] * 16)
    assert row_score(w) == 1.0 / 16


def test_score_window_of_rows_matches_per_window_bits():
    rng = np.random.default_rng(53)
    for i in (1, 2, 7, 16, 40):
        errors = rng.uniform(0, 3, size=(25, 4 * i)) ** 3
        got = score_window(errors)
        want = [pool_event_score(fuse_frames(row[:i],
                                             align_center(row[i:], i)))
                for row in errors]
        assert got.tolist() == want


def test_pool_of_fusion_equals_mean_of_branch_means():
    rng = np.random.default_rng(43)
    for _ in range(100):
        i = int(rng.integers(1, 64))
        short = rng.uniform(0, 3, size=i)
        aligned = rng.uniform(0, 3, size=i)
        got = pool_event_score(fuse_frames(short, aligned))
        want = (float(np.mean(short)) + float(np.mean(aligned))) / 2.0
        assert got == pytest.approx(want, abs=1e-12)


def test_score_window_composition():
    rng = np.random.default_rng(47)
    i = 8
    w = branch(rng.uniform(0, 2, size=i), rng.uniform(0, 2, size=3 * i))
    aligned = align_center(w.long, i)
    assert row_score(w) == pool_event_score(fuse_frames(w.short, aligned))


def test_windows_to_events_marking_and_merge():
    assert [(e.start, e.end) for e in
            mark([(0, 8, 0.9)], 0.5, 20)] == [(0, 7)]
    merged = mark([(0, 8, 0.9), (8, 8, 0.8)], 0.5, 20)
    assert [(e.start, e.end) for e in merged] == [(0, 15)]
    assert len(mark([(0, 8, 0.2)], 0.5, 20)) == 0


def test_windows_to_events_order_independent():
    windows = [(0, 4, 0.9), (8, 4, 0.7), (4, 4, 0.1), (16, 4, 0.8)]
    a = mark(windows, 0.5, 24)
    b = mark(list(reversed(windows)), 0.5, 24)
    assert a == b


def test_windows_to_events_range_checked():
    with pytest.raises(WindowOutOfRange):
        mark([(18, 4, 0.9)], 0.5, 20)
    with pytest.raises(WindowOutOfRange):
        mark([(-1, 4, 0.9)], 0.5, 20)


def test_run_dual_pipeline_planted_span():
    i = 8
    quiet = [0.05] * i
    loud = [0.9] * i
    quiet_long = [0.05] * (3 * i)
    loud_long = [0.9] * (3 * i)
    windows = [
        branch(quiet, quiet_long, start=0),
        branch(loud, loud_long, start=i),       # planted 2-window span
        branch(loud, loud_long, start=2 * i),
        branch(quiet, quiet_long, start=3 * i),
    ]
    out = mark_scored(windows, 0.5, 4 * i, "v")
    assert [(e.start, e.end) for e in out.events] == [(i, 3 * i - 1)]
    assert out.video_id == "v"


def test_run_dual_pipeline_all_zero_errors():
    i = 4
    windows = [branch([0.0] * i, [0.0] * (3 * i), start=0)]
    assert len(mark_scored(windows, 0.1, i)) == 0


def test_run_dual_pipeline_scale_equivariance():
    rng = np.random.default_rng(73)
    i = 6
    windows = [branch(rng.uniform(0, 1, size=i),
                      rng.uniform(0, 1, size=3 * i), start=k * i)
               for k in range(5)]
    tau = 0.4
    base = mark_scored(windows, tau, 5 * i)
    doubled = [branch([2 * v for v in w.short], [2 * v for v in w.long],
                      start=w.target_start) for w in windows]
    scaled = mark_scored(doubled, 2 * tau, 5 * i)
    assert base == scaled


def test_windows_to_events_overlapping_and_coinciding_windows():
    windows = [(0, 8, 0.9), (4, 8, 0.9), (4, 8, 0.9), (12, 4, 0.6),
               (17, 2, 0.7), (30, 6, 0.1), (19, 1, 0.2)]
    events = mark(windows, 0.5, 40, video_id="v")
    assert [(e.start, e.end) for e in events] == [(0, 15), (17, 18)]
    assert events.video_id == "v"
    # a zero-length window marks nothing
    assert len(mark([(3, 0, 0.9)], 0.5, 10)) == 0


@settings(max_examples=300)
@given(n=st.integers(1, 40), data=st.data())
def test_mark_windows_equals_frame_marking(n, data):
    windows = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, 12), st.floats(0, 1)),
        max_size=12).map(lambda ws: [(s, min(k, n - s), v)
                                     for s, k, v in ws]))
    tau = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    labels = [0] * n
    for start, length, score in windows:
        if score >= tau:
            labels[start:start + length] = [1] * length
    got = mark(windows, tau, n)
    assert [(e.start, e.end) for e in got] == runs_of_ones(labels)


def merged(windows, tau):
    """The events of the windows scoring >= tau, merged one interval at a
    time in start order: no frame is ever marked."""
    events = []
    for start, length, score in sorted(windows):
        if score < tau or length == 0:
            continue
        if events and start <= events[-1][1] + 1:   # overlaps or touches
            events[-1][1] = max(events[-1][1], start + length - 1)
        else:
            events.append([start, start + length - 1])
    return [tuple(e) for e in events]


@settings(max_examples=200)
@given(data=st.data())
def test_mark_windows_merges_intervals_near_2_62(data):
    # windows a few frames past 2**62: zero-length ones, copies of an
    # earlier window and windows touching one, in a drawn order
    base, windows = 2**62, []
    for _ in range(data.draw(st.integers(0, 10))):
        kind = data.draw(st.sampled_from(["new", "copy", "touch"])
                         if windows else st.just("new"))
        if kind == "new":
            start = base + data.draw(st.integers(0, 40))
            length = data.draw(st.integers(0, 5))
        else:
            start, length, _ = data.draw(st.sampled_from(windows))
            if kind == "touch":
                start, length = start + length, data.draw(st.integers(0, 5))
        windows.append((start, length,
                        data.draw(st.sampled_from([0.1, 0.5, 0.9]))))
    windows = data.draw(st.permutations(windows))
    got = mark(windows, 0.5, base + 100)
    assert list(zip(got.starts.tolist(), got.ends.tolist())) == \
        merged(windows, 0.5)


def test_mark_windows_needs_no_frame_array():
    # one window at frame 2**62 of a video 2**62 + 5 frames long
    got = mark_windows(np.array([2**62]), np.array([1]), np.array([0.9]),
                       0.5, 2**62 + 5)
    assert (got.starts.tolist(), got.ends.tolist()) == ([2**62], [2**62])


def test_mark_windows_names_first_out_of_range_window():
    starts = np.array([0, 30, 18, -1])
    lengths = np.array([4, 4, 4, 2])
    scores = np.array([0.9, 0.1, 0.9, 0.9])
    with pytest.raises(WindowOutOfRange, match=r"window \[30,33\] exceeds "
                       r"video length 20$"):
        mark_windows(starts, lengths, scores, 0.5, 20)
    with pytest.raises(WindowOutOfRange, match=r"window \[5,1\]"):
        mark([(5, -3, 0.9)], 0.5, 20)
    huge = 10 ** 20
    for start in (huge, 2 ** 63, 2 ** 63 - 1):
        with pytest.raises(WindowOutOfRange, match=rf"window \[{start},"):
            mark([(0, 1, 0.9), (start, 1, 0.9)], 0.5, 20)
    with pytest.raises(WindowOutOfRange, match=rf"\[{huge},"):
        mark_scored([branch([0.1], [0.1] * 3, start=huge)], 0.5, 20)


@pytest.mark.parametrize("call,message", [
    (lambda: align_center([0.1] * 3, 0),
     "window length must be an integer >= 1, got 0"),
    (lambda: mark([], 0.5, 0), "video_len must be an integer >= 1, got 0"),
], ids=["align_center window 0", "mark_windows video_len 0"])
def test_fusion_rejects_a_length_below_one(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_run_dual_pipeline_without_windows():
    out = mark_scored([], 0.5, 5, "v")
    assert len(out) == 0 and out.video_id == "v"
