from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from event_eval.core import EventSet, FrameMask, TemporalEvent
from event_eval.errors import ValidationError, VideoIdMismatch
from event_eval.events import mask_to_events
from event_eval.matching import match_events, multi_threshold_eval

from oracles import interval_tiou, optimal_assignment, runs_of_ones


def eventset(spans, video_id="v"):
    return EventSet(video_id, tuple(TemporalEvent(s, e) for s, e in spans))


def random_eventset(rng, video_id, max_events=6):
    while True:
        n = int(rng.integers(20, 120))
        labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
        es = mask_to_events(FrameMask(video_id, tuple(labels)))
        if 0 < len(es.events) <= max_events:
            return es


def tiou(a, b):
    """tIoU of two spans as the matcher computes it; 0 when disjoint."""
    pairs = match_events(eventset([a]), eventset([b]), 1e-300).pairs
    return pairs[0][2] if pairs else 0.0


def test_tiou_examples():
    assert tiou((0, 9), (0, 9)) == 1.0
    # intersection 5 frames, union 15 frames
    assert tiou((0, 9), (5, 14)) == pytest.approx(1 / 3)
    assert tiou((0, 4), (10, 12)) == 0.0
    assert tiou((0, 0), (0, 0)) == 1.0 and tiou((0, 0), (1, 1)) == 0.0


def test_tiou_symmetric_and_bounded():
    rng = np.random.default_rng(83)
    for _ in range(200):
        s1, s2 = rng.integers(0, 100, size=2)
        a = (int(s1), int(s1 + rng.integers(0, 40)))
        b = (int(s2), int(s2 + rng.integers(0, 40)))
        t = tiou(a, b)
        assert t == tiou(b, a)
        assert 0.0 <= t <= 1.0
        assert tiou(a, a) == 1.0
        assert t == pytest.approx(interval_tiou(a, b))


def test_match_events_examples():
    perfect = match_events(eventset([(0, 9)]), eventset([(0, 9)]), 0.5)
    assert perfect.pairs == ((0, 0, 1.0),)
    assert perfect.unmatched_gt == () and perfect.unmatched_pred == ()

    miss = match_events(eventset([(0, 9)]), eventset([(5, 14)]), 0.5)
    assert miss.pairs == ()
    assert miss.unmatched_gt == (0,) and miss.unmatched_pred == (0,)

    partial = match_events(eventset([(0, 9), (20, 29)]), eventset([(0, 9)]),
                           0.3)
    assert len(partial.pairs) == 1
    assert partial.unmatched_gt == (1,)
    assert partial.unmatched_pred == ()


def test_match_events_threshold_validated():
    with pytest.raises(ValidationError):
        match_events(eventset([(0, 9)]), eventset([(0, 9)]), 0.0)
    with pytest.raises(ValidationError):
        match_events(eventset([(0, 9)]), eventset([(0, 9)]), 1.5)


def test_match_is_one_to_one():
    rng = np.random.default_rng(89)
    for _ in range(100):
        gt = random_eventset(rng, "v")
        pred = random_eventset(rng, "v")
        res = match_events(gt, pred, 0.2)
        gts = [i for i, _, _ in res.pairs]
        preds = [j for _, j, _ in res.pairs]
        assert len(set(gts)) == len(gts)
        assert len(set(preds)) == len(preds)
        assert len(res.pairs) <= min(len(gt), len(pred))
        assert all(t >= 0.2 for _, _, t in res.pairs)
        assert len(res.pairs) + len(res.unmatched_gt) == len(gt)
        assert len(res.pairs) + len(res.unmatched_pred) == len(pred)


def test_greedy_equals_exhaustive_on_random_fixtures():
    # exhaustive search maximizes (match count, total tIoU); across this
    # seeded corpus greedy attains both, and any future divergence must be
    # inspected and documented rather than silently passed
    rng = np.random.default_rng(2025)
    divergences = []
    for k in range(600):
        gt = random_eventset(rng, "g")
        pred = random_eventset(rng, "p")
        threshold = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
        res = match_events(gt, pred, threshold)
        greedy = (len(res.pairs), sum(t for *_, t in res.pairs))
        optimal = optimal_assignment([(e.start, e.end) for e in gt],
                                     [(e.start, e.end) for e in pred],
                                     threshold)
        assert greedy[0] <= optimal[0]
        if greedy[0] != optimal[0] or abs(greedy[1] - optimal[1]) > 1e-12:
            divergences.append((k, greedy, optimal))
    assert divergences == []


def test_greedy_known_suboptimal_case():
    # Documented divergence: greedy maximizes neither count nor sum in
    # general. The highest-tIoU pair (gt A, pred P) blocks the assignment
    # (A-Q, B-P) that would match both ground-truth events.
    gt = eventset([(0, 99), (101, 200)])        # A, B
    pred = eventset([(0, 19), (21, 120)])       # Q, P
    assert tiou((0, 99), (21, 120)) == pytest.approx(79 / 121)
    assert tiou((0, 99), (0, 19)) == pytest.approx(0.2)
    assert tiou((101, 200), (21, 120)) == pytest.approx(20 / 180)

    res = match_events(gt, pred, 0.1)
    assert [(i, j) for i, j, _ in res.pairs] == [(0, 1)]  # greedy: 1 match
    optimal = optimal_assignment([(e.start, e.end) for e in gt],
                                 [(e.start, e.end) for e in pred], 0.1)
    assert optimal[0] == 2  # exhaustive: both events matched


def test_greedy_tie_breaks_are_deterministic():
    # two pairs with identical tIoU: lower gt index wins, then lower pred
    gt = eventset([(0, 9), (20, 29)])
    pred = eventset([(0, 9), (20, 29)])
    res = match_events(gt, pred, 0.5)
    assert res.pairs == ((0, 0, 1.0), (1, 1, 1.0))


def test_tp_monotone_in_threshold():
    rng = np.random.default_rng(91)
    for _ in range(50):
        gt = random_eventset(rng, "v")
        pred = random_eventset(rng, "v")
        tps = [len(match_events(gt, pred, t).pairs)
               for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0)]
        assert tps == sorted(tps, reverse=True)


def test_multi_threshold_eval_perfect_and_counts():
    gt = [eventset([(0, 9), (30, 49)], "a"), eventset([(5, 24)], "b")]
    metrics = multi_threshold_eval(gt, gt, (0.2, 0.3, 0.4, 0.5))
    assert metrics.average_f1 == 1.0
    for entry in metrics.per_tiou.values():
        assert (entry.precision, entry.recall, entry.f1) == (1.0, 1.0, 1.0)
        assert entry.tp == 3 and entry.fp == 0 and entry.fn == 0


def test_multi_threshold_eval_third_overlap_fixture():
    gt = [eventset([(0, 9)], "a")]
    pred = [eventset([(5, 14)], "a")]
    metrics = multi_threshold_eval(gt, pred, (0.2, 0.3, 0.4, 0.5))
    per = metrics.per_tiou
    assert per[0.2].f1 > 0 and per[0.3].f1 > 0  # tIoU = 1/3 passes these
    assert per[0.4].f1 == 0 and per[0.5].f1 == 0
    assert metrics.average_f1 == pytest.approx(
        sum(e.f1 for e in per.values()) / 4)


def test_multi_threshold_f1_monotone_non_increasing():
    rng = np.random.default_rng(93)
    gt = [random_eventset(rng, f"v{k}") for k in range(4)]
    pred = [random_eventset(rng, f"v{k}") for k in range(4)]
    metrics = multi_threshold_eval(gt, pred, (0.2, 0.3, 0.4, 0.5))
    f1s = [metrics.per_tiou[t].f1 for t in (0.2, 0.3, 0.4, 0.5)]
    assert f1s == sorted(f1s, reverse=True)


def test_multi_threshold_eval_count_identities():
    rng = np.random.default_rng(95)
    gt = [random_eventset(rng, f"v{k}") for k in range(3)]
    pred = [random_eventset(rng, f"v{k}") for k in range(3)]
    n_gt = sum(len(es) for es in gt)
    n_pred = sum(len(es) for es in pred)
    metrics = multi_threshold_eval(gt, pred, (0.2, 0.5))
    for entry in metrics.per_tiou.values():
        assert entry.tp + entry.fn == n_gt
        assert entry.tp + entry.fp == n_pred


def test_multi_threshold_eval_video_id_mismatch():
    gt = [eventset([(0, 9)], "a")]
    pred = [eventset([(0, 9)], "b")]
    with pytest.raises(VideoIdMismatch):
        multi_threshold_eval(gt, pred, (0.5,))


@pytest.mark.parametrize("twice", ["gt", "pred"])
def test_multi_threshold_eval_rejects_a_video_id_twice(twice):
    a, b = eventset([(0, 9)], "a"), eventset([(0, 9)], "b")
    sides = {"gt": [a, b], "pred": [a, b], twice: [a, a]}
    with pytest.raises(VideoIdMismatch, match="duplicate video_id"):
        multi_threshold_eval(sides["gt"], sides["pred"], (0.5,))


@pytest.mark.parametrize("thresholds", [
    (1.5, -2.0), (0.0,), (0.5, 1.0000001), (float("nan"),), (True,),
    ("0.5",), (None,), (0.5, 0.2, 0.5), (0.3, 0.3),
])
def test_multi_threshold_eval_rejects_bad_thresholds(thresholds):
    with pytest.raises(ValidationError):
        multi_threshold_eval([], [], thresholds)
    gt = [eventset([(0, 9)], "a")]
    with pytest.raises(ValidationError):
        multi_threshold_eval(gt, gt, thresholds)


def test_multi_threshold_eval_keeps_caller_threshold_order():
    rng = np.random.default_rng(97)
    gt = [random_eventset(rng, f"v{k}") for k in range(5)]
    pred = [random_eventset(rng, f"v{k}") for k in range(5)]
    order = (0.5, 0.2, 0.4, 0.3)
    metrics = multi_threshold_eval(gt, pred, order)
    assert list(metrics.per_tiou) == list(order)
    f1s = [metrics.per_tiou[t].f1 for t in order]
    assert metrics.average_f1 == sum(f1s) / len(f1s)
    ascending = multi_threshold_eval(gt, pred, sorted(order))
    assert ascending.per_tiou == metrics.per_tiou


# ---------------------------------------------------------------------------
# the one-pass kernel against the former per-threshold O(G x P) greedy


def reference_match(gt_spans, pred_spans, threshold):
    """Greedy matching as it was before the array kernel, kept as reference."""
    candidates = []
    for i, (gs, ge) in enumerate(gt_spans):
        for j, (ps, pe) in enumerate(pred_spans):
            inter = min(ge, pe) - max(gs, ps) + 1
            if inter <= 0:
                continue
            t = inter / ((ge - gs + 1) + (pe - ps + 1) - inter)
            if t >= threshold:
                candidates.append((i, j, t))
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    used_gt, used_pred, pairs = set(), set(), []
    for i, j, t in candidates:
        if i in used_gt or j in used_pred:
            continue
        used_gt.add(i)
        used_pred.add(j)
        pairs.append((i, j, t))
    return pairs


@st.composite
def clips(draw):
    """(gt spans, pred spans) of one clip; pred is often gt shifted by one
    frame, which forces equal tIoUs between neighbouring pairs."""
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=40))
    gt = runs_of_ones(labels)
    if draw(st.booleans()):
        pred = runs_of_ones(draw(st.lists(st.sampled_from([0, 1]),
                                  min_size=len(labels),
                                  max_size=len(labels))))
    elif draw(st.booleans()):
        pred = runs_of_ones([0] + labels[:-1])
    else:
        pred = runs_of_ones(labels[1:] + [0])
    return gt, pred


TIE_THRESHOLDS = [0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 2 / 3, 0.75, 1.0]
# events far apart, near the top of the int64 range
FAR = [(0, 10), (2 ** 62, 2 ** 62 + 10)]


@settings(max_examples=300)
@given(videos=st.lists(clips(), max_size=4),
       thresholds=st.lists(st.sampled_from(TIE_THRESHOLDS)
                           | st.floats(0.01, 1.0), min_size=1, max_size=4,
                           unique=True))
@example(videos=[([(0, 1), (3, 4)], [(1, 3)])], thresholds=[0.25])
@example(videos=[([(0, 9), (20, 29)], [(0, 9), (20, 29)])],
         thresholds=[1.0])
@example(videos=[([], [(0, 0)]), ([(0, 0)], [])], thresholds=[0.5])
@example(videos=[([(0, 0), (2, 2)], [(0, 0), (2, 2)]),
                 ([(0, 2)], [(2, 2)])], thresholds=[1.0, 1 / 3])
@example(videos=[([(0, 0)], [(0, 5)]), ([(0, 5)], [(0, 0)])],
         thresholds=[0.5])  # pred of v0 outlasts its gt, into v1's frames
@example(videos=[(FAR, FAR), (FAR[1:], FAR[1:])], thresholds=[0.5])
def test_one_pass_equals_per_threshold_greedy(videos, thresholds):
    # every clip starts at frame 0, so the videos' events share frames: a
    # pair of events from two different videos must never be matched
    gt_all = [eventset(g, f"v{k}") for k, (g, _) in enumerate(videos)]
    pred_all = [eventset(p, f"v{k}") for k, (_, p) in enumerate(videos)]
    metrics = multi_threshold_eval(gt_all, pred_all, thresholds)
    n_gt = sum(len(g) for g, _ in videos)
    n_pred = sum(len(p) for _, p in videos)
    for threshold in thresholds:
        tp = sum(len(reference_match(g, p, threshold)) for g, p in videos)
        entry = metrics.per_tiou[threshold]
        assert (entry.tp, entry.fp, entry.fn) == (tp, n_pred - tp, n_gt - tp)
        for (g, p), gt, pred in zip(videos, gt_all, pred_all):
            want = reference_match(g, p, threshold)
            res = match_events(gt, pred, threshold)
            assert list(res.pairs) == want
            assert res.unmatched_gt == tuple(
                i for i in range(len(g)) if i not in {w[0] for w in want})
            assert res.unmatched_pred == tuple(
                j for j in range(len(p)) if j not in {w[1] for w in want})


def test_multi_threshold_eval_events_near_int64_max():
    gt = [eventset(FAR, "a"), eventset(FAR[1:], "b")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics = multi_threshold_eval(gt, gt, [0.5, 1.0])
    for entry in metrics.per_tiou.values():
        assert (entry.tp, entry.fp, entry.fn) == (3, 0, 0)
    # lengths 2**63 and 2**62, whose sum wraps in int64: tIoU exactly 0.5
    gt, pred = eventset([(0, 2 ** 63 - 1)]), eventset([(0, 2 ** 62 - 1)])
    entry = multi_threshold_eval([gt], [pred], [0.5]).per_tiou[0.5]
    assert (entry.tp, entry.fp, entry.fn) == (1, 0, 0)
    assert match_events(gt, pred, 0.4).pairs == ((0, 0, 0.5),)
