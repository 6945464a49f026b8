from __future__ import annotations

import numpy as np
import pytest

from event_eval import (
    EventSet,
    FrameMask,
    TemporalEvent,
    ValidationError,
    VideoIdMismatch,
    mask_to_events,
    match_events,
    multi_threshold_eval,
    tiou,
)

from oracles import interval_tiou, optimal_assignment


def eventset(spans, video_id="v"):
    return EventSet(video_id, tuple(TemporalEvent(s, e) for s, e in spans))


def random_eventset(rng, video_id, max_events=6):
    while True:
        n = int(rng.integers(20, 120))
        labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
        es = mask_to_events(FrameMask(video_id, tuple(labels)))
        if 0 < len(es.events) <= max_events:
            return es


def test_tiou_examples():
    assert tiou(TemporalEvent(0, 9), TemporalEvent(0, 9)) == 1.0
    # intersection 5 frames, union 15 frames
    assert tiou(TemporalEvent(0, 9), TemporalEvent(5, 14)) == \
        pytest.approx(1 / 3)
    assert tiou(TemporalEvent(0, 4), TemporalEvent(10, 12)) == 0.0


def test_tiou_symmetric_and_bounded():
    rng = np.random.default_rng(83)
    for _ in range(200):
        s1, s2 = rng.integers(0, 100, size=2)
        a = TemporalEvent(int(s1), int(s1 + rng.integers(0, 40)))
        b = TemporalEvent(int(s2), int(s2 + rng.integers(0, 40)))
        t = tiou(a, b)
        assert t == tiou(b, a)
        assert 0.0 <= t <= 1.0
        assert tiou(a, a) == 1.0
        assert t == pytest.approx(interval_tiou((a.start, a.end),
                                                (b.start, b.end)))


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
    assert tiou(gt.events[0], pred.events[1]) == pytest.approx(79 / 121)
    assert tiou(gt.events[0], pred.events[0]) == pytest.approx(0.2)
    assert tiou(gt.events[1], pred.events[1]) == pytest.approx(20 / 180)

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
