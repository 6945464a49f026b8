from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from event_eval import events as events_mod
from event_eval.core import (
    Dataset,
    EvalConfig,
    EventSet,
    FrameMask,
    ScoreSequence,
    TemporalEvent,
)
from event_eval.errors import (EventOutOfRange, InvalidWindow,
                               ValidationError)
from event_eval.events import (
    AuditReport,
    audit_dataset,
    clip_vote,
    events_to_mask,
    filter_short_events,
    majority_vote_refine,
    mask_to_events,
    refine_pipeline,
)
from event_eval.io import event_metrics_at, predict_videos
from event_eval.matching import multi_threshold_eval
from event_eval.smoothing import smooth_clips

from oracles import brute_majority_vote, runs_of_ones


def mask(*labels: int, video_id: str = "v") -> FrameMask:
    return FrameMask(video_id, tuple(labels))


def spans(es: EventSet) -> list[tuple[int, int]]:
    return [(e.start, e.end) for e in es]


def test_mask_to_events_transitions():
    assert spans(mask_to_events(mask(0, 1, 1, 0, 1, 0))) == [(1, 2), (4, 4)]
    assert spans(mask_to_events(mask(0, 0, 0))) == []
    assert spans(mask_to_events(mask(1, 1, 1))) == [(0, 2)]
    assert spans(mask_to_events(mask(1, 0, 1))) == [(0, 0), (2, 2)]


def test_run_touching_video_end_closes_at_final_frame():
    assert spans(mask_to_events(mask(0, 0, 1, 1))) == [(2, 3)]


def test_events_to_mask_and_round_trip():
    es = EventSet("v", (TemporalEvent(1, 2),))
    assert events_to_mask(es, 4).labels == (0, 1, 1, 0)
    empty = EventSet("v", ())
    assert events_to_mask(empty, 4).labels == (0, 0, 0, 0)
    with pytest.raises(EventOutOfRange):
        events_to_mask(EventSet("v", (TemporalEvent(2, 5),)), 5)


@pytest.mark.parametrize("n", [3.7, 4.0, True, np.float64(4)],
                         ids=["fraction", "float", "bool", "numpy-float"])
def test_events_to_mask_needs_an_integer_length(n):
    es = EventSet("v", (TemporalEvent(1, 2),))
    with pytest.raises(ValidationError, match="integer"):
        events_to_mask(es, n)
    assert events_to_mask(es, np.int64(4)).labels == (0, 1, 1, 0)


def test_round_trip_random_masks():
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = int(rng.integers(1, 300))
        labels = tuple(int(v) for v in rng.random(n) <
                       rng.uniform(0.05, 0.95))
        m = mask(*labels)
        events = mask_to_events(m)
        assert events_to_mask(events, n) == m
        # structural invariants come for free from EventSet, but check the
        # run equivalence against an independent scan too
        assert spans(events) == runs_of_ones(labels)


def test_majority_vote_hand_example():
    got = majority_vote_refine(mask(1, 1, 0, 0, 0, 1), window=3, stride=3)
    assert got.labels == (1, 1, 1, 0, 0, 0)


def test_majority_vote_identity_cases():
    constant = mask(*([1] * 10))
    assert majority_vote_refine(constant, 4, 2) == constant
    m = mask(0, 1, 0, 1, 1, 0, 1)
    assert majority_vote_refine(m, 1, 1) == m


def test_majority_vote_tie_goes_anomalous():
    assert majority_vote_refine(mask(1, 0, 0, 1), 4, 4).labels == (1, 1, 1, 1)


def test_majority_vote_rejects_bad_window():
    m = mask(0, 1, 0, 1)
    with pytest.raises(InvalidWindow):
        majority_vote_refine(m, window=3, stride=4)  # stride > window
    with pytest.raises(InvalidWindow):
        majority_vote_refine(m, window=5, stride=1)  # window > length
    with pytest.raises(InvalidWindow):
        majority_vote_refine(m, window=2, stride=0)


@pytest.mark.parametrize("window,stride", [
    (2.5, 1.5), (3.0, 1), (3, True), (np.float64(3), 1)],
    ids=["fractions", "float-window", "bool-stride", "numpy-float"])
def test_majority_vote_needs_integer_window_and_stride(window, stride):
    m = mask(0, 1, 1, 1)
    with pytest.raises(InvalidWindow, match="integers"):
        majority_vote_refine(m, window, stride)
    assert majority_vote_refine(m, np.int64(3), np.uint8(1)) == \
        majority_vote_refine(m, 3, 1)


def test_majority_vote_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(150):
        n = int(rng.integers(4, 128))
        labels = tuple(int(v) for v in rng.integers(0, 2, size=n))
        window = int(rng.integers(1, min(n, 32) + 1))
        stride = int(rng.integers(1, window + 1))
        got = majority_vote_refine(mask(*labels), window, stride)
        assert list(got.labels) == brute_majority_vote(labels, window,
                                                       stride)
        assert len(got) == n


@st.composite
def vote_cases(draw):
    n = draw(st.integers(1, 200))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    window = draw(st.integers(1, n))
    stride = draw(st.integers(1, window))
    return labels, window, stride


@settings(max_examples=300)
@given(vote_cases())
@example(([1], 1, 1))                       # n = 1
@example(([1, 0, 0, 1, 1, 0, 0], 3, 3))     # stride == window
@example(([0, 1, 1, 0, 1, 0], 6, 4))        # window == n
@example(([1, 0, 1, 0], 4, 4))              # stride == window == n, a tie
def test_majority_vote_property(case):
    labels, window, stride = case
    got = majority_vote_refine(mask(*labels), window, stride)
    assert list(got.labels) == brute_majority_vote(labels, window, stride)


def test_filter_short_events():
    es = EventSet("v", (TemporalEvent(0, 0), TemporalEvent(5, 20)))
    assert spans(filter_short_events(es, 5)) == [(5, 20)]
    assert filter_short_events(es, 1) == es
    # duration 4 with d_min 4 is kept: "shorter than" is strict
    boundary = EventSet("v", (TemporalEvent(0, 3),))
    assert filter_short_events(boundary, 4) == boundary
    assert spans(filter_short_events(boundary, 5)) == []


def test_filter_short_events_idempotent_and_monotone():
    rng = np.random.default_rng(61)
    for _ in range(50):
        labels = tuple(int(v) for v in rng.integers(0, 2, size=80))
        es = mask_to_events(mask(*labels))
        for d in (1, 2, 3, 5, 8):
            once = filter_short_events(es, d)
            assert filter_short_events(once, d) == once
            larger = filter_short_events(es, d + 2)
            assert set(spans(larger)) <= set(spans(once))


def test_refine_pipeline_recovers_clean_step_signal():
    cfg = EvalConfig()  # sigma_max 5, W 9, stride 3, D_min 8
    n, start, dur = 400, 150, 50
    scores = np.full(n, 0.1)
    scores[start:start + dur] = 0.9
    got = refine_pipeline(ScoreSequence("v", tuple(scores)), 0.5, cfg)
    assert len(got) == 1
    event = got.events[0]
    drift = int(np.ceil(3 * cfg.sigma_max))
    assert abs(event.start - start) <= drift
    assert abs(event.end - (start + dur - 1)) <= drift
    assert event.duration >= cfg.min_event_len


def test_refine_pipeline_all_low_scores_is_empty():
    cfg = EvalConfig()
    scores = ScoreSequence("v", tuple(np.full(100, 0.05)))
    assert spans(refine_pipeline(scores, 0.5, cfg)) == []


def test_refine_pipeline_suppresses_single_spike():
    cfg = EvalConfig(min_event_len=10)
    scores = np.full(200, 0.1)
    scores[100] = 5.0
    got = refine_pipeline(ScoreSequence("v", tuple(scores)), 0.5, cfg)
    assert spans(got) == []


def test_refine_pipeline_output_durations_respect_min_length():
    rng = np.random.default_rng(67)
    cfg = EvalConfig(sigma_max=2, vote_window=5, vote_stride=2,
                     min_event_len=6)
    for _ in range(25):
        scores = ScoreSequence("v", tuple(rng.random(120)))
        for event in refine_pipeline(scores, 0.55, cfg):
            assert event.duration >= cfg.min_event_len


def clip_vote_by_clip(clips, window, stride) -> list[int]:
    """brute_majority_vote of each clip alone, the window clamped to the
    clip's length and the stride to that window."""
    out = []
    for labels in clips:
        w = min(window, len(labels))
        out += brute_majority_vote(labels, w, min(stride, w))
    return out


@settings(max_examples=200)
@given(clips=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=40),
                      min_size=1, max_size=8),
       window=st.integers(1, 50), stride=st.integers(1, 50),
       block=st.integers(1, 12))
def test_clip_vote_in_small_blocks_equals_each_clip_alone(clips, window,
                                                          stride, block):
    # blocks of a few windows start and end inside clips and span several
    bounds = np.cumsum([0, *map(len, clips)])
    labels = np.concatenate(clips).astype(bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_mod, "_WINDOWS", block)
        got = clip_vote(labels, bounds, window, stride)
    assert got.tolist() == clip_vote_by_clip(clips, window, stride)


def test_clip_vote_many_blocks_at_stride_one():
    rng = np.random.default_rng(29)
    clips = [rng.integers(0, 2, n).tolist() for n in (9_000, 1, 30_000, 5)]
    bounds = np.cumsum([0, *map(len, clips)])
    got = clip_vote(np.concatenate(clips).astype(bool), bounds, 9, 1)
    assert got.tolist() == clip_vote_by_clip(clips, 9, 1)


def test_refine_pipeline_clamps_vote_to_short_clips():
    # A clip shorter than vote_window votes with window n and stride
    # min(vote_stride, n) instead of raising InvalidWindow.
    rng = np.random.default_rng(71)
    for cfg in (EvalConfig(), EvalConfig(min_event_len=1),
                EvalConfig(sigma_max=2, vote_window=6, vote_stride=6,
                           min_event_len=2)):
        for n in range(1, cfg.vote_window):
            for _ in range(20):
                seq = ScoreSequence("v", tuple(rng.random(n)))
                tau = float(rng.uniform(0.2, 0.8))
                smoothed = smooth_clips(seq.as_array(), np.array([0, n]),
                                        cfg.sigma_max)
                labels = (smoothed >= tau).astype(int).tolist()
                voted = brute_majority_vote(labels, n,
                                            min(cfg.vote_stride, n))
                want = [(s, e) for s, e in runs_of_ones(voted)
                        if e - s + 1 >= cfg.min_event_len]
                assert spans(refine_pipeline(seq, tau, cfg)) == want


@st.composite
def ragged_videos(draw):
    """1-6 clips of 1-50 frames; coarse scores, so that runs form and touch
    clip ends."""
    videos = []
    for k, n in enumerate(draw(st.lists(st.integers(1, 50), min_size=1,
                                        max_size=6))):
        scores = draw(st.lists(st.sampled_from([0.1, 0.4, 0.6, 0.9]),
                               min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        videos.append((ScoreSequence(f"v{k}", scores),
                       FrameMask(f"v{k}", labels)))
    return videos


def _high_clips(*lengths):
    """Clips whose every frame scores high and is labelled: each clip's one
    event runs from its first frame to its last."""
    return [(ScoreSequence(f"v{k}", [0.9] * n), FrameMask(f"v{k}", [1] * n))
            for k, n in enumerate(lengths)]


@settings(max_examples=150)
@given(videos=ragged_videos(), cfg=st.sampled_from([
    EvalConfig(),
    EvalConfig(sigma_max=2, vote_window=6, vote_stride=4, min_event_len=2),
    EvalConfig(sigma_max=1, vote_window=3, vote_stride=1, min_event_len=1),
]))
@example(videos=_high_clips(1), cfg=EvalConfig(min_event_len=1))
@example(videos=_high_clips(2, 1, 12, 2, 50), cfg=EvalConfig(min_event_len=1))
def test_ragged_tail_equals_per_clip_functions(videos, cfg):
    """One pass over all clips gives each clip's events and the pooled
    metrics of the per-clip public functions, in both modes and at both
    taus."""
    gt = [mask_to_events(m) for _, m in videos]
    for mode in ("refined", "baseline"):
        for tau in (0.5, 0.35):
            want = {s.video_id: refine_pipeline(s, tau, cfg)
                    if mode == "refined"
                    else mask_to_events(FrameMask(s.video_id,
                                                  s.as_array() >= tau))
                    for s, _ in videos}
            assert predict_videos(Dataset.of(videos), tau, cfg,
                                  mode) == want
            assert event_metrics_at(videos, tau, cfg, mode) == \
                multi_threshold_eval(gt, list(want.values()),
                                     cfg.tiou_thresholds)


def test_binarize_uses_geq_convention():
    # the baseline path binarizes the raw scores: the tie at tau is anomalous
    data = Dataset.of([(ScoreSequence("v", (0.2, 0.5, 0.7)), mask(0, 0, 0))])
    got = predict_videos(data, 0.5, EvalConfig(), "baseline")
    assert spans(got["v"]) == [(1, 2)]


def test_audit_single_video():
    report = audit_dataset([mask(0, 1, 1, 0)], micro_threshold=8)
    assert report.normal_frames == 2
    assert report.anomalous_frames == 2
    assert report.event_count == 1
    assert report.avg_duration_frames == pytest.approx(2.0)
    assert report.min_duration == 2
    assert report.max_duration == 2
    assert report.micro_event_count == 1  # 2 < 8


def test_audit_across_videos():
    ten = mask(*([0] * 5 + [1] * 10 + [0] * 5))
    report = audit_dataset([ten, FrameMask("w", ten.labels)],
                           micro_threshold=8)
    assert report.event_count == 2
    assert report.avg_duration_frames == pytest.approx(10.0)
    assert report.normal_frames == 20
    assert report.anomalous_frames == 20
    assert report.micro_event_count == 0


def test_audit_micro_events_are_shorter_than_the_threshold():
    report = audit_dataset([mask(*([1] * 7 + [0] + [1] * 8))],
                           micro_threshold=8)
    assert report.event_count == 2
    assert report.micro_event_count == 1  # 7 < 8, and 8 is not


def test_audit_requires_masks():
    with pytest.raises(ValidationError, match="at least one video"):
        audit_dataset([], micro_threshold=2)


@pytest.mark.parametrize("call,message", [
    (lambda: filter_short_events(EventSet("v"), 0),
     "d_min must be an integer >= 1, got 0"),
    (lambda: audit_dataset([mask(0, 1)], micro_threshold=0),
     "micro_threshold must be an integer >= 1, got 0"),
    (lambda: AuditReport(normal_frames=2, anomalous_frames=2, event_count=0,
                         avg_duration_frames=0.0, min_duration=0,
                         max_duration=0, micro_event_count=0),
     "anomalous frames present but no events"),
    (lambda: AuditReport(normal_frames=2, anomalous_frames=4, event_count=2,
                         avg_duration_frames=3.0, min_duration=1,
                         max_duration=3, micro_event_count=0),
     "avg_duration_frames inconsistent"),
], ids=["filter d_min 0", "audit micro_threshold 0", "frames without events",
        "average not frames / events"])
def test_events_rejections(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
