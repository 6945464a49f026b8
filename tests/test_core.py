from __future__ import annotations

import copy
import importlib
import math
import pickle
import types
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event_eval.core import (
    Dataset,
    EvalConfig,
    EventMetrics,
    EventPrf,
    EventSet,
    FrameMask,
    FrameMetrics,
    ScoreSequence,
    TemporalEvent,
    ThresholdStrategy,
    events_within,
    validate_pair,
)
from event_eval.errors import (
    EventOutOfRange,
    LengthMismatch,
    NonBinaryLabel,
    NonFiniteScore,
    ValidationError,
    VideoIdMismatch,
)


ROOT_NAMES = {
    "EvalConfig", "ScoreSequence", "FrameMask", "EventSet", "TemporalEvent",
    "audit_dataset", "events_to_mask", "majority_vote_refine",
    "mask_to_events", "refine_pipeline", "load_manifest", "load_mask",
    "run_evaluation", "match_events", "emit_report", "build_kernel",
    "smooth_once", "auc_roc", "eer_threshold", "hprs_threshold", "roc_curve"}


def test_package_root_exports_the_documented_names_only():
    import event_eval

    # the root imports its names on first use, so read them through
    # __all__, dir() and getattr rather than vars()
    assert sorted(event_eval.__all__) == sorted(ROOT_NAMES)
    listed = {name for name in dir(event_eval)
              if not name.startswith("_")
              and not isinstance(getattr(event_eval, name), types.ModuleType)}
    assert listed == ROOT_NAMES
    for name in ROOT_NAMES:
        value = getattr(event_eval, name)
        assert getattr(importlib.import_module(value.__module__),
                       name) is value
    with pytest.raises(AttributeError):
        event_eval.not_a_public_name


def test_validate_pair_ok():
    scores = ScoreSequence("v", (0.1, 0.2, 0.3, 0.4, 0.5))
    mask = FrameMask("v", (0, 1, 0, 1, 0))
    validate_pair(scores, mask)  # should not raise


def test_validate_pair_length_mismatch():
    scores = ScoreSequence("v", (0.1, 0.2, 0.3, 0.4, 0.5))
    mask = FrameMask("v", (0, 1, 0, 1))
    with pytest.raises(LengthMismatch) as exc:
        validate_pair(scores, mask)
    assert exc.value.n_scores == 5
    assert exc.value.n_labels == 4
    assert exc.value.video_id == "v"


def test_validate_pair_video_id_mismatch():
    scores = ScoreSequence("a", (0.1,))
    mask = FrameMask("b", (1,))
    with pytest.raises(VideoIdMismatch):
        validate_pair(scores, mask)


def test_dataset_of_checks_each_pair_before_drawing_the_next():
    drawn = []

    def pairs():
        for vid, n in (("a", 2), ("b", 3), ("c", 2)):
            drawn.append(vid)
            yield ScoreSequence(vid, [0.5] * n), FrameMask(vid, [0, 1])

    with pytest.raises(LengthMismatch) as exc:
        Dataset.of(pairs())
    assert exc.value.video_id == "b" and drawn == ["a", "b"]


def test_private_of_keeps_the_array_it_is_handed():
    scores, labels = np.arange(4.0), np.array([0, 1, 1, 0], np.uint8)
    seq, mask = ScoreSequence._of("v", scores), FrameMask._of("v", labels)
    assert np.shares_memory(seq.as_array(), scores)
    assert np.shares_memory(mask.as_array(), labels)
    assert not (scores.flags.writeable or labels.flags.writeable)


def test_nan_score_reports_index():
    with pytest.raises(NonFiniteScore) as exc:
        ScoreSequence("v", (0.1, 0.2, math.nan, 0.4))
    assert exc.value.index == 2


def test_inf_score_rejected():
    with pytest.raises(NonFiniteScore):
        ScoreSequence("v", (0.1, math.inf))


def test_empty_sequences_rejected():
    with pytest.raises(ValidationError):
        ScoreSequence("v", ())
    with pytest.raises(ValidationError):
        FrameMask("v", ())


@pytest.mark.parametrize("cls,what", [(ScoreSequence, "score sequence"),
                                      (FrameMask, "frame mask")])
@pytest.mark.parametrize("values,shape", [([[0.0, 1.0]], (1, 2)),
                                          ("1", ()), (1.0, ()),
                                          ([[]], (1, 0))])
def test_input_that_is_not_1d_names_its_shape(cls, what, values, shape):
    with pytest.raises(ValidationError) as exc:
        cls("v", values)
    assert str(exc.value) == f"{what} for 'v' must be 1-D, got shape {shape}"
    with pytest.raises(ValidationError, match=f"^empty {what} for 'v'$"):
        cls("v", [])


def test_non_binary_label_reports_index():
    with pytest.raises(NonBinaryLabel) as exc:
        FrameMask("v", (0, 1, 2, 0))
    assert exc.value.index == 2


def test_mask_accepts_float_zeros_and_ones():
    mask = FrameMask("v", (0.0, 1.0, 1, 0))
    assert mask.labels == (0, 1, 1, 0)


def test_temporal_event_bounds():
    e = TemporalEvent(3, 7)
    assert e.duration == 5
    assert TemporalEvent(0, 0).duration == 1
    with pytest.raises(ValidationError):
        TemporalEvent(-1, 4)
    with pytest.raises(ValidationError):
        TemporalEvent(5, 4)


@pytest.mark.parametrize("start,end", [
    (0.7, 3.9), (True, 2), (0, 3.0), (np.float64(1), 2), (1, np.bool_(1)),
    ("0", 3)], ids=["floats", "bool", "float-end", "numpy-float",
                    "numpy-bool", "str"])
def test_temporal_event_bounds_must_be_integers(start, end):
    # never truncated: a float or bool bound is not a frame index
    with pytest.raises(ValidationError, match="are not integers"):
        TemporalEvent(start, end)
    e = TemporalEvent(np.int64(2), np.uint8(5))
    assert (e, type(e.start), type(e.end)) == (TemporalEvent(2, 5), int, int)


def test_event_set_requires_sorted_disjoint_nonadjacent():
    EventSet("v", (TemporalEvent(0, 3), TemporalEvent(5, 9)))
    with pytest.raises(ValidationError):  # adjacent runs are one event
        EventSet("v", (TemporalEvent(0, 3), TemporalEvent(4, 9)))
    with pytest.raises(ValidationError):  # overlap
        EventSet("v", (TemporalEvent(0, 5), TemporalEvent(3, 9)))
    with pytest.raises(ValidationError):  # out of order
        EventSet("v", (TemporalEvent(5, 9), TemporalEvent(0, 3)))


@pytest.mark.parametrize("events", [
    (TemporalEvent(0, 2**63),),
    (TemporalEvent(0, 3), TemporalEvent(2**63, 2**64)),
    (TemporalEvent(0, 10**30),),
])
def test_event_set_rejects_bounds_past_int64(events):
    with pytest.raises(ValidationError, match="past the int64 range"):
        EventSet("v", events)


def test_event_set_is_read_only_arrays_with_event_views():
    events = EventSet("v", (TemporalEvent(0, 3), TemporalEvent(5, 9)))
    assert events.starts.dtype == events.ends.dtype == np.int64
    assert events.starts.tolist() == [0, 5] and events.ends.tolist() == [3, 9]
    with pytest.raises(ValueError):
        events.starts[0] = 1
    assert events.events == (TemporalEvent(0, 3), TemporalEvent(5, 9))
    assert list(events) == list(events.events) and len(events) == 2
    assert events != EventSet("w", events.events)
    assert events != EventSet("v", events.events[:1])
    assert len(EventSet("v")) == 0


def test_events_within_names_first_event_past_the_end():
    events = EventSet("p", (TemporalEvent(0, 3), TemporalEvent(10, 20),
                            TemporalEvent(30, 40)))
    events_within(events, 41)
    with pytest.raises(EventOutOfRange) as exc:
        events_within(events, 15)
    assert str(exc.value) == "event [10,20] of 'p' exceeds video length 15"
    with pytest.raises(EventOutOfRange, match=r"\[30,40\]"):
        events_within(events, 40)


def test_config_defaults_are_valid():
    cfg = EvalConfig()
    assert cfg.sigma_max == 5
    assert cfg.vote_window == 9
    assert cfg.vote_stride == 3
    assert cfg.min_event_len == 8
    assert cfg.tiou_thresholds == (0.2, 0.3, 0.4, 0.5)
    assert cfg.threshold_strategy is ThresholdStrategy.EER
    assert cfg.hprs_beta == 0.5


@pytest.mark.parametrize("kwargs", [
    {"vote_stride": 5, "vote_window": 3},
    {"vote_stride": 4, "vote_window": 3},  # one past the window
    {"sigma_max": 0},
    {"min_event_len": 0},
    {"tiou_thresholds": (0.5, 0.2)},
    {"tiou_thresholds": (0.0, 0.5)},
    {"tiou_thresholds": (0.5, 1.5)},
    {"tiou_thresholds": ()},
    {"hprs_beta": 0.0},
    {"threshold_strategy": "fixed"},  # fixed_tau missing
    {"tiou_thresholds": (0.3, 0.3)},  # duplicates: per_tiou would merge them
    {"hprs_beta": math.inf},
    {"hprs_beta": "x"},  # wrong JSON types: a ValidationError, no TypeError
    {"hprs_beta": None},
    {"tiou_thresholds": 0.3},
    {"threshold_strategy": "fixed", "fixed_tau": "x"},
    {"sigma_max": 65},  # past MAX_SIGMA
    {"fixed_tau": math.nan},  # non-finite, whatever the strategy
    {"fixed_tau": math.inf},
    {"threshold_strategy": "hprs", "fixed_tau": -math.inf},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        EvalConfig(**kwargs)


@pytest.mark.parametrize("value", ["0.5", b"0.5"])
def test_config_rejects_a_string_of_tiou_thresholds(value):
    # a string is iterable, but its characters are not thresholds
    with pytest.raises(ValidationError) as exc:
        EvalConfig(tiou_thresholds=value)
    assert str(exc.value) == ("tiou_thresholds must be a list of numbers, "
                              f"got {value!r}")


def test_config_sigma_max_cap_is_inclusive():
    assert EvalConfig(sigma_max=64).sigma_max == 64


def test_config_fixed_strategy_with_tau():
    cfg = EvalConfig(threshold_strategy="fixed", fixed_tau=0.5)
    assert cfg.threshold_strategy is ThresholdStrategy.FIXED
    assert cfg.fixed_tau == 0.5


def test_frame_metrics_bounds_checked():
    FrameMetrics(auc_roc=0.9, auc_pr=0.5, eer=0.1, tau_eer=3.2,
                 tau_hprs=4.1, f1_at_tau_eer=0.5, f1_at_tau_hprs=0.4)
    with pytest.raises(ValidationError):
        FrameMetrics(auc_roc=1.2, auc_pr=0.5, eer=0.1, tau_eer=0.0,
                     tau_hprs=0.0, f1_at_tau_eer=0.5, f1_at_tau_hprs=0.4)


def test_event_prf_f1_identity_enforced():
    EventPrf(precision=0.5, recall=0.5, f1=0.5, tp=1, fp=1, fn=1)
    with pytest.raises(ValidationError):
        EventPrf(precision=0.5, recall=0.5, f1=0.9, tp=1, fp=1, fn=1)


@pytest.mark.parametrize("call,message", [
    (lambda: EventPrf(precision=0.0, recall=0.0, f1=0.0, tp=0, fp=-1, fn=0),
     "confusion counts must be non-negative"),
    (lambda: EventMetrics(per_tiou={}, average_f1=0.0),
     "per_tiou must not be empty"),
], ids=["negative count", "no thresholds"])
def test_event_values_reject_impossible_counts(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_event_metrics_average_and_totals_enforced():
    a = EventPrf(precision=1.0, recall=0.5, f1=2 / 3, tp=1, fp=0, fn=1)
    b = EventPrf(precision=0.5, recall=0.25, f1=1 / 3, tp=1, fp=1, fn=3)
    good = EventMetrics(per_tiou={0.5: a}, average_f1=2 / 3)
    assert good.average_f1 == pytest.approx(2 / 3)
    with pytest.raises(ValidationError):
        EventMetrics(per_tiou={0.5: a}, average_f1=0.9)
    with pytest.raises(ValidationError):  # tp+fn disagrees across thresholds
        EventMetrics(per_tiou={0.2: a, 0.5: b}, average_f1=0.5)


def test_values_are_plain_and_round_trip():
    scores = ScoreSequence("v", (0.5, 1.5, -2.0))
    mask = FrameMask("v", (1, 0, 1))
    events = EventSet("v", (TemporalEvent(0, 0), TemporalEvent(2, 2)))
    cfg = EvalConfig(sigma_max=3)

    assert scores == ScoreSequence("v", [0.5, 1.5, -2.0])
    assert copy.deepcopy(events) == events
    assert ScoreSequence(**asdict(scores)) == scores
    assert FrameMask(**asdict(mask)) == mask
    assert EvalConfig(**asdict(cfg)) == cfg

    rebuilt = EventSet(video_id=events.video_id, events=tuple(
        TemporalEvent(**asdict(e)) for e in events))
    assert rebuilt == events


def test_scores_may_leave_unit_interval():
    seq = ScoreSequence("v", (-5.0, 0.0, 123.4))
    assert min(seq.scores) == -5.0


_VALUE_OBJECT_SETTINGS = settings(max_examples=200)


def _assert_value_object(obj, view: tuple, values) -> None:
    """The tuple view, equality, asdict/copy/pickle round trips, and a
    read-only array that the constructor copied from the caller's input."""
    assert obj.as_array() is obj.as_array()
    assert tuple(obj.as_array().tolist()) == view and len(obj) == len(view)
    rebuilt = type(obj)(**asdict(obj))
    for other in (rebuilt, copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert other == obj and hash(other) == hash(obj)
        with pytest.raises(ValueError):
            other.as_array()[0] = 1
    assert obj != type(obj)("w", view)
    source = np.array(values, dtype=float)
    copied = type(obj)("v", source)
    source[0] = 1 - source[0]
    assert copied == obj


@_VALUE_OBJECT_SETTINGS
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=20))
def test_score_sequence_stores_a_checked_read_only_array(values):
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    if bad:
        with pytest.raises(NonFiniteScore) as exc:
            ScoreSequence("v", values)
        assert exc.value.index == bad[0]
        assert str(exc.value) == str(NonFiniteScore(bad[0], video_id="v"))
        return
    seq = ScoreSequence("v", values)
    assert seq.scores == tuple(float(v) for v in values)
    assert seq.as_array().dtype == np.float64
    _assert_value_object(seq, seq.scores, values)


@_VALUE_OBJECT_SETTINGS
@given(values=st.lists(st.one_of(st.sampled_from([0, 1, 0.0, 1.0]),
                                 st.integers(-2, 3), st.floats(width=64)),
                       min_size=1, max_size=20))
def test_frame_mask_stores_a_checked_read_only_array(values):
    bad = [i for i, v in enumerate(values) if v != 0 and v != 1]
    if bad:
        with pytest.raises(NonBinaryLabel) as exc:
            FrameMask("v", values)
        assert exc.value.index == bad[0]
        assert str(exc.value) == str(NonBinaryLabel(bad[0], video_id="v"))
        return
    mask = FrameMask("v", values)
    assert mask.labels == tuple(int(v) for v in values)
    assert mask.as_array().dtype == np.uint8
    _assert_value_object(mask, mask.labels, values)
