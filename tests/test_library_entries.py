"""Every public library entry ends in a result or in an EventEvalError.

- Each error class of `errors.py`, through each of its constructors,
  survives `pickle`, `copy.copy` and `copy.deepcopy` with its type, message
  and attributes.
- A derandomized property draws number-like values (0, negative ints,
  10**400, NaN, +-inf, 1e308, 5e-324, bools, numpy scalars and short
  strings) for every numeric parameter of the library entries,
  array-likes (lists of those, a string, a nested list, None, bare tuples)
  for every array parameter, None, a list, an ndarray or a string for
  every value-object parameter, and lists of those numbers, None, a
  number, a string, a dict or a set for multi_threshold_eval's
  thresholds, and asserts that each call returns or raises an
  EventEvalError. No draw allocates in proportion to a drawn
  number: a kernel radius, a mask length and a video length stay at or
  below 10**4, and every other drawn number is a value or a count that
  sizes nothing.
- Unit tests pin the one tau rule, the messages of the mended escapes (the
  one frame-count rule and the one value-object rule among them) and the
  order of frame_metrics' own checks.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from event_eval import errors
from event_eval.core import (Dataset, EvalConfig, EventSet, FrameMask,
                             ScoreSequence, TemporalEvent, events_within,
                             validate_pair)
from event_eval.smoothing import build_kernel, smooth_once
from event_eval.errors import EventEvalError, ValidationError
from event_eval.events import (audit_dataset, audit_events, events_to_mask,
                               filter_short_events, majority_vote_refine,
                               mask_to_events, refine_pipeline)
from event_eval.fusion import (BranchErrors, align_center, fuse_frames,
                               mark_windows, pool_event_score)
from event_eval.io import (Manifest, compute_frame_metrics, event_metrics_at,
                           run_evaluation)
from event_eval.matching import match_events, multi_threshold_eval
from event_eval.report import emit_audit, emit_report
from event_eval.thresholds import (auc_roc, eer_threshold, frame_metrics,
                                   hprs_threshold, roc_curve)

# ---------------------------------------------------------------------------
# errors survive pickle and copy

ERRORS = [
    errors.EventEvalError("m"),
    errors.ValidationError("m"),
    errors.InputError("m"),
    errors.LengthMismatch(5, 4),
    errors.LengthMismatch(5, 4, "v"),
    errors.LengthMismatch(5, 4, "v", "p.csv"),
    errors.NonFiniteScore(3),
    errors.NonFiniteScore(3, "v", "p.csv"),
    errors.NonBinaryLabel(2, "v"),
    errors.DegenerateLabels("m"),
    errors.InvalidSigma("m"),
    errors.InvalidWindow("m"),
    errors.EventOutOfRange("m"),
    errors.BadLength("m"),
    errors.WindowOutOfRange("m"),
    errors.VideoIdMismatch("m"),
    errors.DuplicateVideoId("v"),
    errors.DuplicateVideoId("v", "m.txt"),
    errors.MissingFile("p"),
    errors.ParseError("p", 1, "bad"),
    errors.ParseError("p", None, "bad"),
    errors._locate(errors.WindowOutOfRange("m"), "v", "p"),
    errors._locate(errors.BadLength("m"), path="p", line=3),
]


def test_the_error_table_holds_every_error_class():
    classes = {value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, EventEvalError)
               and not name.startswith("_")}
    assert {type(exc) for exc in ERRORS} == classes


@pytest.mark.parametrize("exc", ERRORS, ids=repr)
def test_an_error_survives_pickle_and_copy(exc):
    for other in (*(pickle.loads(pickle.dumps(exc, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
                  copy.copy(exc), copy.deepcopy(exc)):
        assert type(other) is type(exc)
        assert str(other) == str(exc)
        assert vars(other) == vars(exc)


# ---------------------------------------------------------------------------
# one defined outcome at each library entry

NUMBER_LIKE = [0, -1, -7, 10**400, -10**400, math.nan, math.inf, -math.inf,
               1e308, -1e308, 5e-324, True, False, np.float64(0.5),
               np.float64(math.nan), np.float32(math.inf), np.int64(3),
               np.int8(-2), np.uint8(1), np.bool_(True), "", "a", "1", "nan"]
NUMBERS = st.one_of(st.sampled_from(NUMBER_LIKE), st.integers(-3, 12),
                    st.floats(-2.0, 2.0), st.text(max_size=3))
# a kernel's radius, a mask's length and a video's length size an
# allocation: no int above 10**4
SIZES = NUMBERS.filter(lambda r: not (isinstance(r, int) and r > 10**4))
# what an array parameter may be handed instead of an array of numbers
ARRAY_LIKES = st.sampled_from(["abc", "", [[0.5, 1.0]], [[1], [2, 3]], None,
                               (0, 2), (0.5, 1), ((1, 2),), ()])
VALUES = st.one_of(NUMBERS, st.lists(NUMBERS, max_size=4), ARRAY_LIKES)
MODES = st.sampled_from(["refined", "baseline"])
# finite floats at the edges of the range, whose differences overflow
SCORES = st.sampled_from([0.0, 0.3, 0.5, 1.0, -7, 1e308, -1e308, 5e-324])
# a few fields, each set to a number-like; any other field keeps its default
CONFIGS = st.dictionaries(st.sampled_from([
    "sigma_max", "vote_window", "vote_stride", "min_event_len", "hprs_beta",
    "fixed_tau", "tiou_thresholds", "threshold_strategy"]),
    st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3),
              st.sampled_from(["eer", "hprs", "fixed", "x"])), max_size=2)


def pairs(number_likes: bool = True):
    """A score list and a label list of one length or, with number_likes,
    now and then two drawn VALUES instead."""
    valid = st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(SCORES, min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return st.one_of(valid, st.tuples(VALUES, VALUES)) if number_likes \
        else valid


def videos(draw) -> list[tuple[ScoreSequence, FrameMask]]:
    return [(ScoreSequence(f"v{k}", s), FrameMask(f"v{k}", y))
            for k, (s, y) in enumerate(draw(st.lists(
                pairs(number_likes=False), min_size=1, max_size=3)))]


def dataset_of(draw) -> None:
    drawn = draw(st.lists(st.tuples(st.booleans(), pairs()), min_size=1,
                          max_size=3))
    data = Dataset.of([(ScoreSequence(f"v{k}", s) if scored else None,
                        FrameMask(f"v{k}", y))
                       for k, (scored, (s, y)) in enumerate(drawn)])
    # scores exactly when every pair had them
    assert (data.scores is None) == (not drawn[0][0])


def frame_metrics_of(draw) -> None:
    scored = draw(st.booleans())
    data = Dataset.of([(seq if scored else None, mask)
                       for seq, mask in videos(draw)])
    metrics = frame_metrics(data, draw(NUMBERS))
    # an unchecked NaN beta makes every F_beta 0, and tau_hprs +inf
    assert math.isfinite(metrics.tau_hprs)


GT = EventSet("v", [TemporalEvent(0, 4), TemporalEvent(8, 9)])
PRED = EventSet("v", [TemporalEvent(1, 4), TemporalEvent(7, 12)])


def array_or(draw, valid):
    """valid, or now and then a drawn VALUES or its numpy array."""
    drawn = draw(st.one_of(st.just(valid), VALUES))
    if drawn is not valid and draw(st.booleans()):
        try:
            return np.array(drawn)
        except ValueError:   # a ragged nested list
            pass
    return drawn


# what a value-object parameter may be handed instead of a value object
NOT_OBJECTS = st.sampled_from([None, [0, 1], np.array([0.5, 1.0]), "abc"])


def object_or(draw, valid):
    """valid, or now and then a drawn NOT_OBJECTS."""
    return draw(st.one_of(st.just(valid), NOT_OBJECTS))


def objects_or(draw, valid):
    """object_or of a list of valid, or of each of its items."""
    return object_or(draw, [object_or(draw, item) for item in valid])


MASK = FrameMask("v", [0, 1, 1, 0, 1])
CURVE = roc_curve([0.1, 0.9, 0.2, 0.8, 0.7], MASK.labels)
SCORED_DATA = Dataset.of([(ScoreSequence("v", [0.1, 0.9, 0.2, 0.8, 0.7]),
                           MASK)])
# a list of thresholds or, now and then, what may be handed instead of one:
# iterables among them
THRESHOLDS = st.one_of(st.lists(NUMBERS, max_size=3), st.sampled_from(
    [None, 0.5, "0.5", {0.5: 1}, {0.3, 0.5}]))


def refined(draw) -> None:
    """refine_pipeline on drawn scores, tau and config."""
    scores = ScoreSequence("v", draw(pairs(number_likes=False))[0])
    tau, cfg = draw(NUMBERS), EvalConfig(**draw(CONFIGS))
    refine_pipeline(object_or(draw, scores), tau, object_or(draw, cfg))


def audited(draw) -> None:
    """audit_dataset on a drawn mask list."""
    masks = [FrameMask("v", draw(pairs())[1])]
    audit_dataset(objects_or(draw, masks), draw(NUMBERS))


def marked(draw) -> None:
    """mark_windows on two drawn windows in a drawn video."""
    columns = [array_or(draw, np.array(c)) for c in ([0, 3], [2, 2],
                                                     [0.9, 0.1])]
    mark_windows(*columns, 0.5, draw(SIZES))
ENTRIES = {
    "ScoreSequence": lambda draw: ScoreSequence("v", draw(VALUES)),
    "FrameMask": lambda draw: FrameMask("v", draw(VALUES)),
    "Dataset.of": dataset_of,
    "roc_curve": lambda draw: roc_curve(*draw(pairs())),
    "hprs_threshold": lambda draw: hprs_threshold(*draw(pairs()),
                                                  draw(NUMBERS)),
    "frame_metrics": frame_metrics_of,
    "compute_frame_metrics": lambda draw: compute_frame_metrics(
        videos(draw), EvalConfig(**draw(CONFIGS))),
    "event_metrics_at": lambda draw: event_metrics_at(
        videos(draw), draw(NUMBERS), EvalConfig(**draw(CONFIGS)),
        draw(MODES)),
    "refine_pipeline": refined,
    "build_kernel": lambda draw: build_kernel(draw(NUMBERS), draw(SIZES)),
    "EvalConfig": lambda draw: EvalConfig(**draw(CONFIGS)),
    "match_events": lambda draw: match_events(
        object_or(draw, GT), object_or(draw, PRED), draw(NUMBERS)),
    "multi_threshold_eval": lambda draw: multi_threshold_eval(
        objects_or(draw, [GT]), objects_or(draw, [PRED]),
        draw(THRESHOLDS)),
    "multi_threshold_eval thresholds": lambda draw: multi_threshold_eval(
        [GT], [PRED], draw(THRESHOLDS)),
    "audit_dataset": audited,
    "filter_short_events": lambda draw: filter_short_events(
        object_or(draw, PRED), draw(NUMBERS)),
    "events_to_mask": lambda draw: events_to_mask(object_or(draw, GT),
                                                  draw(SIZES)),
    "mask_to_events": lambda draw: mask_to_events(object_or(draw, MASK)),
    "majority_vote_refine": lambda draw: majority_vote_refine(
        object_or(draw, MASK), draw(NUMBERS), draw(NUMBERS)),
    "mark_windows": marked,
    "BranchErrors": lambda draw: BranchErrors(
        short=(0.1, 0.2), long=(0.1,) * 6, window_len=draw(NUMBERS),
        target_start=draw(NUMBERS)),
    "BranchErrors arrays": lambda draw: BranchErrors(
        short=array_or(draw, (0.1, 0.2)), long=array_or(draw, (0.1,) * 6),
        window_len=2, target_start=0),
    "align_center": lambda draw: align_center(array_or(draw, [0.1] * 6),
                                              draw(NUMBERS)),
    "fuse_frames": lambda draw: fuse_frames(array_or(draw, [0.1, 0.2]),
                                            array_or(draw, [0.3, 0.4])),
    "pool_event_score": lambda draw: pool_event_score(
        array_or(draw, [0.1, 0.2])),
    "EventSet": lambda draw: EventSet("v", array_or(draw, PRED.events)),
    "validate_pair": lambda draw: validate_pair(
        object_or(draw, ScoreSequence("v", [0.1] * 5)), object_or(draw, MASK)),
    "events_within": lambda draw: events_within(object_or(draw, GT), 12),
    "audit_events": lambda draw: audit_events(object_or(draw, GT), 12, 2),
    "frame_metrics data": lambda draw: frame_metrics(
        object_or(draw, SCORED_DATA), 0.5),
    "auc_roc": lambda draw: auc_roc(object_or(draw, CURVE)),
    "eer_threshold": lambda draw: eer_threshold(object_or(draw, CURVE)),
    "emit_audit": lambda draw: emit_audit(object_or(
        draw, audit_dataset([MASK], 2))),
    "smooth_once": lambda draw: smooth_once(
        object_or(draw, ScoreSequence("v", [0.1, 0.9, 0.2])),
        array_or(draw, build_kernel(1.0, 1))),
}


@pytest.mark.parametrize("entry", ENTRIES)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_entry_returns_or_raises_an_event_eval_error(entry, data):
    try:
        ENTRIES[entry](data.draw)
    except EventEvalError:
        pass


# ---------------------------------------------------------------------------
# the tau rule and the mended escapes

BAD_TAUS = [math.nan, math.inf, -math.inf, 10**400, "a", True]
VIDEOS = [(ScoreSequence("v", [0.1, 0.9, 0.8]), FrameMask("v", [0, 1, 1]))]


@pytest.mark.parametrize("tau", BAD_TAUS,
                         ids=["nan", "inf", "-inf", "10**400", "'a'", "True"])
@pytest.mark.parametrize("call", [
    lambda tau: event_metrics_at(VIDEOS, tau, EvalConfig(), "refined"),
    lambda tau: event_metrics_at(VIDEOS, tau, EvalConfig(), "baseline"),
    lambda tau: refine_pipeline(VIDEOS[0][0], tau, EvalConfig()),
    lambda tau: mark_windows(np.array([0]), np.array([2]), np.array([0.5]),
                             tau, 3),
], ids=["event_metrics_at refined", "event_metrics_at baseline",
        "refine_pipeline", "mark_windows"])
def test_tau_must_be_a_finite_real(call, tau):
    with pytest.raises(ValidationError) as err:
        call(tau)
    assert str(err.value) == f"tau must be finite, got {tau}"


@pytest.mark.parametrize("call,message", [
    (lambda: EvalConfig(threshold_strategy="x"),
     "threshold_strategy: 'x' is not a valid ThresholdStrategy"),
    (lambda: ScoreSequence("a", [10**400]),
     "score sequence for 'a': int too large to convert to float"),
    (lambda: FrameMask("a", [10**400]),
     "frame mask for 'a': int too large to convert to float"),
    (lambda: roc_curve([10**400, 1], [0, 1]),
     "score sequence for None: int too large to convert to float"),
    (lambda: ScoreSequence("a", "abc"),
     "score sequence for 'a': could not convert string to float: 'abc'"),
    (lambda: ScoreSequence("a", [1j]), "score sequence for 'a': float() "
                                       "argument must be"),
    (lambda: build_kernel(1.0, 1.5),
     "radius must be an integer >= 1, got 1.5"),
    (lambda: build_kernel(1.0, True),
     "radius must be an integer >= 1, got True"),
    (lambda: build_kernel(1.0, "a"),
     "radius must be an integer >= 1, got 'a'"),
    (lambda: build_kernel("a", 1),
     "sigma must be positive and finite, got 'a'"),
    (lambda: build_kernel(math.inf, 1),
     "sigma must be positive and finite, got inf"),
    (lambda: audit_dataset([FrameMask("v", [0, 1])], "a"),
     "micro_threshold must be an integer >= 1, got 'a'"),
    (lambda: audit_dataset([FrameMask("v", [0, 1])], math.nan),
     "micro_threshold must be an integer >= 1, got nan"),
    (lambda: filter_short_events(PRED, 2.5),
     "d_min must be an integer >= 1, got 2.5"),
    (lambda: filter_short_events(PRED, math.nan),
     "d_min must be an integer >= 1, got nan"),
    (lambda: BranchErrors(short=(0.1,), long=(0.1,) * 3, window_len=True,
                          target_start=0),
     "window_len must be an integer >= 1, got True"),
    (lambda: align_center([0.1] * 3, True),
     "window length must be an integer >= 1, got True"),
    (lambda: mark_windows(np.array([0]), np.array([1]), np.array([0.5]),
                          0.5, True),
     "video_len must be an integer >= 1, got True"),
    (lambda: EventSet("v", [(1, 2)]),
     "events of 'v' must be TemporalEvents, got (1, 2)"),
    (lambda: smooth_once(ScoreSequence("v", [0.1, 0.9]), None),
     "kernel must be a GaussianKernel, got None"),
    (lambda: mark_windows([0], [2], [0.9], 0.5, 10),
     "starts must be a 1-D numpy array, one entry per window, got list"),
    (lambda: mark_windows(np.array([0]), np.array([2]), np.array([0.9]),
                          0.5, 10**400),
     "video_len must be below 2**63, got 1000"),
    (lambda: mark_windows(np.array([0], np.uint8), np.array([30], np.uint8),
                          np.array([0.9]), 0.5, 20),
     "window [0,29] exceeds video length 20"),
    (lambda: mark_windows(np.array([0.5]), np.array([3]), np.array([0.9]),
                          0.5, 20),
     "starts must be whole numbers"),
    (lambda: mark_windows(np.array([0]), np.array([True]), np.array([0.9]),
                          0.5, 20),
     "lengths must be whole numbers"),
    (lambda: mark_windows(np.array([0]), np.array([3, 4]), np.array([0.9]),
                          0.5, 20),
     "lengths must be a 1-D numpy array, one entry per window, got (2,)"),
    (lambda: events_to_mask(GT, 2**62),
     "mask length 4611686018427387904 is too large to allocate"),
    (lambda: BranchErrors(short=("a",), long=(0.1,) * 3, window_len=1,
                          target_start=0),
     "short branch errors: could not convert string to float: 'a'"),
    (lambda: BranchErrors(short=(0.1,), long=(0.1, 10**400, 0.1),
                          window_len=1, target_start=0),
     "long branch errors: int too large to convert to float"),
    (lambda: align_center([0.1, "a", 0.1], 1),
     "long branch errors: could not convert string to float: 'a'"),
    (lambda: align_center([0.1, 10**400, 0.1], 1),
     "long branch errors: int too large to convert to float"),
    (lambda: fuse_frames(["a"], [0.1]),
     "short branch errors: could not convert string to float: 'a'"),
    (lambda: fuse_frames([0.1], [10**400]),
     "aligned long branch errors: int too large to convert to float"),
    (lambda: pool_event_score(["a"]),
     "fused responses: could not convert string to float: 'a'"),
    (lambda: pool_event_score([10**400]),
     "fused responses: int too large to convert to float"),
    (lambda: pool_event_score([[1, 2]]),
     "fused responses must be 1-D, got shape (1, 2)"),
    (lambda: smooth_once(None, build_kernel(1.0, 1)),
     "scores must be a ScoreSequence, got None"),
    (lambda: mask_to_events([0, 1]), "mask must be a FrameMask, got [0, 1]"),
    (lambda: events_to_mask(None, 3), "events must be an EventSet, got None"),
    (lambda: majority_vote_refine(np.array([0, 1]), 1, 1),
     "mask must be a FrameMask, got array([0, 1])"),
    (lambda: filter_short_events("abc", 2),
     "events must be an EventSet, got 'abc'"),
    (lambda: refine_pipeline([0.1, 0.2], 0.5, EvalConfig()),
     "scores must be a ScoreSequence, got [0.1, 0.2]"),
    (lambda: refine_pipeline(ScoreSequence("v", [0.1, 0.2]), 0.5, None),
     "cfg must be an EvalConfig, got None"),
    (lambda: audit_dataset(None, 2), "masks must be FrameMasks, got None"),
    (lambda: audit_dataset([MASK, [0, 1]], 2),
     "masks must be FrameMasks, got [0, 1]"),
    (lambda: match_events(None, PRED, 0.5),
     "gt must be an EventSet, got None"),
    (lambda: match_events(GT, [(1, 4)], 0.5),
     "pred must be an EventSet, got [(1, 4)]"),
    (lambda: multi_threshold_eval("abc", [PRED], [0.5]),
     "gt_all must be EventSets, got 'a'"),
    (lambda: multi_threshold_eval([GT], [None], [0.5]),
     "pred_all must be EventSets, got None"),
    (lambda: multi_threshold_eval([GT], [PRED], None),
     "thresholds must be a list of numbers, got None"),
    (lambda: multi_threshold_eval([GT], [PRED], {0.5}),
     "thresholds must be a list of numbers, got {0.5}"),
    (lambda: multi_threshold_eval([GT], [PRED], "0.5"),
     "thresholds must be a list of numbers, got '0.5'"),
    (lambda: validate_pair(None, MASK),
     "scores must be a ScoreSequence, got None"),
    (lambda: validate_pair(ScoreSequence("v", [0.1] * 5), None),
     "mask must be a FrameMask, got None"),
    (lambda: events_within(None, 3), "events must be an EventSet, got None"),
    (lambda: audit_events(None, 3, 2), "gt must be an EventSet, got None"),
    (lambda: frame_metrics(None, 0.5), "data must be a Dataset, got None"),
    (lambda: auc_roc(None), "curve must be a RocCurve, got None"),
    (lambda: eer_threshold(None), "curve must be a RocCurve, got None"),
    (lambda: run_evaluation(None, EvalConfig()),
     "manifest must be a Manifest, got None"),
    (lambda: run_evaluation(Manifest("d", ()), None),
     "cfg must be an EvalConfig, got None"),
    (lambda: emit_report(None), "report must be a Report, got None"),
    (lambda: emit_audit(None), "audit must be an AuditReport, got None"),
], ids=["strategy x", "score 10**400", "label 10**400", "roc_curve 10**400",
        "score string", "score complex", "radius 1.5", "radius True",
        "radius string", "sigma string", "sigma inf", "micro_threshold string",
        "micro_threshold nan", "d_min 2.5", "d_min nan", "window_len True",
        "align_center True", "video_len True", "EventSet tuple",
        "smooth_once None", "mark_windows lists", "video_len 10**400",
        "uint8 window past the end", "start 0.5", "length True",
        "lengths of another length",
        "mask length 2**62", "BranchErrors string", "BranchErrors 10**400",
        "align_center string", "align_center 10**400", "fuse_frames string",
        "fuse_frames 10**400", "pool_event_score string",
        "pool_event_score 10**400", "pool_event_score nested",
        "smooth_once scores None", "mask_to_events list",
        "events_to_mask None", "majority_vote_refine ndarray",
        "filter_short_events string", "refine_pipeline list",
        "refine_pipeline cfg None", "audit_dataset None",
        "audit_dataset list item", "match_events gt None",
        "match_events pred list", "multi_threshold_eval string",
        "multi_threshold_eval pred None", "multi_threshold_eval None",
        "multi_threshold_eval set", "multi_threshold_eval string thresholds",
        "validate_pair scores None", "validate_pair mask None",
        "events_within None", "audit_events None", "frame_metrics None",
        "auc_roc None", "eer_threshold None", "run_evaluation manifest None",
        "run_evaluation cfg None", "emit_report None", "emit_audit None"])
def test_a_mended_escape_is_a_validation_error(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value).startswith(message)


def test_mark_windows_compares_any_integer_column_exactly():
    # int32 columns against a video_len past int32, and a column mixing
    # int64 and larger ints, which numpy makes float64
    got = mark_windows(np.array([0], np.int32), np.array([3], np.int32),
                       np.array([0.9]), 0.5, 2**40)
    assert (got.starts.tolist(), got.ends.tolist()) == ([0], [2])
    with pytest.raises(ValidationError,
                       match=r"^window \[9223372036854775808,"):
        mark_windows(np.array([0, 2**63]), np.array([1, 1]),
                     np.array([0.9, 0.9]), 0.5, 20)


SCORED = Dataset.of(VIDEOS)
SCORELESS = Dataset.of([(None, mask) for _, mask in VIDEOS])


@pytest.mark.parametrize("call,message", [
    (lambda: frame_metrics(SCORELESS, 0.5),
     "frame metrics need scores; none were loaded"),
    (lambda: frame_metrics(SCORELESS, math.nan),
     "frame metrics need scores; none were loaded"),
    (lambda: frame_metrics(SCORED, math.nan),
     "hprs_beta must be positive with a finite square, got nan"),
    (lambda: frame_metrics(SCORED, 10**400),
     "hprs_beta must be positive with a finite square, got 1000"),
    (lambda: frame_metrics(SCORED, "a"),
     "hprs_beta must be positive with a finite square, got 'a'"),
    # the scores are checked, as they are laid out, before beta
    (lambda: hprs_threshold([math.nan, 1], [0, 1], math.nan),
     "non-finite score at frame 0"),
], ids=["scoreless", "scoreless, beta nan", "beta nan", "beta 10**400",
        "beta string", "hprs_threshold scores first"])
def test_frame_metrics_checks_its_scores_then_beta(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value).startswith(message)
