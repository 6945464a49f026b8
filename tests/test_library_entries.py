"""Every public library entry ends in a result or in an EventEvalError.

- Each error class of `errors.py`, through each of its constructors,
  survives `pickle`, `copy.copy` and `copy.deepcopy` with its type, message
  and attributes.
- A derandomized property draws number-like values (0, negative ints,
  10**400, NaN, +-inf, 1e308, 5e-324, bools, numpy scalars and short
  strings) for every numeric parameter of the library entries, and asserts
  that each call returns or raises an EventEvalError. No draw allocates in
  proportion to a drawn number: a kernel radius stays at or below 10**4,
  and every other drawn number is a value, not a size.
- Unit tests pin the one tau rule and the messages of the mended escapes.
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
                             ScoreSequence, TemporalEvent)
from event_eval.errors import EventEvalError, ValidationError
from event_eval.events import audit_dataset, refine_pipeline
from event_eval.fusion import mark_windows
from event_eval.io import compute_frame_metrics, event_metrics_at
from event_eval.matching import match_events
from event_eval.smoothing import build_kernel
from event_eval.thresholds import hprs_threshold, roc_curve

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
# a kernel's radius sizes its weights: no int above 10**4
RADII = NUMBERS.filter(lambda r: not (isinstance(r, int) and r > 10**4))
VALUES = st.one_of(NUMBERS, st.lists(NUMBERS, max_size=4))
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


GT = EventSet("v", [TemporalEvent(0, 4), TemporalEvent(8, 9)])
PRED = EventSet("v", [TemporalEvent(1, 4), TemporalEvent(7, 12)])
ENTRIES = {
    "ScoreSequence": lambda draw: ScoreSequence("v", draw(VALUES)),
    "FrameMask": lambda draw: FrameMask("v", draw(VALUES)),
    "Dataset.of": dataset_of,
    "roc_curve": lambda draw: roc_curve(*draw(pairs())),
    "hprs_threshold": lambda draw: hprs_threshold(*draw(pairs()),
                                                  draw(NUMBERS)),
    "compute_frame_metrics": lambda draw: compute_frame_metrics(
        videos(draw), EvalConfig(**draw(CONFIGS))),
    "event_metrics_at": lambda draw: event_metrics_at(
        videos(draw), draw(NUMBERS), EvalConfig(**draw(CONFIGS)),
        draw(MODES)),
    "refine_pipeline": lambda draw: refine_pipeline(
        ScoreSequence("v", draw(pairs(number_likes=False))[0]), draw(NUMBERS),
        EvalConfig(**draw(CONFIGS))),
    "build_kernel": lambda draw: build_kernel(draw(NUMBERS), draw(RADII)),
    "EvalConfig": lambda draw: EvalConfig(**draw(CONFIGS)),
    "match_events": lambda draw: match_events(GT, PRED, draw(NUMBERS)),
    "audit_dataset": lambda draw: audit_dataset(
        [FrameMask("v", draw(pairs())[1])], draw(NUMBERS)),
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
    (lambda: build_kernel(1.0, 1.5), "radius must be an int >= 1, got 1.5"),
    (lambda: build_kernel(1.0, True), "radius must be an int >= 1, got True"),
    (lambda: build_kernel(1.0, "a"), "radius must be an int >= 1, got 'a'"),
    (lambda: build_kernel("a", 1),
     "sigma must be positive and finite, got 'a'"),
    (lambda: build_kernel(math.inf, 1),
     "sigma must be positive and finite, got inf"),
    (lambda: audit_dataset([FrameMask("v", [0, 1])], "a"),
     "micro_threshold must be >= 1, got 'a'"),
    (lambda: audit_dataset([FrameMask("v", [0, 1])], math.nan),
     "micro_threshold must be >= 1, got nan"),
], ids=["strategy x", "score 10**400", "label 10**400", "roc_curve 10**400",
        "score string", "score complex", "radius 1.5", "radius True",
        "radius string", "sigma string", "sigma inf", "micro_threshold string",
        "micro_threshold nan"])
def test_a_mended_escape_is_a_validation_error(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value).startswith(message)
