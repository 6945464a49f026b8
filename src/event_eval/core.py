"""Core domain types: score sequences, binary masks, temporal events, config.

All types are immutable value objects. Input is checked where it enters:
in the public constructors, in the loaders of io.py and, for each score and
mask pair, in Dataset.of. Internal producers whose output is valid by
construction build through the private _of, which skips the checks. Frame
indexing is 0-based and event intervals are closed [start, end]; an event's
duration is end - start + 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from .errors import (
    EventOutOfRange,
    LengthMismatch,
    NonBinaryLabel,
    NonFiniteScore,
    ValidationError,
    VideoIdMismatch,
)

DEFAULT_TIOU_THRESHOLDS = (0.2, 0.3, 0.4, 0.5)
# smoothing time grows as O(n * sigma_max**2); 64 costs ~130x the default 5
MAX_SIGMA = 64


class _Arrays:
    """A video id plus the read-only arrays named in _arrays.

    Public constructors check their input and copy it; internal producers
    whose output is valid by construction build through _of, which skips
    the checks and keeps the arrays it is handed, made read-only.
    """

    _arrays: tuple[str, ...]
    _dtype: type

    @classmethod
    def _of(cls, video_id: str, *arrays):
        self = object.__new__(cls)
        self._fill(video_id, *arrays)
        return self

    def _fill(self, video_id: str, *arrays) -> None:
        self.__dict__["video_id"] = video_id
        for name, values in zip(self._arrays, arrays):
            self.__dict__[name] = arr = np.asarray(values, self._dtype)
            arr.flags.writeable = False

    def _stored(self) -> tuple[np.ndarray, ...]:
        return tuple(self.__dict__[name] for name in self._arrays)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.video_id == other.video_id
                and all(map(np.array_equal, self._stored(), other._stored())))

    def __hash__(self) -> int:
        return hash((self.video_id,
                     *(tuple(a.tolist()) for a in self._stored())))

    def __len__(self) -> int:
        return len(self._stored()[0])

    def __reduce__(self):
        # copies and unpickled objects come back through _of, read-only
        return type(self)._of, (self.video_id, *self._stored())


def _one_d(values, what: str) -> np.ndarray:
    """values as a new 1-D float64 array; a value that is not a number, or
    another shape, is a ValidationError that names what."""
    try:
        arr = np.array(values, dtype=float)   # the copy a constructor stores
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, init=False, eq=False)
class ScoreSequence(_Arrays):
    """Per-frame real-valued anomaly scores for one video.

    Scores are not constrained to [0, 1]; reconstruction errors are
    unbounded and threshold search operates on the empirical distribution.
    as_array() returns the stored float64 array itself, shared and
    read-only; .scores builds a tuple of floats on each access.
    """

    video_id: str
    scores: tuple[float, ...]
    _arrays, _dtype = ("_scores",), np.float64

    def __init__(self, video_id: str, scores: Iterable[float]) -> None:
        arr = _one_d(scores, f"score sequence for {video_id!r}")
        if arr.size == 0:
            raise ValidationError(f"empty score sequence for {video_id!r}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteScore(int(bad[0]), video_id=video_id)
        self._fill(video_id, arr)

    scores = property(lambda self: tuple(self._scores.tolist()))

    def as_array(self) -> np.ndarray:
        return self._scores


@dataclass(frozen=True, init=False, eq=False)
class FrameMask(_Arrays):
    """Per-frame binary labels: 1 marks an anomalous frame, 0 a normal one.

    Stored and returned by as_array() as uint8, like ScoreSequence.
    """

    video_id: str
    labels: tuple[int, ...]
    _arrays, _dtype = ("_labels",), np.uint8

    def __init__(self, video_id: str, labels: Iterable[int]) -> None:
        raw = _one_d(labels, f"frame mask for {video_id!r}")
        if raw.size == 0:
            raise ValidationError(f"empty frame mask for {video_id!r}")
        bad = np.flatnonzero((raw != 0.0) & (raw != 1.0))
        if bad.size:
            raise NonBinaryLabel(int(bad[0]), video_id=video_id)
        self._fill(video_id, raw)

    labels = property(lambda self: tuple(self._labels.tolist()))

    def as_array(self) -> np.ndarray:
        return self._labels


@dataclass(frozen=True, order=True)
class TemporalEvent:
    """Contiguous run of anomalous frames, closed interval [start, end]."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            if not (_is_int(self.start) and _is_int(self.end)):
                raise ValidationError(f"event bounds [{self.start!r}, "
                                      f"{self.end!r}] are not integers")
            object.__setattr__(self, "start", int(self.start))
            object.__setattr__(self, "end", int(self.end))
        if self.start < 0 or self.end < self.start:
            raise ValidationError(
                f"invalid event interval [{self.start}, {self.end}]")

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, init=False, eq=False)
class EventSet(_Arrays):
    """Events of one video, sorted by start, pairwise disjoint with gaps.

    Adjacent runs of anomalous frames are by construction a single event,
    so consecutive events are separated by at least one normal frame. The
    bounds are stored as read-only int64 arrays, so each is below 2**63;
    .events builds the TemporalEvents on access.
    """

    video_id: str
    starts: np.ndarray
    ends: np.ndarray
    _arrays, _dtype = ("starts", "ends"), np.int64

    def __init__(self, video_id: str,
                 events: Iterable[TemporalEvent] = ()) -> None:
        events = check_items(f"events of {video_id!r}", events,
                             TemporalEvent)
        for prev, cur in zip(events, events[1:]):
            if cur.start < prev.end + 2:
                raise ValidationError(
                    f"events [{prev.start},{prev.end}] and "
                    f"[{cur.start},{cur.end}] of {video_id!r} are not "
                    "sorted, overlap, or touch")
        if events and events[-1].end >= 2**63:  # the largest bound
            raise ValidationError(f"event bound {events[-1].end} of "
                                  f"{video_id!r} is past the int64 range")
        self._fill(video_id, [e.start for e in events],
                   [e.end for e in events])

    @property
    def events(self) -> tuple[TemporalEvent, ...]:
        return tuple(map(TemporalEvent, self.starts.tolist(),
                         self.ends.tolist()))

    def __iter__(self):
        return iter(self.events)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Videos laid end to end: video c is frames bounds[c]:bounds[c + 1] of
    the uint8 labels and of the float64 scores, None when not loaded. The
    int64 bounds start at 0; every array is read-only."""

    video_ids: tuple[str, ...]
    bounds: np.ndarray
    labels: np.ndarray
    scores: np.ndarray | None = None

    @classmethod
    def of(cls, pairs: Iterable[tuple[ScoreSequence | None, FrameMask]]
           ) -> Dataset:
        """The (scores or None, mask) pairs laid end to end; each pair with
        scores passes validate_pair before the next pair is drawn, and
        either every pair has scores or none has."""
        videos = []
        for seq, mask in pairs:
            if videos and (seq is None) != (videos[0][0] is None):
                raise ValidationError(
                    f"video {mask.video_id!r}: scores must be given for "
                    "every video or for none")
            if seq is not None:
                validate_pair(seq, mask)
            videos.append((seq, mask))
        if not videos:
            raise ValidationError("need at least one video")
        arrays = [np.cumsum([0, *(len(m) for _, m in videos)]),
                  np.concatenate([m.as_array() for _, m in videos])]
        if videos[0][0] is not None:
            arrays.append(np.concatenate([s.as_array() for s, _ in videos]))
        for arr in arrays:
            arr.flags.writeable = False
        return cls(tuple(m.video_id for _, m in videos), *arrays)

    def split(self, events: EventSet) -> dict[str, EventSet]:
        """events, as indices into the frames laid end to end, as each
        video's own EventSet; no event may span two videos."""
        cut = np.searchsorted(events.starts, self.bounds)
        return {vid: EventSet._of(vid, events.starts[i:j] - a,
                                  events.ends[i:j] - a)
                for vid, a, i, j in zip(self.video_ids, self.bounds, cut,
                                        cut[1:])}


class ThresholdStrategy(str, Enum):
    """How the binarization threshold tau is chosen."""

    EER = "eer"
    HPRS = "hprs"
    FIXED = "fixed"


def _is_int(value) -> bool:
    """An int (numpy integers included), but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float (numpy scalars included), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number that is finite as a float: an int too large for a
    float is not."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _is_whole(value) -> bool:
    """An integer, or a finite real with no fractional part (numpy reads a
    column mixing int64 and larger ints as float64); not a bool."""
    return _is_int(value) or _is_finite(value) and value == int(value)


def check_tiou_thresholds(thresholds: Iterable[float],
                          name: str = "tiou_thresholds") -> tuple[float, ...]:
    """thresholds as a tuple of floats: a list (else a fault naming it name)
    of at least one number in (0, 1], no two equal as floats."""
    try:
        # iterable, but their items are characters, keys or unordered
        if isinstance(thresholds, (str, bytes, Mapping, AbstractSet)):
            raise TypeError("not a list of numbers")
        items = tuple(thresholds)
    except TypeError:
        raise ValidationError(f"{name} must be a list of numbers, "
                              f"got {thresholds!r}") from None
    if not items:
        raise ValidationError("need at least one tiou threshold")
    for k, t in enumerate(items):
        if not (_is_real(t) and 0.0 < t <= 1.0):
            raise ValidationError(
                f"tiou threshold {t!r} is not a number in (0, 1]")
        if float(t) in map(float, items[:k]):
            raise ValidationError(f"tiou threshold {t!r} appears twice")
    return tuple(map(float, items))


def check_hprs_beta(beta: float) -> None:
    """A positive number with a finite square: F-beta weighs precision by
    beta * beta."""
    if not (_is_finite(beta) and beta > 0
            and math.isfinite(float(beta) * float(beta))):
        raise ValidationError("hprs_beta must be positive with a finite "
                              f"square, got {beta!r}")


def check_count(name: str, value, least: int = 1) -> int:
    """A frame count: an integer >= least, Python or numpy but not a bool,
    returned as an int."""
    if not (_is_int(value) and value >= least):
        raise ValidationError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_type(name: str, value, kind: type) -> None:
    """value is a kind: else a ValidationError names the parameter, the
    type and the value."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValidationError(
            f"{name} must be {article} {kind.__name__}, got {value!r}")


def check_items(name: str, values, kind: type) -> tuple:
    """values as a tuple, each item a kind: else a ValidationError names
    the first other item. A value that is not iterable is its one item."""
    try:
        values = tuple(values)
    except TypeError:
        values = (values,)
    for value in values:
        if not isinstance(value, kind):
            raise ValidationError(
                f"{name} must be {kind.__name__}s, got {value!r}")
    return values


def check_tau(tau: float) -> None:
    """A finite real number: frames scoring >= tau are anomalous."""
    if not _is_finite(tau):
        raise ValidationError(f"tau must be finite, got {tau}")


@dataclass(frozen=True)
class EvalConfig:
    """All pipeline knobs, with the documented defaults.

    vote_stride must not exceed vote_window so every frame receives a vote
    decision, and sigma_max must not exceed MAX_SIGMA. hprs_beta is positive
    with a finite square. fixed_tau is None or a finite number, and a FIXED
    strategy requires it.
    """

    sigma_max: int = 5
    vote_window: int = 9
    vote_stride: int = 3
    min_event_len: int = 8
    tiou_thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS
    threshold_strategy: ThresholdStrategy = ThresholdStrategy.EER
    hprs_beta: float = 0.5
    fixed_tau: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiou_thresholds",
                           check_tiou_thresholds(self.tiou_thresholds))
        try:
            strategy = ThresholdStrategy(self.threshold_strategy)
        except ValueError as exc:
            raise ValidationError(f"threshold_strategy: {exc}") from None
        object.__setattr__(self, "threshold_strategy", strategy)
        for name in ("sigma_max", "vote_window", "vote_stride",
                     "min_event_len"):
            object.__setattr__(self, name,
                               check_count(name, getattr(self, name)))
        if self.sigma_max > MAX_SIGMA:
            raise ValidationError(f"sigma_max must be at most {MAX_SIGMA}, "
                                  f"got {self.sigma_max}")
        if self.vote_stride > self.vote_window:
            raise ValidationError(
                f"vote_stride {self.vote_stride} exceeds vote_window "
                f"{self.vote_window}: frames would go unvoted")
        if any(b < a for a, b in zip(self.tiou_thresholds,
                                     self.tiou_thresholds[1:])):
            raise ValidationError("tiou_thresholds must be strictly ascending")
        check_hprs_beta(self.hprs_beta)
        if self.fixed_tau is not None and not _is_finite(self.fixed_tau):
            raise ValidationError("fixed_tau must be a finite number or null, "
                                  f"got {self.fixed_tau!r}")
        if (self.threshold_strategy is ThresholdStrategy.FIXED
                and self.fixed_tau is None):
            raise ValidationError("FIXED strategy requires fixed_tau")


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FrameMetrics:
    """Frame-level summary: ranking metrics plus both operating points."""

    auc_roc: float
    auc_pr: float
    eer: float
    tau_eer: float
    tau_hprs: float
    f1_at_tau_eer: float
    f1_at_tau_hprs: float

    def __post_init__(self) -> None:
        for name in ("auc_roc", "auc_pr", "eer", "f1_at_tau_eer",
                     "f1_at_tau_hprs"):
            _check_unit(name, getattr(self, name))


@dataclass(frozen=True)
class EventPrf:
    """Event-level precision/recall/F1 with the confusion counts behind them."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        _check_unit("precision", self.precision)
        _check_unit("recall", self.recall)
        _check_unit("f1", self.f1)
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")
        pr = self.precision + self.recall
        expect = 2.0 * self.precision * self.recall / pr if pr > 0 else 0.0
        if abs(self.f1 - expect) > 1e-9:
            raise ValidationError(
                f"f1 {self.f1} inconsistent with precision/recall")


@dataclass(frozen=True)
class EventMetrics:
    """Per-tIoU-threshold event metrics plus their average F1."""

    per_tiou: Mapping[float, EventPrf]
    average_f1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_tiou", dict(self.per_tiou))
        if not self.per_tiou:
            raise ValidationError("per_tiou must not be empty")
        entries = list(self.per_tiou.values())
        gt_totals = {e.tp + e.fn for e in entries}
        pred_totals = {e.tp + e.fp for e in entries}
        if len(gt_totals) != 1 or len(pred_totals) != 1:
            raise ValidationError(
                "confusion counts disagree on event totals across thresholds")
        mean_f1 = sum(e.f1 for e in entries) / len(entries)
        if abs(self.average_f1 - mean_f1) > 1e-9:
            raise ValidationError(
                f"average_f1 {self.average_f1} is not the mean of per-"
                f"threshold f1 values ({mean_f1})")


def validate_pair(scores: ScoreSequence, mask: FrameMask) -> None:
    """Check that a score sequence and a mask describe the same frames.

    Finiteness and binariness were checked where the data entered (a public
    constructor or a loader); this guards the cross-cutting invariants
    (same video, same length).
    """
    check_type("scores", scores, ScoreSequence)
    check_type("mask", mask, FrameMask)
    if scores.video_id != mask.video_id:
        raise VideoIdMismatch(
            f"scores for {scores.video_id!r} paired with mask for "
            f"{mask.video_id!r}")
    if len(scores) != len(mask):
        raise LengthMismatch(len(scores), len(mask),
                             video_id=scores.video_id)


def events_within(events: EventSet, n_frames: int) -> None:
    """Raise EventOutOfRange unless every event fits in [0, n_frames - 1]."""
    check_type("events", events, EventSet)
    k = int(np.searchsorted(events.ends, n_frames))
    if k < len(events):
        raise EventOutOfRange(
            f"event [{events.starts[k]},{events.ends[k]}] of "
            f"{events.video_id!r} exceeds video length {n_frames}")
