"""Core domain types: score sequences, binary masks, temporal events, config.

All types are immutable value objects validated at construction. Frame
indexing is 0-based and event intervals are closed [start, end]; an event's
duration is end - start + 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class ScoreSequence:
    """Per-frame real-valued anomaly scores for one video.

    Scores are not constrained to [0, 1]; reconstruction errors are
    unbounded and threshold search operates on the empirical distribution.
    """

    video_id: str
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"empty score sequence for {self.video_id!r}")
        object.__setattr__(self, "scores", tuple(arr.tolist()))
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteScore(int(bad[0]), video_id=self.video_id)

    def __len__(self) -> int:
        return len(self.scores)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.scores, dtype=float)


@dataclass(frozen=True)
class FrameMask:
    """Per-frame binary labels: 1 marks an anomalous frame, 0 a normal one."""

    video_id: str
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = np.asarray(self.labels, dtype=float)
        if raw.ndim != 1 or raw.size == 0:
            raise ValidationError(f"empty frame mask for {self.video_id!r}")
        bad = np.flatnonzero((raw != 0.0) & (raw != 1.0))
        if bad.size:
            raise NonBinaryLabel(int(bad[0]), video_id=self.video_id)
        object.__setattr__(self, "labels",
                           tuple(raw.astype(np.uint8).tobytes()))

    def __len__(self) -> int:
        return len(self.labels)

    def as_array(self) -> np.ndarray:
        # labels are 0/1 ints, which bytes() reads faster than np.asarray
        return np.frombuffer(bytes(self.labels), dtype=np.uint8).astype(int)


@dataclass(frozen=True, order=True)
class TemporalEvent:
    """Contiguous run of anomalous frames, closed interval [start, end]."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            object.__setattr__(self, "start", int(self.start))
            object.__setattr__(self, "end", int(self.end))
        if self.start < 0 or self.end < self.start:
            raise ValidationError(
                f"invalid event interval [{self.start}, {self.end}]")

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, init=False, eq=False)
class EventSet:
    """Events of one video, sorted by start, pairwise disjoint with gaps.

    Adjacent runs of anomalous frames are by construction a single event,
    so consecutive events are separated by at least one normal frame. The
    bounds are stored as read-only int64 arrays; .events builds the
    TemporalEvents on access. Internal producers, whose runs are valid by
    construction, skip the checks through _of.
    """

    video_id: str
    starts: np.ndarray
    ends: np.ndarray

    def __init__(self, video_id: str,
                 events: Iterable[TemporalEvent] = ()) -> None:
        events = tuple(events)
        for prev, cur in zip(events, events[1:]):
            if cur.start < prev.end + 2:
                raise ValidationError(
                    f"events [{prev.start},{prev.end}] and "
                    f"[{cur.start},{cur.end}] of {video_id!r} are not "
                    "sorted, overlap, or touch")
        self._fill(video_id, [e.start for e in events],
                   [e.end for e in events])

    @classmethod
    def _of(cls, video_id: str, starts, ends) -> EventSet:
        self = object.__new__(cls)
        self._fill(video_id, starts, ends)
        return self

    def _fill(self, video_id: str, starts, ends) -> None:
        starts, ends = (np.array(a, dtype=np.int64) for a in (starts, ends))
        starts.flags.writeable = ends.flags.writeable = False
        self.__dict__.update(video_id=video_id, starts=starts, ends=ends)

    @property
    def events(self) -> tuple[TemporalEvent, ...]:
        return tuple(map(TemporalEvent, self.starts.tolist(),
                         self.ends.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, EventSet) and self.video_id == other.video_id
                and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends))

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return iter(self.events)


class ThresholdStrategy(str, Enum):
    """How the binarization threshold tau is chosen."""

    EER = "eer"
    HPRS = "hprs"
    FIXED = "fixed"


def _is_real(value) -> bool:
    """An int or float (numpy scalars included), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_tiou_thresholds(thresholds: Sequence[float]) -> None:
    """At least one tIoU threshold, each a number in (0, 1], none repeated."""
    if not thresholds:
        raise ValidationError("need at least one tiou threshold")
    for k, t in enumerate(thresholds):
        if not (_is_real(t) and 0.0 < t <= 1.0):
            raise ValidationError(
                f"tiou threshold {t!r} is not a number in (0, 1]")
        if t in thresholds[:k]:
            raise ValidationError(f"tiou threshold {t!r} appears twice")


@dataclass(frozen=True)
class EvalConfig:
    """All pipeline knobs, with the documented defaults.

    vote_stride must not exceed vote_window so every frame receives a vote
    decision. A FIXED strategy requires fixed_tau.
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
        try:
            thresholds = tuple(self.tiou_thresholds)
        except TypeError:
            raise ValidationError("tiou_thresholds must be a list of numbers, "
                                  f"got {self.tiou_thresholds!r}") from None
        check_tiou_thresholds(thresholds)
        object.__setattr__(self, "tiou_thresholds",
                           tuple(float(t) for t in thresholds))
        object.__setattr__(self, "threshold_strategy",
                           ThresholdStrategy(self.threshold_strategy))
        for name in ("sigma_max", "vote_window", "vote_stride",
                     "min_event_len"):
            value = getattr(self, name)
            if isinstance(value, np.integer):
                value = int(value)
                object.__setattr__(self, name, value)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValidationError(f"{name} must be a positive integer, "
                                      f"got {value!r}")
        if self.vote_stride > self.vote_window:
            raise ValidationError(
                f"vote_stride {self.vote_stride} exceeds vote_window "
                f"{self.vote_window}: frames would go unvoted")
        if any(b < a for a, b in zip(self.tiou_thresholds,
                                     self.tiou_thresholds[1:])):
            raise ValidationError("tiou_thresholds must be strictly ascending")
        if not (_is_real(self.hprs_beta) and 0 < self.hprs_beta < np.inf):
            raise ValidationError(f"hprs_beta must be positive and finite, "
                                  f"got {self.hprs_beta!r}")
        if self.fixed_tau is not None and not _is_real(self.fixed_tau):
            raise ValidationError(
                f"fixed_tau must be a number, got {self.fixed_tau!r}")
        if self.threshold_strategy is ThresholdStrategy.FIXED:
            if self.fixed_tau is None or not np.isfinite(self.fixed_tau):
                raise ValidationError("FIXED strategy requires a finite "
                                      "fixed_tau")


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

    Finiteness and binariness are already enforced by the type constructors;
    this guards the cross-cutting invariants (same video, same length).
    """
    if scores.video_id != mask.video_id:
        raise VideoIdMismatch(
            f"scores for {scores.video_id!r} paired with mask for "
            f"{mask.video_id!r}")
    if len(scores) != len(mask):
        raise LengthMismatch(len(scores), len(mask),
                             video_id=scores.video_id)


def events_within(events: EventSet, n_frames: int) -> None:
    """Raise EventOutOfRange unless every event fits in [0, n_frames - 1]."""
    k = int(np.searchsorted(events.ends, n_frames))
    if k < len(events):
        raise EventOutOfRange(
            f"event [{events.starts[k]},{events.ends[k]}] of "
            f"{events.video_id!r} exceeds video length {n_frames}")
