"""Dual-branch cross-scale fusion of frame-wise reconstruction errors.

A short branch covers a target window of length i; a long branch covers the
3i-frame neighborhood centered on it. The long branch's middle third is
aligned with the target window, the two error sequences are averaged
frame-wise, and the fused response is mean-pooled, summed left to right,
into one window score. Errors are finite and >= 0. Every window scoring
>= tau marks its frame span, which must lie inside the video; overlapping or
adjacent spans merge into one event. score_window scores all windows of a
video at once, as the rows of an array, and mark_windows marks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EventSet, _is_whole, _one_d, check_count, check_tau
from .errors import BadLength, LengthMismatch, ValidationError, WindowOutOfRange


@dataclass(frozen=True)
class BranchErrors:
    """One scored window: short-branch and long-branch error sequences.

    target_start locates the short (target) window inside its source video.
    """

    short: tuple[float, ...]
    long: tuple[float, ...]
    window_len: int
    target_start: int

    def __post_init__(self) -> None:
        arrays = {name: _one_d(getattr(self, name), f"{name} branch errors")
                  for name in ("short", "long")}
        for name, arr in arrays.items():
            object.__setattr__(self, name, tuple(arr.tolist()))
        check_count("window_len", self.window_len)
        check_count("target_start", self.target_start, least=0)
        if len(self.short) != self.window_len:
            raise BadLength(
                f"short branch has {len(self.short)} values, expected "
                f"window_len={self.window_len}")
        if len(self.long) != 3 * self.window_len:
            raise BadLength(
                f"long branch has {len(self.long)} values, expected "
                f"3*window_len={3 * self.window_len}")
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValidationError(
                    f"{name} branch errors must be finite and >= 0")


def align_center(long: Sequence[float], i: int) -> list[float]:
    """Middle third of the long-branch errors: elements i..2i-1 (0-based)."""
    check_count("window length", i)
    long = _one_d(long, "long branch errors")
    if len(long) != 3 * i:
        raise BadLength(
            f"long branch has {len(long)} values, expected 3*i={3 * i}")
    return long[i:2 * i].tolist()


def fuse_frames(short: Sequence[float],
                aligned_long: Sequence[float]) -> list[float]:
    """Frame-wise mean of the short and aligned long errors."""
    short = _one_d(short, "short branch errors").tolist()
    aligned_long = _one_d(aligned_long, "aligned long branch errors").tolist()
    if len(short) != len(aligned_long):
        raise LengthMismatch(len(short), len(aligned_long))
    return [(s + l) / 2.0 for s, l in zip(short, aligned_long)]


# a sum past the float64 range is inf, as in Python, and not a warning
@np.errstate(over="ignore")
def _pool(fused: np.ndarray) -> np.ndarray:
    """Mean over the last axis, summed left to right: np.mean sums
    pairwise, and Python's sum() compensates since 3.12."""
    return np.cumsum(fused, axis=-1)[..., -1] / fused.shape[-1]


def pool_event_score(fused: Sequence[float]) -> float:
    """Mean of the fused responses over the target window."""
    fused = _one_d(fused, "fused responses")
    if not fused.size:
        raise ValidationError("cannot pool an empty window")
    return float(_pool(fused))


@np.errstate(over="ignore")
def score_window(rows: np.ndarray) -> np.ndarray:
    """align_center -> fuse_frames -> pool_event_score, with the same bits,
    for every row of a 2-D array of 4i errors each (i short, then 3i long).
    """
    i = rows.shape[1] // 4
    return _pool((rows[:, :i] + rows[:, 2 * i:3 * i]) / 2.0)


def mark_windows(starts: np.ndarray, lengths: np.ndarray,
                 scores: np.ndarray, tau: float, video_len: int,
                 video_id: str = "") -> EventSet:
    """Merge the frame spans of the windows scoring >= tau into events.

    starts and lengths are 1-D numpy arrays of whole numbers, one entry per
    score, as load_branch_errors returns them. The first window, in the
    given order, that leaves [0, video_len) raises WindowOutOfRange. Sorted
    by start, a hit window past reach, one past every frame marked before
    it, opens an event; each event ends at its last window's reach - 1.
    """
    check_tau(tau)
    if check_count("video_len", video_len) >= 2**63:   # frames are int64
        raise ValidationError(
            f"video_len must be below 2**63, got {video_len}")
    scores = _one_d(scores, "scores")
    for name, column in (("starts", starts), ("lengths", lengths)):
        if not (isinstance(column, np.ndarray)
                and column.shape == scores.shape):
            raise ValidationError(
                f"{name} must be a 1-D numpy array, one entry per window, "
                f"got {getattr(column, 'shape', type(column).__name__)}")
        if column.dtype != np.int64 and not all(map(_is_whole,
                                                    column.tolist())):
            raise ValidationError(f"{name} must be whole numbers")
    # any dtype but int64 as Python numbers, which cannot wrap around
    starts, lengths = (c if c.dtype == np.int64 else c.astype(object)
                       for c in (starts, lengths))
    # not starts + lengths > video_len, which can wrap around in int64
    bad = np.asarray((starts < 0) | (lengths < 0)
                     | (starts > video_len - lengths), dtype=bool)
    if bad.any():
        start, length = int(starts[bad.argmax()]), int(lengths[bad.argmax()])
        raise WindowOutOfRange(f"window [{start},{start + length - 1}] "
                               f"exceeds video length {video_len}")
    hit = scores >= tau
    starts, lengths = (c[hit].astype(np.int64) for c in (starts, lengths))
    order = np.argsort(starts, kind="stable")
    order = order[lengths[order] > 0]   # a zero-length window marks nothing
    starts = starts[order]
    reach = np.maximum.accumulate(starts + lengths[order])
    new = starts > np.r_[-1, reach[:-1]]   # so touching windows merge
    return EventSet._of(video_id, starts[new], reach[np.roll(new, -1)] - 1)
