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

from .core import EventSet, check_tau
from .errors import BadLength, LengthMismatch, ValidationError, WindowOutOfRange
from .events import clip_runs


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
        object.__setattr__(self, "short",
                           tuple(float(v) for v in self.short))
        object.__setattr__(self, "long",
                           tuple(float(v) for v in self.long))
        if self.window_len < 1:
            raise ValidationError(
                f"window_len must be >= 1, got {self.window_len}")
        if self.target_start < 0:
            raise ValidationError(
                f"target_start must be >= 0, got {self.target_start}")
        if len(self.short) != self.window_len:
            raise BadLength(
                f"short branch has {len(self.short)} values, expected "
                f"window_len={self.window_len}")
        if len(self.long) != 3 * self.window_len:
            raise BadLength(
                f"long branch has {len(self.long)} values, expected "
                f"3*window_len={3 * self.window_len}")
        for name, values in (("short", self.short), ("long", self.long)):
            arr = np.asarray(values)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValidationError(
                    f"{name} branch errors must be finite and >= 0")


def align_center(long: Sequence[float], i: int) -> list[float]:
    """Middle third of the long-branch errors: elements i..2i-1 (0-based)."""
    if i < 1:
        raise ValidationError(f"window length must be >= 1, got {i}")
    if len(long) != 3 * i:
        raise BadLength(
            f"long branch has {len(long)} values, expected 3*i={3 * i}")
    return [float(v) for v in long[i:2 * i]]


def fuse_frames(short: Sequence[float],
                aligned_long: Sequence[float]) -> list[float]:
    """Frame-wise mean of the short and aligned long errors."""
    if len(short) != len(aligned_long):
        raise LengthMismatch(len(short), len(aligned_long))
    return [(float(s) + float(l)) / 2.0 for s, l in zip(short, aligned_long)]


# a sum past the float64 range is inf, as in Python, and not a warning
@np.errstate(over="ignore")
def _pool(fused: np.ndarray) -> np.ndarray:
    """Mean over the last axis, summed left to right: np.mean sums
    pairwise, and Python's sum() compensates since 3.12."""
    return np.cumsum(fused, axis=-1)[..., -1] / fused.shape[-1]


def pool_event_score(fused: Sequence[float]) -> float:
    """Mean of the fused responses over the target window."""
    if not len(fused):
        raise ValidationError("cannot pool an empty window")
    return float(_pool(np.asarray(fused, dtype=np.float64)))


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
    """Mark the frame span of every window scoring >= tau, merge, extract.

    Windows may overlap or coincide: a frame is marked while more hit
    windows have started than ended. The first window, in the given
    order, that leaves [0, video_len) raises WindowOutOfRange.
    """
    check_tau(tau)
    if video_len < 1:
        raise ValidationError(f"video_len must be >= 1, got {video_len}")
    # not starts + lengths > video_len, which can wrap around in int64
    bad = np.asarray((starts < 0) | (lengths < 0)
                     | (starts > video_len - lengths), dtype=bool)
    if bad.any():
        start, length = int(starts[bad.argmax()]), int(lengths[bad.argmax()])
        raise WindowOutOfRange(f"window [{start},{start + length - 1}] "
                               f"exceeds video length {video_len}")
    hit = scores >= tau
    starts = starts[hit].astype(np.int64)
    ends = starts + lengths[hit].astype(np.int64)
    depth = np.cumsum(np.bincount(starts, minlength=video_len + 1)
                      - np.bincount(ends, minlength=video_len + 1))
    return clip_runs(depth > 0, np.array([0, depth.size]), video_id)

