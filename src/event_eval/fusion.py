"""Dual-branch cross-scale fusion of frame-wise reconstruction errors.

A short branch covers a target window of length i; a long branch covers the
3i-frame neighborhood centered on it. The long branch's middle third is
aligned with the target window, the two error sequences are averaged
frame-wise, and the fused response is mean-pooled into one window score.
Scored windows then mark their frame spans to form events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import EventSet, FrameMask
from .errors import BadLength, LengthMismatch, ValidationError, WindowOutOfRange
from .events import mask_to_events


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


def pool_event_score(fused: Sequence[float]) -> float:
    """Mean of the fused responses over the target window."""
    if not len(fused):
        raise ValidationError("cannot pool an empty window")
    return float(sum(float(v) for v in fused) / len(fused))


def score_window(window: BranchErrors) -> float:
    """align_center -> fuse_frames -> pool_event_score for one window."""
    aligned = align_center(window.long, window.window_len)
    return pool_event_score(fuse_frames(window.short, aligned))


def windows_to_events(window_scores: Sequence[tuple[int, int, float]],
                      tau: float, video_len: int,
                      video_id: str = "") -> EventSet:
    """Mark the frame span of every window scoring >= tau, merge, extract.

    window_scores holds (target_start, window_len, score) triples. Marking
    is order-independent: overlapping or adjacent spans merge into one event
    through the mask.
    """
    if not np.isfinite(tau):
        raise ValidationError(f"tau must be finite, got {tau}")
    if video_len < 1:
        raise ValidationError(f"video_len must be >= 1, got {video_len}")
    labels = np.zeros(video_len, dtype=int)
    for start, length, score in window_scores:
        if start < 0 or start + length > video_len:
            raise WindowOutOfRange(
                f"window [{start},{start + length - 1}] exceeds video "
                f"length {video_len}")
        if score >= tau:
            labels[start:start + length] = 1
    return mask_to_events(FrameMask(video_id=video_id, labels=labels))


def run_dual_pipeline(batches: Mapping[str, Sequence[BranchErrors]],
                      tau: float,
                      video_lens: Mapping[str, int]) -> dict[str, EventSet]:
    """Score every window of every video and threshold into event sets."""
    missing = sorted(set(batches) - set(video_lens))
    if missing:
        raise ValidationError(f"no video length given for: {missing}")
    out: dict[str, EventSet] = {}
    for video_id in sorted(batches):
        scored = [(w.target_start, w.window_len, score_window(w))
                  for w in batches[video_id]]
        out[video_id] = windows_to_events(scored, tau,
                                          video_lens[video_id],
                                          video_id=video_id)
    return out
