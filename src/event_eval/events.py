"""Event extraction from binary masks and the frame-to-event pipeline.

An event is a maximal run of consecutive anomalous frames; a run touching
the end of the video closes at the final frame. The refinement pipeline is
smoothing -> binarize -> windowed majority vote -> run extraction -> short
event filter, in that order. Each stage runs over clips laid end to end,
given by their bounds; the one-clip functions call it with one clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EvalConfig,
    EventSet,
    FrameMask,
    ScoreSequence,
    events_within,
)
from .errors import InvalidWindow, ValidationError
from .smoothing import smooth_clips


@dataclass(frozen=True)
class AuditReport:
    """Dataset-wide frame and event statistics."""

    normal_frames: int
    anomalous_frames: int
    event_count: int
    avg_duration_frames: float
    min_duration: int
    max_duration: int
    micro_event_count: int

    def __post_init__(self) -> None:
        if self.event_count > 0:
            expect = self.anomalous_frames / self.event_count
            if abs(self.avg_duration_frames - expect) > 1e-9:
                raise ValidationError(
                    "avg_duration_frames inconsistent with anomalous_frames "
                    "/ event_count")
        elif self.anomalous_frames != 0:
            raise ValidationError("anomalous frames present but no events")


def clip_runs(labels: np.ndarray,
              bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of the maximal runs of 1s of each clip
    labels[bounds[c]:bounds[c + 1]], as indices into labels; no run spans
    two clips."""
    first, last = bounds[:-1], bounds[1:] - 1
    rise = np.empty(labels.size, bool)
    rise[1:] = labels[1:] > labels[:-1]
    rise[first] = labels[first]
    fall = np.empty(labels.size, bool)
    fall[:-1] = labels[:-1] > labels[1:]
    fall[last] = labels[last]
    return np.flatnonzero(rise), np.flatnonzero(fall)


def mask_to_events(mask: FrameMask) -> EventSet:
    """Decompose a mask into maximal runs of 1s."""
    return EventSet._of(mask.video_id, *clip_runs(
        mask.as_array(), np.array([0, len(mask)])))


def events_to_mask(events: EventSet, n: int) -> FrameMask:
    """Render events back to a length-n binary mask."""
    if n < 1:
        raise ValidationError(f"mask length must be >= 1, got {n}")
    events_within(events, n)
    # events are disjoint and non-adjacent, so no two bounds share an index
    delta = np.zeros(n + 1, dtype=int)
    delta[events.starts] = 1
    delta[events.ends + 1] = -1
    return FrameMask._of(events.video_id, np.cumsum(delta[:n]))


def binarize(scores: ScoreSequence, tau: float) -> FrameMask:
    """Frames with score >= tau become anomalous."""
    return FrameMask._of(scores.video_id, scores.as_array() >= tau)


def clip_vote(labels: np.ndarray, bounds: np.ndarray, window: int,
              stride: int) -> np.ndarray:
    """majority_vote_refine of each clip labels[bounds[c]:bounds[c + 1]], in
    one pass, with the window clamped to each clip's length n and the
    stride to that window: min(window, n) and min(stride, min(window, n))."""
    # below 2**30 frames, int32 positions halve the per-window arrays; no
    # value below exceeds twice the frame count
    bounds = bounds.astype(np.int32 if bounds[-1] < 2**30 else np.int64)
    lens = np.diff(bounds)
    longest = int(lens.max())   # clamped first: the config's ints are unbounded
    win = np.minimum(min(window, longest), lens)
    step = np.minimum(min(stride, longest), win)
    count = -(-lens // step)   # windows per clip
    # window g of clip c starts at bounds[c] + (g - first window of c) * step
    starts = np.arange(count.sum(), dtype=bounds.dtype)
    starts -= np.repeat(np.cumsum(count) - count, count)
    starts *= np.repeat(step, count)
    starts += np.repeat(bounds[:-1], count)
    stops = starts + np.repeat(win, count)
    np.minimum(stops, np.repeat(bounds[1:], count), out=stops)
    ones = np.zeros(labels.size + 1, bounds.dtype)   # 1s before each frame
    np.cumsum(labels, out=ones[1:])
    votes = ones[stops]
    votes -= ones[starts]
    del ones
    votes *= 2
    stops -= starts
    # each window fills the frames up to the next window's or clip's start
    return np.repeat(votes >= stops, np.diff(starts, append=bounds[-1]))


def majority_vote_refine(mask: FrameMask, window: int,
                         stride: int) -> FrameMask:
    """Stabilize a mask by windowed majority voting.

    Windows start at 0, stride, 2*stride, ...; the final window is clamped
    at the last frame. Each window's majority label fills the stride-length
    output segment at the window start (clamped too), so overlapping windows
    never fight over frames. Ties go to 1: recall is preserved here and the
    short-event filter guards precision afterwards.
    """
    n = len(mask)
    if not 1 <= stride <= window <= n:
        raise InvalidWindow(
            f"need 1 <= stride <= window <= mask length, got stride={stride}"
            f" window={window} length={n}")
    return FrameMask._of(mask.video_id, clip_vote(
        mask.as_array(), np.array([0, n]), window, stride))


def filter_short_events(events: EventSet, d_min: int) -> EventSet:
    """Drop events whose duration is strictly shorter than d_min frames."""
    if d_min < 1:
        raise ValidationError(f"d_min must be >= 1, got {d_min}")
    keep = events.ends - events.starts + 1 >= d_min
    return EventSet._of(events.video_id, events.starts[keep],
                        events.ends[keep])


def refine_clips(smoothed: np.ndarray, bounds: np.ndarray, tau: float,
                 cfg: EvalConfig) -> EventSet:
    """The tau-dependent tail of the refinement of every clip at once:
    binarize at tau -> clip_vote -> clip_runs -> filter_short_events. The
    events are indices into smoothed."""
    voted = clip_vote(smoothed >= tau, bounds, cfg.vote_window,
                      cfg.vote_stride)
    return filter_short_events(EventSet._of("", *clip_runs(voted, bounds)),
                               cfg.min_event_len)


def refine_pipeline(scores: ScoreSequence, tau: float,
                    cfg: EvalConfig) -> EventSet:
    """Run the full refinement for one video: smooth_clips, then
    refine_clips at tau. A clip shorter than the vote window is voted on
    with the window clamped to its length, rather than rejected."""
    bounds = np.array([0, len(scores)])
    events = refine_clips(smooth_clips(scores.as_array(), bounds,
                                       cfg.sigma_max), bounds, tau, cfg)
    return EventSet._of(scores.video_id, events.starts, events.ends)


def audit_dataset(masks: list[FrameMask],
                  micro_threshold: int) -> AuditReport:
    """Aggregate frame and event statistics across ground-truth masks.

    micro_event_count tallies events shorter than micro_threshold frames,
    the candidates for annotation-noise cleaning.
    """
    if not masks:
        raise ValidationError("audit requires at least one mask")
    if micro_threshold < 1:
        raise ValidationError(
            f"micro_threshold must be >= 1, got {micro_threshold}")
    bounds = np.cumsum([0, *map(len, masks)])
    starts, ends = clip_runs(np.concatenate([m.as_array() for m in masks]),
                             bounds)
    durations = ends - starts + 1
    anomalous = int(durations.sum())
    count = len(durations)
    return AuditReport(
        normal_frames=int(bounds[-1]) - anomalous,
        anomalous_frames=anomalous,
        event_count=count,
        avg_duration_frames=anomalous / count if count else 0.0,
        min_duration=int(durations.min()) if count else 0,
        max_duration=int(durations.max()) if count else 0,
        micro_event_count=int(np.count_nonzero(
            durations < micro_threshold)),
    )
