"""Event extraction from binary masks and the frame-to-event pipeline.

An event is a maximal run of consecutive anomalous frames; a run touching
the end of the video closes at the final frame. The refinement pipeline is
smoothing -> binarize -> windowed majority vote -> run extraction -> short
event filter, in that order.
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
from .smoothing import hierarchical_smooth


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


def mask_to_events(mask: FrameMask) -> EventSet:
    """Decompose a mask into maximal runs of 1s."""
    # in the zero-padded mask, rises and falls alternate
    padded = np.concatenate([[0], mask.as_array(), [0]])
    edges = np.flatnonzero(np.diff(padded))
    return EventSet._of(mask.video_id, edges[0::2], edges[1::2] - 1)


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
    # labels are uint8: widen before summing
    ones = np.concatenate(([0], np.cumsum(mask.as_array(), dtype=np.int64)))
    starts = np.arange(0, n, stride)
    ends = np.minimum(starts + window, n)
    decision = 2 * (ones[ends] - ones[starts]) >= ends - starts
    return FrameMask._of(mask.video_id, np.repeat(decision, stride)[:n])


def filter_short_events(events: EventSet, d_min: int) -> EventSet:
    """Drop events whose duration is strictly shorter than d_min frames."""
    if d_min < 1:
        raise ValidationError(f"d_min must be >= 1, got {d_min}")
    keep = events.ends - events.starts + 1 >= d_min
    return EventSet._of(events.video_id, events.starts[keep],
                        events.ends[keep])


def refine_smoothed(smoothed: ScoreSequence, tau: float,
                    cfg: EvalConfig) -> EventSet:
    """The tau-dependent tail of the refinement for one smoothed video.

    binarize at tau -> majority_vote_refine -> mask_to_events ->
    filter_short_events. On a clip shorter than the vote window, the window
    is clamped to the clip length and the stride to that window, so a short
    clip is voted on rather than rejected.
    """
    mask = binarize(smoothed, tau)
    window = min(cfg.vote_window, len(mask))
    voted = majority_vote_refine(mask, window, min(cfg.vote_stride, window))
    return filter_short_events(mask_to_events(voted), cfg.min_event_len)


def refine_pipeline(scores: ScoreSequence, tau: float,
                    cfg: EvalConfig) -> EventSet:
    """Run the full refinement for one video.

    hierarchical_smooth, then refine_smoothed at tau.
    """
    return refine_smoothed(hierarchical_smooth(scores, cfg.sigma_max), tau,
                           cfg)


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
    total = sum(len(mask) for mask in masks)
    durations = np.concatenate([es.ends - es.starts + 1
                                for es in map(mask_to_events, masks)])
    anomalous = int(durations.sum())
    count = len(durations)
    return AuditReport(
        normal_frames=total - anomalous,
        anomalous_frames=anomalous,
        event_count=count,
        avg_duration_frames=anomalous / count if count else 0.0,
        min_duration=int(durations.min()) if count else 0,
        max_duration=int(durations.max()) if count else 0,
        micro_event_count=int(np.count_nonzero(
            durations < micro_threshold)),
    )
