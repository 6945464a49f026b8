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
    Dataset,
    EvalConfig,
    EventSet,
    FrameMask,
    ScoreSequence,
    _is_int,
    check_tau,
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


def clip_runs(labels: np.ndarray, bounds: np.ndarray,
              video_id: str = "") -> EventSet:
    """The maximal runs of 1s of each clip labels[bounds[c]:bounds[c + 1]],
    as one EventSet of indices into labels for video_id. No run spans two
    clips, so the last run of a clip may touch the first of the next."""
    first, last = bounds[:-1], bounds[1:] - 1
    rise = np.empty(labels.size, bool)
    rise[1:] = labels[1:] > labels[:-1]
    rise[first] = labels[first]
    fall = np.empty(labels.size, bool)
    fall[:-1] = labels[:-1] > labels[1:]
    fall[last] = labels[last]
    return EventSet._of(video_id, np.flatnonzero(rise), np.flatnonzero(fall))


def mask_to_events(mask: FrameMask) -> EventSet:
    """Decompose a mask into maximal runs of 1s."""
    return clip_runs(mask.as_array(), np.array([0, len(mask)]),
                     mask.video_id)


def events_to_mask(events: EventSet, n: int) -> FrameMask:
    """Render events back to a length-n binary mask."""
    if not _is_int(n) or n < 1:
        raise ValidationError(
            f"mask length must be an integer >= 1, got {n!r}")
    events_within(events, n)
    # events are disjoint and non-adjacent, so no two bounds share an index
    delta = np.zeros(n + 1, dtype=int)
    delta[events.starts] = 1
    delta[events.ends + 1] = -1
    return FrameMask._of(events.video_id, np.cumsum(delta[:n]))


_WINDOWS = 8192  # vote windows per block of clip_vote


def clip_vote(labels: np.ndarray, bounds: np.ndarray, window: int,
              stride: int) -> np.ndarray:
    """majority_vote_refine of each clip labels[bounds[c]:bounds[c + 1]], in
    one pass, with the window clamped to each clip's length n and the
    stride to that window: min(window, n) and min(stride, min(window, n)).

    The windows are voted _WINDOWS at a time, so beyond the labels and the
    result it holds one count per frame and one block of windows, whatever
    the stride."""
    # below 2**30 frames, int32 positions halve the arrays; no value below
    # exceeds the frame count
    bounds = bounds.astype(np.int32 if bounds[-1] < 2**30 else np.int64)
    lens = np.diff(bounds)
    # clamped first: the config's ints are unbounded; a clip shorter than
    # the window clamps the window (and so the stride) to its length
    window = min(window, int(lens.max()))
    stride = min(stride, window)
    steps = np.minimum(stride, lens)   # each clip's stride
    count = -(-lens // steps)   # windows per clip
    after = np.cumsum(count)   # one past each clip's last window
    # per clip: its first frame, first window's number, stride and end
    table = np.stack((bounds[:-1], after - count, steps, bounds[1:]),
                     dtype=bounds.dtype)
    ones = np.zeros(labels.size + 1, bounds.dtype)   # 1s before each frame
    np.cumsum(labels, out=ones[1:])
    out = np.empty(labels.size, bool)
    for lo in range(0, int(after[-1]), _WINDOWS):
        hi = min(lo + _WINDOWS, int(after[-1]))
        # windows lo..hi-1 run from clip c to clip d, k[i] of them in c + i
        c, d = np.searchsorted(after, (lo, hi - 1), side="right")
        k = np.diff(np.concatenate(([lo], after[c:d], [hi])))
        begin, first, step, end = np.repeat(table[:, c:d + 1], k, axis=1)
        start = (np.arange(lo, hi, dtype=bounds.dtype) - first) * step + begin
        left = end - start   # frames from the window's start to its clip's end
        n = np.minimum(left, window)   # frames in the window
        votes = ones.take(start + n) - ones.take(start)
        # each window fills the frames up to the next window's or clip's start
        fill = np.minimum(left, stride)
        out[start[0]:start[-1] + fill[-1]] = np.repeat(votes >= n - votes,
                                                       fill)
    return out


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
    if not (_is_int(window) and _is_int(stride)
            and 1 <= stride <= window <= n):
        raise InvalidWindow(
            f"need integers 1 <= stride <= window <= mask length, got "
            f"stride={stride} window={window} length={n}")
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
    return filter_short_events(clip_runs(voted, bounds), cfg.min_event_len)


def refine_pipeline(scores: ScoreSequence, tau: float,
                    cfg: EvalConfig) -> EventSet:
    """Run the full refinement for one video: smooth_clips, then
    refine_clips at tau. A clip shorter than the vote window is voted on
    with the window clamped to its length, rather than rejected."""
    check_tau(tau)
    bounds = np.array([0, len(scores)])
    events = refine_clips(smooth_clips(scores.as_array(), bounds,
                                       cfg.sigma_max), bounds, tau, cfg)
    return EventSet._of(scores.video_id, events.starts, events.ends)


def audit_events(gt: EventSet, n_frames: int,
                 micro_threshold: int) -> AuditReport:
    """Frame and event statistics of the ground-truth events gt over
    n_frames frames; micro events are shorter than micro_threshold frames.
    """
    durations = gt.ends - gt.starts + 1
    anomalous = int(durations.sum())
    count = len(durations)
    return AuditReport(
        normal_frames=n_frames - anomalous,
        anomalous_frames=anomalous,
        event_count=count,
        avg_duration_frames=anomalous / count if count else 0.0,
        min_duration=int(durations.min()) if count else 0,
        max_duration=int(durations.max()) if count else 0,
        micro_event_count=int(np.count_nonzero(
            durations < micro_threshold)),
    )


def audit_dataset(masks: list[FrameMask],
                  micro_threshold: int) -> AuditReport:
    """audit_events of the maximal runs of 1s of every ground-truth mask."""
    if not _is_int(micro_threshold) or micro_threshold < 1:
        raise ValidationError(
            f"micro_threshold must be >= 1, got {micro_threshold!r}")
    data = Dataset.of([(None, m) for m in masks])
    return audit_events(clip_runs(data.labels, data.bounds),
                        int(data.bounds[-1]), micro_threshold)
