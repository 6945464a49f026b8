"""Event-level evaluation: tIoU, one-to-one greedy matching, P/R/F1.

Matching is greedy over descending tIoU with deterministic tie-breaks
(lower gt index, then lower pred index) and one-to-one: a predicted event
consumes at most one ground-truth event and vice versa. Counts are
micro-averaged across videos: TP/FP/FN are summed first, then ratios taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import EventMetrics, EventPrf, EventSet, TemporalEvent
from .errors import ValidationError, VideoIdMismatch
from .thresholds import prf


@dataclass(frozen=True)
class MatchResult:
    """Accepted (gt, pred) pairs plus the leftovers on both sides."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


def tiou(a: TemporalEvent, b: TemporalEvent) -> float:
    """Temporal IoU of two closed frame intervals; 0 when disjoint."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = a.duration + b.duration - inter
    return inter / union


def match_events(gt: EventSet, pred: EventSet,
                 threshold: float) -> MatchResult:
    """Greedily accept candidate pairs with tiou >= threshold.

    Candidates are visited in descending tIoU order; any pair touching an
    already-matched event is skipped.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"tiou threshold {threshold} outside (0, 1]")
    candidates = []
    for i, g in enumerate(gt):
        for j, p in enumerate(pred):
            t = tiou(g, p)
            if t >= threshold:
                candidates.append((i, j, t))
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    pairs = []
    for i, j, t in candidates:
        if i in used_gt or j in used_pred:
            continue
        used_gt.add(i)
        used_pred.add(j)
        pairs.append((i, j, t))
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_gt=tuple(i for i in range(len(gt)) if i not in used_gt),
        unmatched_pred=tuple(j for j in range(len(pred))
                             if j not in used_pred),
    )


def multi_threshold_eval(gt_all: Sequence[EventSet],
                         pred_all: Sequence[EventSet],
                         thresholds: Sequence[float]) -> EventMetrics:
    """Micro-averaged event metrics across videos at each tIoU threshold.

    gt_all and pred_all are aligned by video_id; TP/FP/FN are pooled over
    videos per threshold, and average_f1 is the plain mean of the
    per-threshold F1 values.
    """
    if not thresholds:
        raise ValidationError("need at least one tiou threshold")
    gt_by_id = {es.video_id: es for es in gt_all}
    pred_by_id = {es.video_id: es for es in pred_all}
    if len(gt_by_id) != len(gt_all) or len(pred_by_id) != len(pred_all):
        raise VideoIdMismatch("duplicate video_id in event sets")
    if gt_by_id.keys() != pred_by_id.keys():
        missing = sorted(gt_by_id.keys() ^ pred_by_id.keys())
        raise VideoIdMismatch(
            f"gt and predictions cover different videos: {missing}")
    per_tiou: dict[float, EventPrf] = {}
    for threshold in thresholds:
        tp = fp = fn = 0
        for video_id in sorted(gt_by_id):
            result = match_events(gt_by_id[video_id], pred_by_id[video_id],
                                  threshold)
            tp += len(result.pairs)
            fn += len(result.unmatched_gt)
            fp += len(result.unmatched_pred)
        per_tiou[float(threshold)] = EventPrf(*prf(tp, fp, tp + fn),
                                              tp=tp, fp=fp, fn=fn)
    average_f1 = sum(e.f1 for e in per_tiou.values()) / len(per_tiou)
    return EventMetrics(per_tiou=per_tiou, average_f1=average_f1)
