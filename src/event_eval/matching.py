"""Event-level evaluation: tIoU, one-to-one greedy matching, P/R/F1.

Matching is greedy over descending tIoU with deterministic tie-breaks
(lower gt index, then lower pred index) and one-to-one: a predicted event
consumes at most one ground-truth event and vice versa. The candidates at
a threshold are a prefix of that descending order, so one greedy pass at
the lowest threshold serves every threshold: the matches at theta are the
accepted pairs with tIoU >= theta. Each video's events are matched only
against that video's own, and the counts are micro-averaged across videos:
TP/FP/FN are pooled per threshold first, then ratios taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EventMetrics, EventPrf, EventSet, check_tiou_thresholds
from .errors import VideoIdMismatch
from .thresholds import prf


@dataclass(frozen=True)
class MatchResult:
    """Accepted (gt, pred) pairs plus the leftovers on both sides."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


def _greedy(gt: EventSet, pred: EventSet,
            floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accepted (gt index, pred index, tIoU) arrays of greedy matching
    over the pairs with tIoU >= floor, in acceptance order."""
    # gt i overlaps exactly preds lo[i] .. lo[i] + count[i] - 1
    lo = np.searchsorted(pred.ends, gt.starts, "left")
    count = np.maximum(np.searchsorted(pred.starts, gt.ends, "right") - lo, 0)
    i = np.repeat(np.arange(len(gt)), count)
    j = np.arange(len(i)) - np.repeat(np.cumsum(count) - count - lo, count)
    gs, ge, ps, pe = gt.starts[i], gt.ends[i], pred.starts[j], pred.ends[j]
    inter = np.minimum(ge, pe) - np.maximum(gs, ps) + 1
    # int64 -> float64 is exact here, so this is Python's int / int
    t = inter / (ge - gs + pe - ps + 2 - inter)
    keep = t >= floor
    i, j, t = i[keep], j[keep], t[keep]
    order = np.lexsort((j, i, -t))
    used_gt, used_pred = bytearray(len(gt)), bytearray(len(pred))
    accepted = []
    for k, a, b in zip(order.tolist(), i[order].tolist(), j[order].tolist()):
        if not (used_gt[a] or used_pred[b]):
            used_gt[a] = used_pred[b] = 1
            accepted.append(k)
    return i[accepted], j[accepted], t[accepted]


def match_events(gt: EventSet, pred: EventSet,
                 threshold: float) -> MatchResult:
    """Greedily accept candidate pairs with tiou >= threshold.

    Candidates are visited in descending tIoU order; any pair touching an
    already-matched event is skipped.
    """
    check_tiou_thresholds((threshold,))
    i, j, t = _greedy(gt, pred, threshold)
    return MatchResult(
        pairs=tuple(zip(i.tolist(), j.tolist(), t.tolist())),
        unmatched_gt=tuple(np.setdiff1d(np.arange(len(gt)), i).tolist()),
        unmatched_pred=tuple(np.setdiff1d(np.arange(len(pred)), j).tolist()),
    )


def multi_threshold_eval(gt_all: Sequence[EventSet],
                         pred_all: Sequence[EventSet],
                         thresholds: Sequence[float]) -> EventMetrics:
    """Micro-averaged event metrics across videos at each tIoU threshold.

    gt_all and pred_all are aligned by video_id. One greedy pass at the
    lowest threshold matches each video; TP/FP/FN are pooled over videos
    per threshold, and average_f1 is the plain mean of the per-threshold F1
    values, in the caller's threshold order.
    """
    thresholds = tuple(thresholds)
    check_tiou_thresholds(thresholds)
    gt_by_id = {es.video_id: es for es in gt_all}
    pred_by_id = {es.video_id: es for es in pred_all}
    if len(gt_by_id) != len(gt_all) or len(pred_by_id) != len(pred_all):
        raise VideoIdMismatch("duplicate video_id in event sets")
    if gt_by_id.keys() != pred_by_id.keys():
        missing = sorted(gt_by_id.keys() ^ pred_by_id.keys())
        raise VideoIdMismatch(
            f"gt and predictions cover different videos: {missing}")
    matched = np.concatenate([np.zeros(0), *(
        _greedy(gt, pred_by_id[vid], min(thresholds))[2]
        for vid, gt in gt_by_id.items())])
    n_gt, n_pred = sum(map(len, gt_all)), sum(map(len, pred_all))
    per_tiou: dict[float, EventPrf] = {}
    for threshold in thresholds:
        tp = int(np.count_nonzero(matched >= threshold))
        fp, fn = n_pred - tp, n_gt - tp
        per_tiou[float(threshold)] = EventPrf(*prf(tp, fp, tp + fn),
                                              tp=tp, fp=fp, fn=fn)
    average_f1 = sum(e.f1 for e in per_tiou.values()) / len(per_tiou)
    return EventMetrics(per_tiou=per_tiou, average_f1=average_f1)
