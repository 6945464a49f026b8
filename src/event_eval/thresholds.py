"""Frame-level curves and operating-point selection.

All searches run over the finest lossless candidate grid: the distinct
observed scores plus -inf/+inf sentinels. Binarization is score >= tau
everywhere; thresholds are meant to be derived once per model-dataset pair
from the concatenated test-set scores. Every metric is read from the TP/FP
counts at those candidates (the one-pass ROC construction, Fawcett 2006,
Alg. 2), which _count_blocks reads from one sort of all scores and one of
the positives' scores. A count is read only where a run of equal scores
starts, so the order inside a run never matters: neither sort is stable.
frame_metrics reads the counts of a Dataset block by block and reports every
metric; hprs_threshold is its tau_hprs, and roc_curve holds the counts as
one block. Both lay their scores and labels out as one video by Dataset.of.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import (Dataset, EventPrf, FrameMask, FrameMetrics, ScoreSequence,
                   check_hprs_beta)
from .errors import DegenerateLabels


class RocCurve(NamedTuple):
    """Operating points sorted ascending by threshold, one array per field.

    far == fpr and frr == 1 - tpr by construction; tpr and fpr are monotone
    non-increasing in the threshold.
    """

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray


_BLOCK = 4096  # frames per block of frame_metrics' candidate sweep


def _class_sizes(data: Dataset) -> tuple[int, int]:
    n_pos = int(np.count_nonzero(data.labels))
    n_neg = data.labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} positive / "
                               f"{n_neg} negative frames")
    return n_pos, n_neg


def _count_blocks(data: Dataset, block: int):
    """Exact int64 TP/FP counts of the >=-threshold classifier on data, in
    blocks of candidates from the highest threshold down.

    s is a sorted copy of every score and pos of the positives' scores,
    which the label bytes, viewed as bool, select. A block is (candidates
    ascending, tp, fp): the run starts among `block` frames of s, then the
    previous block's lowest candidate (first, the +inf sentinel), so
    neighbouring candidates share a block.
    The -inf sentinel is left out: with the lowest score's counts it adds
    0.0 to each area, and only makes eer_threshold's tau_EER -inf.
    """
    s = np.sort(data.scores)
    pos = data.scores[data.labels.view(bool)]
    pos.sort()
    top, top_above = np.inf, 0  # a candidate and the frames scoring >= it
    for end in range(s.size, 0, -block):
        lo = max(end - block, 0)
        seg = s[lo:end]
        new = np.empty(seg.size, dtype=bool)
        new[0] = lo == 0 or seg[0] != s[lo - 1]
        np.not_equal(seg[1:], seg[:-1], out=new[1:])
        first = np.flatnonzero(new)
        cand = np.append(seg[first], top)
        above = np.append(s.size - lo - first, top_above)
        tp = pos.size - np.searchsorted(pos, cand)  # positives >= cand
        yield cand, tp, above - tp
        top, top_above = cand[0], above[0]


def _add(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added left to right.

    np.cumsum adds left to right, as a loop would; np.sum adds pairwise
    and would change the last bits of every reported area.
    """
    return float(np.cumsum(np.append(total, terms))[-1])


def _clip(area: float) -> float:
    return min(1.0, max(0.0, area))  # guard ulp-level overshoot


def _roc(cand, tp, fp, n_pos: int, n_neg: int) -> RocCurve:
    fpr = fp / n_neg
    return RocCurve(cand, fpr, (n_pos - tp) / n_pos, tp / n_pos, fpr)


def _roc_terms(curve: RocCurve) -> np.ndarray:
    """Trapezoids between neighbouring points, highest threshold first."""
    fpr, tpr = curve.fpr, curve.tpr
    return ((fpr[:-1] - fpr[1:]) * (tpr[:-1] + tpr[1:]) / 2.0)[::-1]


def _pr_terms(recall: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """Steps (recall_k - recall_k+1) * precision_k, highest threshold first.

    The +inf sentinel's recall, 0.0, is the step base of the top score.
    """
    return ((recall[:-1] - recall[1:]) * precision[:-1])[::-1]


def _eer_point(curve: RocCurve) -> tuple[int, float, float]:
    """Index of the first (lowest-threshold) minimum of |FAR - FRR|, that
    minimum, and the EER (FAR + FRR) / 2 there."""
    gap = np.abs(curve.far - curve.frr)
    i = int(np.argmin(gap))
    return i, gap[i], (curve.far[i] + curve.frr[i]) / 2.0


def _hprs_point(recall: np.ndarray, precision: np.ndarray,
                beta: float) -> tuple[int, float]:
    """Index of the last (highest-threshold) maximum of F_beta, and that
    maximum."""
    b2 = beta * beta
    denom = b2 * precision + recall
    fb = np.divide((1.0 + b2) * precision * recall, denom,
                   out=np.zeros(denom.size), where=denom > 0)
    i = fb.size - 1 - int(np.argmax(fb[::-1]))
    return i, fb[i]


def prf(tp: int, fp: int, n_pos: int) -> EventPrf:
    """Precision, recall and F1 from confusion counts, 0.0 where undefined,
    with the counts behind them: fn is n_pos - tp."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / n_pos if n_pos > 0 else 0.0
    pr = precision + recall
    f1 = 2.0 * precision * recall / pr if pr > 0 else 0.0
    return EventPrf(precision, recall, f1, tp=tp, fp=fp, fn=n_pos - tp)


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> RocCurve:
    """ROC operating points at every distinct score plus +-inf sentinels."""
    data = Dataset.of([(ScoreSequence(None, scores),
                        FrameMask(None, labels))])
    n_pos, n_neg = _class_sizes(data)
    ((cand, tp, fp),) = _count_blocks(data, data.labels.size)
    # -inf: every frame predicted positive
    return _roc(np.append(-np.inf, cand), np.append(n_pos, tp),
                np.append(n_neg, fp), n_pos, n_neg)


def auc_roc(curve: RocCurve) -> float:
    """Trapezoidal area under (fpr, tpr).

    Equals the Mann-Whitney pair-counting statistic with ties worth 0.5.
    """
    return _clip(_add(0.0, _roc_terms(curve)))


def eer_threshold(curve: RocCurve) -> tuple[float, float]:
    """Threshold minimizing |FAR - FRR|; ties broken by the lower threshold.

    The reported EER is the midpoint (FAR + FRR) / 2 at that point, the
    standard convention since finite grids rarely yield exact equality.
    """
    i, _, eer = _eer_point(curve)
    return float(curve.thresholds[i]), float(eer)


def hprs_threshold(scores: Sequence[float], labels: Sequence[int],
                   beta: float = 0.5) -> float:
    """Precision-prioritizing operating point: the F_beta-maximizing
    threshold, ties broken by the HIGHER (stricter) threshold.

    beta < 1 weights precision over recall; beta = 1 reduces to the
    F1-maximizing threshold. This is frame_metrics' tau_hprs.
    """
    check_hprs_beta(beta)
    return frame_metrics(Dataset.of([(ScoreSequence(None, scores),
                                      FrameMask(None, labels))]),
                         beta).tau_hprs


def frame_metrics(data: Dataset, beta: float) -> FrameMetrics:
    """Every frame-level metric of data's scores from one sort of them.

    The candidates are read in blocks of _BLOCK frames from the highest
    threshold down, carrying the running areas and the best operating
    points across blocks, so beyond a sorted copy of the scores and one of
    the positives' scores the memory is a few blocks' worth.

    hprs_threshold returns this tau_hprs. roc_curve is one block of the
    same counts, so auc_roc and eer_threshold on it give this auc_roc, eer
    and tau_eer bit for bit, except that a -inf tau_EER (all scores equal)
    is reported here as the lowest observed score, which binarizes the data
    identically and keeps reports finite.
    """
    n_pos, n_neg = _class_sizes(data)
    area_roc = area_pr = 0.0
    # best (|FAR - FRR| or F_beta, tau, F1 at tau[, EER]) so far
    eer, hprs = (np.inf,), (-1.0,)
    for cand, tp, fp in _count_blocks(data, _BLOCK):
        curve = _roc(cand, tp, fp, n_pos, n_neg)
        precision = tp / np.maximum(tp + fp, 1)  # nothing predicted: 0 / 1
        area_roc = _add(area_roc, _roc_terms(curve))
        area_pr = _add(area_pr, _pr_terms(curve.tpr, precision))
        i, gap, value = _eer_point(curve)
        if gap <= eer[0]:  # ties: the lower threshold wins
            eer = gap, cand[i], prf(int(tp[i]), int(fp[i]), n_pos).f1, value
        i, fb = _hprs_point(curve.tpr, precision, beta)
        if fb > hprs[0]:  # ties: the higher threshold wins
            hprs = fb, cand[i], prf(int(tp[i]), int(fp[i]), n_pos).f1
    return FrameMetrics(
        auc_roc=_clip(area_roc),
        auc_pr=_clip(area_pr),
        eer=float(eer[3]),
        tau_eer=float(eer[1]),
        tau_hprs=float(hprs[1]),
        f1_at_tau_eer=eer[2],
        f1_at_tau_hprs=hprs[2],
    )
