"""Frame-level curves and operating-point selection.

All searches run over the finest lossless candidate grid: the distinct
observed scores plus -inf/+inf sentinels. Binarization is score >= tau
everywhere; thresholds are meant to be derived once per model-dataset pair
from the concatenated test-set scores. Every metric is read from the TP/FP
counts at those candidates, built from one stable sort of the scores (the
one-pass ROC construction, Fawcett 2006, Alg. 2).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import FrameMetrics
from .errors import DegenerateLabels, LengthMismatch, NonBinaryLabel, NonFiniteScore


class PrecisionRecallF1(NamedTuple):
    precision: float
    recall: float
    f1: float


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


def _as_arrays(scores: Sequence[float],
               labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1:
        raise ValueError("scores and labels must be 1-dimensional")
    if s.size != y.size:
        raise LengthMismatch(s.size, y.size)
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise NonFiniteScore(int(bad[0]))
    yf = y.astype(float)
    bad = np.flatnonzero((yf != 0.0) & (yf != 1.0))
    if bad.size:
        raise NonBinaryLabel(int(bad[0]))
    return s, y.astype(int)


def _candidate_counts(s: np.ndarray, y: np.ndarray,
                      need_negatives: bool = True):
    """TP/FP counts of the >=-threshold classifier at every candidate.

    s and y are checked: same-length 1-D arrays of finite scores and 0/1
    labels. Returns (candidates ascending, tp, fp, n_pos, n_neg). The
    distinct scores are the first entry of each run of equal values in the
    sorted array, so one stable argsort is the only sort; counts are exact
    int64 integers, whatever the labels' dtype.
    """
    order = np.argsort(s, kind="mergesort")
    s_sorted = s[order]
    cum_pos = np.concatenate([[0], np.cumsum(y[order], dtype=np.int64)])
    n_pos = int(cum_pos[-1])
    n_neg = s.size - n_pos
    if n_pos == 0 or (need_negatives and n_neg == 0):
        need = "both classes" if need_negatives else "a positive frame"
        raise DegenerateLabels(f"need {need}, got {n_pos} positive / "
                               f"{n_neg} negative frames")
    run_start = np.ones(s.size, dtype=bool)
    np.not_equal(s_sorted[1:], s_sorted[:-1], out=run_start[1:])
    first = np.flatnonzero(run_start)
    idx = np.concatenate([[0], first, [s.size]])
    tp = n_pos - cum_pos[idx]
    return (np.concatenate([[-np.inf], s_sorted[first], [np.inf]]), tp,
            (s.size - idx) - tp, n_pos, n_neg)


def _area(terms: np.ndarray) -> float:
    # np.cumsum adds left to right, as a loop would; np.sum adds pairwise
    # and would change the last bits of every reported area
    area = np.cumsum(terms)[-1] if terms.size else 0.0
    return float(min(1.0, max(0.0, area)))  # guard ulp-level overshoot


def _precision(tp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    return tp / np.maximum(tp + fp, 1)  # nothing predicted: 0 / 1 = 0


def _roc(cand, tp, fp, n_pos: int, n_neg: int) -> RocCurve:
    fpr = fp / n_neg
    return RocCurve(cand, fpr, (n_pos - tp) / n_pos, tp / n_pos, fpr)


def _auc_pr(tp: np.ndarray, fp: np.ndarray, n_pos: int) -> float:
    tp, fp = tp[-2:0:-1], fp[-2:0:-1]  # observed scores, high to low
    recall = tp / n_pos
    return _area((recall - np.concatenate([[0.0], recall[:-1]]))
                 * _precision(tp, fp))


def _eer_index(curve: RocCurve) -> int:
    """Index of the first (lowest-threshold) minimum of |FAR - FRR|."""
    return int(np.argmin(np.abs(curve.far - curve.frr)))


def _hprs_index(tp: np.ndarray, fp: np.ndarray, n_pos: int,
                beta: float) -> int:
    """Index of the last (highest-threshold) maximum of F_beta."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    b2 = beta * beta
    prec = _precision(tp, fp)
    rec = tp / n_pos
    denom = b2 * prec + rec
    fb = np.divide((1.0 + b2) * prec * rec, denom, out=np.zeros(denom.size),
                   where=denom > 0)
    return fb.size - 1 - int(np.argmax(fb[::-1]))


def prf(tp: int, fp: int, n_pos: int) -> PrecisionRecallF1:
    """Precision, recall and F1 from confusion counts; 0.0 where undefined."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / n_pos if n_pos > 0 else 0.0
    pr = precision + recall
    f1 = 2.0 * precision * recall / pr if pr > 0 else 0.0
    return PrecisionRecallF1(precision, recall, f1)


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> RocCurve:
    """ROC operating points at every distinct score plus +-inf sentinels."""
    return _roc(*_candidate_counts(*_as_arrays(scores, labels)))


def auc_roc(curve: RocCurve) -> float:
    """Trapezoidal area under (fpr, tpr).

    Equals the Mann-Whitney pair-counting statistic with ties worth 0.5.
    """
    fpr, tpr = curve.fpr[::-1], curve.tpr[::-1]  # ascending fpr
    return _area((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)


def auc_pr(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Step-wise (right-continuous) area under the precision-recall curve.

    Walking thresholds from high to low, each distinct score contributes
    (recall_k - recall_{k-1}) * precision_k.
    """
    _, tp, fp, n_pos, _ = _candidate_counts(*_as_arrays(scores, labels),
                                            False)
    return _auc_pr(tp, fp, n_pos)


def eer_threshold(curve: RocCurve) -> tuple[float, float]:
    """Threshold minimizing |FAR - FRR|; ties broken by the lower threshold.

    The reported EER is the midpoint (FAR + FRR) / 2 at that point, the
    standard convention since finite grids rarely yield exact equality.
    """
    i = _eer_index(curve)
    return float(curve.thresholds[i]), float((curve.far[i] + curve.frr[i])
                                             / 2.0)


def hprs_threshold(scores: Sequence[float], labels: Sequence[int],
                   beta: float = 0.5) -> float:
    """Precision-prioritizing operating point: the F_beta-maximizing
    threshold, ties broken by the HIGHER (stricter) threshold.

    beta < 1 weights precision over recall; beta = 1 reduces to the
    F1-maximizing threshold.
    """
    cand, tp, fp, n_pos, _ = _candidate_counts(*_as_arrays(scores, labels))
    return float(cand[_hprs_index(tp, fp, n_pos, beta)])


def f1_at_threshold(scores: Sequence[float], labels: Sequence[int],
                    tau: float) -> PrecisionRecallF1:
    """Frame-level precision/recall/F1 of the >=-tau binarization.

    Empty predictions or no positives yield 0 for the undefined ratio, and
    F1 = 0 whenever precision + recall = 0.
    """
    s, y = _as_arrays(scores, labels)
    pred = s >= tau
    tp = int(np.count_nonzero(pred & (y == 1)))
    return prf(tp, int(np.count_nonzero(pred)) - tp, int(np.count_nonzero(y)))


def frame_metrics(scores: np.ndarray, labels: np.ndarray,
                  beta: float = 0.5) -> FrameMetrics:
    """Every frame-level metric from one sort of the scores.

    scores and labels are the checked arrays of ScoreSequences and
    FrameMasks, so they are not checked again.

    Equals composing the public functions above, except that a -inf tau_EER
    (all scores equal) is reported as the lowest observed score, which
    binarizes the data identically and keeps reports finite.
    """
    cand, tp, fp, n_pos, n_neg = _candidate_counts(scores, labels)
    curve = _roc(cand, tp, fp, n_pos, n_neg)
    i_eer, i_hprs = _eer_index(curve), _hprs_index(tp, fp, n_pos, beta)
    f1 = [prf(int(tp[i]), int(fp[i]), n_pos).f1 for i in (i_eer, i_hprs)]
    return FrameMetrics(
        auc_roc=auc_roc(curve),
        auc_pr=_auc_pr(tp, fp, n_pos),
        eer=eer_threshold(curve)[1],
        tau_eer=float(cand[max(i_eer, 1)]),  # cand[1]: lowest observed score
        tau_hprs=float(cand[i_hprs]),
        f1_at_tau_eer=f1[0],
        f1_at_tau_hprs=f1[1],
    )
