from __future__ import annotations

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event_eval.core import EvalConfig, FrameMask, FrameMetrics, ScoreSequence
from event_eval.errors import DegenerateLabels, LengthMismatch, ValidationError
from event_eval.io import compute_frame_metrics
from event_eval.thresholds import (
    auc_roc,
    eer_threshold,
    hprs_threshold,
    prf,
    roc_curve,
)

from oracles import (
    pair_count_auc,
    sweep_auc_pr,
    sweep_candidates,
    sweep_counts,
    sweep_eer,
    sweep_fbeta,
)

FIX_SCORES = (0.1, 0.4, 0.35, 0.8)
FIX_LABELS = (0, 0, 1, 1)


def random_fixture(rng, n_max=300):
    n = int(rng.integers(10, n_max))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    # mixture with partial separation plus exact ties now and then
    scores = rng.normal(labels * rng.uniform(0.0, 2.0), 1.0)
    scores = np.round(scores, 2)  # force duplicate score values
    return scores, labels


def test_roc_curve_structure_and_invariants():
    curve = roc_curve(FIX_SCORES, FIX_LABELS)
    assert curve.thresholds.tolist() == [-math.inf, 0.1, 0.35, 0.4, 0.8,
                                         math.inf]
    assert curve.tpr[0] == 1.0 and curve.fpr[0] == 1.0
    assert curve.tpr[-1] == 0.0 and curve.fpr[-1] == 0.0
    assert np.array_equal(curve.far, curve.fpr)
    np.testing.assert_allclose(curve.tpr, 1.0 - curve.frr, rtol=0,
                               atol=1e-12)
    assert (np.diff(curve.tpr) <= 0).all() and (np.diff(curve.fpr) <= 0).all()


def test_roc_requires_both_classes():
    with pytest.raises(DegenerateLabels):
        roc_curve((0.1, 0.2), (0, 0))
    with pytest.raises(DegenerateLabels):
        roc_curve((0.1, 0.2), (1, 1))


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        roc_curve((0.1, 0.2, 0.3), (0, 1))


def test_auc_roc_fixture_is_three_quarters():
    # brute force over the 4 positive-negative pairs: 3 concordant of 4
    curve = roc_curve(FIX_SCORES, FIX_LABELS)
    assert auc_roc(curve) == pytest.approx(0.75, abs=1e-12)
    assert pair_count_auc(FIX_SCORES, FIX_LABELS) == pytest.approx(0.75)


def test_auc_roc_perfect_and_inverted():
    labels = (0, 0, 0, 1, 1, 1)
    assert auc_roc(roc_curve((1, 2, 3, 4, 5, 6), labels)) == pytest.approx(1.0)
    assert auc_roc(roc_curve((6, 5, 4, 1e-3, 1e-4, 1e-5), labels)) \
        == pytest.approx(0.0)


def test_auc_roc_chance_level_for_independent_scores():
    rng = np.random.default_rng(101)
    n = 20_000
    labels = rng.integers(0, 2, size=n)
    scores = rng.normal(size=n)
    value = auc_roc(roc_curve(scores, labels))
    assert value == pytest.approx(0.5, abs=0.05)


def test_auc_roc_equals_pair_counting_on_random_fixtures():
    rng = np.random.default_rng(7)
    for _ in range(100):
        scores, labels = random_fixture(rng)
        got = auc_roc(roc_curve(scores, labels))
        want = pair_count_auc(scores, labels)
        assert got == pytest.approx(want, abs=1e-9)


def test_auc_pr_perfect_and_degenerate_positive():
    labels = (0, 0, 1, 1)
    assert frame_metrics_of((1, 2, 3, 4), labels, 0.5, 1).auc_pr == 1.0
    for labels in ((0, 0), (1, 1)):
        with pytest.raises(DegenerateLabels):
            frame_metrics_of((0.5, 0.1), labels, 0.5, 1)


def test_auc_pr_fixture_matches_sweep_oracle():
    got = frame_metrics_of(FIX_SCORES, FIX_LABELS, 0.5, 2).auc_pr
    want = sweep_auc_pr(FIX_SCORES, FIX_LABELS)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(5.0 / 6.0, abs=1e-12)  # 0.5*1 + 0.5*(2/3)


def test_auc_pr_matches_sweep_on_random_fixtures():
    rng = np.random.default_rng(17)
    for k in range(100):
        scores, labels = random_fixture(rng)
        got = frame_metrics_of(scores, labels, 0.5, 1 + k % 5).auc_pr
        assert got == pytest.approx(sweep_auc_pr(scores, labels), abs=1e-9)


def test_eer_fixture():
    tau, eer = eer_threshold(roc_curve(FIX_SCORES, FIX_LABELS))
    assert tau == 0.4
    assert eer == pytest.approx(0.5)
    assert (tau, eer) == sweep_eer(FIX_SCORES, FIX_LABELS)


def test_eer_perfect_separation_is_zero():
    tau, eer = eer_threshold(roc_curve((1, 2, 3, 10, 11, 12),
                                       (0, 0, 0, 1, 1, 1)))
    assert eer == 0.0
    assert tau == 10  # lowest candidate hitting FAR = FRR = 0


def test_eer_symmetric_distributions_centered():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(0.1, 2.0, size=400)
    mid = 5.0
    scores = np.concatenate([mid - offsets, mid + offsets])
    labels = np.concatenate([np.zeros(400, int), np.ones(400, int)])
    tau, eer = eer_threshold(roc_curve(scores, labels))
    assert abs(tau - mid) < 2.0  # crossing stays near the mirror point
    assert eer == pytest.approx(0.0, abs=0.05)


def test_eer_far_frr_within_one_grid_step():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(20, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)  # continuous: all scores distinct
        curve = roc_curve(scores, labels)
        n_pos = int(labels.sum())
        n_neg = n - n_pos
        tau, _ = eer_threshold(curve)
        k = curve.thresholds.tolist().index(tau)
        assert abs(curve.far[k] - curve.frr[k]) <= 1.0 / n_pos + 1.0 / n_neg


def test_eer_and_hprs_match_exhaustive_sweep():
    rng = np.random.default_rng(41)
    for _ in range(100):
        scores, labels = random_fixture(rng)
        curve = roc_curve(scores, labels)
        assert eer_threshold(curve) == sweep_eer(scores, labels)
        beta = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        assert hprs_threshold(scores, labels, beta) == \
            sweep_fbeta(scores, labels, beta)


def test_hprs_beta_one_is_f1_argmax():
    rng = np.random.default_rng(59)
    scores, labels = random_fixture(rng, n_max=200)
    tau = hprs_threshold(scores, labels, beta=1.0)
    n_pos = int(labels.sum())
    best_f1, best_tau = -1.0, None
    for cand in [-math.inf] + sorted(set(scores.tolist())) + [math.inf]:
        f1 = prf(*sweep_counts(scores, labels, cand), n_pos).f1
        if f1 >= best_f1:
            best_f1, best_tau = f1, cand
    assert tau == best_tau


def test_hprs_perfect_separation_picks_highest_gap_candidate():
    scores = (1.0, 2.0, 3.0, 10.0, 11.0, 12.0)
    labels = (0, 0, 0, 1, 1, 1)
    # F_beta = 1 only at tau = 10, the one candidate inside the gap
    assert hprs_threshold(scores, labels) == 10.0


def test_hprs_default_seeded_fixture_matches_sweep():
    rng = np.random.default_rng(2024)
    labels = rng.integers(0, 2, size=200)
    scores = np.round(rng.normal(labels * 1.2, 1.0), 2)
    assert hprs_threshold(scores, labels, 0.5) == \
        sweep_fbeta(scores, labels, 0.5)


@pytest.mark.parametrize("beta", [0, -1, math.nan, math.inf, 1e300])
def test_hprs_beta_without_a_finite_positive_square_is_rejected(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="hprs_beta"):
            hprs_threshold(FIX_SCORES, FIX_LABELS, beta)
        with pytest.raises(ValidationError, match="hprs_beta"):
            EvalConfig(hprs_beta=beta)


def test_hprs_largest_beta_is_accepted():
    # the largest float64 whose square is finite
    beta = math.sqrt(sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert EvalConfig(hprs_beta=beta).hprs_beta == beta
        assert hprs_threshold(FIX_SCORES, FIX_LABELS, beta) == \
            sweep_fbeta(FIX_SCORES, FIX_LABELS, beta)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(71)
    scores, labels = random_fixture(rng, n_max=200)
    a, b = 2.5, -1.25
    transformed = a * scores + b
    curve = roc_curve(scores, labels)
    curve_t = roc_curve(transformed, labels)
    assert auc_roc(curve_t) == pytest.approx(auc_roc(curve), abs=1e-12)
    assert frame_metrics_of(transformed, labels, 0.5, 1).auc_pr == \
        pytest.approx(frame_metrics_of(scores, labels, 0.5, 1).auc_pr,
                      abs=1e-12)
    tau, eer = eer_threshold(curve)
    tau_t, eer_t = eer_threshold(curve_t)
    assert eer_t == pytest.approx(eer, abs=1e-12)
    assert tau_t == a * tau + b
    hp = hprs_threshold(scores, labels)
    hp_t = hprs_threshold(transformed, labels)
    assert hp_t == a * hp + b


def test_hprs_precision_no_lower_than_eer_on_monotone_fixture():
    # overlapping gaussians: raising the threshold trades recall for
    # precision monotonically, the regime the ordering claim refers to
    rng = np.random.default_rng(97)
    n = 4000
    labels = rng.integers(0, 2, size=n)
    scores = rng.normal(labels * 1.5, 1.0)
    curve = roc_curve(scores, labels)
    tau_eer, _ = eer_threshold(curve)
    tau_hprs = hprs_threshold(scores, labels, beta=0.5)
    assert tau_hprs > tau_eer
    n_pos = int(labels.sum())
    p_eer = prf(*sweep_counts(scores, labels, tau_eer), n_pos).precision
    p_hprs = prf(*sweep_counts(scores, labels, tau_hprs), n_pos).precision
    assert p_hprs >= p_eer


# ---------------------------------------------------------------------------
# compute_frame_metrics: one sort, bit-identical to the public functions and
# the oracles


def composed_frame_metrics(scores, labels, beta) -> FrameMetrics:
    """FrameMetrics from the public functions, with AUC-PR and the F1s from
    the oracles."""
    curve = roc_curve(scores, labels)
    tau_eer, eer = eer_threshold(curve)
    tau_hprs = hprs_threshold(scores, labels, beta)
    n_pos = int(np.count_nonzero(labels))
    return FrameMetrics(
        auc_roc=auc_roc(curve),
        auc_pr=min(1.0, sweep_auc_pr(scores, labels)),
        eer=eer,
        # a -inf tau binarizes like the lowest score, which reports keep
        tau_eer=tau_eer if tau_eer > -math.inf else float(np.min(scores)),
        tau_hprs=tau_hprs,
        f1_at_tau_eer=prf(*sweep_counts(scores, labels, tau_eer), n_pos).f1,
        f1_at_tau_hprs=prf(*sweep_counts(scores, labels, tau_hprs),
                           n_pos).f1,
    )


def loop_auc_roc(scores, labels) -> float:
    """Trapezoid summed left to right over ascending fpr, in a Python loop."""
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    counts = [sweep_counts(scores, labels, tau)
              for tau in reversed(sweep_candidates(scores))]
    area = 0.0
    for (tp_a, fp_a), (tp_b, fp_b) in zip(counts, counts[1:]):
        area += ((fp_b / n_neg - fp_a / n_neg)
                 * (tp_b / n_pos + tp_a / n_pos) / 2.0)
    return min(1.0, max(0.0, area))


def frame_metrics_of(scores, labels, beta, n_videos):
    """compute_frame_metrics over the frames split into n_videos clips."""
    parts = np.array_split(np.arange(len(scores)), min(n_videos,
                                                       len(scores)))
    videos = [(ScoreSequence(f"v{k}", np.asarray(scores)[p]),
               FrameMask(f"v{k}", np.asarray(labels)[p]))
              for k, p in enumerate(parts)]
    return compute_frame_metrics(videos, EvalConfig(hprs_beta=beta))


def exactness_fixtures():
    rng = np.random.default_rng(2026)
    for _ in range(60):
        yield random_fixture(rng)  # scores rounded to 2 decimals: many ties
    yield np.full(50, 0.37), np.r_[np.ones(10, int), np.zeros(40, int)]
    single = np.zeros(40, int)
    single[17] = 1
    yield rng.normal(size=40), single


def test_compute_frame_metrics_equals_public_functions_bit_for_bit():
    for k, (scores, labels) in enumerate(exactness_fixtures()):
        for beta in (0.5, 1.0):
            got = frame_metrics_of(scores, labels, beta, n_videos=1 + k % 7)
            assert got == composed_frame_metrics(scores, labels, beta)
            assert got.auc_roc == loop_auc_roc(scores, labels)
            assert got.auc_pr == min(1.0, sweep_auc_pr(scores, labels))
            assert got.eer == sweep_eer(scores, labels)[1]
            assert got.tau_hprs == sweep_fbeta(scores, labels, beta)


def test_constant_scores_report_the_score_as_tau_eer():
    scores, labels = np.full(50, 0.37), np.r_[np.ones(10, int),
                                              np.zeros(40, int)]
    assert eer_threshold(roc_curve(scores, labels))[0] == -math.inf
    got = frame_metrics_of(scores, labels, 0.5, n_videos=3)
    assert got.tau_eer == 0.37
    assert got.f1_at_tau_eer == prf(*sweep_counts(scores, labels, -math.inf),
                                    10).f1


def tied_fixture(kind: str, n: int = 10_000):
    rng = np.random.default_rng(20260)
    labels = (rng.random(n) < 0.3).astype(int)
    if kind == "2 decimals":
        scores = np.round(np.clip(rng.normal(0.4 + 0.2 * labels, 0.2),
                                  0.0, 1.0), 2)
    else:  # that many distinct scores, positives drawn from higher ones
        k = int(kind)
        levels = np.linspace(0.1, 0.9, k)
        scores = levels[np.minimum(rng.integers(0, k, n) + labels, k - 1)]
    return scores, labels


@pytest.mark.parametrize("kind", ["1", "2", "5", "2 decimals"])
def test_compute_frame_metrics_with_long_tied_runs(kind):
    # at this size numpy's sorts leave insertion sort behind, and tied runs
    # span several candidate blocks
    scores, labels = tied_fixture(kind)
    if kind != "2 decimals":
        assert len(np.unique(scores)) == int(kind)
    want_auc = loop_auc_roc(scores, labels)
    want_pr = min(1.0, sweep_auc_pr(scores, labels))
    want_eer = sweep_eer(scores, labels)[1]
    for positives_first in (False, True):
        # within each run of equal scores, all negatives first or all
        # positives first
        order = np.lexsort((-labels if positives_first else labels, scores))
        s, y = scores[order], labels[order]
        for beta in (0.5, 1.0, 2.0):
            got = frame_metrics_of(s, y, beta, n_videos=7)
            assert got == composed_frame_metrics(s, y, beta)
            assert (got.auc_roc, got.auc_pr, got.eer) == (want_auc, want_pr,
                                                         want_eer)
            want_hprs = sweep_fbeta(scores, labels, beta)
            assert got.tau_hprs == hprs_threshold(s, y, beta) == want_hprs


def far_apart_tie(scores):
    """frame_metrics over 10,000 frames whose labels, from the top, are
    2,000 positives, 4,000 negatives, 2,000 positives and 2,000 negatives.

    F1 peaks twice with the same bits, 6,000 frames apart, in different
    candidate blocks: at (tp, fp) = (2000, 0), precision 1 and recall 0.5,
    and at (4000, 4000), precision 0.5 and recall 1. The higher threshold,
    scores[1999], must win, also in hprs_threshold.
    """
    y = np.r_[np.ones(2000), np.zeros(4000), np.ones(2000),
              np.zeros(2000)].astype(int)
    got = frame_metrics_of(scores, y, 1.0, n_videos=3)
    assert got.tau_hprs == hprs_threshold(scores, y, 1.0) == scores[1999]
    assert got.f1_at_tau_hprs == prf(2000, 0, 4000).f1
    return got, y


def test_hprs_tie_far_apart_picks_the_higher_threshold():
    # all scores distinct; the oracles, one pass over the frames per
    # candidate, would take seconds here
    scores = np.linspace(1.0, 0.0, 10_000)
    got, y = far_apart_tie(scores)
    curve = roc_curve(scores, y)
    assert (got.tau_eer, got.eer) == eer_threshold(curve)
    assert got.auc_roc == auc_roc(curve)


def test_hprs_tie_far_apart_in_tied_runs_matches_the_oracles():
    # the negatives in two runs, so that the lowest candidate of the top
    # block, which the next block shares, is not the peak
    scores = np.repeat([0.9, 0.75, 0.7, 0.5, 0.3], 2000)
    got, y = far_apart_tie(scores)
    assert got.tau_hprs == sweep_fbeta(scores, y, 1.0)
    assert got == composed_frame_metrics(scores, y, 1.0)


def test_compute_frame_metrics_memory_per_frame():
    # every score distinct: one candidate per frame, the worst case
    n = 120_000
    rng = np.random.default_rng(7)
    scores = rng.permutation(n) / n
    labels = (rng.random(n) < 0.4).astype(np.uint8)
    parts = np.array_split(np.arange(n), 12)
    videos = [(ScoreSequence(f"v{k}", scores[p]),
               FrameMask(f"v{k}", labels[p])) for k, p in enumerate(parts)]
    cfg = EvalConfig()
    want = compute_frame_metrics(videos, cfg)
    tracemalloc.start()
    try:
        got = compute_frame_metrics(videos, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 40 * n, f"{peak / n:.1f} bytes per frame"


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(st.integers(-40, 40), st.booleans()),
                     max_size=120),
       pos=st.integers(-40, 40), neg=st.integers(-40, 40),
       beta=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       scale=st.sampled_from([0.5, 2.0, 4.0]), shift=st.integers(-8, 8),
       n_videos=st.integers(1, 5))
def test_frame_metrics_property(rows, pos, neg, beta, scale, shift,
                                n_videos):
    rows = rows + [(pos, True), (neg, False)]
    # quarter-integers: the affine map below is exact, so it keeps every tie
    scores = np.array([v / 4 for v, _ in rows])
    labels = np.array([int(y) for _, y in rows])
    got = frame_metrics_of(scores, labels, beta, n_videos)
    assert got == composed_frame_metrics(scores, labels, beta)

    moved = frame_metrics_of(scale * scores + shift, labels, beta, n_videos)
    assert (moved.auc_roc, moved.auc_pr, moved.eer, moved.f1_at_tau_eer,
            moved.f1_at_tau_hprs) == (got.auc_roc, got.auc_pr, got.eer,
                                      got.f1_at_tau_eer, got.f1_at_tau_hprs)
    assert moved.tau_eer == scale * got.tau_eer + shift
    assert moved.tau_hprs == scale * got.tau_hprs + shift
