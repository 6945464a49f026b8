"""The whole pipeline against a chain of the independent oracles.

Each stage has its own oracle test elsewhere. Here the stages that
`evaluate` runs over all clips laid end to end (smoothing, the vote, run
extraction, the short-event filter, the split back into videos and the
pooled matching) are checked together, on ragged datasets, against the
oracles of `oracles.py` run clip by clip:

- `naive_smooth` for sigma = 1..sigma_max, each pass clipped to the range
  of its input clip, with the paper's Gaussian of radius ceil(3 sigma)
- `broadcast_operating_points` for both taus and `pair_count_auc`; when all
  scores are equal the oracle's tau_EER is -inf, which the library reports
  as the lowest observed score
- `brute_majority_vote` with the window clamped to each clip
- `runs_of_ones` and the short-event filter
- greedy matching at each tIoU threshold on its own, written below, pooled
  over videos

Every tau must match bit for bit, AUC-ROC and EER within 1e-9, and every
TP/FP/FN count exactly. The oracle sums the smoothing in another order
than the library, so an example is drawn again when a smoothed score of a
clip that is not constant lies within 1e-9 of a tau, where the two could
binarize it differently.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from event_eval.core import EvalConfig, FrameMask, ScoreSequence
from event_eval.io import (compute_frame_metrics, event_metrics_at,
                           load_manifest, run_evaluation)

from oracles import (
    broadcast_operating_points,
    brute_majority_vote,
    interval_tiou,
    naive_smooth,
    pair_count_auc,
    runs_of_ones,
)

MODES = ("refined", "baseline")


def gaussian(sigma: int) -> list[float]:
    """exp(-j^2 / (2 sigma^2)) for j = -r..r, r = ceil(3 sigma), unit mass."""
    r = math.ceil(3 * sigma)
    raw = [math.exp(-j * j / (2.0 * sigma * sigma)) for j in range(-r, r + 1)]
    return [v / sum(raw) for v in raw]


def smooth(clip: list[float], sigma_max: int) -> list[float]:
    for sigma in range(1, sigma_max + 1):
        lo, hi = min(clip), max(clip)
        clip = [min(max(v, lo), hi)
                for v in naive_smooth(clip, gaussian(sigma))]
    return clip


def greedy_tp(gt: list[tuple[int, int]], pred: list[tuple[int, int]],
              theta: float) -> int:
    """Pairs accepted by greedy matching over the pairs with tIoU >= theta,
    by descending tIoU, then gt index, then pred index."""
    pairs = sorted((-interval_tiou(g, p), i, j) for i, g in enumerate(gt)
                   for j, p in enumerate(pred) if interval_tiou(g, p) >= theta)
    used_gt, used_pred = set(), set()
    for _, i, j in pairs:
        if i not in used_gt and j not in used_pred:
            used_gt.add(i)
            used_pred.add(j)
    return len(used_gt)


def predicted_runs(clip: list[float], tau: float, cfg: EvalConfig,
                   mode: str) -> list[tuple[int, int]]:
    """The events of one clip at tau; clip is smoothed in refined mode."""
    binary = [int(v >= tau) for v in clip]
    if mode == "baseline":
        return runs_of_ones(binary)
    window = min(cfg.vote_window, len(clip))
    voted = brute_majority_vote(binary, window, min(cfg.vote_stride, window))
    return [(a, b) for a, b in runs_of_ones(voted)
            if b - a + 1 >= cfg.min_event_len]


def counts(gt: list[list[tuple[int, int]]], pred: list[list[tuple[int, int]]],
           theta: float) -> tuple[int, int, int]:
    """(tp, fp, fn) pooled over the clips."""
    tp = sum(greedy_tp(g, p, theta) for g, p in zip(gt, pred))
    return tp, sum(map(len, pred)) - tp, sum(map(len, gt)) - tp


def assert_counts(metrics, want: dict[float, tuple[int, int, int]]) -> None:
    got = {theta: (e.tp, e.fp, e.fn) for theta, e in metrics.per_tiou.items()}
    assert got == want


def write_dataset(root: Path, clips: list[tuple[list[float], list[int]]]
                  ) -> Path:
    """One scores and one mask CSV per clip, video ids v0, v1, ... in clip
    order, and their manifest; repr keeps every score's bits."""
    lines = ["dataset: oracle"]
    for c, (scores, labels) in enumerate(clips):
        (root / f"v{c}_s.csv").write_text("frame,score\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(scores)))
        (root / f"v{c}_m.csv").write_text("frame,label\n" + "".join(
            f"{i},{y}\n" for i, y in enumerate(labels)))
        lines += [f"video: v{c}", f"scores: v{c}_s.csv", f"mask: v{c}_m.csv"]
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    return root / "manifest.txt"


@st.composite
def clips(draw) -> list[tuple[list[float], list[int]]]:
    """1-5 clips of 1-40 frames; each score mixes its label with uniform
    noise and is rounded to 1, 2 or 6 decimals, so that ties occur."""
    decimals = draw(st.sampled_from([1, 2, 6]))
    signal = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    frames = st.tuples(st.integers(0, 1), st.floats(0.0, 1.0))
    out = []
    for clip in draw(st.lists(st.lists(frames, min_size=1, max_size=40),
                              min_size=1, max_size=5)):
        labels = [y for y, _ in clip]
        out.append(([round(signal * y + (1.0 - signal) * u, decimals)
                     for y, u in clip], labels))
    return out


@st.composite
def configs(draw) -> EvalConfig:
    window = draw(st.integers(1, 9))
    return EvalConfig(sigma_max=draw(st.integers(1, 3)), vote_window=window,
                      vote_stride=draw(st.integers(1, window)),
                      min_event_len=draw(st.integers(1, 4)),
                      hprs_beta=draw(st.sampled_from([0.5, 1.0, 2.0])))


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow,
                                                   HealthCheck.filter_too_much])
@given(data=clips(), cfg=configs())
def test_pipeline_matches_the_oracle_chain(data, cfg):
    scores = [v for s, _ in data for v in s]
    labels = [y for _, m in data for y in m]
    assume(0 < sum(labels) < len(labels))
    tau_eer, eer, tau_hprs = broadcast_operating_points(scores, labels,
                                                        cfg.hprs_beta)
    if tau_eer == -math.inf:   # all scores equal
        tau_eer = min(scores)
    taus = (tau_eer, tau_hprs)
    smoothed = [smooth(s, cfg.sigma_max) for s, _ in data]
    # a constant clip passes through both smoothings bit-exactly
    assume(all(abs(v - tau) > 1e-9 for (s, _), clip in zip(data, smoothed)
               if min(s) < max(s) for v in clip for tau in taus))
    gt = [runs_of_ones(m) for _, m in data]
    want = {(mode, tau): {theta: counts(gt, [
        predicted_runs(clip, tau, cfg, mode)
        for clip in (smoothed if mode == "refined" else [s for s, _ in data])
    ], theta) for theta in cfg.tiou_thresholds}
        for mode in MODES for tau in taus}

    def assert_frame(frame) -> None:
        assert (frame.tau_eer.hex(), frame.tau_hprs.hex()) == (
            tau_eer.hex(), tau_hprs.hex())
        assert abs(frame.auc_roc - pair_count_auc(scores, labels)) <= 1e-9
        assert abs(frame.eer - eer) <= 1e-9

    videos = [(ScoreSequence(f"v{c}", s), FrameMask(f"v{c}", m))
              for c, (s, m) in enumerate(data)]
    assert_frame(compute_frame_metrics(videos, cfg))
    for mode in MODES:
        for tau in taus:
            assert_counts(event_metrics_at(videos, tau, cfg, mode),
                          want[mode, tau])
    with tempfile.TemporaryDirectory() as root:
        manifest = load_manifest(write_dataset(Path(root), data))
        for mode in MODES:
            report = run_evaluation(manifest, cfg, mode)
            assert_frame(report.frame_metrics)
            assert_counts(report.event_metrics_eer, want[mode, tau_eer])
            assert_counts(report.event_metrics_hprs, want[mode, tau_hprs])
            assert report.audit.event_count == sum(map(len, gt))
            assert report.audit.anomalous_frames == sum(labels)
            assert report.audit.micro_event_count == sum(
                b - a + 1 < cfg.min_event_len for g in gt for a, b in g)
