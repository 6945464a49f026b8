"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The dataset-gated criterion skips unless
EVENT_EVAL_SHT_MASKS points at a directory of mask CSVs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from event_eval import (
    EvalConfig,
    FrameMask,
    ScoreSequence,
    audit_dataset,
    auc_roc,
    build_kernel,
    eer_threshold,
    events_to_mask,
    hprs_threshold,
    majority_vote_refine,
    mask_to_events,
    match_events,
    roc_curve,
    smooth_once,
)
from event_eval.fusion import BranchErrors, align_center, fuse_frames, pool_event_score
from event_eval.io import compute_frame_metrics, event_metrics_at
from event_eval.synthetic import make_dataset, write_dataset

from oracles import (
    broadcast_operating_points,
    brute_majority_vote,
    middle_third,
    naive_smooth,
    optimal_assignment,
    pair_count_auc,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} {name}: PASS")


def random_labeled_scores(rng, n_max):
    n = int(rng.integers(10, n_max + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    scores = rng.normal(labels * rng.uniform(0.0, 2.0), 1.0)
    if rng.random() < 0.5:
        scores = np.round(scores, int(rng.integers(1, 3)))  # force ties
    return scores, labels


def test_criterion_1_metric_oracles():
    with criterion(1, "AUC trapezoid vs pair counting; taus vs sweep"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            scores, labels = random_labeled_scores(rng, 500)
            curve = roc_curve(scores, labels)
            assert auc_roc(curve) == pytest.approx(
                pair_count_auc(scores, labels), abs=1e-9)
            beta = float(rng.choice([0.5, 1.0]))
            want_eer_tau, want_eer, want_hprs_tau = \
                broadcast_operating_points(scores, labels, beta)
            got_tau, got_eer = eer_threshold(curve)
            assert got_tau == want_eer_tau
            assert got_eer == want_eer
            assert hprs_threshold(scores, labels, beta) == want_hprs_tau
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_smoothing_oracle():
    with criterion(2, "smooth_once vs naive convolution"):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            n = int(rng.integers(1, 160))
            sigma = float(rng.uniform(0.4, 4.0))
            radius = int(rng.integers(1, 13))
            values = tuple(rng.uniform(-10.0, 10.0, size=n))
            kernel = build_kernel(sigma, radius)
            got = smooth_once(ScoreSequence("v", values), kernel).scores
            want = naive_smooth(values, kernel.weights)
            assert got == pytest.approx(want, abs=1e-12)
        constant = ScoreSequence("v", (0.37,) * 50)
        out = smooth_once(constant, build_kernel(2.0, 6))
        assert out.scores == constant.scores  # exact fixed point
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_round_trip_law():
    with criterion(3, "events_to_mask . mask_to_events = id"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        for _ in range(10_000):
            n = int(rng.integers(1, 2001))
            density = rng.uniform(0.02, 0.98)
            labels = (rng.random(n) < density).astype(int)
            mask = FrameMask("v", labels)
            assert events_to_mask(mask_to_events(mask), n) == mask
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_majority_vote_oracle():
    with criterion(4, "majority vote vs brute-force windows"):
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            window = int(rng.integers(1, 33))
            stride = int(rng.integers(1, window + 1))
            n = int(rng.integers(window, 256))
            labels = tuple(int(v) for v in rng.integers(0, 2, size=n))
            got = majority_vote_refine(FrameMask("v", labels), window,
                                       stride)
            assert list(got.labels) == brute_majority_vote(labels, window,
                                                           stride)


def test_criterion_5_matching_oracle():
    with criterion(5, "greedy matching vs exhaustive assignment"):
        rng = np.random.default_rng(1005)

        def random_events(vid):
            while True:
                n = int(rng.integers(20, 120))
                labels = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(int)
                es = mask_to_events(FrameMask(vid, tuple(labels)))
                if 0 < len(es.events) <= 6:
                    return es

        divergences = []
        for k in range(500):
            gt = random_events("g")
            pred = random_events("p")
            threshold = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
            res = match_events(gt, pred, threshold)
            greedy = (len(res.pairs), sum(t for *_, t in res.pairs))
            optimal = optimal_assignment(
                [(e.start, e.end) for e in gt],
                [(e.start, e.end) for e in pred], threshold)
            assert greedy[0] <= optimal[0]  # greedy can never beat optimal
            if greedy[0] != optimal[0] or abs(greedy[1] - optimal[1]) > 1e-12:
                divergences.append(k)
        # no divergence on this corpus; the constructed case below documents
        # that greedy is not optimal in general and must stay divergent
        assert divergences == []
        from event_eval import EventSet, TemporalEvent
        gt = EventSet("v", (TemporalEvent(0, 99), TemporalEvent(101, 200)))
        pred = EventSet("v", (TemporalEvent(0, 19), TemporalEvent(21, 120)))
        res = match_events(gt, pred, 0.1)
        best = optimal_assignment([(0, 99), (101, 200)],
                                  [(0, 19), (21, 120)], 0.1)
        assert len(res.pairs) == 1 and best[0] == 2


def test_criterion_6_fusion_algebra():
    with criterion(6, "pool(fuse) linearity and center alignment"):
        rng = np.random.default_rng(1006)
        for _ in range(1000):
            i = int(rng.integers(1, 64))
            short = rng.uniform(0.0, 3.0, size=i)
            long = rng.uniform(0.0, 3.0, size=3 * i)
            window = BranchErrors(short=tuple(short), long=tuple(long),
                                  window_len=i,
                                  target_start=int(rng.integers(0, 100)))
            aligned = align_center(window.long, i)
            assert aligned == middle_third(window.long, i)
            pooled = pool_event_score(fuse_frames(window.short, aligned))
            want = (float(np.mean(window.short))
                    + float(np.mean(aligned))) / 2.0
            assert pooled == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def fragmented_fixture():
    return make_dataset(n_videos=20, seed=7)


def test_criterion_7_refined_beats_baseline(fragmented_fixture):
    with criterion(7, "refinement lifts event F1 over baseline"):
        start = time.perf_counter()
        scores, masks = fragmented_fixture
        durations = [e.duration for m in masks
                     for e in mask_to_events(m).events]
        assert min(durations) >= 60 and max(durations) <= 300
        videos = list(zip(scores, masks))
        cfg = EvalConfig()
        frame = compute_frame_metrics(videos, cfg)
        refined = event_metrics_at(videos, frame.tau_eer, cfg, "refined")
        baseline = event_metrics_at(videos, frame.tau_eer, cfg, "baseline")
        assert refined.average_f1 - baseline.average_f1 >= 0.05
        # deterministic under the fixed seed
        scores2, masks2 = make_dataset(n_videos=20, seed=7)
        assert [s.scores for s in scores2] == [s.scores for s in scores]
        videos2 = list(zip(scores2, masks2))
        frame2 = compute_frame_metrics(videos2, cfg)
        refined2 = event_metrics_at(videos2, frame2.tau_eer, cfg, "refined")
        assert refined2 == refined
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_frame_event_gap(fragmented_fixture):
    with criterion(8, "high AUC-ROC coexists with collapsed event F1"):
        scores, masks = fragmented_fixture
        videos = list(zip(scores, masks))
        cfg = EvalConfig()
        frame = compute_frame_metrics(videos, cfg)
        assert frame.auc_roc >= 0.9  # frames rank well...
        baseline = event_metrics_at(videos, frame.tau_eer, cfg, "baseline")
        assert baseline.per_tiou[0.5].f1 < 0.3  # ...events do not


SHT_DIR = os.environ.get("EVENT_EVAL_SHT_MASKS", "")


@pytest.mark.skipif(not SHT_DIR, reason="EVENT_EVAL_SHT_MASKS not set; "
                                        "dataset-gated check skipped")
def test_criterion_9_sht_audit_numbers():
    with criterion(9, "SHT audit matches published statistics"):
        from event_eval import load_mask
        paths = sorted(Path(SHT_DIR).glob("*.csv"))
        assert paths, f"no mask CSVs under {SHT_DIR}"
        masks = [load_mask(p) for p in paths]
        report = audit_dataset(masks, micro_threshold=8)
        assert report.event_count == 121
        assert report.normal_frames == 24_077
        assert report.anomalous_frames == 16_714
        assert report.avg_duration_frames == pytest.approx(138.13, abs=0.01)


def test_criterion_10_cli_determinism(fragmented_fixture, tmp_path):
    with criterion(10, "byte-identical reports across runs"):
        scores, masks = fragmented_fixture
        manifest = write_dataset(tmp_path / "data", scores, masks)
        outputs = []
        for k in range(5):
            out = tmp_path / f"report_{k}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "event_eval",
                 "--out", str(out), "evaluate", str(manifest)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs[1:])
        report = json.loads(outputs[0])
        assert report["tool_version"]
        assert report["mode"] == "refined"
