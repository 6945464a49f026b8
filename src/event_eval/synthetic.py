"""Seeded synthetic fixtures: planted events with fragmenting score noise.

The generated videos have well-separated score distributions overall (high
AUC-ROC) but anomalous stretches are peppered with dips back to the normal
score level, so raw binarization at any balanced threshold shatters each
event into short fragments and sprays false positives over normal stretches.
This is the regime the refinement pipeline exists for, which makes the
fixture a good end-to-end probe: baseline event F1 collapses, refined F1
does not.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .core import FrameMask, ScoreSequence


def make_video(rng: np.random.Generator,
               video_id: str) -> tuple[ScoreSequence, FrameMask]:
    """One video of 900-1,600 frames: normal noise, planted events of
    60-300 frames with dips in 15% of their frames, and spikes in 0.3% of
    the normal frames."""
    n = int(rng.integers(900, 1601))
    labels = np.zeros(n, dtype=int)
    t = int(rng.integers(40, 200))
    while t + 60 < n - 40:
        dur = int(rng.integers(60, 301))
        end = min(t + dur - 1, n - 41)
        if end - t + 1 >= 60:
            labels[t:end + 1] = 1
        t = end + 1 + int(rng.integers(80, 400))
    scores = rng.normal(0.25, 0.04, size=n)
    spikes = (labels == 0) & (rng.random(n) < 0.003)
    scores[spikes] = rng.normal(0.80, 0.05, size=int(spikes.sum()))
    inside = labels == 1
    high = inside & (rng.random(n) >= 0.15)
    scores[high] = rng.normal(0.88, 0.03, size=int(high.sum()))
    return (ScoreSequence(video_id=video_id, scores=scores),
            FrameMask(video_id=video_id, labels=labels))


def make_dataset(n_videos: int = 20, seed: int = 7
                 ) -> tuple[list[ScoreSequence], list[FrameMask]]:
    """n_videos independent videos from one seeded generator."""
    rng = np.random.default_rng(seed)
    videos = [make_video(rng, f"v{k:03d}") for k in range(n_videos)]
    return [s for s, _ in videos], [m for _, m in videos]


def write_dataset(out_dir: str | Path, scores: list[ScoreSequence],
                  masks: list[FrameMask]) -> Path:
    """Write scores/masks CSVs plus a manifest of the dataset 'synthetic';
    returns the manifest path."""
    out = Path(out_dir)
    (out / "scores").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    lines = ["dataset: synthetic", ""]
    for seq, mask in zip(scores, masks):
        vid = seq.video_id
        for kind, path, values in (
                ("score", f"scores/{vid}.csv", map(repr, seq.scores)),
                ("label", f"masks/{vid}.csv", mask.labels)):
            rows = "".join(f"{i},{v}\n" for i, v in enumerate(values))
            (out / path).write_text(f"frame,{kind}\n{rows}", encoding="utf-8")
        lines += [f"video: {vid}",
                  f"scores: scores/{vid}.csv",
                  f"mask: masks/{vid}.csv",
                  ""]
    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(lines), encoding="utf-8")
    return manifest_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write a synthetic fragmented-noise fixture "
                    "(manifest plus per-video score/mask CSVs).")
    parser.add_argument("out_dir", help="Directory to write the fixture to.")
    parser.add_argument("--videos", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    scores, masks = make_dataset(n_videos=args.videos, seed=args.seed)
    manifest = write_dataset(args.out_dir, scores, masks)
    print(manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
