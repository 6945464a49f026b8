"""Seeded workload inputs, written as the files event-eval reads.

Within a clip, frames follow the distribution of
``event_eval.synthetic.make_video`` (planted events, dips inside them, rare
spikes outside), reimplemented here with numpy so that a change to the
package's own generator cannot change a workload.
Every file is written from in-memory arrays whose values survive the text
round trip exactly (``repr`` of a float parses back to the same float), so
the expected results in ``Fixture`` describe precisely what the program reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FUSE_TAU = 0.5
FUSE_WINDOW = 16          # target window length i; the long branch has 3i
FUSE_STEP = 32            # one target window every FUSE_STEP frames
FUSE_MARGIN = 1e-6        # every window score stays this far from FUSE_TAU


@dataclass(frozen=True)
class Shape:
    clips: int
    min_len: int
    max_len: int


# Both shapes hold ~125k frames. The refined, baseline and fuse workloads
# share the short-clip shape; the long-clip shape has 25x fewer clips.
SHORT_CLIPS = Shape(clips=100, min_len=900, max_len=1600)
LONG_CLIPS = Shape(clips=4, min_len=28_000, max_len=34_000)


@dataclass
class Fixture:
    """The files of one workload and what a correct program reports on them."""

    manifest: Path
    frames: int
    clips: int
    gt_events: int
    digest: str
    scores: np.ndarray            # concatenated, in manifest order
    labels: np.ndarray            # concatenated, in manifest order
    durations: np.ndarray         # every ground-truth event's length
    fuse_events: dict[str, list[list[int]]] | None = None
    windows: int = 0
    nudged_windows: int = 0


def make_clip(rng: np.random.Generator, n: int,
              event_min: int = 60, event_max: int = 300,
              dip_prob: float = 0.15, spike_prob: float = 0.003,
              ) -> tuple[np.ndarray, np.ndarray]:
    """One clip of n frames: normal noise, planted events with dips, rare
    spikes."""
    labels = np.zeros(n, dtype=np.int64)
    t = int(rng.integers(40, 200))
    while t + event_min < n - 40:
        dur = int(rng.integers(event_min, event_max + 1))
        end = min(t + dur - 1, n - 41)
        if end - t + 1 >= event_min:
            labels[t:end + 1] = 1
        t = end + 1 + int(rng.integers(80, 400))
    scores = rng.normal(0.25, 0.04, size=n)
    spikes = (labels == 0) & (rng.random(n) < spike_prob)
    scores[spikes] = rng.normal(0.80, 0.05, size=int(spikes.sum()))
    high = (labels == 1) & (rng.random(n) >= dip_prob)
    scores[high] = rng.normal(0.88, 0.03, size=int(high.sum()))
    return scores, labels


def clip_lengths(rng: np.random.Generator, shape: Shape,
                 clips: int) -> list[int]:
    """Lengths spread evenly over [min_len, max_len], in seeded order.

    make_video draws each length independently; a stratified grid keeps the
    same range but gives every seed the same total frame count, so the
    amount of work does not vary from seed to seed.
    """
    step = (shape.max_len - shape.min_len) / clips
    grid = [shape.min_len + int((k + 0.5) * step) for k in range(clips)]
    return [grid[k] for k in rng.permutation(clips)]


def runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and inclusive ends of the maximal runs of 1s."""
    delta = np.diff(np.concatenate([[0], labels, [0]]))
    return np.flatnonzero(delta == 1), np.flatnonzero(delta == -1) - 1


def branch_errors(rng: np.random.Generator, labels: np.ndarray,
                  ) -> tuple[list[str], list[list[int]], int]:
    """Window records for one clip, its expected events and the nudge count.

    Errors are high on anomalous frames and low elsewhere, so windows that
    straddle an event boundary score near the threshold. A window scoring
    within FUSE_MARGIN of FUSE_TAU is raised clear of it, which makes the
    expected events independent of the order the program sums in.
    """
    n, i = labels.size, FUSE_WINDOW
    level = np.where(labels == 1, 0.75, 0.3)
    short_all = np.abs(level + rng.normal(0.0, 0.1, size=n))
    padded = np.concatenate([np.full(i, 0.3), level, np.full(2 * i, 0.3)])
    long_all = np.abs(padded + rng.normal(0.0, 0.1, size=padded.size))
    lines, hits, nudged = [], [], 0
    for start in range(0, n - i + 1, FUSE_STEP):
        short = short_all[start:start + i]
        long = long_all[start:start + 3 * i]   # frames start-i .. start+2i-1
        score = float(np.mean((short + long[i:2 * i]) / 2.0))
        if abs(score - FUSE_TAU) < FUSE_MARGIN:
            short = short + 4 * FUSE_MARGIN
            score = float(np.mean((short + long[i:2 * i]) / 2.0))
            nudged += 1
        values = " ".join(map(repr, short.tolist() + long.tolist()))
        lines.append(f"{start} {i} {values}\n")
        if score >= FUSE_TAU:
            hits.append(start)
    mask = np.zeros(n, dtype=np.int64)
    for start in hits:
        mask[start:start + i] = 1
    starts, ends = runs(mask)
    return lines, [[int(s), int(e)] for s, e in zip(starts, ends)], nudged


def build(out_dir: Path, shape: Shape, seed: int, fuse: bool = False,
          scale: float = 1.0) -> Fixture:
    """Write one workload's manifest and per-clip files under out_dir.

    scale shrinks the clip count (for quick self-tests); it keeps the clip
    lengths, so per-clip behaviour is the same as at full size.
    """
    clips = max(1, round(shape.clips * scale))
    rng = np.random.default_rng(seed)
    err_rng = np.random.default_rng([seed, 1])
    digest = hashlib.sha256()

    def write(rel: str, text: str) -> None:
        path = out_dir / rel
        data = text.encode()
        path.write_bytes(data)
        digest.update(rel.encode() + b"\0" + data)

    for sub in ("scores", "masks") + (("branch",) if fuse else ()):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    manifest = ["dataset: bench", ""]
    all_scores, all_labels, durations = [], [], []
    fuse_events: dict[str, list[list[int]]] = {}
    windows = nudged = 0
    for k, n in enumerate(clip_lengths(rng, shape, clips)):
        vid = f"v{k:03d}"
        scores, labels = make_clip(rng, n)
        write(f"scores/{vid}.csv", "frame,score\n" + "".join(
            f"{t},{v!r}\n" for t, v in enumerate(scores.tolist())))
        write(f"masks/{vid}.csv", "frame,label\n" + "".join(
            f"{t},{v}\n" for t, v in enumerate(labels.tolist())))
        manifest += [f"video: {vid}", f"scores: scores/{vid}.csv",
                     f"mask: masks/{vid}.csv"]
        if fuse:
            lines, events, n_nudged = branch_errors(err_rng, labels)
            write(f"branch/{vid}.txt", "".join(lines))
            manifest.append(f"branch_errors: branch/{vid}.txt")
            fuse_events[vid] = events
            windows += len(lines)
            nudged += n_nudged
        manifest.append("")
        starts, ends = runs(labels)
        durations.append(ends - starts + 1)
        all_scores.append(scores)
        all_labels.append(labels)
    write("manifest.txt", "\n".join(manifest))
    durations_all = np.concatenate(durations)
    labels_all = np.concatenate(all_labels)
    return Fixture(
        manifest=out_dir / "manifest.txt",
        frames=int(labels_all.size),
        clips=clips,
        gt_events=int(durations_all.size),
        digest=digest.hexdigest(),
        scores=np.concatenate(all_scores),
        labels=labels_all,
        durations=durations_all,
        fuse_events=fuse_events if fuse else None,
        windows=windows,
        nudged_windows=nudged,
    )
