"""Every report-writing subcommand, in every format, against committed bytes.

The fixture is a small seeded ``make_dataset`` with a non-default config (a
10-digit ``hprs_beta`` and two tIoU thresholds), so the goldens pin the
number formats of each output as well as its layout. Seeded branch-error
files feed ``fuse``: v000 has overlapping, adjacent and repeated windows,
v001 is not canonical (a comment, a blank line, CRLF line ends and two
window lengths), and v002 has adjacent windows. To rewrite the
goldens after an intended output change, run ``python tests/test_golden.py``
and review the diff.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from event_eval.cli import main
from event_eval.synthetic import make_dataset, write_dataset

GOLDEN = Path(__file__).parent / "golden"
CONFIG = {"hprs_beta": 0.3333333333, "tiou_thresholds": [0.1, 0.7]}
FORMATS = ("json", "csv", "markdown")
OUTPUTS = (
    ["refine-refined.json", "refine-baseline.json"]
    + [f"{name}.{fmt}" for name in ("audit", "frame-metrics",
                                    "event-metrics", "evaluate-refined",
                                    "evaluate-baseline")
       for fmt in FORMATS]
    + ["fuse.json"]
)
FUSE_TAU = "0.5"


def branch_lines(rng: np.random.Generator, labels: np.ndarray,
                 windows: list[tuple[int, int]]) -> list[str]:
    """One record per (target_start, window_len): errors near 0.75 on
    anomalous frames and near 0.3 elsewhere, so windows that straddle an
    event edge score close to FUSE_TAU."""
    pad = 24  # the long branch reaches 2i <= 24 frames past the window
    level = np.pad(0.3 + 0.45 * labels, pad, constant_values=0.3)
    lines = []
    for start, i in windows:
        at = pad + start
        short = np.abs(level[at:at + i] + rng.normal(0, 0.1, i))
        long = np.abs(level[at - i:at + 2 * i] + rng.normal(0, 0.1, 3 * i))
        values = " ".join(map(repr, short.tolist() + long.tolist()))
        lines.append(f"{start} {i} {values}")
    return lines


def write_branch_errors(manifest: Path, masks) -> None:
    """Write one branch-error file per video and name it in the manifest."""
    rng = np.random.default_rng(11)
    text = manifest.read_text(encoding="utf-8")
    (manifest.parent / "branch").mkdir(exist_ok=True)
    for k, mask in enumerate(masks):
        labels = np.asarray(mask.labels, dtype=float)
        n, vid = labels.size, mask.video_id
        if k == 0:
            windows = [(s, 8) for s in range(0, n - 7, 4)]
            windows += windows[::7]  # windows that coincide
            eol, head = "\n", []
        elif k == 1:
            windows = [(s, 8 if s % 20 else 12) for s in range(0, n - 11, 10)]
            eol, head = "\r\n", [f"# branch errors of {vid}", ""]
        else:
            windows = [(s, 8) for s in range(0, n - 7, 8)]
            eol, head = "\n", []
        body = eol.join(head + branch_lines(rng, labels, windows)) + eol
        (manifest.parent / "branch" / f"{vid}.txt").write_bytes(body.encode())
        text = text.replace(f"mask: masks/{vid}.csv\n",
                            f"mask: masks/{vid}.csv\n"
                            f"branch_errors: branch/{vid}.txt\n")
    manifest.write_text(text, encoding="utf-8")


def write_outputs(data_dir: Path, out_dir: Path) -> None:
    """Run each subcommand on the fixture; one file per output."""
    scores, masks = make_dataset(n_videos=3, seed=7)
    manifest_path = write_dataset(data_dir, scores, masks)
    write_branch_errors(manifest_path, masks)
    manifest = str(manifest_path)
    config = data_dir / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    out_dir.mkdir(parents=True, exist_ok=True)

    def run(name: str, *argv: str) -> None:
        code = main(["--config", str(config), "--out", str(out_dir / name),
                     *argv])
        assert code == 0, name

    for mode in ("refined", "baseline"):
        run(f"refine-{mode}.json", "refine", manifest, "--mode", mode)
    pred = str(out_dir / "refine-refined.json")
    for fmt in FORMATS:
        run(f"audit.{fmt}", "--format", fmt, "audit", manifest)
        run(f"frame-metrics.{fmt}", "--format", fmt, "frame-metrics",
            manifest)
        run(f"event-metrics.{fmt}", "--format", fmt, "event-metrics",
            manifest, "--pred", pred)
        for mode in ("refined", "baseline"):
            run(f"evaluate-{mode}.{fmt}", "--format", fmt, "evaluate",
                manifest, "--mode", mode)
    run("fuse.json", "fuse", manifest, "--tau", FUSE_TAU)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    write_outputs(root / "data", root / "out")
    return root / "out"


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_match_golden_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp), GOLDEN)
