"""Every report-writing subcommand, in every format, against committed bytes.

The fixture is a small seeded ``make_dataset`` with a non-default config (a
10-digit ``hprs_beta`` and two tIoU thresholds), so the goldens pin the
number formats of each output as well as its layout. To rewrite the
goldens after an intended output change, run ``python tests/test_golden.py``
and review the diff.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

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
)


def write_outputs(data_dir: Path, out_dir: Path) -> None:
    """Run each subcommand on the fixture; one file per output."""
    manifest = str(write_dataset(data_dir, *make_dataset(n_videos=3,
                                                         seed=7)))
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
