"""A mutation gate for the tests: every one-line mutant of src/ in MUTANTS
must be killed by the tests listed for it.

Run it from anywhere, once the tier-1 tests pass:

    python tests/mutants.py

src/, tests/ and pyproject.toml are copied to a temporary directory once.
For each mutant its old text, which occurs exactly once in src/, is
replaced by its new text in the copy, and `python -m pytest -x` runs the
mutant's tests there; the file is then restored. A mutant is killed when a
test fails (pytest exit 1); any other exit, a pass included, is reported.
The script prints one line per mutant and exits 1 unless every mutant was
killed. It takes about two minutes on two cores.

The mutants are text substitutions (DeMillo, Lipton and Sayward, "Hints
on Test Data Selection", 1978), so no tool is needed. test_mutants.py
checks the table in tier-1; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300   # seconds for one mutant's tests


class Mutant(NamedTuple):
    name: str
    file: str   # relative to the repository root
    old: str    # one line's text, found exactly once in src/
    new: str
    tests: tuple[str, ...]   # pytest arguments: files or node ids


_CSV = "tests/test_csv_loaders.py"
_ESCAPES = ("tests/test_library_entries.py::test_a_mended_escape_is_a_"
            "validation_error")
MUTANTS = [
    # input files
    Mutant("decode-first check removed", "src/event_eval/io.py",
           'data.decode("utf-8")', "pass",
           (f"{_CSV}::test_a_bad_byte_is_reported_before_an_earlier_fault",
            f"{_CSV}::test_undecodable_bytes_are_parse_errors")),
    Mutant("byte-order mark kept", "src/event_eval/io.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"', (_CSV,)),
    Mutant("_read opens what is not a regular file", "src/event_eval/io.py",
           "if not path.is_file():", "if False:",
           ("tests/test_io_cli.py",)),
    Mutant("_fast_column always declines", "src/event_eval/io.py",
           'header = f"frame,{value_header}\\n".encode()', "return None",
           (f"{_CSV}::test_load_dataset_takes_vectorized_path",)),
    Mutant("bad byte's line counted by LF alone", "src/event_eval/io.py",
           "len(data[:exc.start + 1].splitlines())",
           'data.count(b"\\n", 0, exc.start) + 1',
           (f"{_CSV}::test_a_bad_byte_is_reported_at_the_line_the_parsers_"
            "count",)),
    Mutant("manifest's last record not checked for its keys",
           "src/event_eval/io.py", "_close_record(path, records)   # the last "
           "record", "pass",
           ("tests/test_io_cli.py::test_load_manifest_reports_the_first_of_"
            "two_faults",)),
    Mutant("scores '-0' read by orjson", "src/event_eval/io.py",
           'b",-0\\n" in lines', "False",
           (f"{_CSV}::test_scores_orjson_gate_bodies_give_the_line_parsers_"
            "result",)),
    Mutant("scores of any bytes read by orjson", "src/event_eval/io.py",
           '_NUMBER_BYTES = b"0123456789+-.eE"',
           '_NUMBER_BYTES = b"0123456789+-.eEtru"',
           (f"{_CSV}::test_scores_orjson_gate_bodies_give_the_line_parsers_"
            "result",)),
    Mutant("branch '-0' errors read by orjson", "src/event_eval/io.py",
           '(b" -0 " in lines or b" -0\\n" in lines)', "False",
           (f"{_CSV}::test_branch_orjson_gate_bodies_give_the_line_parsers_"
            "result",)),
    Mutant("branch starts and lengths not checked as JSON ints",
           "src/event_eval/io.py", "if heads.dtype != np.int64:", "if False:",
           (f"{_CSV}::test_branch_orjson_gate_bodies_give_the_line_parsers_"
            "result",)),
    Mutant("branch blocks of another window length read by orjson",
           "src/event_eval/io.py", "if len(widths) != 1:", "if not widths:",
           (f"{_CSV}::test_long_canonical_branch_files_take_the_vectorized_"
            "path",)),
    Mutant("branch rule fault loses its FILE:LINE prefix",
           "src/event_eval/errors.py", 'else f"{path}:{line}: {exc}",)',
           "else str(exc),)",
           ("tests/test_io_cli.py::test_located_errors_keep_type_message_"
            "and_attributes",)),
    # frame metrics
    Mutant("frame_metrics beta check removed", "src/event_eval/thresholds.py",
           "check_hprs_beta(beta)", "pass",
           ("tests/test_library_entries.py",)),
    Mutant("EER tie across blocks to the higher threshold",
           "src/event_eval/thresholds.py", "gap <= eer[0]", "gap < eer[0]",
           ("tests/test_thresholds.py",)),
    Mutant("HPRS tie across blocks to the lower threshold",
           "src/event_eval/thresholds.py", "fb > hprs[0]", "fb >= hprs[0]",
           ("tests/test_thresholds.py",)),
    # refinement and events
    Mutant("refined binarize strict", "src/event_eval/events.py",
           "clip_vote(smoothed >= tau", "clip_vote(smoothed > tau",
           ("tests/test_events.py", "tests/test_pipeline_oracle.py")),
    Mutant("baseline binarize strict", "src/event_eval/io.py",
           "data.scores >= tau", "data.scores > tau",
           ("tests/test_pipeline_oracle.py",)),
    Mutant("vote tie to normal", "src/event_eval/events.py",
           "votes >= n - votes", "votes > n - votes",
           ("tests/test_events.py",)),
    Mutant("short-event filter drops d_min", "src/event_eval/events.py",
           ">= d_min", "> d_min",
           ("tests/test_events.py", "tests/test_pipeline_oracle.py")),
    Mutant("clip_runs rise at a clip start lost", "src/event_eval/events.py",
           "rise[first] = labels[first]", "rise[first] = 0",
           ("tests/test_events.py", "tests/test_pipeline_oracle.py")),
    Mutant("clip_runs fall at a clip end lost", "src/event_eval/events.py",
           "fall[last] = labels[last]", "fall[last] = 0",
           ("tests/test_events.py", "tests/test_pipeline_oracle.py")),
    Mutant("micro event threshold inclusive", "src/event_eval/events.py",
           "durations < micro_threshold", "durations <= micro_threshold",
           ("tests/test_events.py",)),
    Mutant("audit micro_threshold of 0 accepted", "src/event_eval/events.py",
           'check_count("micro_threshold", micro_threshold)',
           'check_count("micro_threshold", micro_threshold, 0)',
           ("tests/test_events.py::test_events_rejections",)),
    Mutant("audit n_frames may end at the last event's end",
           "src/event_eval/events.py", "int(gt.ends.max(initial=0)) + 1)",
           "int(gt.ends.max(initial=0)))", (_ESCAPES,)),
    Mutant("Dataset.of iterates a value that is not iterable",
           "src/event_eval/core.py",
           "for pair in pairs if isinstance(pairs, Iterable) else (pairs,):",
           "for pair in pairs:", (_ESCAPES,)),
    Mutant("events_within accepts 0 frames", "src/event_eval/core.py",
           'check_count("n_frames", n_frames)',
           'check_count("n_frames", n_frames, 0)', (_ESCAPES,)),
    Mutant("Dataset.split puts an event at a video's first frame in the "
           "video before", "src/event_eval/core.py",
           "cut = np.searchsorted(events.starts, self.bounds)",
           'cut = np.searchsorted(events.starts, self.bounds, side="right")',
           ("tests/test_events.py::test_ragged_tail_equals_per_clip_"
            "functions",)),
    Mutant("smoothing reflect repeats the edge frame",
           "src/event_eval/smoothing.py",
           "off % np.maximum(2 * last, 1) - last)]",
           "off % np.maximum(2 * last + 1, 1) - last)]",
           ("tests/test_smoothing.py",)),
    Mutant("hprs_beta square not checked", "src/event_eval/core.py",
           "math.isfinite(float(beta) * float(beta))",
           "math.isfinite(float(beta))",
           (f"{_CSV}::test_cli_largest_accepted_hprs_beta_exits_0",)),
    # matching and fusion
    Mutant("matching floor strict", "src/event_eval/matching.py",
           "keep = t >= floor", "keep = t > floor",
           ("tests/test_matching.py",)),
    Mutant("fusion pool summed pairwise", "src/event_eval/fusion.py",
           "np.cumsum(fused, axis=-1)[..., -1]", "np.sum(fused, axis=-1)",
           ("tests/test_fusion.py::test_pool_event_score_sums_left_to_"
            "right",)),
    Mutant("fusion window hit strict", "src/event_eval/fusion.py",
           "hit = scores >= tau", "hit = scores > tau",
           ("tests/test_fusion.py",)),
    Mutant("fusion long branch's first third", "src/event_eval/fusion.py",
           "rows[:, 2 * i:3 * i]", "rows[:, i:2 * i]",
           ("tests/test_fusion.py::test_score_window_of_rows_matches_per_"
            "window_bits",)),
    Mutant("fusion touching windows kept apart", "src/event_eval/fusion.py",
           "new = starts > np.r_[-1, reach[:-1]]",
           "new = starts >= np.r_[-1, reach[:-1]]",
           ("tests/test_fusion.py",)),
    # config boundaries
    Mutant("count rule rejects its least", "src/event_eval/core.py",
           "value >= least", "value > least",
           ("tests/test_fusion.py::test_align_center_examples",
            "tests/test_fusion.py::test_branch_errors_validation")),
    Mutant("sigma_max of MAX_SIGMA rejected", "src/event_eval/core.py",
           "if self.sigma_max > MAX_SIGMA:", "if self.sigma_max >= MAX_SIGMA:",
           ("tests/test_core.py",)),
    Mutant("vote_stride equal to vote_window rejected",
           "src/event_eval/core.py",
           "if self.vote_stride > self.vote_window:",
           "if self.vote_stride >= self.vote_window:",
           ("tests/test_core.py",)),
    Mutant("tIoU of 1 rejected", "src/event_eval/core.py",
           "0.0 < t <= 1.0", "0.0 < t < 1.0", ("tests/test_core.py",)),
    Mutant("tIoU threshold set taken as a list", "src/event_eval/core.py",
           "(str, bytes, Mapping, AbstractSet)", "(str, bytes, Mapping)",
           ("tests/test_matching.py::test_one_thresholds_value_gets_one_"
            "outcome",)),
    Mutant("tIoU thresholds returned unconverted", "src/event_eval/core.py",
           "return tuple(map(float, items))", "return items",
           ("tests/test_matching.py::test_one_thresholds_value_gets_one_"
            "outcome",)),
]


def run(mutant: Mutant, copy: Path) -> str:
    """'killed', 'survived', or why the mutant's tests did not decide."""
    target = copy / mutant.file
    original = target.read_text()
    if original.count(mutant.old) != 1:
        return "old text not found exactly once"
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests], cwd=copy,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT} s"
    finally:
        target.write_text(original)
    return {0: "survived", 1: "killed"}.get(
        done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = run(mutant, copy)
            failed += outcome != "killed"
            print(f"{outcome:<10} {time.perf_counter() - start:5.1f} s  "
                  f"{mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
