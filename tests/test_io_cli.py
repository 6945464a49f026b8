from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from event_eval import events as events_mod, io as io_mod
from event_eval.cli import main
from event_eval.core import Dataset, EvalConfig, FrameMask, ScoreSequence
from event_eval.errors import (
    BadLength,
    DuplicateVideoId,
    EventEvalError,
    LengthMismatch,
    MissingFile,
    NonBinaryLabel,
    NonFiniteScore,
    ParseError,
    ValidationError,
    VideoIdMismatch,
)
from event_eval.events import clip_runs
from event_eval.fusion import (
    align_center,
    fuse_frames,
    pool_event_score,
)
from event_eval.io import (
    compute_frame_metrics,
    config_from_dict,
    config_to_dict,
    event_metrics_at,
    events_to_json_obj,
    load_branch_errors,
    load_config,
    load_events_json,
    load_manifest,
    load_mask,
    load_scores,
    run_evaluation,
)
from event_eval.report import (
    emit_audit,
    emit_event_metrics,
    emit_frame_metrics,
    emit_report,
    json_bytes,
    report_to_dict,
)
from event_eval.smoothing import smooth_clips
from event_eval.synthetic import make_dataset, write_dataset


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def scores_csv(values) -> str:
    return "frame,score\n" + "".join(f"{i},{v}\n"
                                     for i, v in enumerate(values))


def mask_csv(values) -> str:
    return "frame,label\n" + "".join(f"{i},{v}\n"
                                     for i, v in enumerate(values))


def perfect_fixture(tmp_path: Path) -> Path:
    """Two videos with long, cleanly separated events (0.9 in, 0.1 out)."""
    specs = {"a": (800, 250, 549), "b": (900, 100, 399)}
    lines = ["dataset: perfect", ""]
    for vid, (n, start, end) in specs.items():
        scores = [0.1] * n
        labels = [0] * n
        for t in range(start, end + 1):
            scores[t] = 0.9
            labels[t] = 1
        write(tmp_path / f"{vid}_scores.csv", scores_csv(scores))
        write(tmp_path / f"{vid}_mask.csv", mask_csv(labels))
        lines += [f"video: {vid}", f"scores: {vid}_scores.csv",
                  f"mask: {vid}_mask.csv", ""]
    return write(tmp_path / "manifest.txt", "\n".join(lines))


# ---------------------------------------------------------------------------
# manifest and loaders


def test_load_manifest_two_videos(tmp_path):
    manifest = load_manifest(perfect_fixture(tmp_path))
    assert manifest.dataset_name == "perfect"
    assert [e.video_id for e in manifest.videos] == ["a", "b"]
    assert manifest.videos[0].scores_path.is_file()
    assert manifest.videos[0].branch_errors_path is None


def test_load_manifest_duplicate_video_id(tmp_path):
    write(tmp_path / "s.csv", scores_csv([0.1]))
    write(tmp_path / "m.csv", mask_csv([1]))
    path = write(tmp_path / "manifest.txt",
                 "dataset: d\n"
                 "video: v\nscores: s.csv\nmask: m.csv\n"
                 "video: v\nscores: s.csv\nmask: m.csv\n")
    with pytest.raises(DuplicateVideoId):
        load_manifest(path)


def test_load_manifest_missing_file(tmp_path):
    write(tmp_path / "m.csv", mask_csv([1]))
    path = write(tmp_path / "manifest.txt",
                 "dataset: d\nvideo: v\nscores: nope.csv\nmask: m.csv\n")
    with pytest.raises(MissingFile) as exc:
        load_manifest(path)
    assert "nope.csv" in str(exc.value)


LOADERS = [load_manifest, load_scores, load_mask, load_branch_errors,
           load_events_json, load_config]


@pytest.mark.parametrize("make", ["missing", "directory"])
@pytest.mark.parametrize("loader", LOADERS)
def test_loaders_reject_a_path_that_is_not_a_file(tmp_path, loader, make):
    path = tmp_path / "input"
    if make == "directory":
        path.mkdir()
    with pytest.raises(MissingFile) as exc:
        loader(path)
    assert str(exc.value) == f"referenced file does not exist: {path}"


@pytest.mark.parametrize("body,fragment", [
    ("video: v\nscores: s.csv\nmask: m.csv\n", "dataset"),
    ("dataset: d\nvideo: v\nmask: m.csv\n", "scores"),
    ("dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\nbogus: x\n",
     "bogus"),
    ("dataset: d\nscores: s.csv\n", "before any"),
    ("dataset: d\n", "no videos"),
])
def test_load_manifest_parse_errors(tmp_path, body, fragment):
    write(tmp_path / "s.csv", scores_csv([0.1]))
    write(tmp_path / "m.csv", mask_csv([1]))
    path = write(tmp_path / "manifest.txt", body)
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert fragment in str(exc.value)


# manifests with two faults: (body, error, message, line); the fault that
# wins is the first the one pass meets. A record's missing key is found
# when the next 'video:' line or the end closes the record, before any
# later line is read; duplicate ids and missing files are checked after
# the pass, record by record, each record's files in the order scores,
# mask, branch_errors. '{tmp}' is tmp_path; s.csv and m.csv exist.
TWO_FAULTS = {
    "missing mask, then unknown key": (
        "dataset: d\nvideo: v\nscores: s.csv\nvideo: w\nbogus: x\n",
        ParseError, "{tmp}/manifest.txt:2: video 'v' is missing the 'mask' "
        "key", 2),
    "unknown key, then missing mask": (
        "dataset: d\nvideo: v\nscores: s.csv\nbogus: x\nvideo: w\n",
        ParseError, "{tmp}/manifest.txt:4: unknown key 'bogus'", 4),
    "last record's missing mask, then missing dataset": (
        "video: v\nscores: s.csv\n", ParseError,
        "{tmp}/manifest.txt:1: video 'v' is missing the 'mask' key", 1),
    "last record misses scores and mask": (
        "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\nvideo: w\n",
        ParseError,
        "{tmp}/manifest.txt:5: video 'w' is missing the 'scores' key", 5),
    "duplicate key, then missing dataset": (
        "video: v\nscores: s.csv\nscores: s.csv\nmask: m.csv\n", ParseError,
        "{tmp}/manifest.txt:3: duplicate 'scores' in record 'v'", 3),
    "key before any video, then duplicate dataset": (
        "dataset: d\nmask: m.csv\ndataset: e\n", ParseError,
        "{tmp}/manifest.txt:2: 'mask' before any 'video' record", 2),
    "bad line, then missing mask": (
        "dataset: d\nvideo: v\nscores\nscores: s.csv\n", ParseError,
        "{tmp}/manifest.txt:3: expected 'key: value', got 'scores'", 3),
    "missing dataset and no videos": (
        "# a comment\n", ParseError,
        "{tmp}/manifest.txt: missing 'dataset' key", None),
    "missing key, then duplicate id": (
        "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\nvideo: v\n"
        "scores: s.csv\n", ParseError,
        "{tmp}/manifest.txt:5: video 'v' is missing the 'mask' key", 5),
    "duplicate id with a missing file": (
        "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\nvideo: v\n"
        "scores: nope.csv\nmask: m.csv\n", DuplicateVideoId,
        "duplicate video_id 'v' in manifest | path={tmp}/manifest.txt", None),
    "missing file, then duplicate id": (
        "dataset: d\nvideo: v\nscores: s.csv\nmask: nope.csv\nvideo: v\n"
        "scores: s.csv\nmask: m.csv\n", MissingFile,
        "referenced file does not exist: {tmp}/nope.csv", None),
    "missing mask file listed before a missing scores file": (
        "dataset: d\nvideo: v\nbranch_errors: b.txt\nmask: m2.csv\n"
        "scores: s2.csv\n", MissingFile,
        "referenced file does not exist: {tmp}/s2.csv", None),
    "missing branch file, then a later record's missing file": (
        "dataset: d\nvideo: v\nbranch_errors: b.txt\nmask: m.csv\n"
        "scores: s.csv\nvideo: w\nscores: s2.csv\nmask: m.csv\n",
        MissingFile, "referenced file does not exist: {tmp}/b.txt", None),
}


@pytest.mark.parametrize("body,error,message,line", TWO_FAULTS.values(),
                         ids=TWO_FAULTS)
def test_load_manifest_reports_the_first_of_two_faults(tmp_path,
                                                       capsysbinary, body,
                                                       error, message, line):
    write(tmp_path / "s.csv", scores_csv([0.1]))
    write(tmp_path / "m.csv", mask_csv([1]))
    path = write(tmp_path / "manifest.txt", body)
    with pytest.raises(EventEvalError) as exc:
        load_manifest(path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(tmp=tmp_path)
    assert getattr(exc.value, "line", None) == line
    assert main(["audit", str(path)]) == 2
    assert capsysbinary.readouterr().err.decode() == \
        f"error: {message.format(tmp=tmp_path)}\n"


def test_load_scores_and_mask(tmp_path):
    spath = write(tmp_path / "v.csv", "frame,score\n0,0.12\n1,0.87\n")
    seq = load_scores(spath, "v")
    assert seq.scores == (0.12, 0.87)
    mpath = write(tmp_path / "m.csv", "frame,label\n0,0\n1,1\n")
    assert load_mask(mpath, "v").labels == (0, 1)


def test_load_scores_errors(tmp_path):
    bad_header = write(tmp_path / "h.csv", "idx,score\n0,0.1\n")
    with pytest.raises(ParseError):
        load_scores(bad_header)
    gap = write(tmp_path / "g.csv", "frame,score\n0,0.1\n2,0.2\n")
    with pytest.raises(ParseError) as exc:
        load_scores(gap)
    assert "consecutive" in str(exc.value)
    nan = write(tmp_path / "n.csv", "frame,score\n0,0.1\n1,nan\n")
    with pytest.raises(NonFiniteScore) as exc:
        load_scores(nan, "vid7")
    assert "vid7" in str(exc.value) and "n.csv" in str(exc.value)
    notnum = write(tmp_path / "x.csv", "frame,score\n0,abc\n")
    with pytest.raises(ParseError):
        load_scores(notnum)


def test_load_mask_rejects_non_binary(tmp_path):
    path = write(tmp_path / "m.csv", "frame,label\n0,0\n1,2\n")
    with pytest.raises(NonBinaryLabel) as exc:
        load_mask(path, "vid9")
    assert exc.value.index == 1
    assert "vid9" in str(exc.value) and "m.csv" in str(exc.value)


def test_load_branch_errors(tmp_path):
    i = 2
    line = "4 2 " + " ".join(str(v) for v in
                             [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    path = write(tmp_path / "b.txt", "# comment\n\n" + line + "\n")
    starts, lengths, scores = load_branch_errors(path)
    assert starts.tolist() == [4] and lengths.tolist() == [i]
    short, long = (0.1, 0.2), (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    assert scores.tolist() == [pool_event_score(
        fuse_frames(short, align_center(long, i)))]
    assert scores[0] == pytest.approx((0.1 + 0.5 + 0.2 + 0.6) / 4)


def test_load_branch_errors_scores_each_line_as_score_window(tmp_path):
    rows = [(0, [0.5, 0.25, 1.0, 2.0]),
            (7, [0.1, 0.3, 1e-16, 0.7, 1.0, 2.5, 3.0, 0.2]),
            (3, [1.0, 1e-16, 1e-16, 0.0, 0.0, 0.0, 1.0, 1e-16, 1e-16,
                 0.0, 0.0, 0.0])]
    path = write(tmp_path / "b.txt", "".join(
        f"{start} {len(v) // 4} {' '.join(map(repr, v))}\n"
        for start, v in rows))
    starts, lengths, scores = load_branch_errors(path)
    assert starts.tolist() == [0, 7, 3] and lengths.tolist() == [1, 2, 3]
    want = [pool_event_score(fuse_frames(v[:i], align_center(v[i:], i)))
            for (_, v), i in zip(rows, (1, 2, 3))]
    assert scores.view(np.uint64).tolist() == \
        np.array(want).view(np.uint64).tolist()


def test_load_branch_errors_bad_length(tmp_path):
    path = write(tmp_path / "b.txt", "0 2 0.1 0.2 0.3\n")
    with pytest.raises(BadLength) as exc:
        load_branch_errors(path)
    assert str(exc.value) == (f"{path}:1: long branch has 1 values, "
                              "expected 3*window_len=6")


def test_load_branch_errors_negative_window_len(tmp_path):
    path = write(tmp_path / "b.txt", "# comment\n0 -1\n")
    with pytest.raises(ValidationError) as exc:
        load_branch_errors(path)
    assert not isinstance(exc.value, BadLength)
    assert str(exc.value) == (f"{path}:2: window_len must be an integer "
                              ">= 1, got -1")


def test_load_events_json(tmp_path):
    path = write(tmp_path / "e.json", '{"v": [[0, 4], [10, 12]]}')
    events = load_events_json(path)
    assert [(e.start, e.end) for e in events["v"]] == [(0, 4), (10, 12)]
    bad = write(tmp_path / "bad.json", '{"v": [[4, 0]]}')
    with pytest.raises(ParseError):
        load_events_json(bad)


def test_config_round_trip(tmp_path):
    cfg = EvalConfig(sigma_max=3, threshold_strategy="hprs", hprs_beta=0.25)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = write(tmp_path / "cfg.json", json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg
    with pytest.raises(ValidationError):
        config_from_dict({"sigma_max": 3, "mystery": 1})
    for data in ({"hprs_beta": "x"}, {"hprs_beta": None},
                 {"tiou_thresholds": 0.3},
                 {"threshold_strategy": "fixed", "fixed_tau": "x"}):
        with pytest.raises(ValidationError):
            config_from_dict(data)


# ---------------------------------------------------------------------------
# run_evaluation and report emission


def test_run_evaluation_perfect_fixture(tmp_path):
    manifest = load_manifest(perfect_fixture(tmp_path))
    report = run_evaluation(manifest, EvalConfig())
    fm = report.frame_metrics
    assert fm.auc_roc == pytest.approx(1.0)
    assert fm.auc_pr == pytest.approx(1.0)
    assert fm.eer == pytest.approx(0.0)
    assert fm.tau_eer == pytest.approx(0.9)
    assert fm.f1_at_tau_eer == pytest.approx(1.0)
    for metrics in (report.event_metrics_eer, report.event_metrics_hprs):
        assert metrics.average_f1 == pytest.approx(1.0)
        for entry in metrics.per_tiou.values():
            assert (entry.precision, entry.recall) == (1.0, 1.0)
    assert report.audit.event_count == 2
    assert report.mode == "refined"
    assert report.config_echo == EvalConfig()


def _pair(vid: str, n_scores: int, labels: list[int], mask_id: str = ""):
    return (ScoreSequence(vid, [0.1, 0.9, 0.5][:n_scores]),
            FrameMask(mask_id or vid, labels))


ADAPTERS = {
    "compute_frame_metrics": lambda videos: compute_frame_metrics(
        videos, EvalConfig()),
    "event_metrics_at": lambda videos: event_metrics_at(
        videos, 0.5, EvalConfig(), "refined"),
}
# no pair may slide a score onto another frame's label
BAD_PAIRS = {
    "3 scores, 2 labels": (LengthMismatch, [_pair("a", 3, [0, 1])]),
    "3/2 beside 2/3": (LengthMismatch, [_pair("a", 3, [0, 1]),
                                         _pair("b", 2, [1, 0, 1])]),
    "two ids": (VideoIdMismatch, [_pair("a", 2, [0, 1], mask_id="b")]),
    "no videos": (ValidationError, []),
}


@pytest.mark.parametrize("adapter", ADAPTERS)
@pytest.mark.parametrize("error,videos", BAD_PAIRS.values(), ids=BAD_PAIRS)
def test_adapters_check_every_pair(adapter, error, videos):
    with pytest.raises(error):
        ADAPTERS[adapter](videos)


# ---------------------------------------------------------------------------
# located errors: type, exact message and attributes, from a public entry


def _raise(exc: Exception):
    raise exc


def _one_video(tmp_path: Path, scores: str, mask: str) -> Path:
    write(tmp_path / "s.csv", scores)
    write(tmp_path / "m.csv", mask)
    return write(tmp_path / "manifest.txt",
                 "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n")


# call(tmp_path) raises error with str() message ('{tmp}' is tmp_path) and
# exactly the attributes attrs
LOCATED = {
    "LengthMismatch()": (
        lambda tmp: _raise(LengthMismatch(5, 4)), LengthMismatch,
        "length mismatch: 5 scores vs 4 labels",
        {"n_scores": 5, "n_labels": 4, "video_id": None}),
    "LengthMismatch(path)": (
        lambda tmp: _raise(LengthMismatch(5, 4, "v", "p.csv")),
        LengthMismatch,
        "length mismatch: 5 scores vs 4 labels | video_id='v' | path=p.csv",
        {"n_scores": 5, "n_labels": 4, "video_id": "v"}),
    "LengthMismatch/Dataset.of": (
        lambda tmp: Dataset.of([_pair("a", 3, [0, 1])]), LengthMismatch,
        "length mismatch: 3 scores vs 2 labels | video_id='a'",
        {"n_scores": 3, "n_labels": 2, "video_id": "a"}),
    "LengthMismatch/load_dataset": (
        lambda tmp: io_mod.load_dataset(load_manifest(_one_video(
            tmp, scores_csv([0.1] * 4), mask_csv([0, 1, 0])))),
        LengthMismatch, "length mismatch: 4 scores vs 3 labels | video_id='v'",
        {"n_scores": 4, "n_labels": 3, "video_id": "v"}),
    "NonFiniteScore()": (
        lambda tmp: _raise(NonFiniteScore(3)), NonFiniteScore,
        "non-finite score at frame 3", {"index": 3, "video_id": None}),
    "NonFiniteScore(path)": (
        lambda tmp: _raise(NonFiniteScore(3, path="p.csv")), NonFiniteScore,
        "non-finite score at frame 3 | path=p.csv",
        {"index": 3, "video_id": None}),
    "NonFiniteScore/ScoreSequence": (
        lambda tmp: ScoreSequence("v", [0.5, float("inf")]), NonFiniteScore,
        "non-finite score at frame 1 | video_id='v'",
        {"index": 1, "video_id": "v"}),
    "NonFiniteScore/load_scores": (
        lambda tmp: load_scores(write(tmp / "s.csv", "frame,score\n0,0.5\n"
                                      "1,nan\n"), "v"), NonFiniteScore,
        "non-finite score at frame 1 | video_id='v' | path={tmp}/s.csv",
        {"index": 1, "video_id": "v"}),
    "NonBinaryLabel(video_id)": (
        lambda tmp: _raise(NonBinaryLabel(0, "v")), NonBinaryLabel,
        "label at frame 0 is not 0 or 1 | video_id='v'",
        {"index": 0, "video_id": "v"}),
    "NonBinaryLabel/FrameMask": (
        lambda tmp: FrameMask("v", [0, 1, 2]), NonBinaryLabel,
        "label at frame 2 is not 0 or 1 | video_id='v'",
        {"index": 2, "video_id": "v"}),
    "NonBinaryLabel/load_mask": (
        lambda tmp: load_mask(write(tmp / "m.csv", "frame,label\n0,2\n")),
        NonBinaryLabel,
        "label at frame 0 is not 0 or 1 | video_id='m' | path={tmp}/m.csv",
        {"index": 0, "video_id": "m"}),
    "DuplicateVideoId()": (
        lambda tmp: _raise(DuplicateVideoId("v")), DuplicateVideoId,
        "duplicate video_id 'v' in manifest", {"video_id": "v"}),
    "DuplicateVideoId/load_manifest": (
        lambda tmp: load_manifest(write(
            _one_video(tmp, scores_csv([0.1]), mask_csv([1])),
            "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
            "video: v\nscores: s.csv\nmask: m.csv\n")), DuplicateVideoId,
        "duplicate video_id 'v' in manifest | path={tmp}/manifest.txt",
        {"video_id": "v"}),
    "BranchErrors/load_branch_errors": (
        lambda tmp: load_branch_errors(write(tmp / "b.txt", "# c\n0 0\n")),
        ValidationError,
        "{tmp}/b.txt:2: window_len must be an integer >= 1, got 0",
        {}),
    "ParseError/load_branch_errors": (
        lambda tmp: load_branch_errors(write(tmp / "b.txt", "0 x\n")),
        ParseError,
        "{tmp}/b.txt:1: invalid literal for int() with base 10: 'x'",
        {"path": "{tmp}/b.txt", "line": 1}),
}


@pytest.mark.parametrize("call,error,message,attrs", LOCATED.values(),
                         ids=LOCATED)
def test_located_errors_keep_type_message_and_attributes(tmp_path, call,
                                                         error, message,
                                                         attrs):
    with pytest.raises(EventEvalError) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(tmp=tmp_path)
    assert vars(exc.value) == {
        key: value.format(tmp=tmp_path) if isinstance(value, str) else value
        for key, value in attrs.items()}


# (command, file, text): fuse_fixture with file rewritten as text; then the
# exit code and the one stderr line ('{tmp}' is tmp_path)
LOCATED_CLI = {
    "LengthMismatch": (
        ("evaluate", "m.csv", mask_csv([0] * 31)), 1,
        "length mismatch: 32 scores vs 31 labels | video_id='v'"),
    "NonFiniteScore": (
        ("frame-metrics", "s.csv", scores_csv(["nan"] + [0.1] * 31)), 1,
        "non-finite score at frame 0 | video_id='v' | path={tmp}/s.csv"),
    "NonBinaryLabel": (
        ("audit", "m.csv", mask_csv([0, 2] + [0] * 30)), 1,
        "label at frame 1 is not 0 or 1 | video_id='v' | path={tmp}/m.csv"),
    "DuplicateVideoId": (
        ("audit", "manifest.txt", "dataset: d\nvideo: v\nscores: s.csv\n"
         "mask: m.csv\nvideo: v\nscores: s.csv\nmask: m.csv\n"), 2,
        "duplicate video_id 'v' in manifest | path={tmp}/manifest.txt"),
    "BranchErrors": (
        ("fuse", "b.txt", "0 0\n"), 1,
        "{tmp}/b.txt:1: window_len must be an integer >= 1, got 0"),
    "WindowOutOfRange": (
        ("fuse", "b.txt", "30 8 " + " ".join(["0.9"] * 32) + "\n"), 1,
        "window [30,37] exceeds video length 32 | video_id='v' | "
        "path={tmp}/b.txt"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("case,code,message", LOCATED_CLI.values(),
                         ids=LOCATED_CLI)
def test_cli_located_errors_keep_their_bytes(tmp_path, capsysbinary, fmt,
                                             case, code, message):
    command, name, text = case
    manifest = str(fuse_fixture(tmp_path))
    write(tmp_path / name, text)
    tau = ["--tau", "0.5"] if command == "fuse" else []
    assert main(["--format", fmt, command, manifest, *tau]) == code
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode() == \
        f"error: {message.format(tmp=tmp_path)}\n"


def test_unknown_mode_is_rejected(tmp_path):
    videos = [_pair("a", 2, [0, 1])]
    with pytest.raises(ValidationError, match="unknown mode 'fancy'"):
        event_metrics_at(videos, 0.5, EvalConfig(), "fancy")
    manifest = load_manifest(perfect_fixture(tmp_path))
    with pytest.raises(ValidationError, match="unknown mode 'fancy'"):
        run_evaluation(manifest, EvalConfig(), mode="fancy")


def test_run_evaluation_audits_micro_events_at_min_event_len(tmp_path):
    # one ground-truth event a frame short of min_event_len, one exactly
    # min_event_len long: only the first is a micro event
    cfg = EvalConfig()
    lines = ["dataset: boundary", ""]
    for vid, length in (("a", cfg.min_event_len - 1),
                        ("b", cfg.min_event_len)):
        labels = [0] * 20 + [1] * length + [0] * 20
        write(tmp_path / f"{vid}_scores.csv",
              scores_csv([0.1 + 0.8 * y for y in labels]))
        write(tmp_path / f"{vid}_mask.csv", mask_csv(labels))
        lines += [f"video: {vid}", f"scores: {vid}_scores.csv",
                  f"mask: {vid}_mask.csv", ""]
    manifest = load_manifest(write(tmp_path / "manifest.txt",
                                   "\n".join(lines)))
    audit = run_evaluation(manifest, cfg).audit
    assert audit.event_count == 2
    assert (audit.min_duration, audit.max_duration) == (
        cfg.min_event_len - 1, cfg.min_event_len)
    assert audit.micro_event_count == 1


def test_refined_beats_baseline_on_fragmented_fixture(tmp_path):
    scores, masks = make_dataset(n_videos=5, seed=11)
    manifest = load_manifest(write_dataset(tmp_path, scores, masks))
    cfg = EvalConfig()
    refined = run_evaluation(manifest, cfg, mode="refined")
    baseline = run_evaluation(manifest, cfg, mode="baseline")
    assert refined.event_metrics_eer.average_f1 >= \
        baseline.event_metrics_eer.average_f1
    assert baseline.mode == "baseline"


def test_run_evaluation_smooths_each_video_once(tmp_path, monkeypatch):
    calls = []

    def counted(scores, bounds, sigma_max):
        calls.append(bounds.tolist())
        return smooth_clips(scores, bounds, sigma_max)

    monkeypatch.setattr(io_mod, "smooth_clips", counted)
    manifest = load_manifest(perfect_fixture(tmp_path))
    run_evaluation(manifest, EvalConfig())
    # one pass over both videos, shared by both operating points
    assert calls == [[0, 800, 1700]]
    calls.clear()
    run_evaluation(manifest, EvalConfig(), mode="baseline")
    assert calls == []


@pytest.mark.parametrize("mode", ["refined", "baseline"])
def test_run_evaluation_extracts_each_run_set_once(tmp_path, monkeypatch,
                                                   mode):
    calls = []

    def counted(labels, bounds):
        calls.append(bounds.tolist())
        return clip_runs(labels, bounds)

    for module in (events_mod, io_mod):
        monkeypatch.setattr(module, "clip_runs", counted)
    run_evaluation(load_manifest(perfect_fixture(tmp_path)), EvalConfig(),
                   mode)
    # the ground truth, for the audit and the matching, then the events at
    # each of the two operating points
    assert calls == [[0, 800, 1700]] * 3


@pytest.fixture(scope="module")
def hundred_clips(tmp_path_factory) -> tuple[Path, int]:
    scores, masks = make_dataset(n_videos=100, seed=13)
    path = write_dataset(tmp_path_factory.mktemp("hundred"), scores, masks)
    return path, sum(map(len, scores))


@pytest.mark.parametrize("mode,cfg", [
    pytest.param("refined", EvalConfig(), id="refined"),
    pytest.param("baseline", EvalConfig(), id="baseline"),
    # one vote window per frame
    pytest.param("refined", EvalConfig(vote_stride=1),
                 id="refined-vote_stride=1"),
])
def test_run_evaluation_memory_per_frame(hundred_clips, mode, cfg):
    path, n = hundred_clips
    manifest = load_manifest(path)
    want = run_evaluation(manifest, cfg, mode)  # warms the caches
    tracemalloc.start()
    try:
        got = run_evaluation(manifest, cfg, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 40 * n, f"{peak / n:.1f} bytes per frame"


@pytest.mark.parametrize("mode", ["refined", "baseline"])
def test_run_evaluation_builds_no_per_frame_tuple(tmp_path, monkeypatch,
                                                  mode):
    scores, masks = make_dataset(n_videos=4, seed=5)
    manifest = load_manifest(write_dataset(tmp_path, scores, masks))

    def refuse(self):
        raise AssertionError("per-frame tuple built during evaluation")

    monkeypatch.setattr(ScoreSequence, "scores", property(refuse))
    monkeypatch.setattr(FrameMask, "labels", property(refuse))
    report = run_evaluation(manifest, EvalConfig(), mode=mode)
    assert report.audit.event_count > 0


def test_emit_report_deterministic_and_round_trips(tmp_path):
    manifest = load_manifest(perfect_fixture(tmp_path))
    report = run_evaluation(manifest, EvalConfig())
    blob1 = emit_report(report, "json")
    blob2 = emit_report(report, "json")
    assert blob1 == blob2
    assert json.loads(blob1) == report_to_dict(report)


def test_emit_report_markdown_rows_in_config_order(tmp_path):
    manifest = load_manifest(perfect_fixture(tmp_path))
    cfg = EvalConfig()
    report = run_evaluation(manifest, cfg)
    text = emit_report(report, "markdown").decode()
    positions = [text.index(f"| {t} |") for t in (0.2, 0.3, 0.4, 0.5)]
    assert positions == sorted(positions)
    assert "## Frame-level metrics" in text
    assert "## Dataset audit" in text


def test_emit_report_csv_parses(tmp_path):
    import csv as csv_mod
    manifest = load_manifest(perfect_fixture(tmp_path))
    report = run_evaluation(manifest, EvalConfig())
    rows = list(csv_mod.reader(emit_report(report, "csv").decode()
                               .splitlines()))
    assert rows[0] == ["section", "tiou", "metric", "value"]
    sections = {row[0] for row in rows[1:]}
    assert {"meta", "frame", "event_eer", "event_hprs", "audit",
            "config"} <= sections


def test_emit_report_unknown_format(tmp_path):
    manifest = load_manifest(perfect_fixture(tmp_path))
    report = run_evaluation(manifest, EvalConfig())
    for emit, value in ((emit_report, report),
                        (emit_audit, report.audit),
                        (emit_frame_metrics, report.frame_metrics),
                        (emit_event_metrics, report.event_metrics_eer)):
        with pytest.raises(ValidationError, match="unknown report format"):
            emit(value, "yaml")


# ---------------------------------------------------------------------------
# CLI


def test_cli_audit_and_frame_metrics(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    assert main(["audit", manifest]) == 0
    audit = json.loads(capsysbinary.readouterr().out)
    assert audit["event_count"] == 2
    assert audit["anomalous_frames"] == 600

    assert main(["frame-metrics", manifest]) == 0
    fm = json.loads(capsysbinary.readouterr().out)
    assert fm["auc_roc"] == pytest.approx(1.0)


def test_cli_refine_then_event_metrics(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    pred_path = tmp_path / "pred.json"
    assert main(["--out", str(pred_path), "refine", manifest]) == 0
    events = load_events_json(pred_path)
    assert set(events) == {"a", "b"}

    assert main(["event-metrics", manifest, "--pred", str(pred_path)]) == 0
    metrics = json.loads(capsysbinary.readouterr().out)
    assert metrics["average_f1"] == pytest.approx(1.0)
    assert [row["tiou"] for row in metrics["per_tiou"]] == [0.2, 0.3,
                                                            0.4, 0.5]


def fuse_fixture(tmp_path: Path, i: int = 8) -> Path:
    """One 4i-frame video whose two middle windows of i frames are loud."""
    n = 4 * i
    write(tmp_path / "s.csv", scores_csv([0.1] * n))
    write(tmp_path / "m.csv", mask_csv([0] * i + [1] * (2 * i) + [0] * i))
    quiet = " ".join(["0.05"] * (4 * i))
    loud = " ".join(["0.9"] * (4 * i))
    write(tmp_path / "b.txt", "\n".join(
        f"{k * i} {i} {loud if k in (1, 2) else quiet}"
        for k in range(4)) + "\n")
    return write(tmp_path / "manifest.txt",
                 "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
                 "branch_errors: b.txt\n")


def test_cli_fuse(tmp_path, capsysbinary):
    i = 8
    assert main(["fuse", str(fuse_fixture(tmp_path, i)), "--tau",
                 "0.5"]) == 0
    events = json.loads(capsysbinary.readouterr().out)
    assert events == {"v": [[i, 3 * i - 1]]}


# subcommands that open only the masks: a scores file must exist, and is
# never read
MASK_ONLY = ["fuse", "audit", "event-metrics"]


def mask_only_argv(tmp_path: Path, command: str) -> list[str]:
    """argv running one MASK_ONLY subcommand on fuse_fixture."""
    manifest = str(fuse_fixture(tmp_path))
    if command == "fuse":
        return ["fuse", manifest, "--tau", "0.5"]
    if command == "audit":
        return ["audit", manifest]
    pred = write(tmp_path / "pred.json", '{"v": [[8, 23]]}')
    return ["event-metrics", manifest, "--pred", str(pred)]


@pytest.mark.parametrize("scores_text", [
    "not,a\nscores file\n",
    scores_csv([0.1] * 5),  # 5 frames against a 32-frame mask
    "frame,score\n0,nan\n",
])
@pytest.mark.parametrize("command", MASK_ONLY)
def test_cli_reads_masks_only(tmp_path, capsysbinary, command, scores_text):
    argv = mask_only_argv(tmp_path, command)
    assert main(argv) == 0
    want = capsysbinary.readouterr().out
    write(tmp_path / "s.csv", scores_text)
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want


@pytest.mark.parametrize("command", MASK_ONLY)
def test_cli_never_loads_scores(tmp_path, capsysbinary, monkeypatch,
                                command):
    def fail(*args, **kwargs):
        raise AssertionError(f"{command} loaded a scores file")

    monkeypatch.setattr("event_eval.io.load_scores", fail)
    assert main(mask_only_argv(tmp_path, command)) == 0


@pytest.mark.parametrize("mask_text,code,message", [
    ("frame,label\n0,0\n1\n", 2, "m.csv:3: expected 2 columns, got 1"),
    ("frame,label\n0,0\n1,2\n", 1, "label at frame 1 is not 0 or 1 | "
                                    "video_id='v' | path="),
])
@pytest.mark.parametrize("command", MASK_ONLY)
def test_cli_still_checks_masks(tmp_path, capsysbinary, mask_text, code,
                                message, command):
    argv = mask_only_argv(tmp_path, command)
    write(tmp_path / "m.csv", mask_text)
    assert main(argv) == code
    err = capsysbinary.readouterr().err.decode()
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", MASK_ONLY)
def test_cli_missing_scores_file_is_an_io_error(tmp_path, capsysbinary,
                                                command):
    argv = mask_only_argv(tmp_path, command)
    (tmp_path / "s.csv").unlink()
    assert main(argv) == 2
    assert "s.csv" in capsysbinary.readouterr().err.decode()


def test_cli_fuse_window_out_of_range_names_video_and_file(tmp_path,
                                                         capsysbinary):
    write(tmp_path / "s.csv", scores_csv([0.1] * 4))
    write(tmp_path / "m.csv", mask_csv([0, 1, 1, 0]))
    branch = write(tmp_path / "b.txt", "0 2 " + " ".join(["0.9"] * 8)
                   + "\n3 2 " + " ".join(["0.1"] * 8) + "\n")
    write(tmp_path / "manifest.txt",
          "dataset: d\nvideo: cam1\nscores: s.csv\nmask: m.csv\n"
          "branch_errors: b.txt\n")
    assert main(["fuse", str(tmp_path / "manifest.txt"), "--tau",
                 "0.5"]) == 1
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == ["error: window [3,4] exceeds video length 4 | "
                   f"video_id='cam1' | path={branch}"]


@pytest.mark.parametrize("start", [10 ** 20, 2 ** 63 - 1])
def test_cli_fuse_start_past_int64_is_a_range_error(tmp_path, capsysbinary,
                                                    start):
    # too many digits for the canonical fast path: the line parser reads it
    write(tmp_path / "s.csv", scores_csv([0.1] * 20))
    write(tmp_path / "m.csv", mask_csv([0] * 10 + [1] * 10))
    branch = write(tmp_path / "b.txt", f"{start} 1 0.1 0.1 0.1 0.1\n")
    write(tmp_path / "manifest.txt",
          "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
          "branch_errors: b.txt\n")
    assert main(["fuse", str(tmp_path / "manifest.txt"), "--tau",
                 "0.5"]) == 1
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == [f"error: window [{start},{start}] exceeds video length "
                   f"20 | video_id='v' | path={branch}"]


@pytest.mark.parametrize("line,message", [
    ("0 -1", "window_len must be an integer >= 1, got -1"),
    ("0 2 0.1 0.2 0.3", "long branch has 1 values, expected 3*window_len=6"),
])
def test_cli_fuse_bad_branch_line_exits_1(tmp_path, capsysbinary, line,
                                          message):
    manifest = str(fuse_fixture(tmp_path))
    branch = write(tmp_path / "b.txt", line + "\n")
    assert main(["fuse", manifest, "--tau", "0.5"]) == 1
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == [f"error: {branch}:1: {message}"]


def test_cli_fuse_needs_a_branch_errors_file(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    assert main(["fuse", manifest, "--tau", "0.5"]) == 1
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == ["error: video 'a' has no branch_errors file in the "
                   "manifest"]


def test_cli_fuse_requires_tau(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    assert main(["fuse", manifest]) == 1
    err = capsysbinary.readouterr().err.decode()
    assert "tau" in err


def opened_fixture(tmp_path: Path) -> Path:
    """Three canonical videos, each with a scores file, a mask and a
    branch-errors file, listed out of video id order."""
    lines = ["dataset: d"]
    for vid in ("c", "a", "b"):
        write(tmp_path / f"{vid}_s.csv",
              scores_csv([0.1] * 10 + [0.9] * 20 + [0.1] * 10))
        write(tmp_path / f"{vid}_m.csv",
              mask_csv([0] * 10 + [1] * 20 + [0] * 10))
        write(tmp_path / f"{vid}_b.txt", f"8 8 {' '.join(['0.9'] * 32)}\n")
        lines += [f"video: {vid}", f"scores: {vid}_s.csv",
                  f"mask: {vid}_m.csv", f"branch_errors: {vid}_b.txt"]
    write(tmp_path / "pred.json", '{"a": [], "b": [], "c": []}')
    return write(tmp_path / "manifest.txt", "\n".join(lines) + "\n")


PAIRS = ["manifest.txt", "a_s.csv", "a_m.csv", "b_s.csv", "b_m.csv",
         "c_s.csv", "c_m.csv"]
MASKS = ["manifest.txt", "a_m.csv", "b_m.csv", "c_m.csv"]


@pytest.mark.parametrize("argv,want", [
    pytest.param(["evaluate"], PAIRS, id="evaluate"),
    pytest.param(["frame-metrics"], PAIRS, id="frame-metrics"),
    pytest.param(["refine"], PAIRS, id="refine"),
    pytest.param(["audit"], MASKS, id="audit"),
    pytest.param(["event-metrics", "--pred", "pred.json"],
                 MASKS + ["pred.json"], id="event-metrics"),
    pytest.param(["fuse", "--tau", "0.5"],
                 MASKS + ["a_b.txt", "b_b.txt", "c_b.txt"], id="fuse"),
])
def test_each_subcommand_opens_the_files_the_readme_lists(
        tmp_path, capsysbinary, monkeypatch, argv, want):
    """Each file a subcommand uses is read once: the manifest, then in
    video id order for each video its scores file, then its mask; or every
    mask, then the predictions; or every mask, then every branch-errors
    file."""
    manifest = str(opened_fixture(tmp_path))
    opened = []
    read = io_mod._read

    def recorded(path):
        opened.append(path.name)
        return read(path)

    monkeypatch.setattr(io_mod, "_read", recorded)
    monkeypatch.chdir(tmp_path)   # where --pred finds pred.json
    cli_out(capsysbinary, argv[0], manifest, *argv[1:])
    assert opened == want


def test_readme_quick_start(tmp_path, capsysbinary):
    made = subprocess.run([sys.executable, "-m", "event_eval.synthetic",
                           str(tmp_path), "--videos", "6", "--seed", "7"],
                          capture_output=True, check=True)
    manifest = made.stdout.decode().strip()
    assert manifest == str(tmp_path / "manifest.txt")
    reports = {}
    for mode in ("refined", "baseline"):
        text = cli_out(capsysbinary, "--format", "markdown", "evaluate",
                       manifest, "--mode", mode).decode()
        assert f"mode: {mode}" in text
        reports[mode] = json.loads(cli_out(capsysbinary, "evaluate",
                                           manifest, "--mode", mode))
    refined, baseline = reports["refined"], reports["baseline"]
    # the README's figures: every planted event found, the baseline below
    # 0.01, and the same frame-level AUC-ROC of 0.92
    assert refined["event_metrics"]["tau_eer"]["average_f1"] == 1.0
    assert baseline["event_metrics"]["tau_eer"]["average_f1"] < 0.01
    assert refined["frame_metrics"] == baseline["frame_metrics"]
    assert round(refined["frame_metrics"]["auc_roc"], 2) == 0.92


@pytest.mark.parametrize("body,line,message", [
    pytest.param("dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
                 "dataset: e\n", 5, "duplicate 'dataset' key", id="dataset"),
    pytest.param("dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
                 "mask: m.csv\n", 5, "duplicate 'mask' in record 'v'",
                 id="record-key"),
])
def test_cli_manifest_duplicate_key_exits_2(tmp_path, capsysbinary, body,
                                            line, message):
    write(tmp_path / "s.csv", scores_csv([0.1]))
    write(tmp_path / "m.csv", mask_csv([1]))
    path = write(tmp_path / "manifest.txt", body)
    assert main(["audit", str(path)]) == 2
    assert capsysbinary.readouterr().err.decode().splitlines() == [
        f"error: {path}:{line}: {message}"]


@pytest.mark.parametrize("text", ["[]", "0.5", "null", '"sigma_max"'])
def test_cli_config_that_is_not_an_object_exits_2(tmp_path, capsysbinary,
                                                  text):
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", text)
    assert main(["--config", str(config), "evaluate", manifest]) == 2
    assert capsysbinary.readouterr().err.decode().splitlines() == [
        f"error: {config}: expected a JSON object"]


def test_cli_evaluate_formats_and_out(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "evaluate", manifest]) == 0
    report = json.loads(out.read_bytes())
    assert report["frame_metrics"]["auc_roc"] == pytest.approx(1.0)

    assert main(["--format", "markdown", "evaluate", manifest,
                 "--mode", "baseline"]) == 0
    text = capsysbinary.readouterr().out.decode()
    assert "mode: baseline" in text


def test_cli_exit_codes(tmp_path, capsysbinary):
    assert main(["evaluate", str(tmp_path / "missing.txt")]) == 2
    capsysbinary.readouterr()
    # scores and mask of different lengths: validation error
    write(tmp_path / "s.csv", scores_csv([0.5, 0.5, 0.5]))
    write(tmp_path / "m.csv", mask_csv([1, 0]))
    path = write(tmp_path / "manifest.txt",
                 "dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n")
    assert main(["evaluate", str(path)]) == 1
    err = capsysbinary.readouterr().err.decode()
    assert "video_id='v'" in err


@pytest.mark.parametrize("flag", ["--pred", "--config"])
def test_cli_event_metrics_missing_input_exits_2(tmp_path, capsysbinary,
                                                 flag):
    manifest = str(perfect_fixture(tmp_path))
    missing = str(tmp_path / "missing.json")
    pred = str(write(tmp_path / "pred.json", '{"a": [], "b": []}'))
    argv = {"--pred": ["event-metrics", manifest, "--pred", missing],
            "--config": ["--config", missing, "event-metrics", manifest,
                         "--pred", pred]}[flag]
    assert main(argv) == 2
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == [f"error: referenced file does not exist: {missing}"]


def cli_out(capsysbinary, *argv: str) -> bytes:
    assert main(list(argv)) == 0
    return capsysbinary.readouterr().out


def test_cli_refine_writes_the_events_at_the_strategy_tau(tmp_path,
                                                          capsysbinary):
    scores, masks = make_dataset(n_videos=3, seed=5)
    manifest = str(write_dataset(tmp_path, scores, masks))
    frame = json.loads(cli_out(capsysbinary, "frame-metrics", manifest))
    data = io_mod.load_dataset(load_manifest(manifest))
    outs = set()
    for strategy, tau in [("eer", frame["tau_eer"]),
                          ("hprs", frame["tau_hprs"]), ("fixed", 0.45)]:
        config = write(tmp_path / "cfg.json", json.dumps(
            {"threshold_strategy": strategy, "fixed_tau": 0.45}))
        at_tau = cli_out(capsysbinary, "refine", manifest, f"--tau={tau!r}")
        assert at_tau == json_bytes(events_to_json_obj(
            io_mod.predict_videos(data, tau, EvalConfig(), "refined")))
        assert cli_out(capsysbinary, "--config", str(config), "refine",
                       manifest) == at_tau
        outs.add(at_tau)
    assert len(outs) == 3   # three taus, three sets of events


@pytest.mark.parametrize("strategy", ["eer", "hprs", "fixed", None])
def test_cli_refine_lays_the_videos_end_to_end_once(tmp_path, capsysbinary,
                                                    monkeypatch, strategy):
    calls = []
    lay_out = Dataset.of.__func__

    def counted(cls, pairs):
        calls.append(0)   # the pairs this lay-out draws

        def drawn():
            for pair in pairs:
                calls[-1] += 1
                yield pair
        return lay_out(cls, drawn())

    monkeypatch.setattr(Dataset, "of", classmethod(counted))
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", json.dumps(
        {"threshold_strategy": strategy or "eer", "fixed_tau": 0.5}))
    # None: an explicit --tau, which no strategy overrides
    tau = [] if strategy else ["--tau=0.5"]
    cli_out(capsysbinary, "--config", str(config), "refine", manifest, *tau)
    assert calls == [2]


@pytest.mark.parametrize("flag,text,key", [
    ("--pred", '{"a": [[250, 549]], "b": [[100, 399]], "a": [[0, 9]]}', "a"),
    ("--config", '{"sigma_max": 3, "vote_window": 9, "sigma_max": 5}',
     "sigma_max"),
])
def test_cli_duplicate_json_key_is_a_parse_error(tmp_path, capsysbinary,
                                                 flag, text, key):
    manifest = str(perfect_fixture(tmp_path))
    path = write(tmp_path / "dup.json", text)
    pred = write(tmp_path / "pred.json", '{"a": [], "b": []}')
    argv = {"--pred": ["event-metrics", manifest, "--pred", str(path)],
            "--config": ["--config", str(path), "event-metrics", manifest,
                         "--pred", str(pred)]}[flag]
    assert main(argv) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode().splitlines() == [
        f"error: {path}: duplicate key {key!r}"]


def test_cli_string_of_tiou_thresholds_exits_1(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", '{"tiou_thresholds": "0.5"}')
    assert main(["--config", str(config), "evaluate", manifest]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode().splitlines() == [
        "error: tiou_thresholds must be a list of numbers, got '0.5'"]


def test_cli_object_of_tiou_thresholds_exits_1(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", '{"tiou_thresholds": {"0.5": 1}}')
    assert main(["--config", str(config), "evaluate", manifest]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode().splitlines() == [
        "error: tiou_thresholds must be a list of numbers, got {'0.5': 1}"]


def test_cli_sigma_max_past_cap_exits_1(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", '{"sigma_max": 65}')
    assert main(["--config", str(config), "evaluate", manifest]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode().splitlines() == [
        "error: sigma_max must be at most 64, got 65"]


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_cli_non_finite_fixed_tau_exits_1(tmp_path, capsysbinary, fmt):
    manifest = str(perfect_fixture(tmp_path))
    config = write(tmp_path / "cfg.json", '{"fixed_tau": NaN}')
    assert main(["--config", str(config), "--format", fmt, "evaluate",
                 manifest]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    err = captured.err.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "fixed_tau" in err[0]


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_cli_refine_rejects_non_finite_tau(tmp_path, capsysbinary, tau):
    manifest = str(fuse_fixture(tmp_path))
    for command in ("refine", "fuse"):
        assert main([command, manifest, f"--tau={tau}"]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode().splitlines() == [
            f"error: tau must be finite, got {float(tau)}"]


@pytest.mark.parametrize("flag", ["--config", "--pred"])
def test_cli_deeply_nested_json_is_a_parse_error(tmp_path, capsysbinary,
                                                 flag):
    manifest = str(perfect_fixture(tmp_path))
    deep = write(tmp_path / "deep.json", "[" * 100_000 + "]" * 100_000)
    argv = (["--config", str(deep), "evaluate", manifest]
            if flag == "--config"
            else ["event-metrics", manifest, "--pred", str(deep)])
    assert main(argv) == 2
    assert capsysbinary.readouterr().err.decode().splitlines() == [
        f"error: {deep}: JSON nested too deeply"]


def test_cli_jobs_flag_is_a_usage_error(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    for argv in (["--jobs", "2", "evaluate"],
                 ["audit", "--micro-threshold", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, manifest])
        assert exc.value.code == 2
        assert b"usage:" in capsysbinary.readouterr().err


def test_cli_seed_flag_is_a_usage_error(tmp_path, capsysbinary):
    manifest = str(perfect_fixture(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "9", "evaluate", manifest])
    assert exc.value.code == 2
    assert b"usage:" in capsysbinary.readouterr().err


def test_cli_help_documents_defaults(capsysbinary):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsysbinary.readouterr().out.decode()
    assert "sigma_max=5" in text
    assert "vote_window=9" in text
    assert "vote_stride=3" in text
    assert "min_event_len=8" in text
    assert "hprs_beta=0.5" in text
    text = " ".join(text.split())   # argparse wraps the help text
    for key, value in config_to_dict(EvalConfig()).items():
        assert f"{key}={value}" in text


def test_cli_config_file_respected(tmp_path, capsysbinary):
    manifest = perfect_fixture(tmp_path)
    cfg_path = write(tmp_path / "cfg.json",
                     json.dumps({"tiou_thresholds": [0.5]}))
    assert main(["--config", str(cfg_path), "evaluate", str(manifest)]) == 0
    report = json.loads(capsysbinary.readouterr().out)
    assert [row["tiou"] for row in
            report["event_metrics"]["tau_eer"]["per_tiou"]] == [0.5]
    assert report["config"]["tiou_thresholds"] == [0.5]


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def test_cli_reports_strict_json_on_constant_scores(tmp_path, capsysbinary):
    write(tmp_path / "s.csv", scores_csv([0.25] * 40))
    write(tmp_path / "m.csv", mask_csv([0] * 10 + [1] * 20 + [0] * 10))
    manifest = str(write(tmp_path / "manifest.txt",
                         "dataset: d\nvideo: v\nscores: s.csv\n"
                         "mask: m.csv\n"))
    assert main(["frame-metrics", manifest]) == 0
    frame = json.loads(capsysbinary.readouterr().out,
                       parse_constant=_reject_constant)
    assert frame["tau_eer"] == 0.25
    assert main(["evaluate", manifest]) == 0
    report = json.loads(capsysbinary.readouterr().out,
                        parse_constant=_reject_constant)
    assert report["frame_metrics"]["tau_eer"] == 0.25


def test_cli_evaluate_clip_shorter_than_vote_window(tmp_path, capsysbinary):
    write(tmp_path / "s.csv", scores_csv([0.1, 0.8, 0.9, 0.7, 0.2]))
    write(tmp_path / "m.csv", mask_csv([0, 1, 1, 1, 0]))
    manifest = str(write(tmp_path / "manifest.txt",
                         "dataset: d\nvideo: a\nscores: s.csv\n"
                         "mask: m.csv\n"))
    assert main(["evaluate", manifest]) == 0  # vote_window 9 > 5 frames
    report = json.loads(capsysbinary.readouterr().out,
                        parse_constant=_reject_constant)
    assert report["audit"]["event_count"] == 1


@pytest.mark.parametrize("spans,code", [
    ("[[0.7, 300]]", 2),       # float bound: never truncated
    ("[[true, 300]]", 2),      # bool is not an integer bound
    ("[[0, 1000000000]]", 1),  # past the end of the 800-frame video
    ("[[0, 1" + "0" * 30 + "]]", 2),  # past int64
    ("[[0, 9223372036854775807]]", 1),  # int64 max: past the end
])
def test_cli_event_metrics_rejects_bad_predictions(tmp_path, capsysbinary,
                                                   spans, code):
    manifest = str(perfect_fixture(tmp_path))
    pred = write(tmp_path / "pred.json",
                 f'{{"a": {spans}, "b": [[100, 399]]}}')
    assert main(["event-metrics", manifest, "--pred", str(pred)]) == code
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "'a'" in err[0]
