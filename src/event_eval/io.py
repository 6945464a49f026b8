"""File formats and the evaluation orchestrator.

Formats are line-oriented and hand-editable: a key/value manifest, two-column
headered CSVs for scores and masks, a record-per-window text file for branch
errors, and JSON for events and configs. Frame indices in CSVs must run
consecutively from 0; gaps are hard errors, never imputed, because silent
imputation corrupts event boundaries. Reports are written by report.py.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from io import BytesIO
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import (
    EvalConfig,
    EventMetrics,
    EventSet,
    FrameMask,
    FrameMetrics,
    ScoreSequence,
    TemporalEvent,
    validate_pair,
)
from .errors import (
    DuplicateVideoId,
    EventEvalError,
    MissingFile,
    NonBinaryLabel,
    NonFiniteScore,
    ParseError,
    ValidationError,
)
from .events import AuditReport, audit_dataset, clip_runs, refine_clips
from .fusion import BranchErrors, score_window
from .matching import multi_threshold_eval
from .smoothing import smooth_clips
from .thresholds import frame_metrics

REFINED = "refined"
BASELINE = "baseline"


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    scores_path: Path
    mask_path: Path
    branch_errors_path: Path | None = None


@dataclass(frozen=True)
class Manifest:
    dataset_name: str
    videos: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class Report:
    """Everything one evaluation run produced, self-describing."""

    frame_metrics: FrameMetrics
    event_metrics_eer: EventMetrics
    event_metrics_hprs: EventMetrics
    audit: AuditReport
    config_echo: EvalConfig
    tool_version: str
    mode: str


# ---------------------------------------------------------------------------
# loaders


@contextmanager
def _open_utf8(path: Path, newline: str | None = None):
    """Open a text file; a path that is not a file is MissingFile, and an
    undecodable byte is a ParseError at its line.

    A leading UTF-8 byte-order mark is skipped. The stream decodes in
    chunks, so the error's offset is not a file offset: the file is decoded
    again in full to find the first bad byte.
    """
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        with path.open("r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(path), data.count(b"\n", 0, exc.start) + 1,
                             f"byte 0x{data[exc.start]:02x} is not valid "
                             "UTF-8") from None
        raise


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate a manifest file.

    Records look like::

        dataset: my-dataset
        video: v001
        scores: scores/v001.csv
        mask: masks/v001.csv
        branch_errors: branch/v001.txt   (optional)

    Paths are resolved relative to the manifest's directory; every
    referenced file must exist at load time.
    """
    path = Path(path)
    base = path.parent
    dataset_name: str | None = None
    entries: list[ManifestEntry] = []
    current: dict[str, str] | None = None
    current_line = 0

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        for required in ("scores", "mask"):
            if required not in current:
                raise ParseError(str(path), current_line,
                                 f"video {current['video']!r} is missing "
                                 f"the {required!r} key")
        entries.append(ManifestEntry(
            video_id=current["video"],
            scores_path=base / current["scores"],
            mask_path=base / current["mask"],
            branch_errors_path=(base / current["branch_errors"]
                                if "branch_errors" in current else None),
        ))
        current = None

    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ParseError(str(path), lineno,
                                 f"expected 'key: value', got {line!r}")
            if key == "dataset":
                if dataset_name is not None:
                    raise ParseError(str(path), lineno,
                                     "duplicate 'dataset' key")
                dataset_name = value
            elif key == "video":
                flush()
                current = {"video": value}
                current_line = lineno
            elif key in ("scores", "mask", "branch_errors"):
                if current is None:
                    raise ParseError(str(path), lineno,
                                     f"{key!r} before any 'video' record")
                if key in current:
                    raise ParseError(str(path), lineno,
                                     f"duplicate {key!r} in record "
                                     f"{current['video']!r}")
                current[key] = value
            else:
                raise ParseError(str(path), lineno, f"unknown key {key!r}")
    flush()
    if dataset_name is None:
        raise ParseError(str(path), None, "missing 'dataset' key")
    if not entries:
        raise ParseError(str(path), None, "manifest lists no videos")
    seen: set[str] = set()
    for entry in entries:
        if entry.video_id in seen:
            raise DuplicateVideoId(entry.video_id, path=str(path))
        seen.add(entry.video_id)
        for p in (entry.scores_path, entry.mask_path,
                  entry.branch_errors_path):
            if p is not None and not p.is_file():
                raise MissingFile(str(p))
    return Manifest(dataset_name=dataset_name, videos=tuple(entries))


def _read_csv_column(path: str | Path,
                     value_header: str) -> list[tuple[int, str]]:
    """Read a headered two-column CSV, enforcing consecutive frame indices;
    each value comes with its row's first line, the line its errors name."""
    path = Path(path)
    values: list[tuple[int, str]] = []
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["frame",
                                                             value_header]:
            raise ParseError(str(path), 1,
                             f"expected header 'frame,{value_header}'")
        end = reader.line_num   # the last line read
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(str(path), lineno,
                                 f"expected 2 columns, got {len(row)}")
            try:
                frame = int(row[0])
            except ValueError:
                raise ParseError(str(path), lineno,
                                 f"frame index {row[0]!r} is not an integer")
            if frame != len(values):
                raise ParseError(str(path), lineno,
                                 f"frame indices must be consecutive from 0; "
                                 f"expected {len(values)}, got {frame}")
            values.append((lineno, row[1]))
    if not values:
        raise ParseError(str(path), None, "file contains no frames")
    return values


def _read_bytes(path: Path) -> bytes | None:
    """The file's bytes, or None, which sends the caller to the line parser
    for the error."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def _headed_lines(path: Path, header: bytes) -> tuple[bytes, int]:
    """The bytes of a file that starts with the exact header and ends in
    '\\n', and its count of lines after the header; else (b"", 0)."""
    data = _read_bytes(path)
    if data is None or not (data.startswith(header) and data.endswith(b"\n")):
        return b"", 0
    return data, data.count(b"\n") - 1


def _frame_column(n: int) -> bytes:
    """b"0\\n1\\n...\\n" for at least n frames, built once per power of
    two."""
    return _column_of(1 << (n - 1).bit_length())


@lru_cache(maxsize=None)
def _column_of(size: int) -> bytes:
    # 4,096 frames at a time, so that it never holds one str per frame
    return "".join("\n".join(map(str, range(k, min(k + 4096, size)))) + "\n"
                   for k in range(0, size, 4096)).encode()


_LABEL_HEADER = b"frame,label\n"
_SCORE_HEADER = b"frame,score\n"


def _fast_labels(path: Path) -> np.ndarray | None:
    """Labels of a canonical 'frame,label' CSV, or None: the exact header,
    then the lines 'i,0' or 'i,1' for i = 0..n-1, each ending in '\\n'."""
    data, n = _headed_lines(path, _LABEL_HEADER)
    if (n < 1 or data.count(b",") != n + 1
            or data.count(b",0\n") + data.count(b",1\n") != n):
        return None
    # every comma after the header starts a ',0\n' or ',1\n', so what is
    # left of the lines are their frames
    frames = data.replace(b",0\n", b"\n").replace(b",1\n", b"\n")
    if not _frame_column(n).startswith(
            memoryview(frames)[len(_LABEL_HEADER):]):
        return None
    view = np.frombuffer(data, np.uint8, offset=len(_LABEL_HEADER))
    return view[np.flatnonzero(view == ord("\n")) - 1] - ord("0")


# every byte but the separators ',', '\n' and '\r' (a line break to csv)
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n\r")))
_BLOCK = 1 << 16   # bytes of lines split and converted at a time


def _fast_scores(path: Path) -> np.ndarray | None:
    """Scores of a canonical, all-finite 'frame,score' CSV, or None.

    Canonical: the exact header, then one 'frame,value' line per frame, each
    ending in '\\n', with no CR; the frames are those of the frame column,
    0..n-1 without leading zeros. Each value goes through float(), the line
    parser's own converter, so the scores are the line parser's, bit for
    bit. A quote makes float() or the frame check fail, so csv quoting never
    splits a line differently. Lines are split in blocks of about _BLOCK
    bytes, which bounds the temporary bytes and float objects on long clips.
    """
    data, n = _headed_lines(path, _SCORE_HEADER)
    if n < 1:
        return None
    column = _frame_column(n)
    scores = np.empty(n)
    k, at, pos = 0, len(_SCORE_HEADER), 0   # frames done; at in data, column
    while at < len(data):
        end = data.find(b"\n", at + _BLOCK) + 1 or len(data)
        lines = data[at:end]
        # one comma on every line, and no CR
        seps = lines.translate(None, _NOT_SEPARATORS)
        if seps != b",\n" * (len(seps) // 2):
            return None
        fields = lines.replace(b",", b"\n").split(b"\n")
        values = fields[1::2]
        joined = b"\n".join(fields[0::2])   # 'f0\n...\n': the last is b""
        if not column.startswith(joined, pos):
            return None
        pos += len(joined)
        try:
            scores[k:k + len(values)] = np.fromiter(map(float, values),
                                                    np.float64, len(values))
        except ValueError:
            return None
        k, at = k + len(values), end
    return scores if np.isfinite(scores).all() else None


def _scores_from_lines(path: Path, video_id: str) -> list[float]:
    """The line parser for 'frame,score' CSVs: every accepted variant, and
    every error with its line."""
    scores: list[float] = []
    for i, (lineno, text) in enumerate(_read_csv_column(path, "score")):
        try:
            value = float(text)
        except ValueError:
            raise ParseError(str(path), lineno,
                             f"score {text!r} is not a number")
        if not math.isfinite(value):
            raise NonFiniteScore(i, video_id=video_id, path=str(path))
        scores.append(value)
    return scores


def _labels_from_lines(path: Path, video_id: str) -> list[int]:
    """The line parser for 'frame,label' CSVs."""
    labels: list[int] = []
    for i, (_, text) in enumerate(_read_csv_column(path, "label")):
        if text.strip() not in ("0", "1"):
            raise NonBinaryLabel(i, video_id=video_id, path=str(path))
        labels.append(int(text))
    return labels


def load_scores(path: str | Path,
                video_id: str | None = None) -> ScoreSequence:
    """Load a 'frame,score' CSV into a ScoreSequence.

    Canonical files (see _fast_scores) are read in one pass over their
    bytes; every other file, and every error, goes through the line parser.
    Both check every value, so the ScoreSequence is built without a second
    check.
    """
    path = Path(path)
    video_id = video_id if video_id is not None else path.stem
    scores = _fast_scores(path)
    if scores is None:
        scores = _scores_from_lines(path, video_id)
    return ScoreSequence._of(video_id, scores)


def load_mask(path: str | Path, video_id: str | None = None) -> FrameMask:
    """Load a 'frame,label' CSV into a FrameMask; as in load_scores."""
    path = Path(path)
    video_id = video_id if video_id is not None else path.stem
    labels = _fast_labels(path)
    if labels is None:
        labels = _labels_from_lines(path, video_id)
    return FrameMask._of(video_id, labels)


def _branch_errors_from_lines(path: Path) -> tuple[np.ndarray, ...]:
    """The line parser for branch-error files: every accepted variant, and
    every error with its line. Each line is checked as a BranchErrors and
    scored as a one-row score_window. The starts and lengths take no dtype,
    so a start past int64 stays a Python int for mark_windows' range check.
    """
    starts, lengths, scores = [], [], []
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ParseError(str(path), lineno,
                                 "expected 'target_start window_len "
                                 "values...'")
            try:
                start, i = int(fields[0]), int(fields[1])
                values = [float(v) for v in fields[2:]]
            except ValueError as exc:
                raise ParseError(str(path), lineno, str(exc))
            try:
                BranchErrors(short=tuple(values[:i]), long=tuple(values[i:]),
                             window_len=i, target_start=start)
            except EventEvalError as exc:
                exc.args = (f"{exc} | path={path}:{lineno}",)
                raise
            starts.append(start)
            lengths.append(i)
            scores.append(score_window(np.array([values]))[0])
    if not starts:
        raise ParseError(str(path), None, "file contains no windows")
    return np.array(starts), np.array(lengths), np.array(scores)


# A canonical branch-error file: lines 'start len values...' split by
# single spaces, each ending in '\n', of the bytes _BRANCH_BYTES only. A
# start or length of at most 15 digits is exact in a float64.
_BRANCH_BYTES = b"0123456789+-.eE \n"
_BRANCH_LINES = re.compile(rb"(?:[0-9]{1,15} [0-9]{1,15} [^\n]*\n)+")
_BRANCH_SPACING = re.compile(rb" [ \n]")   # an empty field


def _fast_branch_errors(path: Path) -> tuple[np.ndarray, ...] | None:
    """The arrays of a canonical file whose windows all have one length
    i >= 1 and finite errors >= 0, or None."""
    data = _read_bytes(path)
    if (data is None or data.translate(None, _BRANCH_BYTES)
            or _BRANCH_SPACING.search(data)
            or not _BRANCH_LINES.fullmatch(data)):
        return None
    try:
        # not the path: numpy would pick a decompressor by its suffix
        rows = np.loadtxt(BytesIO(data), delimiter=" ", ndmin=2)
    except ValueError:   # a field that is not a number, or ragged rows
        return None
    i, extra = divmod(rows.shape[1] - 2, 4)   # the pattern makes i >= 1
    if (extra or (rows[:, 1] != i).any() or not np.isfinite(rows).all()
            or (rows < 0).any()):
        return None
    return (rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64),
            score_window(rows[:, 2:]))


def load_branch_errors(path: str | Path) -> tuple[np.ndarray, ...]:
    """Target starts, window lengths and scores of a record-per-window
    branch error file, in file order.

    Each non-comment line is whitespace-separated numbers: target_start,
    window_len i, then 4i error values (the i short-branch values followed
    by the 3i long-branch values). Canonical files (see _BRANCH_LINES) are
    read by one np.loadtxt call; every other file, and every error, goes
    through the line parser.
    """
    path = Path(path)
    return _fast_branch_errors(path) or _branch_errors_from_lines(path)


def _load_json_object(path: Path) -> dict:
    try:
        with _open_utf8(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.msg)
    except RecursionError:
        raise ParseError(str(path), None, "JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(str(path), None, "expected a JSON object")
    return data


def load_events_json(path: str | Path) -> dict[str, EventSet]:
    """Load predicted events: a JSON object video_id -> [[start, end], ...]."""
    path = Path(path)
    out: dict[str, EventSet] = {}
    for video_id, spans in _load_json_object(path).items():
        try:
            events = tuple(TemporalEvent(*_int_bounds(span))
                           for span in spans)
            out[video_id] = EventSet(video_id=video_id, events=events)
        except (EventEvalError, TypeError, ValueError) as exc:
            raise ParseError(str(path), None,
                             f"bad events for {video_id!r}: {exc}")
    return out


def _int_bounds(span) -> tuple[int, int]:
    start, end = span
    if type(start) is not int or type(end) is not int:
        raise ValueError(f"event bounds {span!r} are not integers")
    return start, end


def events_to_json_obj(events_by_id: dict[str, EventSet]) -> dict:
    return {vid: np.column_stack((es.starts, es.ends)).tolist()
            for vid, es in sorted(events_by_id.items())}


# ---------------------------------------------------------------------------
# config serialization


def config_to_dict(cfg: EvalConfig) -> dict:
    return {**dataclasses.asdict(cfg),
            "tiou_thresholds": list(cfg.tiou_thresholds),
            "threshold_strategy": cfg.threshold_strategy.value}


def config_from_dict(data: dict) -> EvalConfig:
    names = {f.name for f in dataclasses.fields(EvalConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    return EvalConfig(**data)


def load_config(path: str | Path) -> EvalConfig:
    return config_from_dict(_load_json_object(Path(path)))


# ---------------------------------------------------------------------------
# evaluation orchestration


def _by_video_id(manifest: Manifest) -> list[ManifestEntry]:
    """The manifest's entries in video_id order, in which all are read."""
    return sorted(manifest.videos, key=lambda e: e.video_id)


def load_videos(manifest: Manifest) -> list[tuple[ScoreSequence, FrameMask]]:
    """Load and cross-validate every (scores, mask) pair, sorted by video_id."""
    videos = []
    for entry in _by_video_id(manifest):
        scores = load_scores(entry.scores_path, entry.video_id)
        mask = load_mask(entry.mask_path, entry.video_id)
        validate_pair(scores, mask)
        videos.append((scores, mask))
    return videos


def load_masks(manifest: Manifest) -> list[FrameMask]:
    """Load every mask, sorted by video_id; no scores file is opened."""
    return [load_mask(e.mask_path, e.video_id) for e in _by_video_id(manifest)]


def _end_to_end(videos: Sequence[tuple[ScoreSequence, FrameMask]]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The videos' scores and labels laid end to end, and the clip bounds."""
    return (np.concatenate([s.as_array() for s, _ in videos]),
            np.concatenate([m.as_array() for _, m in videos]),
            np.cumsum([0, *(len(s) for s, _ in videos)]))


def predict_clips(scores: np.ndarray, bounds: np.ndarray,
                  taus: Sequence[float], cfg: EvalConfig,
                  mode: str) -> list[EventSet]:
    """The events of every clip of scores at each tau, as indices into
    scores. Refined mode smooths once for all taus; baseline mode binarizes
    the raw scores."""
    if mode == BASELINE:
        return [EventSet._of("", *clip_runs(scores >= tau, bounds))
                for tau in taus]
    if mode == REFINED:
        smoothed = smooth_clips(scores, bounds, cfg.sigma_max)
        return [refine_clips(smoothed, bounds, tau, cfg) for tau in taus]
    raise ValidationError(f"unknown mode {mode!r}")


def predict_videos(videos: Sequence[tuple[ScoreSequence, FrameMask]],
                   tau: float, cfg: EvalConfig,
                   mode: str) -> dict[str, EventSet]:
    """Each video's predicted events at tau, from one pass over all videos."""
    scores, _, bounds = _end_to_end(videos)
    (pred,) = predict_clips(scores, bounds, (tau,), cfg, mode)
    cut = np.searchsorted(pred.starts, bounds)
    return {s.video_id: EventSet._of(s.video_id, pred.starts[i:j] - a,
                                     pred.ends[i:j] - a)
            for (s, _), a, i, j in zip(videos, bounds, cut, cut[1:])}


def compute_frame_metrics(videos: Sequence[tuple[ScoreSequence, FrameMask]],
                          cfg: EvalConfig) -> FrameMetrics:
    """Frame-level metrics over the concatenated scores of all videos.

    frame_metrics sorts both arrays in place, so they are fresh copies; a
    mask's 0/1 bytes, viewed as bool, select its clip's positive frames.
    """
    return frame_metrics(
        np.concatenate([s.as_array() for s, _ in videos]),
        np.concatenate([s.as_array()[m.as_array().view(bool)]
                        for s, m in videos]),
        cfg.hprs_beta)


def event_metrics_at(videos: Sequence[tuple[ScoreSequence, FrameMask]],
                     tau: float, cfg: EvalConfig, mode: str) -> EventMetrics:
    """Refine every video at tau and evaluate against its mask's events."""
    scores, labels, bounds = _end_to_end(videos)
    (pred,) = predict_clips(scores, bounds, (tau,), cfg, mode)
    gt = EventSet._of("", *clip_runs(labels, bounds))
    return multi_threshold_eval([gt], [pred], cfg.tiou_thresholds)


def run_evaluation(manifest: Manifest, cfg: EvalConfig,
                   mode: str = REFINED) -> Report:
    """Full protocol: frame metrics, both operating points, event metrics.

    Thresholds are derived once from the concatenated scores. Every later
    stage runs once over all videos laid end to end in video_id order, so
    the report is byte-identical across runs.
    """
    videos = load_videos(manifest)
    frame = compute_frame_metrics(videos, cfg)
    audit = audit_dataset([m for _, m in videos], cfg.min_event_len)
    scores, labels, bounds = _end_to_end(videos)
    del videos   # the clips live on in the end-to-end arrays
    # every clip's events in one EventSet: they never overlap across clips
    gt = EventSet._of("", *clip_runs(labels, bounds))
    metrics_eer, metrics_hprs = (
        multi_threshold_eval([gt], [pred], cfg.tiou_thresholds)
        for pred in predict_clips(scores, bounds,
                                  (frame.tau_eer, frame.tau_hprs), cfg, mode))
    return Report(
        frame_metrics=frame,
        event_metrics_eer=metrics_eer,
        event_metrics_hprs=metrics_hprs,
        audit=audit,
        config_echo=cfg,
        tool_version=__version__,
        mode=mode,
    )
