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
from dataclasses import dataclass
from functools import lru_cache
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Sequence

import numpy as np
import orjson

from . import __version__
from .core import (
    Dataset,
    EvalConfig,
    EventMetrics,
    EventSet,
    FrameMask,
    FrameMetrics,
    ScoreSequence,
    TemporalEvent,
    ThresholdStrategy,
    check_tau,
    check_type,
)
from .errors import (
    DuplicateVideoId,
    EventEvalError,
    MissingFile,
    NonBinaryLabel,
    NonFiniteScore,
    ParseError,
    ValidationError,
    _locate,
)
from .events import AuditReport, audit_events, clip_runs, refine_clips
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


def _read(path: Path) -> bytes:
    """The file's bytes, its one read; a path that is not a regular file is
    MissingFile, so a FIFO is never opened."""
    if not path.is_file():
        raise MissingFile(str(path))
    return path.read_bytes()


def _text(path: Path, data: bytes,
          newline: str | None = None) -> TextIOWrapper:
    """data as a text stream whose lines split as path.open's would; a
    leading UTF-8 byte-order mark is skipped. All of data is decoded first,
    so an undecodable byte is a ParseError at its line, ended by LF, CRLF or
    a lone CR as the parsers' lines are, before any line is parsed."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), len(data[:exc.start + 1].splitlines()),
                         f"byte 0x{data[exc.start]:02x} is not valid "
                         "UTF-8") from None
    return TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline=newline)


def _close_record(path: Path, records: list) -> None:
    """The open record, the last of records, must name its scores and mask;
    a missing key is a ParseError at the record's 'video' line."""
    for line, video, paths in records[-1:]:
        for key in ("scores", "mask"):
            if key not in paths:
                raise ParseError(str(path), line, f"video {video!r} is "
                                 f"missing the {key!r} key")


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
    records: list[tuple[int, str, dict[str, Path]]] = []   # line, id, paths
    for lineno, raw in enumerate(_text(path, _read(path)), start=1):
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
                raise ParseError(str(path), lineno, "duplicate 'dataset' key")
            dataset_name = value
        elif key == "video":
            _close_record(path, records)
            records.append((lineno, value, {}))
        elif key in ("scores", "mask", "branch_errors"):
            if not records:
                raise ParseError(str(path), lineno,
                                 f"{key!r} before any 'video' record")
            _, video, paths = records[-1]
            if key in paths:
                raise ParseError(str(path), lineno,
                                 f"duplicate {key!r} in record {video!r}")
            paths[key] = base / value
        else:
            raise ParseError(str(path), lineno, f"unknown key {key!r}")
    _close_record(path, records)   # the last record
    if dataset_name is None:
        raise ParseError(str(path), None, "missing 'dataset' key")
    if not records:
        raise ParseError(str(path), None, "manifest lists no videos")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for _, video, paths in records:
        if video in seen:
            raise DuplicateVideoId(video, path=str(path))
        seen.add(video)
        files = [paths.get(key) for key in ("scores", "mask", "branch_errors")]
        for p in files:
            if p is not None and not p.is_file():
                raise MissingFile(str(p))
        entries.append(ManifestEntry(video, *files))
    return Manifest(dataset_name=dataset_name, videos=tuple(entries))


def _read_csv_column(path: Path, data: bytes, value_header: str,
                     parse) -> list:
    """The line parser of data, the bytes of path, a headered two-column
    CSV: frame indices must run consecutively, then parse(text, i, line)
    reads frame i's value, line being its row's first, which errors name."""
    rows: list[tuple[int, str]] = []
    reader = csv.reader(_text(path, data, newline=""))
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
        if frame != len(rows):
            raise ParseError(str(path), lineno,
                             f"frame indices must be consecutive from 0; "
                             f"expected {len(rows)}, got {frame}")
        rows.append((lineno, row[1]))
    if not rows:
        raise ParseError(str(path), None, "file contains no frames")
    return [parse(text, i, line) for i, (line, text) in enumerate(rows)]


def _prefixed(lines: bytes, prefixes: range) -> bytes:
    """lines once per prefix, with the prefix put after each '\\n'."""
    return b"".join(lines.replace(b"\n", b"\n%d" % p) for p in prefixes)


# frames 0..999 zero-padded, each after its '\n', b"\n000\n001...\n999";
# with their up to two leading zeros stripped, b"0\n1\n...\n999"
_THOUSAND = _prefixed(_prefixed(_prefixed(b"\n", range(10)), range(10)),
                      range(10))
_FIRST_THOUSAND = _THOUSAND.replace(b"\n0", b"\n").replace(b"\n0", b"\n")[1:]


@lru_cache(maxsize=None)
def _frame_column(size: int) -> bytes:
    """b"0\\n1\\n...\\n" for at least size frames, a power of two so that
    few are built. Each thousand after the first is _THOUSAND with its
    prefix put before every line, so no str is made per frame."""
    later = _prefixed(_THOUSAND, range(1, -(-size // 1000)))
    return b"".join([_FIRST_THOUSAND, later, b"\n"])


# Over these bytes every JSON number is one that float() reads to the same
# bits, but '-0', which JSON reads as the integer 0 and float() as -0.0;
# anything else that is not a JSON number, '1.' or '+1' say, is an error.
_NUMBER_BYTES = b"0123456789+-.eE"
_BLOCK = 1 << 16   # bytes of lines split and converted at a time


def _blocks(data: bytes, at: int):
    """data[at:] in blocks of whole lines of about _BLOCK bytes each, which
    bounds the temporary bytes and objects of a long file."""
    while at < len(data):
        end = data.find(b"\n", at + _BLOCK) + 1 or len(data)
        yield data[at:end]
        at = end


def _fast_column(data: bytes, value_header: str, convert) -> np.ndarray | None:
    """The values of data, a canonical 'frame,<value_header>' CSV, or None.

    Canonical: the exact header, then one 'frame,value' line per frame, each
    ending in '\\n', with no CR; the frames are those of the frame column,
    0..n-1 without leading zeros. convert turns a block of lines into their
    frame column, b'f0\\n...\\n', and an array of their values, or None
    when a value is not canonical. Every byte is of _NUMBER_BYTES or a
    separator, so no quote makes csv split a line differently.
    """
    header = f"frame,{value_header}\n".encode()
    if (len(data) == len(header)
            or not (data.startswith(header) and data.endswith(b"\n"))):
        return None
    column = _frame_column(1 << (data.count(b"\n") - 2).bit_length())
    blocks, pos = [], 0   # pos in column
    for lines in _blocks(data, len(header)):
        # one comma on every line, no CR, and else only _NUMBER_BYTES
        seps = lines.translate(None, _NUMBER_BYTES)
        if seps != b",\n" * (len(seps) // 2):
            return None
        converted = convert(lines)
        if converted is None or not column.startswith(converted[0], pos):
            return None
        pos += len(converted[0])
        blocks.append(converted[1])
    return np.concatenate(blocks)


def _finite_floats(lines: bytes) -> tuple[bytes, np.ndarray] | None:
    """The lines' frames and scores, read by one orjson parse, so with
    float()'s bits; None, and so the line parser, unless every value is a
    finite JSON number other than '-0' (see _NUMBER_BYTES)."""
    fields = lines.replace(b",", b"\n").split(b"\n")
    values = fields[1::2]
    try:
        scores = np.array(orjson.loads(b"[" + b",".join(values) + b"]"),
                          np.float64)
    except orjson.JSONDecodeError:
        return None
    # one empty value reads as []; only a zero can have been a '-0'
    if (len(scores) != len(values) or not np.isfinite(scores).all()
            or not scores.all() and b",-0\n" in lines):
        return None
    return b"\n".join(fields[0::2]), scores   # the last field is b""


def _binary_bytes(lines: bytes) -> tuple[bytes, np.ndarray] | None:
    """The lines' frames and labels, read by position, or None unless the
    byte before each '\\n' is '0' or '1'. The frames drop each label and the
    byte before it, which must be the line's one comma: any other byte
    there leaves that comma in a frame, which the frame check rejects."""
    text = np.frombuffer(lines, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    labels = text[ends - 1] - ord("0")   # a byte below '0' wraps past 1
    if (labels > 1).any():
        return None
    frame = np.ones(len(text), bool)
    frame[ends - 1] = frame[ends - 2] = False
    return text[frame].tobytes(), labels


def load_scores(path: str | Path,
                video_id: str | None = None) -> ScoreSequence:
    """Load a 'frame,score' CSV into a ScoreSequence.

    Canonical files (see _fast_column) are read in blocks of their bytes;
    every other file, and every error, goes through the line parser. Both
    check every value, so the ScoreSequence is built without a second
    check.
    """
    path = Path(path)
    video_id = video_id if video_id is not None else path.stem

    def parse(text: str, i: int, line: int) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(str(path), line,
                             f"score {text!r} is not a number")
        if not math.isfinite(value):
            raise NonFiniteScore(i, video_id=video_id, path=str(path))
        return value

    data = _read(path)
    scores = _fast_column(data, "score", _finite_floats)
    if scores is None:
        scores = _read_csv_column(path, data, "score", parse)
    return ScoreSequence._of(video_id, scores)


def load_mask(path: str | Path, video_id: str | None = None) -> FrameMask:
    """Load a 'frame,label' CSV into a FrameMask; as in load_scores."""
    path = Path(path)
    video_id = video_id if video_id is not None else path.stem

    def parse(text: str, i: int, line: int) -> int:
        if text.strip() not in ("0", "1"):
            raise NonBinaryLabel(i, video_id=video_id, path=str(path))
        return int(text)

    data = _read(path)
    labels = _fast_column(data, "label", _binary_bytes)
    if labels is None:
        labels = _read_csv_column(path, data, "label", parse)
    return FrameMask._of(video_id, labels)


def _branch_errors_from_lines(path: Path,
                              data: bytes) -> tuple[np.ndarray, ...]:
    """The line parser of data, path's bytes: every accepted variant, and
    every error with its line. Each line is checked as a BranchErrors and
    scored as a one-row score_window. The starts and lengths take no dtype,
    so a start past int64 stays a Python int for mark_windows' range check.
    """
    starts, lengths, scores = [], [], []
    for lineno, raw in enumerate(_text(path, data), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(str(path), lineno,
                             "expected 'target_start window_len values...'")
        try:
            start, i = int(fields[0]), int(fields[1])
            values = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise ParseError(str(path), lineno, str(exc))
        try:
            BranchErrors(short=tuple(values[:i]), long=tuple(values[i:]),
                         window_len=i, target_start=start)
        except EventEvalError as exc:
            raise _locate(exc, path=path, line=lineno)
        starts.append(start)
        lengths.append(i)
        scores.append(score_window(np.array([values]))[0])
    if not starts:
        raise ParseError(str(path), None, "file contains no windows")
    return np.array(starts), np.array(lengths), np.array(scores)


def _fast_branch_errors(data: bytes) -> tuple[np.ndarray, ...] | None:
    """The starts, lengths and errors of data's lines, read by orjson as
    rows [start, len, e...] a block of lines at a time; None, and so the
    line parser, unless data is of _NUMBER_BYTES, spaces and newlines, every
    row is 2 + 4i wide for one i >= 1 in every block, every start a JSON
    integer in 0..int64 max, every length i, and every error finite, >= 0
    and no '-0'; the errors then have float()'s bits (see _NUMBER_BYTES)."""
    if data.translate(None, _NUMBER_BYTES + b" \n"):
        return None
    columns, widths = [], set()
    for lines in _blocks(data, 0):
        try:
            rows = orjson.loads(b"[[" + lines.rstrip(b"\n").replace(b" ", b",")
                                .replace(b"\n", b"],[") + b"]]")
            table = np.array(rows, np.float64)   # ragged rows: ValueError
            # a float, or an int past int64, makes another dtype
            heads = np.array([row[:2] for row in rows])
        except ValueError:
            return None
        if heads.dtype != np.int64:
            return None
        errors = table[:, 2:]
        # only a zero can have been a '-0'
        if not errors.all() and (b" -0 " in lines or b" -0\n" in lines):
            return None
        widths.add(table.shape[1])
        columns.append((heads, errors))
    if len(widths) != 1:   # one row width 2 + 4i, so one i, in every block
        return None
    i, extra = divmod(widths.pop() - 2, 4)
    heads, errors = map(np.concatenate, zip(*columns))
    if (extra or i < 1 or (heads[:, 1] != i).any() or (heads[:, 0] < 0).any()
            or not np.isfinite(errors).all() or (errors < 0).any()):
        return None
    return heads[:, 0], heads[:, 1], errors


def load_branch_errors(path: str | Path) -> tuple[np.ndarray, ...]:
    """Target starts, window lengths and scores of a record-per-window
    branch error file, in file order.

    Each non-comment line is whitespace-separated numbers: target_start,
    window_len i, then 4i error values (the i short-branch values followed
    by the 3i long-branch values). A canonical file (see _fast_branch_errors)
    is read by orjson and its windows scored by score_window; every other
    file, and every error, goes through the line parser.
    """
    path = Path(path)
    data = _read(path)
    fast = _fast_branch_errors(data)
    if fast is None:
        return _branch_errors_from_lines(path, data)
    starts, lengths, errors = fast
    return starts, lengths, score_window(errors)


def _load_json_object(path: Path) -> dict:
    """A JSON object; a key repeated in any object is a ParseError."""
    def unique(pairs: list[tuple]) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ParseError(str(path), None, f"duplicate key {key!r}")
            data[key] = value
        return data

    try:
        data = json.load(_text(path, _read(path)), object_pairs_hook=unique)
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
            events = tuple(TemporalEvent(*span) for span in spans)
            out[video_id] = EventSet(video_id=video_id, events=events)
        except (EventEvalError, TypeError, ValueError) as exc:
            raise ParseError(str(path), None,
                             f"bad events for {video_id!r}: {exc}")
    return out


def events_to_json_obj(events_by_id: dict[str, EventSet]) -> dict:
    return {vid: np.column_stack((es.starts, es.ends)).tolist()
            for vid, es in sorted(events_by_id.items())}


# ---------------------------------------------------------------------------
# config serialization


def config_to_dict(cfg: EvalConfig) -> dict:
    check_type("cfg", cfg, EvalConfig)
    return {**dataclasses.asdict(cfg),
            "tiou_thresholds": list(cfg.tiou_thresholds),
            "threshold_strategy": cfg.threshold_strategy.value}


def config_from_dict(data: dict) -> EvalConfig:
    check_type("data", data, dict)
    names = {f.name for f in dataclasses.fields(EvalConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    return EvalConfig(**data)


def load_config(path: str | Path) -> EvalConfig:
    return config_from_dict(_load_json_object(Path(path)))


# ---------------------------------------------------------------------------
# evaluation orchestration


def load_dataset(manifest: Manifest, scores: bool = True) -> Dataset:
    """Every video of the manifest, in video_id order, laid end to end: each
    scores file (when scores is True) and then its mask is read, and
    Dataset.of checks the pair before the next video's files are opened."""
    check_type("manifest", manifest, Manifest)
    return Dataset.of(
        (load_scores(e.scores_path, e.video_id) if scores else None,
         load_mask(e.mask_path, e.video_id))
        for e in sorted(manifest.videos, key=lambda e: e.video_id))


def predict_clips(data: Dataset, taus: Sequence[float], cfg: EvalConfig,
                  mode: str) -> list[EventSet]:
    """The events of every video of data at each tau, as indices into its
    frames. Refined mode smooths once for all taus; baseline mode binarizes
    the raw scores."""
    for tau in taus:
        check_tau(tau)
    check_type("data", data, Dataset)
    check_type("cfg", cfg, EvalConfig)
    if mode == BASELINE:
        return [clip_runs(data.scores >= tau, data.bounds) for tau in taus]
    if mode == REFINED:
        smoothed = smooth_clips(data.scores, data.bounds, cfg.sigma_max)
        return [refine_clips(smoothed, data.bounds, tau, cfg) for tau in taus]
    raise ValidationError(f"unknown mode {mode!r}")


def predict_videos(data: Dataset, tau: float | None, cfg: EvalConfig,
                   mode: str) -> dict[str, EventSet]:
    """Each video's predicted events at tau, from one pass over all videos.
    A tau of None comes from cfg.threshold_strategy: fixed_tau, or the
    frame metrics' EER or HPRS threshold over the same pass."""
    check_type("cfg", cfg, EvalConfig)
    strategy = cfg.threshold_strategy
    if tau is None and strategy is ThresholdStrategy.FIXED:
        tau = cfg.fixed_tau
    elif tau is None:
        frame = frame_metrics(data, cfg.hprs_beta)
        tau = (frame.tau_eer if strategy is ThresholdStrategy.EER
               else frame.tau_hprs)
    (pred,) = predict_clips(data, (tau,), cfg, mode)
    return data.split(pred)


def compute_frame_metrics(videos: Sequence[tuple[ScoreSequence, FrameMask]],
                          cfg: EvalConfig) -> FrameMetrics:
    """Frame-level metrics over the concatenated scores of all videos."""
    check_type("cfg", cfg, EvalConfig)
    return frame_metrics(Dataset.of(videos), cfg.hprs_beta)


def event_metrics_at(videos: Sequence[tuple[ScoreSequence, FrameMask]],
                     tau: float, cfg: EvalConfig, mode: str) -> EventMetrics:
    """Refine every video at tau and evaluate against its mask's events."""
    data = Dataset.of(videos)
    (pred,) = predict_clips(data, (tau,), cfg, mode)
    return multi_threshold_eval([clip_runs(data.labels, data.bounds)], [pred],
                                cfg.tiou_thresholds)


def run_evaluation(manifest: Manifest, cfg: EvalConfig,
                   mode: str = REFINED) -> Report:
    """Full protocol: frame metrics, both operating points, event metrics.

    Every stage runs once over all videos laid end to end in video_id
    order: thresholds are derived from the concatenated scores, and the
    ground-truth events serve both the audit and the matching. The report
    is byte-identical across runs.
    """
    check_type("manifest", manifest, Manifest)
    check_type("cfg", cfg, EvalConfig)
    data = load_dataset(manifest)
    frame = frame_metrics(data, cfg.hprs_beta)
    gt = clip_runs(data.labels, data.bounds)
    metrics_eer, metrics_hprs = (
        multi_threshold_eval([gt], [pred], cfg.tiou_thresholds)
        for pred in predict_clips(data, (frame.tau_eer, frame.tau_hprs), cfg,
                                  mode))
    return Report(
        frame_metrics=frame,
        event_metrics_eer=metrics_eer,
        event_metrics_hprs=metrics_hprs,
        audit=audit_events(gt, int(data.bounds[-1]), cfg.min_event_len),
        config_echo=cfg,
        tool_version=__version__,
        mode=mode,
    )
