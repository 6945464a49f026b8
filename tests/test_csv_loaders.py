"""Score/mask CSV and branch-error loading: the vectorized path against
the line parser.

load_scores, load_mask and load_branch_errors parse canonical files with
numpy and send every other file to the line parser. The vectorized path
must accept a subset of what the line parser accepts and give bit-identical
values on it; on every other input the line parser's values or error (type
and message) stand.
"""

from __future__ import annotations

import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

import event_eval.io as io_mod
from event_eval.cli import main
from event_eval.core import ScoreSequence
from event_eval.errors import ParseError
from event_eval.io import (
    load_branch_errors,
    load_config,
    load_events_json,
    load_manifest,
    load_mask,
    load_scores,
)
from event_eval.synthetic import make_dataset, write_dataset

HEADERS = {"score": b"frame,score\n", "label": b"frame,label\n"}


def _outcome(fn):
    """('ok', exact value) or (exception type, message)."""
    try:
        return "ok", fn()
    except Exception as exc:  # any type: the types are compared
        return type(exc), str(exc)


def _score_bits(seq: ScoreSequence) -> tuple:
    return tuple(np.asarray(seq.scores).view(np.uint64).tolist())


def _load(path: Path, kind: str):
    """load_scores' bits or load_mask's labels, or the error."""
    if kind == "score":
        return _outcome(lambda: _score_bits(load_scores(path, "v")))
    return _outcome(lambda: load_mask(path, "v").labels)


def assert_same_as_line_parser(path: Path, kind: str) -> None:
    """Same values or error as with the vectorized path switched off, and
    no warning from either path."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _load(path, kind)
        with mock.patch.object(io_mod, "_fast_column", return_value=None):
            want = _load(path, kind)
    assert got == want
    assert [str(w.message) for w in caught] == []


def reads_by_line(path: Path, kind: str) -> bool:
    """Whether loading path goes through the line parser."""
    with mock.patch.object(io_mod, "_read_csv_column",
                           side_effect=io_mod._read_csv_column) as spy:
        _load(path, kind)
    return spy.called


ADVERSARIAL = [
    ("score", b"frame,score\r\n0,0.5\r\n1,0.25\r\n"),  # CRLF
    ("score", b"frame,score\n0,0.5\r\n1,0.25\n"),  # one CRLF
    ("score", b"frame,score\r0,0.5\r1,0.25\r"),  # lone CR
    ("score", b"frame,score\n0,\r0.5\n"),  # a lone CR inside a field
    ("score", b'frame,score\n"0","0.5"\n1,0.25\n'),  # quoted
    ("score", b'"frame","score"\n0,0.5\n'),  # quoted header
    ("score", b'frame,score\n0,"0.5\n1,0.25"\n'),  # quoted newline
    ("score", b"frame,score\n0,0.5\n\n1,0.25\n"),  # blank line
    ("score", b"frame,score\n\n0,0.5\n"),  # leading blank
    ("score", b"frame,score\n0,0.5\n1,0.25\n\n"),  # trailing blank
    ("score", b"frame,score\n0,0.5\n1,0.25"),  # no final \n
    ("score", b"frame, score \n0,0.5\n"),  # padded header
    ("score", b"\xef\xbb\xbfframe,score\n0,0.5\n"),  # BOM
    ("score", b"frame,score,x\n0,0.5\n"),
    ("score", b"frame,label\n0,0.5\n"),  # wrong header
    ("score", b"frame,score\n"),  # header only
    ("score", b"frame,score\n\n"),  # only a blank line
    ("score", b"frame,score\n0,0.5,1\n"),  # a third column
    ("score", b"frame,score\n0,0.5,1\n\n"),  # as many commas as lines
    ("score", b"frame,score"),
    ("score", b""),
    ("score", b"frame,score\n0,5\n1,6,2\n7\n"),  # realigns
    ("score", b"frame,score\n0\n0.5,1,0.7\n"),  # a comma per line on average
    ("score", b"frame,score\n0,5,\n1,6\n"),
    ("score", b"frame,score\n0,0.5\n1\n"),
    ("score", b"frame,score\n0,\n"),  # empty value
    ("score", b"frame,score\n,0.5\n"),  # empty frame
    ("score", b"frame,score\n0,0.5\n2,0.25\n"),  # gap
    ("score", b"frame,score\n1,0.5\n"),
    ("score", b"frame,score\n0,0.5\n0,0.25\n"),  # repeat
    ("score", b"frame,score\n00,0.5\n01,0.25\n"),  # leading zeros
    ("score", b"frame,score\n+0,0.5\n"),
    ("score", b"frame,score\n-0,0.5\n"),
    ("score", b"frame,score\n 0,0.5\n"),
    ("score", b"frame,score\n0.0,0.5\n"),
    ("score", b"frame,score\n0e0,0.5\n"),
    ("score", b"frame,score\n0,0.5\n1.9,0.25\n"),  # a float frame
    ("label", b"frame,label\n0,0\n1.9,1\n"),
    ("score", b"frame,score\n0_0,0.5\n"),
    # non-digit frame bytes whose offsets from '0' could pass for 21 and 63
    ("score", b"frame,score\n" + b"".join(b"%d,0.5\n" % i for i in range(21))
     + b"E,0.5\n"),
    ("score", b"frame,score\n" + b"".join(b"%d,0.5\n" % i for i in range(63))
     + b"1e,0.5\n"),
    ("score", b"frame,score\n" + b"0" * 19 + b",0.5\n"),  # 19-digit frame
    ("score", b"frame,score\n" + b"9" * 19 + b",0.5\n"),
    ("score", b"frame,score\n0,1_0\n"),
    ("score", b"frame,score\n0,nan\n"),
    ("score", b"frame,score\n0,0.5\n1,NaN\n"),
    ("score", b"frame,score\n0,inf\n"),
    ("score", b"frame,score\n0,-Infinity\n"),
    ("score", b"frame,score\n0,1e400\n"),
    ("score", b"frame,score\n0,-1e400\n"),
    ("score", b"frame,score\n0,1e-400\n"),
    ("score", b"frame,score\n0,0x10\n"),
    ("score", b"frame,score\n0,1e\n"),
    ("score", b"frame,score\n0,.\n"),
    ("score", b"frame,score\n0,+-1\n"),
    ("score", b"frame,score\n0,1e5e5\n"),
    ("score", b"frame,score\n0,--1\n"),
    ("score", b"frame,score\n0,1.5.\n"),
    ("score", b"frame,score\n0,e5\n"),
    ("score", b"frame,score\n0,-0\n"),
    ("score", b"frame,score\n0,1.\n1,.5\n2,+.5e-3\n3,1E5\n"),
    ("score", b"frame,score\n0, 0.5\n"),
    ("score", b"frame,score\n0,0.5 \n"),
    ("score", b"frame,score\n0,\t0.5\n"),
    ("score", b"frame,score\n0,0.5\x00\n"),
    ("score", b"frame,score\n0,abc\n"),
    ("score", b"frame,score\n0,0.1000000000000000055511151231257827\n"),
    ("score", b"frame,score\n0," + b"1" * 400 + b"\n"),
    ("score", "frame,score\n٠,0.5\n".encode()),  # Arabic-Indic 0
    ("score", "frame,score\n0,٠.٥\n".encode()),
    ("score", "frame,score\n0,０.5\n".encode()),  # fullwidth 0
    ("score", b"frame,score\n0,0.\xff\n"),  # not UTF-8
    ("label", b"frame,label\n0,0\n1,1\n"),
    ("label", b"frame,label\r\n0,0\r\n1,1\r\n"),
    ("label", b'frame,label\n0,"1"\n'),
    ("label", b"frame,label\n0,1\n\n1,0\n"),
    ("label", b"frame,label\n0,1\n1,0"),
    ("label", b"frame,label\n"),
    ("label", b"frame,label\n\n"),
    ("label", b"frame,label\n0, 1\n"),
    ("label", b"frame,label\n0,1 \n"),
    ("label", b"frame,label\n0,+1\n"),
    ("label", b"frame,label\n0,-0\n"),
    ("label", b"frame,label\n0,01\n"),
    ("label", b"frame,label\n0,00\n"),
    ("label", b"frame,label\n0,1.0\n"),
    ("label", b"frame,label\n0,2\n"),
    ("label", b"frame,label\n0,256\n"),  # overflows uint8
    ("label", b"frame,label\n0,1_0\n"),
    ("label", b"frame,label\n0,\n"),
    ("label", b"frame,label\n0,1\n1,1,0\n"),
    ("label", b"frame,label\n0,1\n2,1\n"),
    ("label", b"frame,label\n00,1\n001,0\n"),
    ("label", "frame,label\n0,١\n".encode()),
    ("label", "frame,label\n٠,1\n".encode()),
    ("label", b"frame,label\n0,\xfe\n"),
    ("label", b"\xef\xbb\xbfframe,label\n0,1\n"),  # BOM
    ("label", b"frame,label\n0,1\r\n1,0\n"),  # one CRLF
    ("label", b"frame,label\r0,1\r1,0\r"),  # lone CR
    ("label", b'"frame","label"\n0,1\n'),  # quoted header
    ("label", b'frame,label\n0,"1\n"\n'),  # quoted newline
    ("label", b"frame,label\n\n0,1\n"),  # leading blank
    ("label", b"frame,label\n0,1\n1,0\n\n"),  # trailing blank
    ("label", b"frame, label \n0,1\n"),  # padded header
    ("label", b"frame,score\n0,1\n"),  # wrong header
    ("label", b"frame,label\n0,1,\n"),
    ("label", b"frame,label\n0\n1,0,1\n"),  # a comma per line on average
    ("label", b"frame,label\n0,\n1,11\n"),  # an empty and a 2-byte value
    ("label", b"frame,label\n0,11\n1,\n"),
    ("label", b"frame,label\n1,1\n"),
    ("label", b"frame,label\n0,1\n0,1\n"),  # repeat
    ("label", b"frame,label\n-0,1\n"),
    ("label", b"frame,label\n0,1\x00\n"),
    ("label", b"frame,label\n0,\t1\n"),
    ("label", b"frame,label\n0,/\n"),  # the byte below '0'
    ("label", b"frame,label\n0,nan\n"),
]


@pytest.mark.parametrize("kind,body", ADVERSARIAL)
def test_adversarial_bodies_match_line_parser(tmp_path, kind, body):
    path = tmp_path / "v.csv"
    path.write_bytes(body)
    assert_same_as_line_parser(path, kind)


@pytest.mark.parametrize("body", [
    b"frame,score\n0,0.5\n1,0.25\n",
    b"frame,score\n0,-0\n1,1.\n2,.5\n3,+.5e-3\n4,1E5\n5,-7\n6,1e-400\n",
    b"frame,score\n0,0.100000000000000005551115123126\n",  # 32 bytes
    b"frame,score\n0,0." + b"1" * 60 + b"\n",  # 62 bytes
    b"frame,score\n0,4.9406564584124654e-324\n1,1.7976931348623157e308\n",
])
def test_canonical_score_variants_take_the_vectorized_path(tmp_path, body):
    path = tmp_path / "v.csv"
    path.write_bytes(body)
    assert not reads_by_line(path, "score")
    assert_same_as_line_parser(path, "score")


_LONG_MASK = b"".join(b"%d,%d\n" % (i, i // 7 % 2) for i in range(30_000))


@pytest.mark.parametrize("body", [
    b"frame,label\n0,0\n1,1\n",
    b"frame,label\n0,1\n",
    b"frame,label\n" + b"".join(b"%d,0\n" % i for i in range(1025)),
    b"frame,label\n" + _LONG_MASK,   # split into several blocks
], ids=["two", "one", "1025-zeros", "long"])
def test_canonical_mask_variants_take_the_vectorized_path(tmp_path, body):
    path = tmp_path / "v.csv"
    path.write_bytes(body)
    assert not reads_by_line(path, "label")
    assert_same_as_line_parser(path, "label")


@pytest.mark.parametrize("size", [1, 999, 1000, 1001, 1024, 65_536, 100_001])
def test_frame_column_is_the_frames_in_order(size):
    column = io_mod._frame_column(size)
    assert column.startswith(b"".join(b"%d\n" % k for k in range(size)))
    assert column == b"".join(b"%d\n" % k
                              for k in range(column.count(b"\n")))


_LONG_SCORES = np.random.default_rng(1).random(70_001)


@pytest.mark.parametrize("kind,body", [
    ("score", b"".join(b"%d,%r\n" % (i, v)
                       for i, v in enumerate(_LONG_SCORES.tolist()))),
    ("label", b"".join(b"%d,%d\n" % (i, v)
                       for i, v in enumerate(_LONG_SCORES < 0.3))),
])
def test_long_canonical_files_take_the_vectorized_path(tmp_path, kind, body):
    # past 2**16 frames, several blocks and many thousands of frames
    path = tmp_path / "v.csv"
    path.write_bytes(HEADERS[kind] + body)
    assert len(body) > 3 * io_mod._BLOCK
    assert not reads_by_line(path, kind)
    assert_same_as_line_parser(path, kind)


def _block_starts(body: bytes, block: int) -> list[int]:
    """Where each of _fast_column's blocks of a mask body starts, at a
    _BLOCK of block."""
    starts, at = [], len(HEADERS["label"])
    while at < len(body):
        starts.append(at)
        at = body.find(b"\n", at + block) + 1 or len(body)
    return starts


_BAD_MASK_LINES = {   # a bad line for frame f, whose label is v
    "label-2": lambda f, v: b"%d,2\n" % f,
    "label-01": lambda f, v: b"%d,01\n" % f,
    "no-comma": lambda f, v: b"%d%d\n" % (f, v),
    "crlf": lambda f, v: b"%d,1\r\n" % f,
    "frame-minus-0": lambda f, v: b"-0,%d\n" % v,
}


@pytest.mark.parametrize("edge,bad", [
    *(pytest.param(None, bad, id=bad.decode())
      for bad in [b"2", b"", b"11", b"1 ", b"\x00"]),
    *(pytest.param(edge, name, id=f"{edge}-{name}")
      for edge in ("first", "last") for name in _BAD_MASK_LINES),
])
def test_mask_error_past_the_first_block_matches_line_parser(
        tmp_path, monkeypatch, edge, bad):
    path = tmp_path / "v.csv"
    body = b"frame,label\n" + _LONG_MASK
    if edge is None:   # bad is the label of frame 29000
        assert body.count(b"\n29000,0\n") == 1
        body = body.replace(b"\n29000,0\n", b"\n29000," + bad + b"\n")
    else:
        # The largest block size up to _BLOCK at which a line starts where
        # the second block reaches its size. That line ends the block at any
        # length, so a bad line shorter than the one it replaces stays last.
        def reach(k: int) -> int:
            return _block_starts(body, k)[1] + k

        block = next(k for k in range(io_mod._BLOCK, 0, -1)
                     if body[reach(k) - 1] == ord("\n"))
        monkeypatch.setattr(io_mod, "_BLOCK", block)
        at = _block_starts(body, block)[1] if edge == "first" else reach(block)
        end = body.index(b"\n", at) + 1
        frame, label = map(int, body[at:end].split(b","))
        line = _BAD_MASK_LINES[bad](frame, label)
        body = body[:at] + line + body[end:]
        starts = _block_starts(body, block)
        assert (starts[1] == at if edge == "first"
                else starts[2] == at + len(line))
    path.write_bytes(body)
    assert reads_by_line(path, "label")
    assert_same_as_line_parser(path, "label")


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(-1e6, 1e6), st.sampled_from(["e", "f", "g", "E"]),
              st.integers(0, 20)).map(lambda t: f"{t[0]:.{t[2]}{t[1]}}"),
)
_ODD_SCORES = st.sampled_from([
    "1_0", "nan", "inf", "-inf", "1e400", "0x10", "1e", ".", "", " 0.5",
    "0.5 ", "-0", "1.", ".5", "+.5e-3", '"0.5"', "١", "1,2"])
_ODD_LABELS = st.sampled_from([" 1", "+1", "01", "1.0", "2", "", '"1"',
                               "١", "1,0", "1\t", "\x0b0\x0c", "1\r", "\r0"])


def _odd_value(v: str):
    """v with whitespace, '_', a quote, a CR or a comma added, or a value
    float() reads as non-finite."""
    return st.sampled_from([
        f" {v}", f"{v}  ", f"\t{v}", f"{v}\x0b", f"\x0c{v}\x0c",
        f"{v[:1]}_{v[1:]}", f"{v[:1]} {v[1:]}", f'"{v}"', f'{v}"', f'"{v}',
        f"{v}\r", f"\r{v}", f"{v},{v}", f"{v},", "nan", "-inf", "Infinity"])


def _odd_frames(i: int):
    return st.sampled_from([f"0{i}", f" {i}", f"+{i}", str(i + 1), f"{i}.0",
                            "x", "", '"0"'])


_ODD_EOLS = st.sampled_from(["\r\n", "", "\n\n", "\r"])


@st.composite
def csv_bodies(draw, kind: str) -> bytes:
    """Canonical CSVs with each field made odd with chance `level`/10, or,
    at level None (half the draws), with just one odd value or one comma
    moved: a lone oddity is what reaches the vectorized path."""
    level = draw(st.sampled_from([0, 1, 3, None, None, None]))

    def pick(canonical, odd):
        return (draw(odd) if draw(st.integers(0, 9)) < (level or 0)
                else canonical)

    header = pick(f"frame,{kind}",
                  st.sampled_from([f"frame, {kind}", "frame", ""]))
    lines = [header + pick("\n", _ODD_EOLS)]
    n = draw(st.integers(0, 12))
    odd_at = draw(st.integers(0, n)) if level is None else -1   # n: a comma
    for i in range(n):
        value = (draw(_FINITE) if kind == "score"
                 else draw(st.sampled_from(["0", "1"])))
        odd = _odd_value(value) if kind == "score" else _ODD_LABELS
        value = draw(odd) if i == odd_at else pick(
            value, st.one_of(_ODD_SCORES, odd) if kind == "score" else odd)
        lines.append(pick(str(i), _odd_frames(i)) + "," + value
                     + pick("\n", _ODD_EOLS))
    if len(lines) > 2 and (odd_at == n
                           or draw(st.integers(0, 9)) < (level or 0)):
        # move a line's comma into the next line
        i = draw(st.integers(1, len(lines) - 2))
        lines[i] = lines[i].replace(",", "", 1)
        at = draw(st.integers(0, len(lines[i + 1])))
        lines[i + 1] = lines[i + 1][:at] + "," + lines[i + 1][at:]
    return "".join(lines).encode()


_RAW = st.text(alphabet="0123456789,.\n\r\t\x0b\"e+-_ xnaif١", max_size=40)

_PROPERTY = settings(
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", ["score", "label"])
@_PROPERTY
@given(data=st.data())
def test_loaders_match_line_parser_property(tmp_path, kind, data):
    if data.draw(st.integers(0, 3)) == 0:
        body = HEADERS[kind] + data.draw(_RAW).encode()
    else:
        body = data.draw(csv_bodies(kind))
    path = tmp_path / "v.csv"
    path.write_bytes(body)
    assert_same_as_line_parser(path, kind)


_EDIT_BYTES = b"0123456789,.\n\r\t\x0b\x0c \"_+-eEnaif\xff"


def _single_edits(body: bytes, start: int, edit_bytes: bytes = _EDIT_BYTES):
    """body with one byte deleted, replaced or inserted at or after start,
    or with two bytes there swapped (a comma with a line break, say)."""
    for at in range(start, len(body) + 1):
        if at < len(body):
            yield body[:at] + body[at + 1:]
            yield from (body[:at] + bytes([c]) + body[at + 1:]
                        for c in edit_bytes)
        yield from (body[:at] + bytes([c]) + body[at:] for c in edit_bytes)
    for i in range(start, len(body)):
        for j in range(i + 1, len(body)):
            yield (body[:i] + body[j:j + 1] + body[i + 1:j] + body[i:i + 1]
                   + body[j + 1:])


@pytest.mark.parametrize("kind,lines", [
    ("score", b"0,0.5\n1,12.25\n"), ("label", b"0,1\n1,0\n2,1\n")])
def test_every_single_edit_matches_line_parser(tmp_path, kind, lines):
    path = tmp_path / "v.csv"
    for body in _single_edits(HEADERS[kind] + lines, len(HEADERS[kind])):
        path.write_bytes(body)
        try:
            assert_same_as_line_parser(path, kind)
        except AssertionError:
            pytest.fail(f"differs from the line parser on {body!r}")


@_PROPERTY
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 20)).map(
        lambda t: f"{t[0]:.{t[1]}e}")), min_size=1, max_size=50))
def test_canonical_scores_are_bit_identical_property(tmp_path, values):
    path = tmp_path / "v.csv"
    path.write_bytes(HEADERS["score"] + "".join(
        f"{i},{v}\n" for i, v in enumerate(values)).encode())
    assert not reads_by_line(path, "score")
    assert_same_as_line_parser(path, "score")


@pytest.mark.parametrize("loader,body,line", [
    (load_scores, b"frame,score\n0,0.5\n\n1,abc\n", 4),  # past a blank line
    (load_scores, b'frame,score\n0,"0.5\n"\n2,0.3\n', 4),  # past a 2-line row
    (load_scores, b'frame,score\n0,"0.5\n"\nx,0.3\n', 4),
    (load_scores, b'frame,score\n0,"0.5\n"\n1,0.3,7\n', 4),
    (load_scores, b'frame,score\n0,0.5\n1,"0\n.5"\n', 3),  # the row's first
    (load_mask, b'frame,label\n0,"1\n"\n2,1\n', 4),
])
def test_line_parser_errors_name_the_rows_first_line(tmp_path, loader, body,
                                                     line):
    path = tmp_path / "v.csv"
    path.write_bytes(body)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: ")


# ---------------------------------------------------------------------------
# the vectorized path is the one taken


def _count_line_parser(monkeypatch) -> list[Path]:
    calls: list[Path] = []
    original = io_mod._read_csv_column

    def counted(path, data, value_header, parse):
        calls.append(Path(path))
        return original(path, data, value_header, parse)

    monkeypatch.setattr(io_mod, "_read_csv_column", counted)
    return calls


def test_load_dataset_takes_vectorized_path(tmp_path, monkeypatch):
    scores, masks = make_dataset(n_videos=5, seed=3)
    manifest = load_manifest(write_dataset(tmp_path, scores, masks))
    calls = _count_line_parser(monkeypatch)
    data = io_mod.load_dataset(manifest)
    assert calls == []
    assert data.video_ids == tuple(s.video_id for s in scores)
    assert data.bounds.tolist() == np.cumsum([0, *map(len, scores)]).tolist()
    assert np.array_equal(data.scores,
                          np.concatenate([s.as_array() for s in scores]))
    assert np.array_equal(data.labels,
                          np.concatenate([m.as_array() for m in masks]))


def test_crlf_file_reaches_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "v.csv"
    path.write_bytes(b"frame,score\r\n0,0.5\r\n1,0.25\r\n")
    calls = _count_line_parser(monkeypatch)
    assert load_scores(path, "v").scores == (0.5, 0.25)
    assert calls == [path]


def test_canonical_scores_peak_memory_is_a_small_multiple_of_the_file(
        tmp_path, monkeypatch):
    # the lines are split and converted in blocks, so the peak is about the
    # file's bytes plus the scores (1.6-1.9x the file); splitting the whole
    # file at once peaked near 11x
    values = np.random.default_rng(0).random(100_000).tolist()
    path = tmp_path / "v.csv"
    path.write_bytes(HEADERS["score"] + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values)).encode())
    calls = _count_line_parser(monkeypatch)
    tracemalloc.start()
    try:
        seq = load_scores(path, "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and seq.as_array().tolist() == values
    assert peak <= 3 * path.stat().st_size


@pytest.mark.parametrize("frame", [b"0.0", b"0e0", b"-0", b"9" * 19, b"00"])
def test_non_digit_or_long_frames_never_reach_loadtxt(tmp_path, monkeypatch,
                                                     frame):
    # numpy releases with the deprecated int-via-float fallback would warn
    # and truncate such a frame instead of rejecting it
    path = tmp_path / "v.csv"
    path.write_bytes(b"frame,score\n" + frame + b",0.5\n")
    monkeypatch.setattr(io_mod.np, "loadtxt", lambda *a, **k: pytest.fail(
        "loadtxt was called"))
    assert reads_by_line(path, "score")


# ---------------------------------------------------------------------------
# undecodable bytes


def _write_manifest(tmp_path: Path, scores: bytes, mask: bytes,
                    extra: str = "") -> Path:
    (tmp_path / "s.csv").write_bytes(scores)
    (tmp_path / "m.csv").write_bytes(mask)
    path = tmp_path / "manifest.txt"
    path.write_text("dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"
                    + extra, encoding="utf-8")
    return path


@pytest.mark.parametrize("loader,body,line", [
    (load_manifest, b"dataset: d\nvideo: v\xff\nscores: s.csv\n", 2),
    (load_scores, b"frame,score\n0,0.5\n1,0.\xff\n", 3),
    (load_mask, b"frame,label\n0,\xff\n", 2),
    (load_branch_errors, b"# c\n0 1 0.1 0.2 0.3 0.4\n\xfe\n", 3),
    (load_events_json, b'{"v": [[0, 1]],\n "\xff": []}', 2),
    (load_config, b'{\n\n"sigma_max": "\xc3"}', 3),
])
def test_undecodable_bytes_are_parse_errors(tmp_path, loader, body, line):
    path = tmp_path / "f.txt"
    path.write_bytes(body)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: ")
    assert "UTF-8" in str(exc.value)


# the lines of a valid file of each kind that a line parser reads
_LINES = {
    "scores": (load_scores, [b"frame,score", b"0,0.5", b"1,0.25"]),
    "mask": (load_mask, [b"frame,label", b"0,1", b"1,0"]),
    "branch": (load_branch_errors, [b"# c", b"0 1 0.1 0.2 0.3 0.4", b"",
                                    b"1 1 0.1 0.2 0.3 0.4"]),
    "manifest": (load_manifest, [b"dataset: d", b"video: v",
                                 b"scores: s.csv", b"mask: m.csv"]),
}


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"],
                         ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("kind", _LINES)
def test_a_bad_byte_is_reported_at_the_line_the_parsers_count(tmp_path,
                                                              kind, end):
    # a line ends at LF, CRLF or a lone CR, for the byte as for the parsers
    loader, lines = _LINES[kind]
    path = tmp_path / "f.txt"
    for k in range(1, len(lines) + 1):
        path.write_bytes(b"".join(
            line + b"\xff" * (j == k) + end
            for j, line in enumerate(lines, start=1)))
        with pytest.raises(ParseError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}:{k}: byte 0xff is not valid UTF-8"


# the JSON kinds, an object of n members laid out one member a line
_JSON_KINDS = {
    "events": (load_events_json,
               lambda i: b'"v%d": [[%d, %d]]' % (i, 3 * i, 3 * i + 1)),
    "config": (load_config, lambda i: [b'"sigma_max": 5', b'"vote_window": 9',
                                       b'"vote_stride": 3',
                                       b'"min_event_len": 8',
                                       b'"hprs_beta": 0.5'][i]),
}


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_JSON_KINDS)), n=st.integers(1, 5),
       end=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       fault=st.sampled_from(["byte", "token"]), data=st.data())
def test_a_json_fault_is_reported_at_its_line(tmp_path, kind, n, end, fault,
                                              data):
    # lines '{', n members and '}', each ended by end; line k gets a bad
    # UTF-8 byte at its end or a token no JSON value starts with at its
    # start, and the error names the file and line k
    loader, member = _JSON_KINDS[kind]
    lines = [b"{", *(member(i) + b"," * (i < n - 1) for i in range(n)), b"}"]
    k = data.draw(st.integers(1, len(lines)), label="k")
    lines[k - 1] = (lines[k - 1] + b"\xff" if fault == "byte"
                    else b"@" + lines[k - 1])
    path = tmp_path / f"{kind}.json"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.path == str(path) and exc.value.line == k
    assert str(exc.value).startswith(f"{path}:{k}: ")


# the line kinds: a valid file of n records as its lines, the first line
# that may hold a fault, and line k with one bad token for that kind
_TOKEN_KINDS = {
    "manifest": (load_manifest, lambda n: [b"dataset: d", *(
        line for i in range(n) for line in (
            b"video: v%d" % i, b"scores: s%d.csv" % i, b"mask: m%d.csv" % i))],
        1, lambda line: b"colour:" + line.partition(b":")[2]),
    "scores": (load_scores, lambda n: [b"frame,score", *(
        b"%d,0.%d" % (i, i) for i in range(n))],
        2, lambda line: b"x," + line.partition(b",")[2]),
    "mask": (load_mask, lambda n: [b"frame,label", *(
        b"%d,%d" % (i, i % 2) for i in range(n))],
        2, lambda line: b"x," + line.partition(b",")[2]),
    "branch": (load_branch_errors, lambda n: [b"# windows", *(
        b"%d 1 0.1 0.2 0.3 0.4" % i for i in range(n))],
        1, lambda line: b"0 x"),
}


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_TOKEN_KINDS)), n=st.integers(1, 4),
       end=st.sampled_from([b"\n", b"\r\n", b"\r"]), data=st.data())
def test_a_bad_token_is_reported_at_its_line(tmp_path, kind, n, end, data):
    # line k gets an unknown manifest key, a frame x in either CSV or a
    # branch line 0 x, and the error names the file and line k
    loader, lines, first, bad = _TOKEN_KINDS[kind]
    lines = lines(n)
    k = data.draw(st.integers(first, len(lines)), label="k")
    lines[k - 1] = bad(lines[k - 1])
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert exc.value.path == str(path) and exc.value.line == k
    assert str(exc.value).startswith(f"{path}:{k}: ")


def test_undecodable_line_counted_past_the_first_chunk(tmp_path):
    rows = "".join(f"{i},0.5\n" for i in range(5000))
    path = tmp_path / "s.csv"
    path.write_bytes(b"frame,score\n" + rows.encode() + b"5000,\xff\n")
    with pytest.raises(ParseError) as exc:
        load_scores(path)
    assert exc.value.line == 5002


# a bad byte 20 KB past a fault on line 2: beyond the first 8 KiB that a
# text stream decodes, so a reader that parses as it decodes meets the
# fault first
_FAR = b"#" * 20_000 + b"\n\xff\n"


@pytest.mark.parametrize("loader,body", [
    (load_manifest, b"dataset: d\nbogus: 1\n" + _FAR),
    (load_scores, b"frame,score\r\n0,0.5,7\r\n" + _FAR),
    (load_mask, b"frame,label\r\nx,1\r\n" + _FAR),
    (load_branch_errors, b"0\t1 0.1 0.2 0.3 0.4\n0 x\n" + _FAR),
], ids=["manifest", "crlf-scores", "crlf-mask", "tab-branch"])
def test_a_bad_byte_is_reported_before_an_earlier_fault(tmp_path, loader,
                                                        body):
    path = tmp_path / "f.txt"
    path.write_bytes(body)
    with pytest.raises(ParseError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}:4: byte 0xff is not valid UTF-8"


@pytest.mark.parametrize("which", ["scores", "mask", "manifest"])
def test_cli_undecodable_input_exits_2(tmp_path, capsysbinary, which):
    scores = b"frame,score\n0,0.5\n1,0.25\n"
    mask = b"frame,label\n0,1\n1,0\n"
    if which == "scores":
        scores = scores.replace(b"0.25", b"0.\xff")
    elif which == "mask":
        mask = mask.replace(b"1,0", b"1,\xff")
    path = _write_manifest(tmp_path, scores, mask)
    if which == "manifest":
        path.write_bytes(path.read_bytes().replace(b"d\n", b"d\xff\n", 1))
    assert main(["evaluate", str(path)]) == 2
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    name = {"scores": "s.csv:3", "mask": "m.csv:3",
            "manifest": "manifest.txt:1"}[which]
    assert name in err[0] and "not valid UTF-8" in err[0]


# ---------------------------------------------------------------------------
# byte-order marks

BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("loader,body", [
    (load_manifest, b"dataset: d\nvideo: v\nscores: s.csv\nmask: m.csv\n"),
    (load_scores, b"frame,score\n0,0.5\n1,0.25\n"),
    (load_mask, b"frame,label\n0,1\n1,0\n"),
    (load_branch_errors, b"0 1 0.1 0.2 0.3 0.4\n"),
    (load_events_json, b'{"v": [[0, 1]]}'),
    (load_config, b'{"sigma_max": 3}'),
], ids=["manifest", "scores", "mask", "branch_errors", "events_json",
        "config"])
def test_utf8_bom_is_skipped(tmp_path, loader, body):
    _write_manifest(tmp_path, b"frame,score\n0,0.5\n", b"frame,label\n0,1\n")
    path = tmp_path / "f.txt"
    path.write_bytes(body)
    plain = loader(path)
    path.write_bytes(BOM + body)
    assert loader(path) == plain


def test_cli_evaluate_same_bytes_with_boms(tmp_path, capsysbinary):
    data = make_dataset(n_videos=2, seed=3)
    config = b'{"tiou_thresholds": [0.1, 0.7]}'
    reports = []
    for name, prefix in (("plain", b""), ("bom", BOM)):
        manifest = write_dataset(tmp_path / name, *data)
        for path in (tmp_path / name).rglob("*"):
            if path.is_file():
                path.write_bytes(prefix + path.read_bytes())
        (tmp_path / name / "config.json").write_bytes(prefix + config)
        assert main(["--config", str(tmp_path / name / "config.json"),
                     "evaluate", str(manifest)]) == 0
        reports.append(capsysbinary.readouterr())
    assert reports[0].err == reports[1].err == b""
    assert reports[0].out == reports[1].out


# ---------------------------------------------------------------------------
# nothing reaches stderr


@pytest.mark.parametrize("variant", ["canonical", "crlf", "quoted",
                                     "no_final_newline"])
def test_cli_evaluate_any_csv_variant_writes_no_stderr(tmp_path,
                                                       capsysbinary,
                                                       variant):
    n = 40
    scores = "frame,score\n" + "".join(
        f"{i},{0.9 if 10 <= i < 30 else 0.1}\n" for i in range(n))
    mask = "frame,label\n" + "".join(
        f"{i},{int(10 <= i < 30)}\n" for i in range(n))
    if variant == "crlf":
        scores, mask = (t.replace("\n", "\r\n") for t in (scores, mask))
    elif variant == "quoted":
        scores = scores.replace(",0.9\n", ',"0.9"\n')
        mask = mask.replace(",1\n", ',"1"\n')
    elif variant == "no_final_newline":
        scores, mask = scores[:-1], mask[:-1]
    path = _write_manifest(tmp_path, scores.encode(), mask.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", str(path)]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    report = json.loads(captured.out)
    assert report["audit"]["event_count"] == 1
    assert report["frame_metrics"]["auc_roc"] == 1.0


def test_cli_header_only_csv_is_one_line_error(tmp_path, capsysbinary):
    path = _write_manifest(tmp_path, b"frame,score\n",
                           b"frame,label\n0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", str(path)]) == 2
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err == [f"error: {tmp_path / 's.csv'}: file contains no frames"]


# ---------------------------------------------------------------------------
# fuzzed input bytes end in a result or in one error line

_FUZZ_BYTES = st.sampled_from(list(b"0123456789,.\n\r\"eE+-_ x\x00\xff"))
_FUZZ_SETTINGS = settings(
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
_FUZZ_FRAMES = 30
_FUZZ_SCORES = b"frame,score\n" + "".join(
    f"{i},{0.05 * (i % 7) + (0.6 if 8 <= i < 20 else 0.0)!r}\n"
    for i in range(_FUZZ_FRAMES)).encode()
_FUZZ_MASK = b"frame,label\n" + "".join(
    f"{i},{int(8 <= i < 20)}\n" for i in range(_FUZZ_FRAMES)).encode()
_JSON_FUZZ_BYTES = st.sampled_from(
    list(b'{}[]",:.-0123456789eE tfnaulsx\n\xff'))
_DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def _assert_clean_exit(argv: list[str], capsysbinary,
                       json_out: bool = True) -> int:
    """Exit 0 with strict JSON on stdout (any bytes unless json_out), or 1/2
    with one 'error:' line; never a traceback or a warning. Returns the exit
    code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    captured = capsysbinary.readouterr()
    err = captured.err.decode()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if json_out:
            json.loads(captured.out, parse_constant=lambda token: pytest.fail(
                f"non-standard JSON constant {token}"))
    else:
        assert code in (1, 2)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    return code


def test_cli_evaluate_overflowing_score_differences_exit_cleanly(
        tmp_path, capsysbinary):
    # neighbours 3.4e308 apart: their smoothing differences overflow
    scores = b"frame,score\n" + "".join(
        f"{i},{(-1) ** i * 1.7e308!r}\n" for i in range(40)).encode()
    mask = b"frame,label\n" + "".join(
        f"{i},{int(8 <= i < 20)}\n" for i in range(40)).encode()
    path = _write_manifest(tmp_path, scores, mask)
    assert _assert_clean_exit(["evaluate", str(path)], capsysbinary) == 0


@st.composite
def _mutated(draw, base: bytes, alphabet) -> bytes:
    """base with 1-4 single-byte inserts, deletes or replacements."""
    body = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(body) - (op != "insert")))
        if op == "delete":
            del body[at]
        else:
            body[at:at + (op == "replace")] = [draw(alphabet)]
    return bytes(body)


@_FUZZ_SETTINGS
@given(which=st.sampled_from(["scores", "mask"]), data=st.data())
def test_cli_evaluate_fuzzed_csv_exits_cleanly(tmp_path, capsysbinary, which,
                                               data):
    files = {"scores": _FUZZ_SCORES, "mask": _FUZZ_MASK}
    body = bytearray(files[which])
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.sampled_from(range(len(body) + (op == "insert"))))
        if op == "delete":
            del body[at]
        else:
            body[at:at + (op == "replace")] = [data.draw(_FUZZ_BYTES)]
    files[which] = bytes(body)
    path = _write_manifest(tmp_path, files["scores"], files["mask"])
    _assert_clean_exit(["evaluate", str(path)], capsysbinary)


@_FUZZ_SETTINGS
@given(body=_mutated(
    b"dataset: d\n\nvideo: v\nscores: s.csv\nmask: m.csv\n",
    st.sampled_from(list(b"dataset:vidocrmk.v# \n\r\x00\xff"))))
def test_cli_evaluate_fuzzed_manifest_exits_cleanly(tmp_path, capsysbinary,
                                                    body):
    path = _write_manifest(tmp_path, _FUZZ_SCORES, _FUZZ_MASK)
    path.write_bytes(body)
    _assert_clean_exit(["evaluate", str(path)], capsysbinary)


@_FUZZ_SETTINGS
@given(body=_mutated(json.dumps({
    "sigma_max": 5, "vote_window": 9, "vote_stride": 3, "min_event_len": 5,
    "tiou_thresholds": [0.1, 0.5], "threshold_strategy": "hprs",
    "hprs_beta": 0.5, "fixed_tau": None}).encode(), _JSON_FUZZ_BYTES))
@example(body=_DEEP_JSON)
@example(body=b'{"hprs_beta": 1e300}')  # beta * beta overflows
@example(body=b'{"hprs_beta": 1' + b"0" * 400 + b"}")  # too large for a float
@example(body=b'{"vote_window": 1' + b"0" * 30 + b', "vote_stride": 1'
              + b"0" * 30 + b"}")  # clamped to the clip, not to int64
def test_cli_evaluate_fuzzed_config_exits_cleanly(tmp_path, capsysbinary,
                                                  body):
    path = _write_manifest(tmp_path, _FUZZ_SCORES, _FUZZ_MASK)
    (tmp_path / "cfg.json").write_bytes(body)
    _assert_clean_exit(["--config", str(tmp_path / "cfg.json"), "evaluate",
                        str(path)], capsysbinary)


@pytest.mark.parametrize("command", ["evaluate", "frame-metrics"])
def test_cli_largest_accepted_hprs_beta_exits_0(tmp_path, capsysbinary,
                                               command):
    # the largest float64 whose square is finite
    beta = math.sqrt(sys.float_info.max)
    above = float(np.nextafter(beta, math.inf))
    assert math.isfinite(beta * beta) and math.isinf(above * above)
    path = _write_manifest(tmp_path, _FUZZ_SCORES, _FUZZ_MASK)
    (tmp_path / "cfg.json").write_text(json.dumps({"hprs_beta": beta}))
    assert _assert_clean_exit(["--config", str(tmp_path / "cfg.json"),
                               command, str(path)], capsysbinary) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"hprs_beta": above}))
    assert _assert_clean_exit(["--config", str(tmp_path / "cfg.json"),
                               command, str(path)], capsysbinary) == 1


@_FUZZ_SETTINGS
@given(body=_mutated(b'{"v": [[8, 19], [21, 25]]}', _JSON_FUZZ_BYTES))
@example(body=_DEEP_JSON)
@example(body=b'{"v": [[0, 1' + b"0" * 30 + b']]}')  # past int64
def test_cli_event_metrics_fuzzed_predictions_exit_cleanly(tmp_path,
                                                           capsysbinary,
                                                           body):
    path = _write_manifest(tmp_path, _FUZZ_SCORES, _FUZZ_MASK)
    (tmp_path / "pred.json").write_bytes(body)
    _assert_clean_exit(["event-metrics", str(path), "--pred",
                        str(tmp_path / "pred.json")], capsysbinary)


def _branch_file(starts) -> bytes:
    """One window of 2 frames at each start, loud from frame 10 to 19."""
    return "".join(f"{t} 2 " + " ".join([f"{0.8 if 10 <= t < 20 else 0.1!r}"]
                                        * 8) + "\n" for t in starts).encode()


# two clips with branch files, a config and predictions: every subcommand
# exits 0 on them unchanged
_CLI_FILES = {
    "manifest.txt": b"dataset: d\n" + b"".join(
        b"\nvideo: v%d\nscores: s%d.csv\nmask: m%d.csv\n"
        b"branch_errors: b%d.txt\n" % ((n,) * 4) for n in (1, 2)),
    "s1.csv": _FUZZ_SCORES,
    "m1.csv": _FUZZ_MASK,
    "s2.csv": b"frame,score\n" + "".join(
        f"{i},{0.3 + 0.5 * (3 <= i < 9) - 0.01 * i!r}\n"
        for i in range(24)).encode(),
    "m2.csv": b"frame,label\n" + "".join(
        f"{i},{int(4 <= i < 10)}\n" for i in range(24)).encode(),
    "b1.txt": _branch_file([0, 6, 10, 14, 22, 28]),
    "b2.txt": b"# target_start window_len short... long...\n"
              + _branch_file([3, 11, 16, 20]),
    "cfg.json": json.dumps({"sigma_max": 3, "vote_window": 5,
                            "vote_stride": 2, "min_event_len": 3,
                            "tiou_thresholds": [0.1, 0.5],
                            "threshold_strategy": "hprs",
                            "hprs_beta": 0.5}).encode(),
    "pred.json": b'{"v1": [[8, 19], [22, 24]], "v2": [[2, 3]]}',
}
_CLI_COMMANDS = {
    "audit": [], "frame-metrics": [], "refine": [], "evaluate": [],
    "event-metrics": ["--pred", "pred.json"], "fuse": ["--tau", "0.5"],
}
_CLI_FUZZ_BYTES = st.sampled_from(
    list(b"0123456789,. \t\n\"'#:\x00\xff[]{}infa"))


def _cli_argv(tmp_path: Path, command: str, fmt: str) -> list[str]:
    extra = [str(tmp_path / a) if a.endswith(".json") else a
             for a in _CLI_COMMANDS[command]]
    return ["--config", str(tmp_path / "cfg.json"), "--format", fmt, command,
            str(tmp_path / "manifest.txt"), *extra]


@pytest.mark.parametrize("command", _CLI_COMMANDS)
def test_cli_fuzz_fixture_runs_every_subcommand(tmp_path, capsysbinary,
                                                command):
    for name, body in _CLI_FILES.items():
        (tmp_path / name).write_bytes(body)
    for fmt in ("json", "csv", "markdown"):
        assert main(_cli_argv(tmp_path, command, fmt)) == 0
    assert capsysbinary.readouterr().err == b""


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(_CLI_FILES)),
       command=st.sampled_from(sorted(_CLI_COMMANDS)),
       fmt=st.sampled_from(["json", "csv", "markdown"]), data=st.data())
def test_cli_fuzzed_input_ends_in_a_report_or_one_error_line(
        tmp_path, capsysbinary, name, command, fmt, data):
    """1-8 edits of one input: a byte replaced, up to 50 deleted, or up to
    30 inserted, or a word of them (nan, inf, or a number past int64).
    refine and fuse write JSON whatever the format."""
    body = bytearray(_CLI_FILES[name])
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.integers(0, max(len(body) - (op != "insert"), 0)))
        if op == "insert":
            body[at:at] = data.draw(st.one_of(
                st.sampled_from([b"nan", b"inf", b"9" * 20]),
                st.lists(_CLI_FUZZ_BYTES, min_size=1, max_size=30)))
        elif op == "delete":
            del body[at:at + data.draw(st.integers(1, 50))]
        elif body:
            body[at] = data.draw(_CLI_FUZZ_BYTES)
    for each, text in _CLI_FILES.items():
        (tmp_path / each).write_bytes(bytes(body) if each == name else text)
    _assert_clean_exit(_cli_argv(tmp_path, command, fmt), capsysbinary,
                       json_out=fmt == "json" or command in ("refine", "fuse"))


# ---------------------------------------------------------------------------
# branch-error files


def _window_bits(columns) -> tuple:
    starts, lengths, scores = columns
    return (starts.tolist(), lengths.tolist(),
            np.asarray(scores, dtype=np.float64).view(np.uint64).tolist())


def assert_branch_same_as_line_parser(path: Path) -> None:
    """load_branch_errors gives the line parser's arrays, or its error;
    and neither path warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(lambda: _window_bits(load_branch_errors(path)))
        want = _outcome(lambda: _window_bits(
            io_mod._branch_errors_from_lines(path, path.read_bytes())))
    assert got == want
    assert [str(w.message) for w in caught] == []


WINDOW = b"0 1 0.1 0.2 0.3 0.4"
BRANCH_VARIANTS = [
    WINDOW + b"\r\n",  # CRLF
    b"0  1 0.1 0.2 0.3 0.4\n",  # double space
    b"0 1 0.1  0.2 0.3 0.4\n",
    b"0\t1 0.1 0.2 0.3 0.4\n",  # tab
    b" " + WINDOW + b"\n",
    WINDOW + b" \n",
    b"# comment\n" + WINDOW + b"\n",
    b"  # indented comment\n" + WINDOW + b"\n",
    WINDOW + b" # x\n",  # a trailing comment is a parse error
    WINDOW + b"#\n",
    b"\xef\xbb\xbf" + WINDOW + b"\n",  # BOM
    b"\n" + WINDOW + b"\n",
    WINDOW + b"\n4 2 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n",  # mixed lengths
    b"4 2 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n" + WINDOW + b"\n",
    b"9" * 20 + b" 1 0.1 0.2 0.3 0.4\n",  # past int64
    b"0 1 0.1 0.2 0.3 1e999\n",
    b"0 1 0.1 0.2 0.3 " + b"1" * 400 + b"\n",
    b"0 1 -0.1 0.2 0.3 0.4\n",
    b"0 1 0.1 0.2 0.3 -1e-300\n",
    b"0 1 nan 0.2 0.3 0.4\n",
    b"0 1 0.1 inf 0.3 0.4\n",
    b"0 2 0.1 0.2 0.3\n",  # short row
    b"0 1 0.1 0.2 0.3 0.4 0.5\n",  # long row
    WINDOW + b"\n1 1 0.1 0.2 0.3\n",  # ragged rows
    b"0 0\n",
    b"0 0 0.1 0.2 0.3 0.4\n",  # length 0 with values
    b"0 3 0.1 0.2 0.3 0.4\n",  # length disagrees with the values
    b"0\n",
    b"",
    b"\n",
    b"# only a comment\n",
    b"-1 1 0.1 0.2 0.3 0.4\n",
    b"1.0 1 0.1 0.2 0.3 0.4\n",
    b"1.9 1 0.1 0.2 0.3 0.4\n",
    b"1e3 1 0.1 0.2 0.3 0.4\n",
    b"0 1e0 0.1 0.2 0.3 0.4\n",
    b"0 1 0.1 0.2 0.3 1_0\n",
    b"0 1 0.1 0.2 0.3 0x10\n",
    b"0 1 0.1 0.2 0.3 1e\n",
    b"0 1 0.1 0.2 0.3 .\n",
    b"0 1 0.1 0.2 0.3 +-1\n",
    b"0 1 0.1 0.2 0.3 1.5.\n",
    b"0 1 0.1 0.2 0.3 e5\n",
    b"0 1 0.1 0.2 0.3 0.4\x00\n",
    "٠ 1 0.1 0.2 0.3 0.4\n".encode(),  # Arabic-Indic 0
    b"0 1 0.1 0.2 0.3 0.\xff\n",  # not UTF-8
]


@pytest.mark.parametrize("body", BRANCH_VARIANTS)
def test_branch_variants_take_the_line_parser(tmp_path, body):
    path = tmp_path / "b.txt"
    path.write_bytes(body)
    assert io_mod._fast_branch_errors(path.read_bytes()) is None
    assert_branch_same_as_line_parser(path)


@pytest.mark.parametrize("body", [
    WINDOW + b"\n",
    b"007 01 0.1 0.2 0.3 0.4\n",  # leading zeros
    b"999999999999999 1 0.1 0.2 0.3 0.4\n",  # 15 digits
    WINDOW,  # no final newline
    pytest.param(WINDOW + b"\n" + WINDOW, id="two-rows"),
    pytest.param(WINDOW + b"\n\n" + WINDOW + b"\n", id="blank-line"),
    b"1234567890123456 1 0.1 0.2 0.3 0.4\n",  # 16-digit start
    b"9223372036854775807 1 0.1 0.2 0.3 0.4\n",  # int64 max
    b"0 0000000000000001 0.1 0.2 0.3 0.4\n",  # 16-digit length
    b"+1 1 0.1 0.2 0.3 0.4\n",
    b"-0 +1 0.1 0.2 0.3 0.4\n",  # signs, as int() reads them
    b"0 1 -0 1. .5 +.5e-3\n1 1 1E5 0 1e-400 4.9406564584124654e-324\n",
    b"3 1 1.7976931348623157e308 1 1.7976931348623157e308 0\n",
    b"0 3 " + b" ".join(b"%d" % k for k in range(12)) + b"\n",
])
def test_canonical_branch_variants_take_the_vectorized_path(tmp_path, body):
    path = tmp_path / "b.txt"
    path.write_bytes(body)
    assert io_mod._fast_branch_errors(path.read_bytes()) is not None
    assert_branch_same_as_line_parser(path)


def test_branch_loadtxt_deprecation_takes_the_line_parser(tmp_path,
                                                         monkeypatch):
    # numpy releases with loadtxt's int-via-float fallback warn, then read
    # a start of '1.9' as 1; orjson declines here, so np.loadtxt is called
    def loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float", DeprecationWarning)
        return real(*args, **kwargs)

    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(io_mod, "_json_rows", lambda data, i: None)
    path = tmp_path / "b.txt"
    path.write_bytes(WINDOW + b"\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert io_mod._fast_branch_errors(path.read_bytes()) is None
    assert_branch_same_as_line_parser(path)


_BRANCH_EDIT_BYTES = b"0123456789+-.eE \n\t\r#_\x00\xff"


def test_every_single_branch_edit_matches_line_parser(tmp_path):
    path = tmp_path / "b.txt"
    for body in _single_edits(WINDOW + b"\n2 1 1e-2 .5 7 8.25\n", 0,
                              _BRANCH_EDIT_BYTES):
        path.write_bytes(body)
        try:
            assert_branch_same_as_line_parser(path)
        except AssertionError:
            pytest.fail(f"differs from the line parser on {body!r}")


def _left_to_right_score(values: list[float], i: int) -> float:
    """The window score summed in index order, as a loop would."""
    fused = [(s + l) / 2.0 for s, l in zip(values[:i], values[2 * i:3 * i])]
    total = fused[0]
    for v in fused[1:]:
        total += v
    return total / i


_ERRORS = st.one_of(
    st.floats(0, 1e6).map(repr),
    st.floats(0, 1e300).map(repr),
    st.floats(0, 3, width=32).map(repr),
    st.tuples(st.floats(0, 1e3), st.integers(0, 20)).map(
        lambda t: f"{t[0]:.{t[1]}e}"),
)


@_PROPERTY
@given(i=st.integers(1, 6), data=st.data())
def test_canonical_branch_files_are_bit_identical_property(tmp_path, i,
                                                           data):
    rows = [(data.draw(st.integers(0, 2 ** 63 - 1)),
             data.draw(st.lists(_ERRORS, min_size=4 * i, max_size=4 * i)))
            for _ in range(data.draw(st.integers(1, 8)))]
    path = tmp_path / "b.txt"
    path.write_bytes("".join(f"{start} {i} {' '.join(values)}\n"
                             for start, values in rows).encode())
    fast = io_mod._fast_branch_errors(path.read_bytes())
    assert fast is not None
    assert _window_bits(fast) == _window_bits(
        io_mod._branch_errors_from_lines(path, path.read_bytes()))
    assert _window_bits(fast) == _window_bits((
        np.array([start for start, _ in rows]), np.full(len(rows), i),
        [_left_to_right_score([float(v) for v in values], i)
         for _, values in rows]))


# ---------------------------------------------------------------------------
# orjson reads the values that float() reads, to the same bits


def _halfway(x: float, tail: str) -> str:
    """The exact decimal midway between x and its neighbour toward zero (or
    5e-324 for 0), in fixed point, with tail's digits after its last."""
    y = math.nextafter(x, 0.0) if x else 5e-324
    with decimal.localcontext(decimal.Context(prec=1200)):
        text = f"{(decimal.Decimal(x) + decimal.Decimal(y)) / 2:f}"
    return text + tail if "." in text or not tail else f"{text}.{tail}"


def _spell(draw) -> str:
    """One finite value as float() reads it, in one of several spellings."""
    x = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)))
    kind = draw(st.sampled_from(["repr", "17g", "25e", "half", "half+1",
                                 "int", "word"]))
    if kind == "int":   # near where doubles stop holding every integer
        n = draw(st.sampled_from([2 ** 53, 2 ** 63, 2 ** 64, 10 ** 30]))
        return str(draw(st.sampled_from([1, -1])) * n
                   + draw(st.integers(-2 ** 12, 2 ** 12)))
    if kind == "word":
        return draw(st.sampled_from(["1e-400", "-1e-400", "-0.0", "-0", "0",
                                     "4.9406564584124654e-324"]))
    return {"repr": repr, "17g": "%.17g".__mod__, "25e": "%.25e".__mod__,
            "half": lambda v: _halfway(v, ""),
            "half+1": lambda v: _halfway(v, "1")}[kind](x)


@st.composite
def _spellings(draw, size: int) -> list[str]:
    return [_spell(draw) for _ in range(size)]


def _bits(values) -> list[int]:
    return np.asarray(values, np.float64).view(np.int64).tolist()


def _spy_orjson() -> tuple[list, mock._patch]:
    """The arrays orjson.loads returned while the patch is on."""
    parsed: list = []

    def loads(text):
        parsed.append(orjson_loads(text))
        return parsed[-1]

    orjson_loads = orjson.loads
    return parsed, mock.patch.object(orjson, "loads", loads)


@_PROPERTY
@given(values=st.integers(1, 20).flatmap(_spellings))
def test_orjson_scores_have_float_bits_property(tmp_path, values):
    path = tmp_path / "v.csv"
    body = HEADERS["score"] + "".join(
        f"{i},{v}\n" for i, v in enumerate(values)).encode()
    path.write_bytes(body)
    parsed, spy = _spy_orjson()
    with spy:
        assert not reads_by_line(path, "score")
    want = _bits([float(v) for v in values])
    assert len(parsed) == 1   # every spelling is a JSON number
    if "-0" not in values:   # JSON's integer 0: float() reads that block
        assert _bits(parsed[0]) == want
    assert _bits(load_scores(path).scores) == want
    path.write_bytes(body.replace(b"\n", b"\r\n"))
    assert reads_by_line(path, "score")
    assert _bits(load_scores(path).scores) == want


@_PROPERTY
@given(i=st.integers(1, 3), data=st.data())
def test_orjson_branch_errors_have_float_bits_property(tmp_path, i, data):
    # a negative error is the line parser's error, so only zeros keep a '-'
    rows = [(data.draw(st.integers(0, 2 ** 63 - 1)),
             [v if float(v) == 0 else v.lstrip("-")
              for v in data.draw(_spellings(4 * i))])
            for _ in range(data.draw(st.integers(1, 4)))]
    path = tmp_path / "b.txt"
    path.write_bytes("".join(f"{start} {i} {' '.join(values)}\n"
                             for start, values in rows).encode())
    assert_branch_same_as_line_parser(path)
    columns = io_mod._json_rows(path.read_bytes(), i)
    errors = [v for _, values in rows for v in values]
    if "-0" in errors:   # JSON's integer 0: np.loadtxt reads the file
        assert columns is None
        assert io_mod._fast_branch_errors(path.read_bytes()) is not None
    else:
        assert columns[0].tolist() == [start for start, _ in rows]
        assert _bits(columns[2].ravel()) == _bits([float(v) for v in errors])


@pytest.mark.parametrize("body,fast", [
    (b"0,-0\n", True),   # float() reads it, as -0.0
    (b"0,0.5\n1,-0\n2,-0.0\n", True),
    (b"0,true\n", False),   # JSON's 1.0
    (b"0,null\n", False),
    (b"0,NaN\n", False),
    (b"0,1e400\n", False),
    (b"0,0.5\n1,\n", False),   # an empty value
    (b"0,\n", False),   # JSON's []
])
def test_scores_orjson_gate_bodies_give_the_line_parsers_result(
        tmp_path, body, fast):
    path = tmp_path / "v.csv"
    path.write_bytes(HEADERS["score"] + body)
    assert reads_by_line(path, "score") is not fast
    assert_same_as_line_parser(path, "score")
    if fast:
        want = [float(line.split(b",")[1]) for line in body.splitlines()]
        assert _bits(load_scores(path).scores) == _bits(want)


@pytest.mark.parametrize("body,json", [
    (b"1e3 1 0.1 0.2 0.3 0.4\n", False),   # starts that are no JSON int
    (b"1.0 1 0.1 0.2 0.3 0.4\n", False),
    (b"0 1.0 0.1 0.2 0.3 0.4\n", False),
    (b"9223372036854775808 1 0.1 0.2 0.3 0.4\n", False),   # past int64
    (b"18446744073709551616 1 0.1 0.2 0.3 0.4\n", False),
    (b"-0 1 0.1 0.2 0.3 0.4\n", True),   # int() reads it, as 0
    (b"0 1 0.1 -0 0.3 0.4\n", False),   # JSON's integer 0, not -0.0
    (b"0 1 0.1 0.2 0.3 -0\n", False),
    (b"0 1 -0 0.2 -0 0.4\n", False),   # a window score of -0.0
    (b"0 1 0.1 0.2 0.3 -0.0\n", True),
    (WINDOW + b"\n1 1 0.1 0.2 0.3\n", False),   # a ragged row
    (WINDOW + b"\n\n" + WINDOW + b"\n", False),   # a blank line
    (WINDOW + b"\n" + WINDOW, True),   # no final newline
    (WINDOW + b"\n" + WINDOW + b"\n\n", True),   # a trailing blank line
    (WINDOW + b"\n2 1 true 0.2 0.3 0.4\n", False),
])
def test_branch_orjson_gate_bodies_give_the_line_parsers_result(
        tmp_path, body, json):
    path = tmp_path / "b.txt"
    path.write_bytes(body)
    # _fast_branch_errors hands _json_rows only its own bytes
    read = (io_mod._fast_branch_errors(body) is not None
            and io_mod._json_rows(body, 1) is not None)
    assert read is json
    assert_branch_same_as_line_parser(path)


def test_fuse_takes_vectorized_path_for_canonical_files(tmp_path,
                                                       monkeypatch):
    i = 2
    (tmp_path / "b.txt").write_text("".join(
        f"{k * i} {i} {' '.join(['0.9' if k == 1 else '0.1'] * 4 * i)}\n"
        for k in range(4)))
    _write_manifest(tmp_path, b"frame,score\n" + b"".join(
        b"%d,0.5\n" % t for t in range(8)), b"frame,label\n" + b"".join(
        b"%d,0\n" % t for t in range(8)), "branch_errors: b.txt\n")
    monkeypatch.setattr(io_mod, "_branch_errors_from_lines", lambda path:
                        pytest.fail("the line parser was called"))
    assert main(["fuse", str(tmp_path / "manifest.txt"), "--tau",
                 "0.5"]) == 0


_BRANCH_FUZZ_BYTES = st.sampled_from(list(b"0123456789 .\n\r#eE+-\t\x00\xff"))


@_FUZZ_SETTINGS
@given(data=st.data())
def test_cli_fuse_fuzzed_branch_file_exits_cleanly(tmp_path, capsysbinary,
                                                   data):
    n, i = 24, 2
    scores = b"frame,score\n" + b"".join(b"%d,0.5\n" % t for t in range(n))
    mask = b"frame,label\n" + b"".join(
        b"%d,%d\n" % (t, 8 <= t < 16) for t in range(n))
    body = bytearray("".join(
        f"{start} {i} "
        + " ".join(repr(0.2 + 0.05 * (k % 5) + (0.5 if 8 <= start < 16
                                               else 0.0))
                   for k in range(4 * i)) + "\n"
        for start in range(0, n - i + 1, 3)).encode())
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.sampled_from(range(len(body) + (op == "insert"))))
        if op == "delete":
            del body[at]
        else:
            body[at:at + (op == "replace")] = [data.draw(_BRANCH_FUZZ_BYTES)]
    (tmp_path / "b.txt").write_bytes(bytes(body))
    path = _write_manifest(tmp_path, scores, mask, "branch_errors: b.txt\n")
    _assert_clean_exit(["fuse", str(path), "--tau", "0.5"], capsysbinary)


# ---------------------------------------------------------------------------
# each file is read once


def test_each_line_parsed_file_is_opened_once(tmp_path, monkeypatch):
    # pathlib opens through io.open for both Path.open and Path.read_bytes
    files = {"s.csv": b"frame,score\r\n0,0.5\r\n1,0.25\r\n",
             "m.csv": b"frame,label\r\n0,1\r\n1,0\r\n",
             "b.txt": b"# comment\n" + WINDOW + b"\n"}
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    assert load_scores(tmp_path / "s.csv").scores == (0.5, 0.25)
    assert load_mask(tmp_path / "m.csv").labels == (1, 0)
    assert load_branch_errors(tmp_path / "b.txt")[0].tolist() == [0]
    assert opened == list(files)


_FIFO_CHILD = """
import sys
from event_eval.io import load_branch_errors, load_mask, load_scores
for load in (load_scores, load_mask, load_branch_errors):
    try:
        load(sys.argv[1])
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_a_missing_file_at_every_loader(tmp_path):
    # a loader that opened the FIFO would block with no writer: the child's
    # timeout fails the test instead of hanging the suite
    path = tmp_path / "fifo.csv"
    os.mkfifo(path)
    done = subprocess.run([sys.executable, "-c", _FIFO_CHILD, str(path)],
                          capture_output=True, timeout=10)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().splitlines() == [
        f"MissingFile referenced file does not exist: {path}"] * 3
