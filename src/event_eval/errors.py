"""Exception hierarchy shared by every module.

Two broad families matter for the CLI exit codes: ValidationError (bad data
or configuration, exit 1) and InputError (unreadable or structurally broken
input files, exit 2).
"""

from __future__ import annotations

import copyreg


class EventEvalError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # a copy is rebuilt from its message, not through __init__, which
        # would take other arguments or locate the message a second time
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(EventEvalError, ValueError):
    """Invalid in-memory data, parameters, or configuration."""


class InputError(EventEvalError):
    """Missing or structurally malformed input file."""


def _locate(exc: EventEvalError, video_id: str | None = None,
            path: object = None) -> EventEvalError:
    """Append ' | video_id=ID' and then ' | path=PATH', each when given, to
    exc's message and return exc: the one place an error is located."""
    where = [f"video_id={video_id!r}"] if video_id is not None else []
    where += [f"path={path}"] if path is not None else []
    exc.args = (" | ".join([str(exc), *where]),)
    return exc


class LengthMismatch(ValidationError):
    def __init__(self, n_scores: int, n_labels: int,
                 video_id: str | None = None, path: str | None = None):
        self.n_scores = n_scores
        self.n_labels = n_labels
        self.video_id = video_id
        super().__init__(
            f"length mismatch: {n_scores} scores vs {n_labels} labels")
        _locate(self, video_id, path)


class _FrameError(ValidationError):
    def __init__(self, index: int, video_id: str | None = None,
                 path: str | None = None):
        self.index = index
        self.video_id = video_id
        super().__init__(self._template.format(index))
        _locate(self, video_id, path)


class NonFiniteScore(_FrameError):
    _template = "non-finite score at frame {}"


class NonBinaryLabel(_FrameError):
    _template = "label at frame {} is not 0 or 1"


class DegenerateLabels(ValidationError):
    """All labels identical where both classes are required."""


class InvalidSigma(ValidationError):
    """Gaussian kernel sigma must be positive, with 2 sigma^2 above 0."""


class InvalidWindow(ValidationError):
    """Majority-vote window/stride outside 1 <= stride <= window <= length."""


class EventOutOfRange(ValidationError):
    """Event extends beyond the frame range of its video."""


class BadLength(ValidationError):
    """Branch error sequences whose lengths do not satisfy |long| = 3*|short|."""


class WindowOutOfRange(ValidationError):
    """Scored window extends beyond the frame range of its video."""


class VideoIdMismatch(ValidationError):
    """Paired inputs refer to different video ids."""


class DuplicateVideoId(InputError):
    def __init__(self, video_id: str, path: str | None = None):
        self.video_id = video_id
        super().__init__(f"duplicate video_id {video_id!r} in manifest")
        _locate(self, path=path)


class MissingFile(InputError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"referenced file does not exist: {path}")


class ParseError(InputError):
    def __init__(self, path: str, line: int | None, msg: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {msg}")
