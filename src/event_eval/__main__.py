"""The CLI process entry point, for `python -m event_eval` and `event-eval`.

The package makes no BLAS call, so capping OpenBLAS at one thread changes
no result and spares the worker pool numpy starts on import. The cap must
be set before numpy loads, so before `.cli` is imported.

`main` skips interpreter finalization: once `cli.main` returns, it
flushes stdout and stderr and calls `os._exit`, saving the ~25 ms of GC
and module teardown that no output depends on. So anything the CLI writes
must be flushed or closed before `cli.main` returns, and no `atexit` hook
runs. An exception from `cli.main` and a failed flush shut down normally.
"""

import os
import sys
from typing import NoReturn

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import cli  # noqa: E402


def main() -> NoReturn:
    code = cli.main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except Exception:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    main()
