"""The CLI process entry point, for `python -m event_eval` and `event-eval`.

The package makes no BLAS call, so capping OpenBLAS at one thread changes
no result and spares the worker pool numpy starts on import. The cap must
be set before numpy loads, so before `.cli` is imported.

`main` skips interpreter finalization: once `cli.main` returns, it
flushes stdout and stderr and calls `os._exit`, saving the ~25 ms of GC
and module teardown that no output depends on. So anything the CLI writes
must be flushed or closed before `cli.main` returns, and no `atexit` hook
runs. `cli.main` flushes its report, so a failed write ends there with
exit 2 and one `error:` line; a flush here can fail only on the bytes that
write left behind, and `os._exit` drops them unprinted. An exception from
`cli.main` shuts down normally.
"""

import os
import sys
from contextlib import suppress
from typing import NoReturn

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import cli  # noqa: E402


def main() -> NoReturn:
    code = cli.main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
