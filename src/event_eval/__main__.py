"""The CLI entry point, for `python -m event_eval` and `event-eval`.

The package makes no BLAS call, so capping OpenBLAS at one thread changes
no result and spares the worker pool numpy starts on import. The cap must
be set before numpy loads, so before `.cli` is imported.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
