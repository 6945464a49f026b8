"""Set-up shared by the whole test suite.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
a child ``python -m event_eval`` that a test spawns does not inherit that.
Prepending ``src`` to ``PYTHONPATH`` lets such children import the package
from a fresh checkout without installing it.

Every property test runs under one hypothesis profile: no deadline, which
a busy machine can miss, the same examples on every run, and no example
database. A test's own ``settings`` set only its example count and health
checks.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

settings.register_profile("event-eval", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("event-eval")
