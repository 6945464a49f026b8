"""Set-up shared by the whole test suite.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
a child ``python -m event_eval`` that a test spawns does not inherit that.
Prepending ``src`` to ``PYTHONPATH`` lets such children import the package
from a fresh checkout without installing it.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
