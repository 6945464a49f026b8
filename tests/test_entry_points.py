"""The CLI entry point caps OpenBLAS at one thread; the library does not.

`event_eval.__main__` sets OPENBLAS_NUM_THREADS=1 before numpy loads. That
is free only while no module of the package makes a BLAS call, which the
guard test below checks on the source.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import event_eval
from event_eval.cli import main
from event_eval.synthetic import make_dataset, write_dataset

SRC = Path(event_eval.__file__).parent
BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def blas_uses(source: str) -> list[str]:
    """`line: what` for each matrix product, BLAS-backed call or linalg use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in BLAS_CALLS:
                found.append(f"{node.lineno}: {name}()")
        elif ((isinstance(node, ast.Attribute) and node.attr == "linalg")
              or (isinstance(node, ast.Name) and node.id == "linalg")
              or (isinstance(node, ast.ImportFrom)
                  and "linalg" in (node.module or ""))):
            found.append(f"{node.lineno}: linalg")
    return found


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.einsum('i,i', a, b)",
    "np.linalg.norm(a)", "from numpy.linalg import norm",
])
def test_blas_guard_sees_each_kind_of_use(source):
    assert blas_uses(source)


def test_package_makes_no_blas_call():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := blas_uses(path.read_text(encoding="utf-8")))}
    assert not found, (
        "event_eval.__main__ caps OpenBLAS at one thread, which is free only "
        f"while the package makes no BLAS call; found {found}")


def run_python(*args: str, env: dict[str, str] | None = None
               ) -> subprocess.CompletedProcess:
    """Run a child Python that imports this checkout's event_eval, with
    OPENBLAS_NUM_THREADS unset unless env sets it."""
    child_env = {k: v for k, v in os.environ.items()
                 if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else []))
    child_env.update(env or {})
    return subprocess.run([sys.executable, *args], env=child_env,
                          capture_output=True, check=True)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc to count threads")
def test_cli_process_runs_one_thread():
    out = run_python("-c", "import os, event_eval.__main__; "
                           "print(len(os.listdir('/proc/self/task')))")
    assert out.stdout.split() == [b"1"]


def test_library_import_loads_no_numpy_and_sets_no_environment():
    out = run_python("-c", "import os, sys, event_eval; "
                           "print('numpy' in sys.modules, "
                           "'OPENBLAS_NUM_THREADS' in os.environ)")
    assert out.stdout.split() == [b"False", b"False"]


def test_cli_report_bytes_do_not_depend_on_blas_threads(tmp_path,
                                                        capsysbinary):
    manifest = str(write_dataset(tmp_path, *make_dataset(n_videos=3,
                                                         seed=7)))
    assert main(["evaluate", manifest]) == 0
    in_process = capsysbinary.readouterr().out
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "4"}):
        out = run_python("-m", "event_eval", "evaluate", manifest,
                         env=preset)
        assert out.stdout == in_process
