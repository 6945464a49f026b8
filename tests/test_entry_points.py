"""The CLI process differs from library use in two ways, each guarded here.

- `event_eval.__main__` sets OPENBLAS_NUM_THREADS=1 before numpy loads.
  That is free only while no module of the package makes a BLAS call,
  which an `ast` guard checks on the source.
- `event_eval.__main__.main` ends the process with `os._exit` after
  flushing stdout and stderr, skipping interpreter finalization. Another
  `ast` guard keeps `os._exit` in that one file. Subprocess tests show
  that `python -m event_eval` prints the same bytes, messages and exit
  codes as in-process `event_eval.cli.main`, which returns and never ends
  its caller, and that an exception still shuts down normally. A report
  that cannot be written, into a closed pipe say, exits 2 with one
  `error:` line whatever its size.

A third `ast` guard keeps every subcommand on one lay-out of the frames:
`cli.py` reads scores and masks only through `io.load_dataset`. A fourth
keeps that lay-out the one checked door: no module builds a `Dataset`
but through `Dataset.of`, which checks every pair, and only it uses
`validate_pair`.
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


def exit_calls(source: str) -> list[str]:
    """`line: what` for each `_exit` attribute or import of `_exit`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_exit":
            found.append(f"{node.lineno}: ._exit")
        elif (isinstance(node, ast.ImportFrom)
              and any(alias.name == "_exit" for alias in node.names)):
            found.append(f"{node.lineno}: import _exit")
    return found


@pytest.mark.parametrize("source", [
    "os._exit(0)", "import os as o; o._exit(1)", "f = os._exit",
    "from os import _exit", "from posix import _exit as quit",
])
def test_exit_guard_sees_each_kind_of_use(source):
    assert exit_calls(source)


def test_only_the_cli_entry_point_calls_os_exit():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := exit_calls(path.read_text(encoding="utf-8")))}
    assert list(found) == ["__main__.py"], (
        "only event_eval.__main__ may end the process without "
        f"finalization; found {found}")


# the loaders of the files that hold no frames
OTHER_LOADERS = {"load_manifest", "load_config", "load_events_json",
                 "load_branch_errors"}


def loader_calls(source: str) -> list[str]:
    """`line: name` for each call of a `load_*` function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            if name.startswith("load_"):
                found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("source", [
    "load_mask(p)", "io.load_scores(p, v)", "load_frames(m)",
    "x = [load_labels(m)]",
])
def test_loader_guard_sees_each_kind_of_call(source):
    assert loader_calls(source)


def test_cli_reads_frames_only_through_load_dataset():
    calls = loader_calls((SRC / "cli.py").read_text(encoding="utf-8"))
    frames = [c for c in calls if c.split(": ")[1] not in OTHER_LOADERS]
    assert frames and all(c.endswith(": load_dataset") for c in frames), (
        "every subcommand reads scores and masks through io.load_dataset, "
        f"one lay-out of the frames; cli.py calls {frames}")


def run_python(*args: str, env: dict[str, str] | None = None,
               check: bool = True, stdout=subprocess.PIPE
               ) -> subprocess.CompletedProcess:
    """Run a child Python that imports this checkout's event_eval, with
    OPENBLAS_NUM_THREADS and PYTHONUNBUFFERED unset unless env sets them."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else []))
    child_env.update(env or {})
    return subprocess.run([sys.executable, *args], env=child_env,
                          stdout=stdout, stderr=subprocess.PIPE, check=check)


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


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> dict[str, str]:
    """The seed-7 synthetic set at 3 videos, and at 40 videos, where
    `refine --mode baseline` prints more than a pipe buffer holds."""
    root = tmp_path_factory.mktemp("entry")
    return {n: str(write_dataset(root / f"v{n}",
                                 *make_dataset(n_videos=n, seed=7)))
            for n in (3, 40)}


def test_cli_report_bytes_do_not_depend_on_blas_threads(manifests,
                                                        capsysbinary):
    assert main(["evaluate", manifests[3]]) == 0
    in_process = capsysbinary.readouterr().out
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "4"}):
        out = run_python("-m", "event_eval", "evaluate", manifests[3],
                         env=preset)
        assert out.stdout == in_process


def in_process(argv: list[str], capsysbinary) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `event_eval.cli.main(argv)`."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    out = capsysbinary.readouterr()
    return code, out.out, out.err


def parity_cases(tmp_path: Path, manifest: str) -> dict[str, list[str]]:
    config = tmp_path / "sigma0.json"
    config.write_text('{"sigma_max": 0}', encoding="utf-8")
    return {
        "evaluate": ["evaluate", manifest],
        "bad-config": ["--config", str(config), "evaluate", manifest],
        "missing-manifest": ["evaluate", str(tmp_path / "missing.json")],
        "missing-positional": ["evaluate"],
        "help": ["--help"],
    }


@pytest.mark.parametrize("case, code", [
    ("evaluate", 0), ("bad-config", 1), ("missing-manifest", 2),
    ("missing-positional", 2), ("help", 0),
])
def test_cli_process_matches_in_process_main(tmp_path, manifests,
                                             capsysbinary, monkeypatch,
                                             case, code):
    monkeypatch.setenv("COLUMNS", "100")  # argparse's wrap width, both sides
    argv = parity_cases(tmp_path, manifests[3])[case]
    want = in_process(argv, capsysbinary)
    assert want[0] == code
    if case == "missing-positional":
        assert want[2].startswith(b"usage: event-eval")
    out = run_python("-m", "event_eval", *argv, check=False)
    assert (out.returncode, out.stdout, out.stderr) == want


def test_cli_process_out_file_matches_in_process(tmp_path, manifests,
                                                 capsysbinary):
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    assert in_process(["--out", str(here), "evaluate", manifests[3]],
                      capsysbinary) == (0, b"", b"")
    out = run_python("-m", "event_eval", "--out", str(there), "evaluate",
                     manifests[3])
    assert (out.stdout, out.stderr) == (b"", b"")
    assert there.read_bytes() == here.read_bytes()


def test_cli_process_output_larger_than_a_pipe_arrives_whole(manifests,
                                                             capsysbinary):
    argv = ["refine", "--mode", "baseline", manifests[40]]
    code, want, _ = in_process(argv, capsysbinary)
    assert code == 0 and len(want) == 193_998
    out = run_python("-m", "event_eval", *argv)
    assert (out.stdout, out.stderr) == (want, b"")


HOOK = ("import atexit, runpy, sys\n"
        "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
        "sys.argv = ['event_eval', *sys.argv[1:]]\n"
        "runpy.run_module('event_eval', run_name='__main__', "
        "alter_sys=True)\n")


def test_cli_process_ends_without_finalization(manifests, capsysbinary):
    assert main(["audit", manifests[3]]) == 0  # in-process: returns
    want = capsysbinary.readouterr().out
    out = run_python("-c", HOOK, "audit", manifests[3])
    assert (out.stdout, out.stderr) == (want, b"")


def test_cli_process_exception_still_finalizes():
    out = run_python("-c", HOOK, "audit", check=False)  # usage error
    assert out.returncode == 2
    assert out.stderr.startswith(b"usage: event-eval")
    assert out.stderr.endswith(b"atexit ran\n")


def into_closed_pipe(*args: str, unbuffered: bool
                     ) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_python(*args, check=False, stdout=write_end, env=(
            {"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("n_videos, command", [
    (40, ["refine", "--mode", "baseline"]), (3, ["audit"]),
])
def test_cli_process_into_a_closed_pipe(manifests, unbuffered, n_videos,
                                        command):
    # a small buffered report fails at cli._emit's flush, a large one at
    # its write; either way the bytes left in stdout's buffer are dropped
    out = into_closed_pipe("-m", "event_eval", *command, manifests[n_videos],
                           unbuffered=unbuffered)
    assert (out.returncode, out.stderr) == (
        2, b"error: [Errno 32] Broken pipe\n")


def pair_checks(source: str) -> list[str]:
    """`function: what` for each use of validate_pair and each Dataset(...)
    call, function being the enclosing def's dotted name ('' at the top)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            name = getattr(child, "attr", getattr(child, "id", ""))
            if (isinstance(child, (ast.Name, ast.Attribute))
                    and name == "validate_pair"):
                found.append(f"{where}: validate_pair")
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", "")) == "Dataset":
                    found.append(f"{where}: Dataset()")
            visit(child, where)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("source", [
    "validate_pair(s, m)", "core.validate_pair(s, m)", "check = validate_pair",
    "def f():\n    return [validate_pair(s, m)]", "Dataset(ids, b, y)",
    "core.Dataset(ids, b, y)", "class C:\n    x = Dataset(ids, b, y)",
])
def test_pair_check_guard_sees_each_kind_of_use(source):
    assert pair_checks(source)


def test_pair_check_guard_places_a_use_in_its_function():
    source = "class D:\n    def of(cls):\n        validate_pair(s, m)\n"
    assert pair_checks(source) == ["D.of: validate_pair"]
    assert pair_checks("Dataset.of(pairs)\ndata: Dataset") == []


def test_frames_are_laid_out_only_through_the_checked_dataset_of():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := pair_checks(path.read_text(encoding="utf-8")))}
    assert found == {"core.py": ["Dataset.of: validate_pair"]}, (
        "Dataset.of is the one checked lay-out of the frames: it alone "
        f"builds a Dataset and checks pairs; found {found}")
