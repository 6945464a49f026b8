"""event-eval benchmark: the real CLI, end to end, on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload refined-125k --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

With --trace 0 the benchmark runs rounds in a closed loop (one client, one
invocation in flight) until the --seconds window is spent. A round spawns the
set-up (``python -c "import event_eval.cli"``), then ``python -m event_eval
...`` on the workload, then the calibration program (which also runs once
before the first round), each after the last has exited.
It reports end-to-end metrics. With --trace 1 it makes one untraced
invocation and then the same call in-process through ``event_eval.cli.main``
with the layer tracer installed, and reports per-layer metrics. Every
invocation's output is checked; the last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"      # fixtures, removed at the end of each run
TRACES = ROOT / ".bench_out"     # span files of traced runs
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 7
MIN_ROUNDS = 3

# A shared VM can change speed by up to ~75% for minutes at a time, with CPU
# time moving with wall time, so raw timings of one commit spread more than
# any useful bound (see README.md). Each round is therefore bracketed
# by runs of this fixed program, which does not use the package but does what
# it spends its time on (CSV text to floats, a sort, one small object per
# value, a Python loop over them). A round's timings are scaled by
# CALIBRATION_REF_S / the mean of its two calibrations, so they are reported
# in seconds at the speed where the calibration takes CALIBRATION_REF_S
# (about an idle 2-core x86-64 VM).
CALIBRATION = """\
import csv, io
from dataclasses import dataclass
import numpy as np

@dataclass(frozen=True)
class Point:
    threshold: float
    rate: float

x = np.random.default_rng(0).random(25_000)
text = "frame,score\\n" + "".join(f"{i},{v!r}\\n" for i, v in enumerate(x.tolist()))
rows = list(csv.reader(io.StringIO(text)))[1:]
s = np.asarray(tuple(float(v) for _, v in rows))
order = np.argsort(s, kind="mergesort")
cum = np.cumsum(s[order]) / s.size
points = [Point(float(t), float(r)) for t, r in zip(s[order], cum)]
area = 0.0
for a, b in zip(points, points[1:]):
    area += (b.threshold - a.threshold) * (a.rate + b.rate) / 2.0
"""
CALIBRATION_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    command: str                 # the CLI subcommand
    options: tuple[str, ...] = ()
    fuse: bool = False

    def argv(self, manifest: Path) -> list[str]:
        return [self.command, str(manifest), *self.options]


WORKLOADS = {w.name: w for w in (
    Workload("refined-125k", gen.SHORT_CLIPS, "evaluate"),
    Workload("baseline-125k", gen.SHORT_CLIPS, "evaluate",
             ("--mode", "baseline")),
    Workload("long-clips-125k", gen.LONG_CLIPS, "evaluate"),
    Workload("fuse-125k", gen.SHORT_CLIPS, "fuse",
             ("--tau", str(gen.FUSE_TAU)), fuse=True),
)}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: bytes
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EVENT_EVAL_JOBS", None)       # --jobs is never passed either
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], out_dir: Path):
    """Run one child to its exit: (wall s, exit code, rusage, stdout, stderr).

    Wall time runs from spawn to exit. The rusage is that child's alone, from
    os.wait4; RUSAGE_CHILDREN would keep the maximum over all children.
    """
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:      # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage, out_path.read_bytes(),
            err_path.read_bytes())


class Checker:
    """Checks each output of one workload against its fixture."""

    def __init__(self, workload: Workload, fx: gen.Fixture, seed: int,
                 scale: float) -> None:
        self.workload, self.fx = workload, fx
        self.first: bytes | None = None
        self.expected = None
        self.reference = None
        if not workload.fuse:
            self.expected = {"audit": checks.expected_audit(fx),
                             "auc_roc": checks.rank_sum_auc(fx.scores,
                                                            fx.labels)}
            ref = BENCH_DIR / "reference" / f"{workload.name}.json"
            if seed == DEFAULT_SEED and scale == 1.0:
                self.reference = json.loads(ref.read_text())

    def __call__(self, output: bytes) -> list[str]:
        if self.workload.fuse:
            problems = checks.check_fuse(output, self.fx)
        else:
            problems = checks.check_report(output, self.fx, self.expected,
                                           self.reference)
        if self.first is None:
            self.first = output
        elif output != self.first:
            problems.append("output bytes differ from the run's first "
                            "invocation")
        return problems


def invoke(workload: Workload, fx: gen.Fixture, check: Checker,
           scratch: Path) -> Invocation:
    wall, code, usage, out, err = spawn(
        ["-m", "event_eval", *workload.argv(fx.manifest)], scratch)
    problems = [] if code == 0 else [f"exit code {code}"]
    if err:
        problems.append("stderr: " + err.decode(errors="replace")[:200])
    problems += check(out)
    return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, output=out,
                      problems=problems)


def timed_child(argv: list[str], scratch: Path, what: str) -> float:
    """Wall time of a child that must exit cleanly and silently."""
    wall, code, _, _, err = spawn(argv, scratch)
    if code != 0 or err:
        raise RuntimeError(f"{what} failed: "
                           + err.decode(errors="replace")[:500])
    return wall


def traced_call(workload: Workload, fx: gen.Fixture, out_path: Path,
                trace: tracer.Tracer) -> tuple[float, int | None, str]:
    """One in-process CLI call with the tracer installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import event_eval.cli  # noqa: F401  (imports every layer)

    argv = ["--out", str(out_path), *workload.argv(fx.manifest)]
    stderr = io.StringIO()
    trace.install()
    try:
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = sys.modules["event_eval.cli"].main(argv)
            except Exception:      # a crash fails this invocation, not the run
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - start
    finally:
        trace.uninstall()
    return wall, code, stderr.getvalue()


def describe(workload: Workload, fx: gen.Fixture, seed: int) -> None:
    print(f"# {workload.name} seed={seed}: {fx.clips} clips, "
          f"{fx.frames} frames, {fx.gt_events} ground-truth events"
          + (f", {fx.windows} windows ({fx.nudged_windows} nudged)"
             if workload.fuse else "")
          + f", inputs sha256 {fx.digest[:16]}")


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 scale: float) -> dict:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        fx = gen.build(scratch / "inputs", workload.shape, seed,
                       fuse=workload.fuse, scale=scale)
        describe(workload, fx, seed)
        check = Checker(workload, fx, seed, scale)
        if traced:
            return run_traced(workload, fx, check, scratch, seed)
        return run_timed(workload, fx, check, scratch, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def finish(invocations: list[Invocation], metrics: dict) -> dict:
    failed = 0
    for k, inv in enumerate(invocations):
        if inv.problems:
            failed += 1
            for problem in inv.problems:
                print(f"# invocation {k} failed: {problem}")
    return {"correct": failed == 0, "attempted": len(invocations),
            "failed": failed, "metrics": metrics}


def run_timed(workload: Workload, fx: gen.Fixture, check: Checker,
              scratch: Path, seconds: float) -> dict:
    def calibrate() -> float:
        return timed_child(["-c", CALIBRATION], scratch,
                           "the calibration program")

    calibrations = [calibrate()]
    rounds: list[tuple[float, Invocation]] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        setup = timed_child(["-c", "import event_eval.cli"], scratch,
                            "importing event_eval.cli")
        rounds.append((setup, invoke(workload, fx, check, scratch)))
        calibrations.append(calibrate())
        took = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
            break
    # Each round is scaled by the mean of the calibrations around it.
    scale = [2 * CALIBRATION_REF_S / (before + after)
             for before, after in zip(calibrations, calibrations[1:])]
    raw = {"wall_s": [inv.wall_s for _, inv in rounds],
           "cpu_s": [inv.cpu_s for _, inv in rounds],
           "setup_s": [setup for setup, _ in rounds]}
    values = {name: statistics.median(v * f for v, f in zip(raw[name], scale))
              for name in raw}
    values["peak_rss_mb"] = statistics.median(
        inv.peak_rss_mb for _, inv in rounds)
    print(f"# {len(rounds)} rounds; raw medians: "
          + ", ".join(f"{name} {statistics.median(v):.4f} s"
                      for name, v in raw.items())
          + f"; calibration {statistics.median(calibrations):.4f} s "
          f"(reference {CALIBRATION_REF_S} s)")
    return finish([inv for _, inv in rounds],
                  {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()})


def run_traced(workload: Workload, fx: gen.Fixture, check: Checker,
               scratch: Path, seed: int) -> dict:
    untraced = invoke(workload, fx, check, scratch)
    run_id = uuid.uuid4().hex
    trace = tracer.Tracer(run_id)
    out_path = scratch / "traced.out"
    wall, code, err = traced_call(workload, fx, out_path, trace)
    output = out_path.read_bytes() if out_path.is_file() else b""
    problems = [] if code == 0 else [f"exit code {code}"]
    if err:
        problems.append("stderr: " + err[:200])
    problems += check(output)      # includes equality with the untraced bytes
    traced = Invocation(wall_s=wall, cpu_s=0.0, peak_rss_mb=0.0,
                        output=output, problems=problems)
    TRACES.mkdir(exist_ok=True)
    span_file = TRACES / f"trace-{workload.name}-seed{seed}.jsonl"
    trace.write_jsonl(span_file)
    print(f"# {len(trace.spans)} spans of run {run_id} in {span_file}")
    units = tracer.metric_units()
    values = trace.metrics(overhead_ratio=wall / untraced.wall_s)
    return finish([untraced, traced],
                  {name: {"value": values[name], "unit": units[name]}
                   for name in units})


def print_table(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:16s} {metric:40s} {m['value']:14.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name:16s} {'failed_ratio':40s} {ratio:14.6g} "
          f"(of {result['attempted']} attempted)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="Share of each workload's clips to generate "
                             "(for quick self-tests; default 1).")
    args = parser.parse_args(argv)
    if not (SRC / "event_eval" / "cli.py").is_file():
        print(f"error: no event_eval package under {SRC}", file=sys.stderr)
        return 2
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    os.environ.pop("EVENT_EVAL_JOBS", None)   # also for the in-process run
    # On SIGTERM, unwind normally: the running child is stopped and the
    # inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), args.scale)
               for name in names}
    for name, result in results.items():
        print_table(name, result)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m
                        for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
