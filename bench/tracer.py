"""Per-layer spans around the package's public functions, from outside.

The tracer replaces each listed function wherever a module of the package
binds it (its own module, and every module that imported it by name), so
the spans follow the program's real call path. A listed function that does
not exist records nothing. Dataclass constructors are timed through their
``__post_init__`` and aggregated instead of recorded one span per object.

Spans are kept in memory; ``write_jsonl`` writes them when the run ends.
A span's self time is its duration minus the time its child spans and
timed constructors cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Layers are the package's modules; `synthetic` and `errors` are not layers.
FUNCTIONS = {
    "cli": ["main"],
    "io": ["load_manifest", "load_videos", "load_scores", "load_mask",
           "load_branch_errors", "compute_frame_metrics", "event_metrics_at",
           "run_evaluation", "emit_report"],
    "core": ["validate_pair"],
    "thresholds": ["roc_curve", "auc_roc", "auc_pr", "eer_threshold",
                   "hprs_threshold", "f1_at_threshold"],
    "smoothing": ["hierarchical_smooth"],
    "events": ["refine_pipeline", "binarize", "majority_vote_refine",
               "mask_to_events", "filter_short_events", "audit_dataset"],
    "matching": ["multi_threshold_eval", "match_events"],
    "fusion": ["run_dual_pipeline", "score_window", "windows_to_events"],
}
CONSTRUCTORS = {"core": ["ScoreSequence", "FrameMask", "TemporalEvent",
                         "EventSet"]}
COUNTS = ["io.frames_parsed", "smoothing.frames", "events.extracted",
          "events.kept", "matching.pairs_scored", "matching.pairs_matched"]
RATIOS = {"events.keep_ratio": ("events.kept", "events.extracted"),
          "matching.match_yield": ("matching.pairs_matched",
                                   "matching.pairs_scored")}


def _frames_parsed(counts: Counter, args: list, result) -> None:
    counts["io.frames_parsed"] += len(result)


def _smoothed(counts: Counter, args: list, result) -> None:
    counts["smoothing.frames"] += len(args[0])


def _filtered(counts: Counter, args: list, result) -> None:
    counts["events.extracted"] += len(args[0])
    counts["events.kept"] += len(result)


def _matched(counts: Counter, args: list, result) -> None:
    counts["matching.pairs_scored"] += len(args[0]) * len(args[1])
    counts["matching.pairs_matched"] += len(result.pairs)


# Counters computed from a call's bound arguments (in signature order) and
# its result.
COUNTERS = {
    "io.load_scores": _frames_parsed,
    "io.load_mask": _frames_parsed,
    "smoothing.hierarchical_smooth": _smoothed,
    "events.filter_short_events": _filtered,
    "matching.match_events": _matched,
}


def metric_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for layer, names in FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.busy_s"] = "s"
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    for layer, names in CONSTRUCTORS.items():
        for name in names:
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    for layer in FUNCTIONS:
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.stats: dict[str, list[int]] = {}   # name -> [calls, busy, self]
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []        # [span id, child ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn, record: bool, counter=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        signature = inspect.signature(fn) if counter else None
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][1] += busy
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[1]
                if record:
                    spans.append((span_id, parent, name, start, end))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counter(counts, list(bound.arguments.values()), result)
            return result

        return wrapper

    def install(self, package: str = "event_eval") -> None:
        """Wrap every listed function and constructor of an imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                key = f"{layer}.{name}"
                wrapper = self._timed(key, original, record=True,
                                      counter=COUNTERS.get(key))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for layer, names in CONSTRUCTORS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for name in names:
                cls = getattr(home, name, None)
                post_init = (getattr(cls, "__dict__", {})
                             .get("__post_init__"))
                if post_init is None:
                    continue
                self._undo.append((cls, "__post_init__", post_init))
                cls.__post_init__ = self._timed(f"{layer}.{name}", post_init,
                                                record=False)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Values for every name in metric_units(), in the same order."""
        out: dict[str, float] = {}
        layer_self: Counter = Counter()
        for layer, names in FUNCTIONS.items():
            for name in names:
                calls, busy, own = self.stats.get(f"{layer}.{name}", (0, 0, 0))
                out[f"{layer}.{name}.busy_s"] = busy / 1e9
                out[f"{layer}.{name}.self_s"] = own / 1e9
                out[f"{layer}.{name}.calls"] = calls
                layer_self[layer] += own
        for layer, names in CONSTRUCTORS.items():
            for name in names:
                calls, _, own = self.stats.get(f"{layer}.{name}", (0, 0, 0))
                out[f"{layer}.{name}.self_s"] = own / 1e9
                out[f"{layer}.{name}.calls"] = calls
                layer_self[layer] += own
        for layer in FUNCTIONS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        for name in COUNTS:
            out[name] = self.counts[name]
        for name, (num, den) in RATIOS.items():
            total = self.counts[den]
            out[name] = self.counts[num] / total if total else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end})
                         + "\n")
