"""Output checks applied to every timed invocation.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from the generated inputs, computed here
with numpy and independently of the package.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import Fixture

MICRO_THRESHOLD = 8        # the default min_event_len, used by the audit
AUC_TOLERANCE = 1e-9
REFERENCE_RTOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(data, parse_constant=_reject_constant)


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC from tie-averaged ranks."""
    order = np.argsort(scores, kind="mergesort")
    _, inverse, counts = np.unique(scores[order], return_inverse=True,
                                   return_counts=True)
    last = np.cumsum(counts)                   # 1-based rank of each group's end
    ranks = (last - (counts - 1) / 2.0)[inverse]
    pos = labels[order] == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def expected_audit(fx: Fixture) -> dict:
    d = fx.durations
    anomalous = int(d.sum())
    count = int(d.size)
    return {
        "normal_frames": fx.frames - anomalous,
        "anomalous_frames": anomalous,
        "event_count": count,
        "avg_duration_frames": anomalous / count if count else 0.0,
        "min_duration": int(d.min()) if count else 0,
        "max_duration": int(d.max()) if count else 0,
        "micro_event_count": int((d < MICRO_THRESHOLD).sum()),
    }


def diff_reference(got, want, path: str = "") -> list[str]:
    """Integers and strings exact, floats within REFERENCE_RTOL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path or '/'}: keys differ from the reference"]
        return [p for k in want for p in diff_reference(got[k], want[k],
                                                         f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [p for k, (g, w) in enumerate(zip(got, want))
                for p in diff_reference(g, w, f"{path}/{k}")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def check_report(data: bytes, fx: Fixture, expected: dict,
                 reference: dict | None = None) -> list[str]:
    """Checks on an ``evaluate`` JSON report.

    expected holds "audit" (from expected_audit) and "auc_roc" (from
    rank_sum_auc), computed once per fixture.
    """
    try:
        report = strict_json(data)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    try:
        problems = []
        if report["audit"] != expected["audit"]:
            problems.append(f"audit {report['audit']} != numpy counts "
                            f"{expected['audit']}")
        auc = report["frame_metrics"]["auc_roc"]
        if not abs(auc - expected["auc_roc"]) <= AUC_TOLERANCE:
            problems.append(f"auc_roc {auc!r} != rank-sum "
                            f"{expected['auc_roc']!r}")
        for point, metrics in report["event_metrics"].items():
            for row in metrics["per_tiou"]:
                if row["tp"] + row["fn"] != fx.gt_events:
                    problems.append(
                        f"{point} tIoU {row['tiou']}: tp + fn = "
                        f"{row['tp'] + row['fn']} != {fx.gt_events} "
                        "ground-truth events")
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
    if reference is not None:
        problems += diff_reference(report, reference)
    return problems


def check_fuse(data: bytes, fx: Fixture) -> list[str]:
    """The events JSON of ``fuse`` equals the benchmark's window scoring."""
    try:
        events = strict_json(data)
    except ValueError as exc:
        return [f"events output is not strict JSON: {exc}"]
    if events != fx.fuse_events:
        return ["fuse events differ from the benchmark's window scoring"]
    return []
