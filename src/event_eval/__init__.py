"""Frame-to-event refinement and event-level evaluation for anomaly scores.

The library turns per-frame anomaly scores into temporally coherent events
(hierarchical Gaussian smoothing, adaptive thresholding, majority voting,
short-event filtering), evaluates detections at frame level (AUC-ROC,
AUC-PR, EER, F1 at an operating point) and at event level (tIoU matching
with multi-threshold precision/recall/F1), and implements dual-branch
cross-scale score fusion for window-scored detectors.

Each public name is imported from its submodule on first use (PEP 562), so
`python -m event_eval` can configure numpy before anything loads it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("EvalConfig", "EventSet", "FrameMask", "ScoreSequence",
             "TemporalEvent"),
    "events": ("audit_dataset", "events_to_mask", "majority_vote_refine",
               "mask_to_events", "refine_pipeline"),
    "io": ("load_manifest", "load_mask", "run_evaluation"),
    "matching": ("match_events",),
    "report": ("emit_report",),
    "smoothing": ("build_kernel", "smooth_once"),
    "thresholds": ("auc_roc", "eer_threshold", "hprs_threshold", "roc_curve"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:  # so `from event_eval import io` imports io
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
