"""Frame-to-event refinement and event-level evaluation for anomaly scores.

The library turns per-frame anomaly scores into temporally coherent events
(hierarchical Gaussian smoothing, adaptive thresholding, majority voting,
short-event filtering), evaluates detections at frame level (AUC-ROC,
AUC-PR, EER, F1 at an operating point) and at event level (tIoU matching
with multi-threshold precision/recall/F1), and implements dual-branch
cross-scale score fusion for window-scored detectors.
"""

__version__ = "0.1.0"

from .core import EvalConfig, EventSet, FrameMask, ScoreSequence, TemporalEvent
from .events import (
    audit_dataset,
    events_to_mask,
    majority_vote_refine,
    mask_to_events,
    refine_pipeline,
)
from .io import load_manifest, load_mask, run_evaluation
from .matching import match_events
from .report import emit_report
from .smoothing import build_kernel, smooth_once
from .thresholds import auc_roc, eer_threshold, hprs_threshold, roc_curve
