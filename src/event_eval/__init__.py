"""Frame-to-event refinement and event-level evaluation for anomaly scores.

The library turns per-frame anomaly scores into temporally coherent events
(hierarchical Gaussian smoothing, adaptive thresholding, majority voting,
short-event filtering), evaluates detections at frame level (AUC-ROC,
AUC-PR, EER, F1 at an operating point) and at event level (tIoU matching
with multi-threshold precision/recall/F1), and implements dual-branch
cross-scale score fusion for window-scored detectors.
"""

__version__ = "0.1.0"

from .core import (
    EvalConfig,
    EventMetrics,
    EventPrf,
    EventSet,
    FrameMask,
    FrameMetrics,
    ScoreSequence,
    TemporalEvent,
    ThresholdStrategy,
    validate_pair,
)
from .errors import (
    BadLength,
    DegenerateLabels,
    DuplicateVideoId,
    EventEvalError,
    EventOutOfRange,
    InputError,
    InvalidSigma,
    InvalidWindow,
    LengthMismatch,
    MissingFile,
    NonBinaryLabel,
    NonFiniteScore,
    ParseError,
    ValidationError,
    VideoIdMismatch,
    WindowOutOfRange,
)
from .events import (
    AuditReport,
    audit_dataset,
    binarize,
    events_to_mask,
    filter_short_events,
    majority_vote_refine,
    mask_to_events,
    refine_pipeline,
)
from .fusion import (
    BranchErrors,
    align_center,
    fuse_frames,
    pool_event_score,
    run_dual_pipeline,
    score_window,
    windows_to_events,
)
from .io import (
    Manifest,
    ManifestEntry,
    Report,
    load_branch_errors,
    load_config,
    load_events_json,
    load_manifest,
    load_mask,
    load_scores,
    run_evaluation,
)
from .matching import MatchResult, match_events, multi_threshold_eval
from .report import emit_report
from .smoothing import GaussianKernel, build_kernel, hierarchical_smooth, smooth_once
from .thresholds import (
    PrCurve,
    RocCurve,
    auc_pr,
    auc_roc,
    eer_threshold,
    f1_at_threshold,
    hprs_threshold,
    pr_curve,
    roc_curve,
)
