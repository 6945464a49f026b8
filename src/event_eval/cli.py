"""Subcommand CLI tying the pipeline together.

Exit codes: 0 success, 1 validation error (bad data or configuration),
2 I/O error (missing or malformed files, bad usage).
"""

from __future__ import annotations

import argparse
import sys

from .core import EvalConfig, events_within
from .errors import (EventEvalError, InputError, ValidationError,
                     WindowOutOfRange)
from .events import audit_dataset, mask_to_events
from .fusion import mark_windows
from .io import (
    BASELINE,
    REFINED,
    compute_frame_metrics,
    config_to_dict,
    events_to_json_obj,
    load_branch_errors,
    load_config,
    load_events_json,
    load_manifest,
    load_masks,
    load_videos,
    predict_videos,
    run_evaluation,
)
from .matching import multi_threshold_eval
from .report import (
    emit_audit,
    emit_event_metrics,
    emit_frame_metrics,
    emit_report,
    json_bytes,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="event-eval",
        description="Refine per-frame anomaly scores into temporal events "
                    "and evaluate them at frame and event level.")
    defaults = ", ".join(f"{key}={value}" for key, value
                         in config_to_dict(EvalConfig()).items())
    parser.add_argument("--config", help="JSON config file; keys mirror "
                                         f"EvalConfig (defaults: {defaults}).")
    parser.add_argument("--format", choices=["json", "csv", "markdown"],
                        default="json", help="Report output format.")
    parser.add_argument("--out", help="Write output bytes to this file "
                                      "instead of stdout.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("manifest", help="Path to the dataset manifest.")
        return p

    add("audit", "Frame/event statistics of the ground-truth masks; events "
                 "shorter than min_event_len count as micro events.")

    add("frame-metrics", "AUC-ROC, AUC-PR, EER and operating points over "
                         "the concatenated scores.")

    p = add("refine", "Apply the refinement pipeline; writes events JSON.")
    p.add_argument("--tau", type=float, default=None,
                   help="Binarization threshold; otherwise derived per the "
                        "configured strategy.")
    p.add_argument("--mode", choices=[REFINED, BASELINE], default=REFINED)

    p = add("event-metrics", "Match predicted events against ground truth.")
    p.add_argument("--pred", required=True,
                   help="Events JSON produced by 'refine' or 'fuse'.")

    p = add("fuse", "Dual-branch window scoring; writes events JSON.")
    p.add_argument("--tau", type=float, default=None,
                   help="Event-score threshold (required unless the config "
                        "sets fixed_tau).")

    p = add("evaluate", "Full pipeline: frame metrics, refinement at both "
                        "operating points, event metrics, audit.")
    p.add_argument("--mode", choices=[REFINED, BASELINE], default=REFINED)

    return parser


def _emit(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else EvalConfig()
    manifest = load_manifest(args.manifest)

    if args.command == "audit":
        audit = audit_dataset(load_masks(manifest), cfg.min_event_len)
        _emit(emit_audit(audit, args.format), args.out)
    elif args.command == "frame-metrics":
        videos = load_videos(manifest)
        metrics = compute_frame_metrics(videos, cfg)
        _emit(emit_frame_metrics(metrics, args.format), args.out)
    elif args.command == "refine":
        events = predict_videos(load_videos(manifest), args.tau, cfg,
                                args.mode)
        _emit(json_bytes(events_to_json_obj(events)), args.out)
    elif args.command == "event-metrics":
        masks = load_masks(manifest)
        pred = load_events_json(args.pred)
        for mask in masks:
            if mask.video_id in pred:
                events_within(pred[mask.video_id], len(mask))
        gt = [mask_to_events(m) for m in masks]
        metrics = multi_threshold_eval(gt, list(pred.values()),
                                       cfg.tiou_thresholds)
        _emit(emit_event_metrics(metrics, args.format), args.out)
    elif args.command == "fuse":
        tau = args.tau if args.tau is not None else cfg.fixed_tau
        if tau is None:
            raise ValidationError(
                "fuse needs --tau or a config with fixed_tau")
        branch = {e.video_id: e.branch_errors_path for e in manifest.videos}
        events = {}
        for mask in load_masks(manifest):
            vid, path = mask.video_id, branch[mask.video_id]
            if path is None:
                raise ValidationError(f"video {vid!r} has no branch_errors "
                                      "file in the manifest")
            windows = load_branch_errors(path)
            try:
                events[vid] = mark_windows(*windows, float(tau), len(mask),
                                           vid)
            except WindowOutOfRange as exc:
                exc.args = (f"{exc} | video_id={vid!r} | path={path}",)
                raise
        _emit(json_bytes(events_to_json_obj(events)), args.out)
    elif args.command == "evaluate":
        report = run_evaluation(manifest, cfg, mode=args.mode)
        _emit(emit_report(report, args.format), args.out)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown command {args.command!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (EventEvalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (InputError, OSError)) else 1
