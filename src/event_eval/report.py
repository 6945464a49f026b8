"""Report emission: json, csv and markdown through one render path.

JSON is the strict dump of a result's dict form. csv and markdown render a
list of sections (csv section name, markdown heading, markdown layout,
rows), with rows (tiou, metric, value) and tiou None outside per-tIoU rows.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import asdict

from .core import EventMetrics, FrameMetrics, check_type
from .errors import ValidationError
from .events import AuditReport
from .io import Report, config_to_dict


def json_bytes(obj) -> bytes:
    """Strict JSON (NaN and infinities raise), indented, newline-ended."""
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()


def event_metrics_to_dict(m: EventMetrics) -> dict:
    return {
        "per_tiou": [{"tiou": t, **asdict(e)}
                     for t, e in m.per_tiou.items()],
        "average_f1": m.average_f1,
    }


def report_to_dict(report: Report) -> dict:
    return {
        "tool_version": report.tool_version,
        "mode": report.mode,
        "config": config_to_dict(report.config_echo),
        "frame_metrics": asdict(report.frame_metrics),
        "event_metrics": {
            "tau_eer": event_metrics_to_dict(report.event_metrics_eer),
            "tau_hprs": event_metrics_to_dict(report.event_metrics_hprs),
        },
        "audit": asdict(report.audit),
    }


def _flat(values: dict) -> list:
    return [(None, k, v) for k, v in values.items()]


def _per_tiou(metrics: dict) -> list:
    """Rows of an event_metrics_to_dict form; average_f1 comes last."""
    rows = [(row["tiou"], k, v) for row in metrics["per_tiou"]
            for k, v in row.items() if k != "tiou"]
    return rows + [(None, "average_f1", metrics["average_f1"])]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _md_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _markdown(sections: list[tuple]) -> str:
    lines: list[str] = []
    for _, heading, layout, rows in sections:
        lines += [heading, ""]
        if layout == "table":   # one row of values under their names
            lines += [_md_row(m for _, m, _ in rows),
                      "|" + "---|" * len(rows),
                      _md_row(_fmt(v) for _, _, v in rows)]
        elif layout == "per_tiou":   # a row per tIoU, then the average
            *per_tiou, (_, _, average) = rows
            cells: dict = {}
            for t, _, v in per_tiou:
                cells.setdefault(t, [t]).append(v)
            lines += ["| tIoU | precision | recall | f1 | tp | fp | fn |",
                      "|---|---|---|---|---|---|---|"]
            lines += [_md_row(map(_fmt, c)) for c in cells.values()]
            lines += ["", f"Average F1: {_fmt(average)}"]
        elif layout == "key_value":   # a row per value, str not .6g
            lines += ["| key | value |", "|---|---|"]
            lines += [f"| {m} | {v} |" for _, m, v in rows]
        else:   # "inline": every value on one line
            lines.append(" | ".join(f"{m}: {v}" for _, m, v in rows))
        lines.append("")
    return "\n".join(lines)


def _csv(sections: list[tuple], columns: tuple[str, ...]) -> str:
    """One line per row; columns picks and orders the fields."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")   # writes None as ""
    writer.writerow(columns)
    for name, _, _, rows in sections:
        for tiou, metric, value in rows:
            fields = {"section": name, "tiou": tiou, "metric": metric,
                      "value": value}
            writer.writerow([fields[c] for c in columns])
    return buf.getvalue()


def render(obj: dict, sections: list[tuple], format: str,
           csv_columns: tuple[str, ...], markdown_end: str = "") -> bytes:
    """obj as strict JSON, or its sections as csv or markdown."""
    if format == "json":
        return json_bytes(obj)
    if format == "markdown":
        return (_markdown(sections) + markdown_end).encode()
    if format == "csv":
        return _csv(sections, csv_columns).encode()
    raise ValidationError(f"unknown report format {format!r}")


def emit_report(report: Report, format: str = "json") -> bytes:
    """Serialize a report deterministically; json is the canonical format."""
    check_type("report", report, Report)
    d = report_to_dict(report)
    meta = {"tool_version": d["tool_version"], "mode": d["mode"]}
    ev = d["event_metrics"]
    sections = [
        ("meta", "# event-eval report", "inline", _flat(meta)),
        ("frame", "## Frame-level metrics", "table",
         _flat(d["frame_metrics"])),
        ("event_eer", "## Event-level metrics @ tau_EER", "per_tiou",
         _per_tiou(ev["tau_eer"])),
        ("event_hprs", "## Event-level metrics @ tau_HPRS", "per_tiou",
         _per_tiou(ev["tau_hprs"])),
        ("audit", "## Dataset audit", "table", _flat(d["audit"])),
        ("config", "## Configuration", "key_value", _flat(d["config"])),
    ]
    return render(d, sections, format, ("section", "tiou", "metric", "value"),
                  markdown_end="\n")


def emit_audit(audit: AuditReport, format: str = "json") -> bytes:
    check_type("audit", audit, AuditReport)
    d = asdict(audit)
    return render(d, [("audit", "# Dataset audit", "table", _flat(d))],
                  format, ("section", "metric", "value"))


def emit_frame_metrics(metrics: FrameMetrics, format: str = "json") -> bytes:
    check_type("metrics", metrics, FrameMetrics)
    d = asdict(metrics)
    return render(d, [("frame", "# Frame-level metrics", "table", _flat(d))],
                  format, ("section", "metric", "value"))


def emit_event_metrics(metrics: EventMetrics, format: str = "json") -> bytes:
    check_type("metrics", metrics, EventMetrics)
    d = event_metrics_to_dict(metrics)
    return render(d, [("", "## Event-level metrics", "per_tiou",
                       _per_tiou(d))], format, ("tiou", "metric", "value"))
