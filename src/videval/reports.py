"""Render score reports as Markdown, CSV, and JSON tables.

Display rounding: proportions get 3 decimals, percentage points 1 decimal.
All output is byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json

from .scoring import CompletenessRow, RowTriple, ScoreReport


def format_proportion(value: float) -> str:
    return f"{value:.3f}"


def format_signed(value: float) -> str:
    return f"{value:+.3f}"


def format_percent(value: float, decimals: int = 2) -> str:
    text = f"{value * 100:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text + "%"


def format_hms(seconds: float) -> str:
    """Whole-second duration like "4h 37m 2s"."""
    total = int(round(seconds))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    parts = []
    if hours:
        parts.append(f"{hours}h")
    if minutes or hours:
        parts.append(f"{minutes}m")
    parts.append(f"{secs}s")
    return " ".join(parts)


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _csv_table(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _triple_rows(
    rows: dict[str, RowTriple], average: RowTriple | None, value_fmt, delta_fmt
) -> list[list[str]]:
    """[name, with, without, delta] per row, then an "Average" row if there is one."""
    named = [*rows.items(), *([("Average", average)] if average is not None else [])]
    return [
        [name, value_fmt(t.with_value), value_fmt(t.without_value), delta_fmt(t.delta)]
        for name, t in named
    ]


def task_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    headers = ["Task Type", "With ALM", "Without ALM", "Delta"]
    rows = _triple_rows(
        report.by_task_type,
        report.task_average,
        format_proportion,
        format_signed,
    )
    return headers, rows


def model_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    headers = ["Model", "w/o", "w/", "Delta"]
    rows = _triple_rows(
        report.by_model,
        report.model_average,
        lambda v: f"{v * 100:.1f}",
        lambda d: f"{d * 100:+.1f}",
    )
    # the paper's model table puts the without-transcript column first
    swapped = [[name, without, with_, delta] for name, with_, without, delta in rows]
    return headers, swapped


def completeness_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    headers = ["Experiments", "Processing Time", "Total Answered (%)", "Correct Answered (%)"]
    rows = [
        [
            label,
            format_hms(row.wall_ms / 1000.0),
            format_percent(row.answered_pct),
            format_percent(row.correct_pct),
        ]
        for label, row in report.completeness.items()
    ]
    return headers, rows


def duration_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    headers = ["Duration", "With ALM", "Without ALM", "Delta"]
    rows = _triple_rows(
        report.by_duration,
        report.duration_average,
        format_proportion,
        format_signed,
    )
    return headers, rows


def _completeness_json(row: CompletenessRow) -> dict:
    return {
        "total": row.total,
        "answered": row.answered,
        "correct": row.correct,
        "oom": row.oom,
        "unanswered": row.unanswered,
        "invalid_output": row.invalid_output,
        "answered_pct": row.answered_pct,
        "correct_pct": row.correct_pct,
    }


def report_to_json(report: ScoreReport) -> dict:
    def triples(rows: dict[str, RowTriple]) -> dict:
        return {
            name: {"with": t.with_value, "without": t.without_value, "delta": t.delta}
            for name, t in rows.items()
        }

    def triple(t: RowTriple | None) -> dict | None:
        if t is None:
            return None
        return {"with": t.with_value, "without": t.without_value, "delta": t.delta}

    return {
        "overall_accuracy": report.overall_accuracy,
        "by_task_type": triples(report.by_task_type),
        "task_average": triple(report.task_average),
        "by_duration": triples(report.by_duration),
        "duration_average": triple(report.duration_average),
        "by_model": triples(report.by_model),
        "model_average": triple(report.model_average),
        "completeness": {
            label: _completeness_json(row) for label, row in report.completeness.items()
        },
        "warnings": report.warnings,
    }


def write_report_tables(report: ScoreReport, out_dir) -> list[str]:
    """Write the three tables (md + csv) and scores.json; returns file names."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    tables = {
        "task_accuracy": task_table(report),
        "model_accuracy": model_table(report),
        "completeness": completeness_table(report),
    }
    if report.by_duration:
        tables["duration_accuracy"] = duration_table(report)
    for name, (headers, rows) in tables.items():
        (out / f"{name}.md").write_text(_markdown_table(headers, rows), encoding="utf-8")
        (out / f"{name}.csv").write_text(_csv_table(headers, rows), encoding="utf-8")
        written.extend([f"{name}.md", f"{name}.csv"])
    (out / "scores.json").write_text(
        json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written.append("scores.json")
    return written
