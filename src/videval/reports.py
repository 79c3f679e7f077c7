"""Render score reports as Markdown, CSV, and JSON tables.

Display rounding: proportions get 3 decimals, percentage points 1 decimal.
All output is byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import io

from .schema import _plain, _pretty_json
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


def _proportion_table(
    first_header: str, rows: dict[str, RowTriple], average: RowTriple | None
) -> tuple[list[str], list[list[str]]]:
    headers = [first_header, "With ALM", "Without ALM", "Delta"]
    return headers, _triple_rows(rows, average, format_proportion, format_signed)


def task_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    return _proportion_table("Task Type", report.by_task_type, report.task_average)


def duration_table(report: ScoreReport) -> tuple[list[str], list[list[str]]]:
    return _proportion_table("Duration", report.by_duration, report.duration_average)


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


def _json_value(value):
    """A report field as JSON: row triples and completeness rows become objects, dicts map over."""
    if isinstance(value, RowTriple):
        return {"with": value.with_value, "without": value.without_value, "delta": value.delta}
    if isinstance(value, CompletenessRow):
        counts = _plain(value)
        del counts["wall_ms"]
        return {**counts, "answered_pct": value.answered_pct, "correct_pct": value.correct_pct}
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


def report_files(report: ScoreReport) -> dict[str, str]:
    """The three tables (md + csv) and scores.json: each file name mapped to its text."""
    tables = {
        "task_accuracy": task_table(report),
        "model_accuracy": model_table(report),
        "completeness": completeness_table(report),
    }
    if report.by_duration:
        tables["duration_accuracy"] = duration_table(report)
    files = {}
    for name, (headers, rows) in tables.items():
        files[f"{name}.md"] = _markdown_table(headers, rows)
        files[f"{name}.csv"] = _csv_table(headers, rows)
    files["scores.json"] = _pretty_json({name: _json_value(value) for name, value in _plain(report).items()})
    return files
