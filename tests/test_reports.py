from videval.reports import (
    format_hms,
    format_percent,
    format_proportion,
    format_signed,
    model_table,
    report_files,
    task_table,
)
from videval.scoring import CompletenessRow, RowTriple, ScoreReport


def sample_report() -> ScoreReport:
    return ScoreReport(
        overall_accuracy=0.62,
        by_task_type={
            "Action Reasoning": RowTriple(0.759, 0.545),
            "OCR Problems": RowTriple(0.744, 0.698),
        },
        task_average=RowTriple(0.7515, 0.6215),
        by_model={"qwen2-vl-7b": RowTriple(0.772, 0.690)},
        model_average=RowTriple(0.772, 0.690),
        completeness={
            "SDPA (0.1 FPS) without Audio Transcription": CompletenessRow(100, 37, 21),
        },
    )


def test_format_helpers():
    assert format_proportion(26 / 74) == "0.351"
    assert format_signed(0.057) == "+0.057"
    assert format_signed(-0.115) == "-0.115"
    assert format_percent(0.37) == "37%"
    assert format_percent(0.5873) == "58.73%"
    assert format_percent(26 / 74, decimals=1) == "35.1%"
    assert format_hms(4 * 3600 + 37 * 60 + 2) == "4h 37m 2s"
    assert format_hms(44 * 60 + 12) == "44m 12s"
    assert format_hms(9) == "9s"


def test_task_table_layout():
    headers, rows = task_table(sample_report())
    assert headers == ["Task Type", "With ALM", "Without ALM", "Delta"]
    assert rows[0] == ["Action Reasoning", "0.759", "0.545", "+0.214"]
    assert rows[-1][0] == "Average"


def test_model_table_percent_points():
    headers, rows = model_table(sample_report())
    assert headers == ["Model", "w/o", "w/", "Delta"]
    assert rows[0] == ["qwen2-vl-7b", "69.0", "77.2", "+8.2"]


def read_markdown_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header cells and body rows of a pipe table, skipping its --- rule."""
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in text.splitlines()]
    return rows[0], rows[2:]


def test_markdown_round_trip():
    report = sample_report()
    text = report_files(report)["task_accuracy.md"]
    headers, rows = read_markdown_table(text)
    assert headers == ["Task Type", "With ALM", "Without ALM", "Delta"]
    by_name = {row[0]: row[1:] for row in rows}
    triple = report.by_task_type["Action Reasoning"]
    assert by_name["Action Reasoning"] == [
        format_proportion(triple.with_value),
        format_proportion(triple.without_value),
        format_signed(triple.delta),
    ]
    # parsed strings reformat to themselves: display values survive the round trip
    for row in rows:
        assert format_proportion(float(row[1])) == row[1]
        assert format_proportion(float(row[2])) == row[2]
        assert format_signed(float(row[3])) == row[3]


def test_report_files_emits_three_tables():
    files = report_files(sample_report())
    md_files = [name for name in files if name.endswith(".md")]
    assert sorted(md_files) == ["completeness.md", "model_accuracy.md", "task_accuracy.md"]
    assert "scores.json" in files
    assert all(files.values())


def test_report_files_byte_stable():
    report = sample_report()
    first, second = report_files(report), report_files(report)
    for name in ("task_accuracy.md", "model_accuracy.csv", "scores.json"):
        assert first[name].encode("utf-8") == second[name].encode("utf-8")
