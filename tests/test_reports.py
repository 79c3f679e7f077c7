from videval.reports import (
    format_hms,
    format_percent,
    format_proportion,
    format_signed,
    model_table,
    task_table,
    write_report_tables,
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


def test_markdown_round_trip(tmp_path):
    report = sample_report()
    write_report_tables(report, tmp_path)
    text = (tmp_path / "task_accuracy.md").read_text(encoding="utf-8")
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


def test_write_report_tables_emits_three_tables(tmp_path):
    written = write_report_tables(sample_report(), tmp_path)
    md_files = [name for name in written if name.endswith(".md")]
    assert sorted(md_files) == ["completeness.md", "model_accuracy.md", "task_accuracy.md"]
    assert "scores.json" in written
    for name in written:
        assert (tmp_path / name).is_file()


def test_write_report_tables_byte_stable(tmp_path):
    report = sample_report()
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    write_report_tables(report, dir1)
    write_report_tables(report, dir2)
    for name in ("task_accuracy.md", "model_accuracy.csv", "scores.json"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
