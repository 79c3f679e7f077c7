"""Acceptance suite: one test (or pair) per shipping criterion.

Each check prints a `[acceptance] criterion N: PASS/FAIL` line with the
measured values, then asserts at the stated tolerance.

Criteria 4 and 5 are split into a delta clause and an average-row clause. The
fixtures reproduce the paper's printed per-row values, with unequal item
counts per row. The delta clauses check each row. The average-row clauses
check that the report's average row is the unweighted mean of the listed rows,
as `aggregate` promises, computed here from the reference rows; with unequal
counts a mean pooled over records would miss it. The paper's printed average
rows are not the mean of their own printed rows (task table: mean
0.6525/0.6013 vs printed 0.683/0.626; model table: mean 71.41/76.15 vs printed
68.4/72.3), so the average-row clauses also check that
`stated_average_warnings`, defined here with the other printed-row checks,
reports them.
"""

import json
import math
import random
import socket
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from videval.benchmark import item_from_record
from videval.cli import main as cli_main
from videval.errors import SchemaError
from videval.knowledge_graph import (
    EvalGraph,
    LayoutParams,
    NodePosition,
    build_comparison_graph,
    fr_layout,
    graph_metrics,
)
from videval.parsing import (
    KeyframeEntry,
    ParsedVideoOutput,
    parse_video_output,
)
from videval.providers import ConditionTag
from videval.reports import format_percent
from videval.scoring import (
    RowTriple,
    _mean_triple,
    aggregate,
    completeness_counts,
    matching_node_score,
)

TASK_REFERENCE_ROWS = {
    "Action Reasoning": (0.759, 0.545, +0.213),
    "Action Recognition": (0.589, 0.564, +0.025),
    "Attribute Perception": (0.671, 0.646, +0.025),
    "Counting Problem": (0.337, 0.372, -0.035),
    "Information Synopsis": (0.879, 0.737, +0.142),
    "OCR Problems": (0.744, 0.698, +0.046),
    "Object Recognition": (0.469, 0.490, -0.021),
    "Spatial Perception": (0.708, 0.704, +0.005),
    "Spatial Reasoning": (0.789, 0.680, +0.108),
    "Temporal Perception": (0.733, 0.563, +0.171),
    "Temporal Reasoning": (0.500, 0.615, -0.115),
}
TASK_REFERENCE_AVERAGE = (0.683, 0.626, +0.057)

MODEL_REFERENCE_ROWS = {
    "Gemini 2.5 Pro": (84.7, 85.2, +0.5),
    "Gemini 1.5 Pro": (75.0, 81.3, +6.3),
    "Qwen2-VL": (71.2, 77.8, +6.6),
    "GPT-4o": (69.0, 77.2, +8.2),
    "LLaVA-Video": (76.0, 76.9, +0.9),
    "Gemini 1.5 Flash": (72.6, 75.0, +2.4),
    "Oryx-1.5": (67.3, 74.9, +7.6),
    "InternVL2.5": (67.6, 74.0, +6.4),
    "Aria": (70.3, 72.1, +1.8),
    "LinVT": (65.6, 71.7, +6.1),
    "TPO": (66.2, 71.5, +5.3),
}
MODEL_REFERENCE_AVERAGE = (68.4, 72.3, +3.9)
MODEL_REFERENCE_PROSE_CLAIM = (58.4, 62.3, +3.9)


def note(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)


# --- printed-row checks: a stated row against the rows it summarises ----------------


def _differences(a: RowTriple, b: RowTriple, tolerance: float) -> list[tuple[str, float, float]]:
    """(column, a's value, b's value) of each column that differs by more than tolerance."""
    return [
        (name, x, y)
        for name, x, y in (
            ("with", a.with_value, b.with_value),
            ("without", a.without_value, b.without_value),
            ("delta", a.delta, b.delta),
        )
        if abs(x - y) > tolerance
    ]


def stated_average_warnings(
    label: str,
    rows: dict[str, RowTriple],
    stated: RowTriple,
    tolerance: float,
) -> list[str]:
    """Warn when a stated average row disagrees with the mean of its rows."""
    computed = _mean_triple(rows)
    if computed is None:
        return [f"{label}: no rows to average against the stated values"]
    return [
        f"{label}: stated average ({name}) {want:g} differs from the "
        f"mean of its rows {got:.4f} by more than {tolerance:g}"
        for name, got, want in _differences(computed, stated, tolerance)
    ]


def claim_mismatch_warnings(
    label: str, claimed: RowTriple, reference: RowTriple, tolerance: float
) -> list[str]:
    """Warn when two stated claims about the same quantity disagree."""
    return [
        f"{label}: claimed {name} value {a:g} disagrees with {b:g} beyond {tolerance:g}"
        for name, a, b in _differences(claimed, reference, tolerance)
    ]


def test_stated_average_warning_fires_on_mismatch():
    rows = {"a": RowTriple(0.6, 0.5), "b": RowTriple(0.8, 0.7)}
    consistent = RowTriple(0.7, 0.6)
    assert stated_average_warnings("tbl", rows, consistent, 0.0015) == []
    inconsistent = RowTriple(0.75, 0.6)
    warnings = stated_average_warnings("tbl", rows, inconsistent, 0.0015)
    assert warnings and "tbl" in warnings[0]


def test_claim_mismatch_warnings():
    assert claim_mismatch_warnings("x", RowTriple(1.0, 0.5), RowTriple(1.0, 0.5), 0.01) == []
    warnings = claim_mismatch_warnings("x", RowTriple(58.4, 54.5), RowTriple(72.3, 68.4), 0.05)
    assert len(warnings) >= 2


# --- criterion 1: matching-node score vs counting oracle ---------------------------


def test_criterion_1_matching_node_oracle():
    start = time.perf_counter()
    rng = random.Random(20240601)
    for _ in range(1000):
        matches = [rng.random() < rng.random() for _ in range(rng.randint(1, 200))]
        oracle = sum(1 for m in matches if m) / len(matches)
        assert matching_node_score(matches) == oracle

    display = format_percent(matching_node_score([True] * 26 + [False] * 48), 1)
    elapsed = time.perf_counter() - start
    ok = display == "35.1%" and elapsed < 1.0
    note("1", ok, f"26/74 -> {display}, {elapsed:.3f}s")
    assert display == "35.1%"
    assert elapsed < 1.0


# --- criterion 2: hop distances vs exhaustive enumeration ----------------------------


def _enumerate_paths(nodes, edges, weights, source):
    adjacency = {n: [] for n in nodes}
    for s, t in edges:
        adjacency[s].append((t, weights[(s, t)]))
    best = {source: 0.0}

    def walk(node, acc, visited):
        for nxt, w in adjacency[node]:
            if nxt in visited:
                continue
            total = acc + w
            if nxt in best and total > best[nxt]:
                continue
            if nxt not in best or total < best[nxt]:
                best[nxt] = total
            walk(nxt, total, visited | {nxt})

    walk(source, 0.0, {source})
    return best


def _hops(graph, center):
    positions = {nid: NodePosition(nid, 0.0, 0.0) for nid in graph.nodes}
    return graph_metrics(graph, positions, center=center).distances_to_center


def test_criterion_2_dijkstra_exactness():
    # graph_metrics's hop counts ignore direction, so the oracle walks every edge both ways at weight 1
    start = time.perf_counter()
    rng = random.Random(77001)
    for _ in range(200):
        n = rng.randint(1, 20)
        nodes = [f"n{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            s, t = rng.choice(nodes), rng.choice(nodes)
            if s != t:
                edges.add((s, t))
        for _ in edges:  # one discarded draw per edge: seed 77001 yields the graphs it did when edges were weighted
            rng.randint(0, 10)
        both_ways = edges | {(t, s) for s, t in edges}
        weights = {e: 1.0 for e in both_ways}
        graph = EvalGraph()
        for name in nodes:
            graph.add_node(name, name, "gray", 1)
        for s, t in sorted(edges):
            graph.add_edge(s, t)
        source = rng.choice(nodes)
        assert _hops(graph, source) == _enumerate_paths(nodes, both_ways, weights, source)

    reverse_only = EvalGraph()
    reverse_only.add_node("A", "A", "gray", 1)
    reverse_only.add_node("B", "B", "gray", 1)
    reverse_only.add_edge("B", "A")
    assert _hops(reverse_only, "A") == {"A": 0.0, "B": 1.0}

    elapsed = time.perf_counter() - start
    note("2", elapsed < 10.0, f"200 graphs, {elapsed:.2f}s")
    assert elapsed < 10.0


# --- criterion 3: layout properties -----------------------------------------------------


def test_criterion_3_layout_properties():
    start = time.perf_counter()
    params = LayoutParams()

    pair = EvalGraph()
    pair.add_node("A", "A", "gray", 1)
    pair.add_node("B", "B", "gray", 1)
    pair.add_edge("A", "B")
    positions = fr_layout(pair, params)
    separation = math.dist(
        (positions["A"].x, positions["A"].y), (positions["B"].x, positions["B"].y)
    )
    k = params.spacing * math.sqrt(params.area / 2)
    pair_err = abs(separation - k) / k

    star = EvalGraph()
    star.add_node("hub", "hub", "gray", 1)
    for i in range(6):
        star.add_node(f"leaf{i}", f"leaf{i}", "gray", 1)
        star.add_edge("hub", f"leaf{i}")
    star_pos = fr_layout(star, params)
    hub = (star_pos["hub"].x, star_pos["hub"].y)
    dists = [math.dist(hub, (star_pos[f"leaf{i}"].x, star_pos[f"leaf{i}"].y)) for i in range(6)]
    star_spread = (max(dists) - min(dists)) / min(dists)

    again = fr_layout(star, params)
    identical = all(
        star_pos[n].x == again[n].x and star_pos[n].y == again[n].y for n in star_pos
    )

    elapsed = time.perf_counter() - start
    ok = pair_err < 0.01 and star_spread < 0.05 and identical and elapsed < 5.0
    note(
        "3",
        ok,
        f"two-node err {pair_err:.4%}, star spread {star_spread:.4%}, "
        f"deterministic={identical}, {elapsed:.2f}s",
    )
    assert pair_err < 0.01
    assert star_spread < 0.05
    assert identical
    assert elapsed < 5.0


# --- criteria 4/5: reference-table fixtures -----------------------------------------------


@dataclass
class _Item:
    question_id: str
    task_type: str
    duration: str = "short"
    answer: str = "A"


@dataclass
class _Record:
    item_ref: str
    condition: ConditionTag
    outcome: str
    request_kind: str = "mcq"
    wall_ms: int = 0


def _cell_records(ids, with_transcript, accuracy, model="m"):
    n = len(ids)
    correct = round(accuracy * n)
    tag = ConditionTag(model_name=model, fps=0.1, with_transcript=with_transcript, attention="sdpa")
    outcomes = ["answered_correct"] * correct + ["answered_wrong"] * (n - correct)
    return [_Record(i, tag, o) for i, o in zip(ids, outcomes)]


def _row_item_count(index):
    # unequal counts keep the unweighted row mean apart from a mean pooled
    # over records; multiples of 1000 keep round(accuracy * n) exact
    return 1000 if index % 2 == 0 else 2000


def _reference_mean(rows, with_col, without_col):
    """Unweighted (with, without, delta) mean of printed reference rows."""
    with_mean = sum(row[with_col] for row in rows.values()) / len(rows)
    without_mean = sum(row[without_col] for row in rows.values()) / len(rows)
    return with_mean, without_mean, with_mean - without_mean


def _task_reference_report():
    records, items = [], []
    idx = 0
    for row, (task, (with_value, without_value, _)) in enumerate(TASK_REFERENCE_ROWS.items()):
        ids = []
        for _ in range(_row_item_count(row)):
            qid = f"q{idx}"
            items.append(_Item(qid, task))
            ids.append(qid)
            idx += 1
        records += _cell_records(ids, True, with_value)
        records += _cell_records(ids, False, without_value)
    return aggregate(items, records)


def test_criterion_4_task_reference_deltas():
    report = _task_reference_report()
    worst = 0.0
    for task, (with_value, without_value, printed_delta) in TASK_REFERENCE_ROWS.items():
        triple = report.by_task_type[task]
        assert triple.with_value == pytest.approx(with_value, abs=1e-9)
        assert triple.without_value == pytest.approx(without_value, abs=1e-9)
        worst = max(worst, abs(triple.delta - printed_delta))
    note("4 (per-task deltas)", worst <= 0.0015, f"max |computed-printed| = {worst:.4f}")
    assert worst <= 0.0015


def test_criterion_4_task_reference_average_row():
    report = _task_reference_report()
    avg = report.task_average
    computed = (avg.with_value, avg.without_value, avg.delta)
    expected = _reference_mean(TASK_REFERENCE_ROWS, 0, 1)
    deviation = max(abs(c - e) for c, e in zip(computed, expected))
    # the printed average row is not the mean of the printed task rows; it
    # must surface as a warning, while the row mean itself must not
    printed = RowTriple(TASK_REFERENCE_AVERAGE[0], TASK_REFERENCE_AVERAGE[1])
    warnings = stated_average_warnings("task table", report.by_task_type, printed, 0.0015)
    mean_warnings = stated_average_warnings(
        "task table", report.by_task_type, RowTriple(expected[0], expected[1]), 0.0015
    )
    ok = deviation <= 0.0015 and bool(warnings) and not mean_warnings
    note(
        "4 (average row)",
        ok,
        f"computed ({computed[0]:.4f}, {computed[1]:.4f}, {computed[2]:+.4f}) "
        f"vs row mean ({expected[0]:.4f}, {expected[1]:.4f}, {expected[2]:+.4f}); "
        f"printed ({TASK_REFERENCE_AVERAGE[0]}, {TASK_REFERENCE_AVERAGE[1]}, "
        f"{TASK_REFERENCE_AVERAGE[2]:+}) raised {len(warnings)} warning(s)",
    )
    assert deviation <= 0.0015, (
        f"average row {computed} deviates from the row mean {expected} by {deviation:.4f}"
    )
    assert warnings
    assert not mean_warnings


def _model_reference_report():
    items = [_Item(f"q{i}", "Information Synopsis") for i in range(2000)]
    all_ids = [item.question_id for item in items]
    records = []
    for row, (model, (without_pct, with_pct, _)) in enumerate(MODEL_REFERENCE_ROWS.items()):
        ids = all_ids[: _row_item_count(row)]
        records += _cell_records(ids, True, with_pct / 100.0, model=model)
        records += _cell_records(ids, False, without_pct / 100.0, model=model)
    return aggregate(items, records)


def test_criterion_5_model_reference_deltas():
    report = _model_reference_report()
    gpt_delta = report.by_model["GPT-4o"].delta * 100
    gemini_delta = report.by_model["Gemini 2.5 Pro"].delta * 100
    ok = abs(gpt_delta - 8.2) <= 0.05 and abs(gemini_delta - 0.5) <= 0.05
    note("5 (per-model deltas)", ok, f"GPT-4o {gpt_delta:+.2f}, Gemini 2.5 Pro {gemini_delta:+.2f}")
    assert abs(gpt_delta - 8.2) <= 0.05
    assert abs(gemini_delta - 0.5) <= 0.05


def test_criterion_5_caption_discrepancy_is_warning():
    # the caption claim and the average row disagree; that surfaces as a
    # warning, not an error
    warnings = claim_mismatch_warnings(
        "model-table average vs caption claim",
        RowTriple(MODEL_REFERENCE_PROSE_CLAIM[1], MODEL_REFERENCE_PROSE_CLAIM[0]),
        RowTriple(MODEL_REFERENCE_AVERAGE[1], MODEL_REFERENCE_AVERAGE[0]),
        tolerance=0.05,
    )
    ok = len(warnings) >= 1
    note("5 (caption discrepancy warning)", ok, warnings[0] if warnings else "no warning")
    assert warnings


def test_criterion_5_model_reference_average_row():
    report = _model_reference_report()
    avg = report.model_average
    computed = (avg.without_value * 100, avg.with_value * 100, avg.delta * 100)
    with_mean, without_mean, delta_mean = _reference_mean(MODEL_REFERENCE_ROWS, 1, 0)
    expected = (without_mean, with_mean, delta_mean)
    deviation = max(abs(c - e) for c, e in zip(computed, expected))
    # by_model holds fractions in (with, without) order; the printed row is
    # (without, with) in percent
    printed = RowTriple(MODEL_REFERENCE_AVERAGE[1] / 100, MODEL_REFERENCE_AVERAGE[0] / 100)
    warnings = stated_average_warnings("model table", report.by_model, printed, 0.0005)
    mean_warnings = stated_average_warnings(
        "model table", report.by_model, RowTriple(with_mean / 100, without_mean / 100), 0.0005
    )
    ok = deviation <= 0.05 and bool(warnings) and not mean_warnings
    note(
        "5 (average row)",
        ok,
        f"computed ({computed[0]:.2f}, {computed[1]:.2f}, {computed[2]:+.2f}) "
        f"vs row mean ({expected[0]:.2f}, {expected[1]:.2f}, {expected[2]:+.2f}); "
        f"printed ({MODEL_REFERENCE_AVERAGE[0]}, {MODEL_REFERENCE_AVERAGE[1]}, "
        f"{MODEL_REFERENCE_AVERAGE[2]:+}) raised {len(warnings)} warning(s)",
    )
    assert deviation <= 0.05, (
        f"average row {computed} deviates from the row mean {expected} by {deviation:.2f}"
    )
    assert warnings
    assert not mean_warnings


# --- criterion 6: completeness accounting ---------------------------------------------------


class _Slim:
    __slots__ = ("outcome",)

    def __init__(self, outcome):
        self.outcome = outcome


def test_criterion_6_completeness_round_trip():
    # smallest exact construction: answered/total = 0.37 and correct/answered
    # = 0.5873 need answered divisible by both 10000 and 37
    total, answered, correct = 1_000_000, 370_000, 217_301

    def records():
        yield from (_Slim("answered_correct") for _ in range(correct))
        yield from (_Slim("answered_wrong") for _ in range(answered - correct))
        yield from (_Slim("oom") for _ in range(total - answered))

    row = completeness_counts(Counter(record.outcome for record in records()), 0)
    answered_pct, correct_pct = row.answered_pct, row.correct_pct
    ok = answered_pct == 0.37 and correct_pct == 0.5873
    note("6", ok, f"({answered_pct}, {correct_pct})")
    assert answered_pct == 0.37
    assert correct_pct == 0.5873


# --- criterion 7: parser corpus ----------------------------------------------------------------


def test_criterion_7_parser_corpus(snow_white_outputs):
    rng = random.Random(70707)
    words = ["mirror", "queen", "forest", "apple", "dance", "scene", "finale", "duet"]
    entries = []
    seen = set()
    while len(entries) < 500:
        key = (rng.randrange(0, 359000), " ".join(rng.choice(words) for _ in range(rng.randint(1, 5))))
        if key in seen:
            continue
        seen.add(key)
        entries.append(KeyframeEntry(*key))
    lines = []
    for i, entry in enumerate(entries):
        hours, rest = divmod(entry.timestamp_s, 3600)  # MM:SS, or H:MM:SS from an hour on
        ts = f"{hours}:{rest // 60:02d}:{rest % 60:02d}" if hours else f"{rest // 60:02d}:{rest % 60:02d}"
        lines.append(f"({ts}, {entry.caption})" if i % 2 == 0 else f"{ts} - {entry.caption}")
    parsed = parse_video_output("\n".join(lines)).keyframes
    recovered = parsed == entries

    gemini = parse_video_output(snow_white_outputs["Gemini-2-Flash"])
    qwen = parse_video_output(snow_white_outputs["Qwen-7B"])
    counts_ok = len(gemini.keyframes) == 16 and len(qwen.keyframes) == 6

    note("7", recovered and counts_ok, f"500/500 recovered={recovered}, fixture counts "
         f"{len(gemini.keyframes)}/{len(qwen.keyframes)}")
    assert recovered
    assert counts_ok


# --- criterion 8: dataset loader -----------------------------------------------------------------


def test_criterion_8_dataset_loader(demo_dir):
    dataset = json.loads((demo_dir / "dataset.json").read_text(encoding="utf-8"))
    record = dataset[0]
    item = item_from_record(record)
    ok = (
        item.question_id == "001-2"
        and item.answer == "A"
        and item.task_type == "Information Synopsis"
        and item.duration == "short"
        and item.video_id == "001"
    )
    note("8", ok, f"question_id={item.question_id}, answer={item.answer}")
    assert ok

    malformed = dict(record)
    malformed["options"] = {k: v for k, v in record["options"].items() if k != "D"}
    with pytest.raises(SchemaError):
        item_from_record(malformed)
    malformed = dict(record, answer="Z")
    with pytest.raises(SchemaError):
        item_from_record(malformed)


# --- criterion 9: end-to-end replay determinism --------------------------------------------------


def test_criterion_9_end_to_end_replay(demo_dir, tmp_path, monkeypatch, capsys):
    def no_network(*args, **kwargs):
        raise AssertionError("network use during replay run")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    start = time.perf_counter()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    config = str(demo_dir / "config.json")
    assert cli_main(["evaluate", "--config", config, "--out-dir", str(out1)]) == 0
    assert cli_main(["evaluate", "--config", config, "--out-dir", str(out2)]) == 0
    elapsed = time.perf_counter() - start

    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in files1
    )
    has_artifacts = {
        Path("manifest.jsonl"),
        Path("task_accuracy.md"),
        Path("completeness.md"),
        Path("graphs/P69idA8JO98.dot"),
        Path("graphs/P69idA8JO98.json"),
    } <= set(files1)

    capsys.readouterr()  # swallow CLI prints so the note line stays visible
    ok = identical and has_artifacts and elapsed < 30.0
    note("9", ok, f"{len(files1)} files byte-identical={identical}, {elapsed:.2f}s")
    assert identical
    assert has_artifacts
    assert elapsed < 30.0


# --- criterion 10: construction closed form ------------------------------------------------------


def test_criterion_10_node_count_closed_form():
    rng = random.Random(10101)
    for _ in range(200):
        m = rng.randint(1, 5)
        outputs = {}
        total_keyframes = 0
        for j in range(m):
            count = rng.randint(0, 15)
            total_keyframes += count
            outputs[f"model-{j}"] = ParsedVideoOutput(
                summary=f"summary {j}",
                keyframes=[KeyframeEntry(7 * i, f"kf {j}-{i}") for i in range(count)],
                valid=True,
            )
        graph = build_comparison_graph(outputs)
        assert len(graph.nodes) == 2 + 2 * m + total_keyframes
    note("10", True, "node count = 2 + 2M + K over 200 random cases")
