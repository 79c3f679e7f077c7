import random
from collections import Counter
from dataclasses import dataclass

import pytest

from videval.parsing import KeyframeEntry, ParsedVideoOutput
from videval.providers import ConditionTag
from videval.scoring import (
    Annotation,
    RowTriple,
    aggregate,
    build_match_vector,
    completeness_counts,
    keyframe_match,
    match_keyframe_lists,
    matching_node_score,
)


@dataclass
class FakeItem:
    question_id: str
    task_type: str = "Information Synopsis"
    duration: str = "short"
    answer: str = "A"


@dataclass
class FakeRecord:
    item_ref: str
    condition: ConditionTag
    outcome: str
    request_kind: str = "mcq"
    wall_ms: int = 0


def tally(records) -> Counter:
    return Counter(record.outcome for record in records)


def make_records(item_ids, with_transcript, outcomes, model="m1"):
    tag = ConditionTag(model_name=model, fps=0.1, with_transcript=with_transcript, attention="sdpa")
    return [FakeRecord(i, tag, o) for i, o in zip(item_ids, outcomes)]


# --- matching_node_score ----------------------------------------------------------


def test_matching_node_score_26_of_74():
    score = matching_node_score([True] * 26 + [False] * 48)
    assert score == 26 / 74
    assert f"{score * 100:.1f}%" == "35.1%"


def test_matching_node_score_all_true():
    assert matching_node_score([True] * 9) == 1.0


def test_matching_node_score_empty():
    assert matching_node_score([]) is None


def test_matching_node_score_random_oracle():
    rng = random.Random(11)
    for _ in range(300):
        matches = [rng.random() < 0.5 for _ in range(rng.randint(1, 200))]
        expected = sum(1 for m in matches if m) / len(matches)  # counting oracle
        assert matching_node_score(matches) == expected


def test_matching_node_score_negation_identity():
    rng = random.Random(12)
    for _ in range(100):
        matches = [rng.random() < 0.3 for _ in range(rng.randint(1, 50))]
        score = matching_node_score(matches)
        negated = matching_node_score([not m for m in matches])
        assert score == pytest.approx(1.0 - negated)
        assert 0.0 <= score <= 1.0


# --- keyframe_match ------------------------------------------------------------------


def test_keyframe_match_exact():
    assert keyframe_match(KeyframeEntry(8, "a"), KeyframeEntry(8, "b"), 0)


def test_keyframe_match_boundary():
    assert not keyframe_match(KeyframeEntry(87, "a"), KeyframeEntry(90, "b"), 2)
    assert keyframe_match(KeyframeEntry(88, "a"), KeyframeEntry(90, "b"), 2)


def test_keyframe_match_random_oracle():
    rng = random.Random(13)
    for _ in range(300):
        a = KeyframeEntry(rng.randrange(0, 3600), "p")
        b = KeyframeEntry(rng.randrange(0, 3600), "t")
        tol = rng.randrange(0, 10)
        assert keyframe_match(a, b, tol) == (abs(a.timestamp_s - b.timestamp_s) <= tol)


def test_match_keyframe_lists_modes():
    pred = [KeyframeEntry(8, "a"), KeyframeEntry(100, "b")]
    truth = [KeyframeEntry(7, "x"), KeyframeEntry(400, "y")]
    assert match_keyframe_lists(pred, truth, tolerance_s=2, mode="any")
    assert not match_keyframe_lists(pred, truth, tolerance_s=2, mode="all")
    assert not match_keyframe_lists(pred, [], tolerance_s=2)


def test_build_match_vector_scenarios():
    outputs = {
        "vid1": ParsedVideoOutput("s", [KeyframeEntry(8, "a")], True),
        "vid2": ParsedVideoOutput("s", [KeyframeEntry(8, "a")], True),  # no annotation: excluded
        "vid3": ParsedVideoOutput("s", [KeyframeEntry(500, "b")], True),
    }
    annotations = {
        "vid1": Annotation([KeyframeEntry(7, "x")], {"m": True}),
        "vid3": Annotation([KeyframeEntry(100, "y")], {"m": False}),
    }
    assert build_match_vector("keyframe", outputs, annotations, tolerance_s=2) == [True, False]
    assert build_match_vector("summary", outputs, annotations, model="m") == [True, False]
    assert build_match_vector("summary", outputs, annotations, model="other") == []


# --- MCQ accuracy: completeness_counts ---------------------------------------------------


def test_mcq_accuracy_fixture():
    outcomes = ["answered_correct"] * 37 + ["answered_wrong"] * 0 + ["oom"] * 63
    records = make_records([str(i) for i in range(100)], False, outcomes)
    row = completeness_counts(tally(records), 0)
    assert row.answered_pct == 0.37
    assert row.correct_pct == 1.0


def test_mcq_accuracy_all_correct():
    records = make_records(["1", "2"], False, ["answered_correct"] * 2)
    row = completeness_counts(tally(records), 0)
    assert (row.answered_pct, row.correct_pct) == (1.0, 1.0)


def test_mcq_accuracy_empty():
    row = completeness_counts({}, 0)
    assert (row.total, row.answered_pct, row.correct_pct) == (0, 0.0, 0.0)


def test_mcq_accuracy_counting_oracle():
    rng = random.Random(21)
    outcomes_pool = ["answered_correct", "answered_wrong", "unanswered", "invalid_output", "oom"]
    for _ in range(100):
        outcomes = [rng.choice(outcomes_pool) for _ in range(rng.randint(1, 400))]
        records = make_records([str(i) for i in range(len(outcomes))], False, outcomes)
        # brute-force tally
        answered = sum(o in ("answered_correct", "answered_wrong") for o in outcomes)
        correct = sum(o == "answered_correct" for o in outcomes)
        row = completeness_counts(tally(records), 0)
        assert row.answered_pct == answered / len(outcomes)
        assert row.correct_pct == (correct / answered if answered else 0.0)


# --- aggregate ---------------------------------------------------------------------------


def records_for_pairs(pairs, items):
    """Build per-task record sets whose accuracies equal the given pairs exactly."""
    records = []
    item_list = []
    idx = 0
    for task, (with_acc, without_acc) in pairs.items():
        n = 1000
        ids = []
        for _ in range(n):
            qid = f"q{idx}"
            item_list.append(FakeItem(qid, task_type=task))
            ids.append(qid)
            idx += 1
        w_correct = round(with_acc * n)
        wo_correct = round(without_acc * n)
        records += make_records(
            ids, True, ["answered_correct"] * w_correct + ["answered_wrong"] * (n - w_correct)
        )
        records += make_records(
            ids, False, ["answered_correct"] * wo_correct + ["answered_wrong"] * (n - wo_correct)
        )
    return records, item_list


def test_aggregate_rows_and_average():
    pairs = {"Action Reasoning": (0.759, 0.545), "OCR Problems": (0.744, 0.698)}
    records, items = records_for_pairs(pairs, None)
    report = aggregate(items, records)
    assert report.by_task_type["Action Reasoning"].with_value == pytest.approx(0.759)
    assert report.by_task_type["Action Reasoning"].delta == pytest.approx(0.214, abs=1e-12)
    avg = report.task_average
    assert avg.with_value == pytest.approx((0.759 + 0.744) / 2)
    assert avg.without_value == pytest.approx((0.545 + 0.698) / 2)
    assert avg.delta == pytest.approx(avg.with_value - avg.without_value)


def test_aggregate_permutation_invariant():
    pairs = {"A Task": (0.6, 0.4), "B Task": (0.9, 0.8)}
    records, items = records_for_pairs(pairs, None)
    report1 = aggregate(items, records)
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    report2 = aggregate(items, shuffled)
    assert report1.by_task_type == report2.by_task_type
    assert report1.overall_accuracy == report2.overall_accuracy


def test_aggregate_missing_condition():
    # one transcript side: no delta rows, but the accuracy of the records there is
    records = make_records(["q0", "q1", "q2"], False, ["answered_correct", "answered_wrong", "oom"])
    report = aggregate([FakeItem(f"q{i}") for i in range(3)], records)
    assert report.warnings == ["records cover a single transcript condition; delta tables skipped"]
    assert report.by_task_type == report.by_duration == report.by_model == {}
    assert report.task_average is report.duration_average is report.model_average is None
    assert report.overall_accuracy == 0.5
    assert list(report.completeness.values())[0].total == 3


def test_aggregate_single_record_pair():
    items = [FakeItem("q0", task_type="OCR Problems", duration="long")]
    records = make_records(["q0"], True, ["answered_correct"]) + make_records(
        ["q0"], False, ["answered_correct"]
    )
    report = aggregate(items, records)
    triple = report.by_task_type["OCR Problems"]
    assert (triple.with_value, triple.without_value, triple.delta) == (1.0, 1.0, 0.0)
    assert report.by_duration["long"] == triple
    assert report.by_model["m1"] == triple
    assert report.overall_accuracy == 1.0


def test_aggregate_completeness_split_by_condition():
    items = [FakeItem(f"q{i}") for i in range(4)]
    ids = [i.question_id for i in items]
    records = make_records(ids, False, ["answered_correct", "oom", "unanswered", "answered_wrong"])
    records += make_records(ids, True, ["answered_correct"] * 4)
    report = aggregate(items, records)
    without_label = "SDPA (0.1 FPS) without Audio Transcription"
    with_label = "SDPA (0.1 FPS) with Audio Transcription"
    assert report.completeness[without_label].answered == 2
    assert report.completeness[without_label].oom == 1
    assert report.completeness[with_label].answered_pct == 1.0


def test_aggregate_completeness_one_row_per_model_and_side():
    items = [FakeItem(f"q{i}") for i in range(2)]
    ids = [i.question_id for i in items]
    records = []
    for model in ("m1", "m2"):
        for with_transcript in (False, True):
            cell = make_records(ids, with_transcript, ["answered_correct", "oom"], model=model)
            for record in cell:
                record.wall_ms = 1000 if model == "m1" else 250
            records += cell
    report = aggregate(items, records)
    assert list(report.completeness) == [
        "m1 / SDPA (0.1 FPS) with Audio Transcription",
        "m1 / SDPA (0.1 FPS) without Audio Transcription",
        "m2 / SDPA (0.1 FPS) with Audio Transcription",
        "m2 / SDPA (0.1 FPS) without Audio Transcription",
    ]
    rows = list(report.completeness.values())
    assert [(r.total, r.answered, r.oom) for r in rows] == [(2, 1, 1)] * 4
    assert [r.wall_ms for r in rows] == [2000, 2000, 500, 500]

