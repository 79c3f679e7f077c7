"""Matching-node scoring, MCQ accuracy, and report aggregations.

All functions are pure; annotations (ground-truth keyframes and binary summary
verdicts) come in as plain data and the harness only computes means, it never
judges summary semantics itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .benchmark import DURATION_CLASSES
from .errors import EmptyVector
from .parsing import KeyframeEntry
from .schema import _keyframes

ANSWERED_OUTCOMES = ("answered_correct", "answered_wrong")


@dataclass
class MatchVector:
    """Per-output match indicators for one scenario (keyframe or summary)."""

    scenario: str
    matches: list[bool]


@dataclass
class RowTriple:
    """One (with transcript, without transcript) row; delta is exact."""

    with_value: float
    without_value: float

    @property
    def delta(self) -> float:
        return self.with_value - self.without_value


@dataclass
class CompletenessRow:
    total: int
    answered: int
    correct: int
    oom: int = 0
    unanswered: int = 0
    invalid_output: int = 0
    wall_ms: int = 0

    @property
    def answered_pct(self) -> float:
        return self.answered / self.total if self.total else 0.0

    @property
    def correct_pct(self) -> float:
        return self.correct / self.answered if self.answered else 0.0


@dataclass
class ScoreReport:
    overall_accuracy: float
    by_task_type: dict[str, RowTriple] = field(default_factory=dict)
    task_average: RowTriple | None = None
    by_duration: dict[str, RowTriple] = field(default_factory=dict)
    duration_average: RowTriple | None = None
    by_model: dict[str, RowTriple] = field(default_factory=dict)
    model_average: RowTriple | None = None
    completeness: dict[str, CompletenessRow] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def matching_node_score(vector: MatchVector) -> float:
    """Mean indicator over the vector's entries."""
    n = len(vector.matches)
    if n == 0:
        raise EmptyVector("match vector has no entries")
    return sum(1 for m in vector.matches if m) / n


def keyframe_match(pred: KeyframeEntry, truth: KeyframeEntry, tolerance_s: int = 0) -> bool:
    """True when the predicted timestamp is within tolerance of the truth."""
    if tolerance_s < 0:
        raise ValueError("tolerance must be non-negative")
    return abs(pred.timestamp_s - truth.timestamp_s) <= tolerance_s


def match_keyframe_lists(
    predicted: list[KeyframeEntry],
    truth: list[KeyframeEntry],
    tolerance_s: int = 0,
    mode: str = "any",
) -> bool:
    """Per-output keyframe verdict.

    mode "any": at least one predicted entry lands within tolerance of some
    ground-truth entry; mode "all": every ground-truth entry is covered.
    """
    if mode not in ("any", "all"):
        raise ValueError(f"bad mode: {mode}")
    if not truth:
        return False
    covered = [
        any(keyframe_match(p, t, tolerance_s) for p in predicted) for t in truth
    ]
    return all(covered) if mode == "all" else any(covered)


def build_match_vector(
    scenario: str,
    outputs: dict[str, "object"],
    annotations: dict[str, dict],
    tolerance_s: int = 0,
    mode: str = "any",
    model: str | None = None,
) -> MatchVector:
    """Assemble a match vector over the valid outputs that have annotations.

    outputs maps video_id -> ParsedVideoOutput. For the keyframe scenario the
    verdict is computed here; for the summary scenario the annotation's binary
    verdict (per model) is taken as-is.
    """
    matches: list[bool] = []
    for video_id, output in outputs.items():
        if not getattr(output, "valid", False):
            continue
        ann = annotations.get(video_id)
        if ann is None:
            continue
        if scenario == "keyframe":
            truth = _keyframes(ann.get("keyframes") or [], f"keyframes of video {video_id!r}")
            matches.append(
                match_keyframe_lists(output.keyframes, truth, tolerance_s, mode)
            )
        elif scenario == "summary":
            verdicts = ann.get("summary") or {}
            if model is None or model not in verdicts:
                continue
            matches.append(bool(verdicts[model]))
        else:
            raise ValueError(f"bad scenario: {scenario}")
    return MatchVector(scenario=scenario, matches=matches)


def completeness_counts(outcomes: dict[str, int], wall_ms: int) -> CompletenessRow:
    """The completeness row of a tally of outcomes (outcome -> record count) and their summed wall_ms."""
    return CompletenessRow(
        total=sum(outcomes.values()),
        answered=sum(outcomes.get(outcome, 0) for outcome in ANSWERED_OUTCOMES),
        correct=outcomes.get("answered_correct", 0),
        oom=outcomes.get("oom", 0),
        unanswered=outcomes.get("unanswered", 0),
        invalid_output=outcomes.get("invalid_output", 0),
        wall_ms=wall_ms,
    )


def _mean_triple(rows: dict[str, RowTriple]) -> RowTriple | None:
    if not rows:
        return None
    n = len(rows)
    return RowTriple(
        with_value=sum(t.with_value for t in rows.values()) / n,
        without_value=sum(t.without_value for t in rows.values()) / n,
    )


def aggregate(items: Iterable, records: Iterable) -> ScoreReport:
    """Build the full score report: per-task, per-duration, and per-model rows
    with (with, without, delta) triples, average rows as unweighted means of
    the listed rows, plus per-condition completeness.

    Items supply each record's task type and duration. Task and model rows are
    sorted by name, duration rows come in DURATION_CLASSES order. Records of
    one transcript side only give no rows, a warning and the overall accuracy.

    One pass folds each record into integers: per condition tag, its outcome
    counts, summed wall_ms and mcq (task type, duration, outcome) counts. Every
    accuracy is correct / answered over them. A completeness row's label is the
    tag's `label()`, prefixed with the model and the GPU where they vary, model first.
    """
    meta = {item.question_id: item for item in items}
    tallies: dict = {}  # tag -> [outcome counts, summed wall_ms, count of each (task, duration, outcome)]
    dropped = 0
    for record in records:
        tally = tallies.get(record.condition) or tallies.setdefault(record.condition, [{}, 0, {}])
        outcomes, _, cells = tally
        outcome = record.outcome
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        tally[1] += getattr(record, "wall_ms", 0)
        if record.request_kind == "mcq":
            item = meta.get(record.item_ref)
            if item is None:
                dropped += 1
                continue
            cell = (item.task_type, item.duration_class, outcome)
            cells[cell] = cells.get(cell, 0) + 1

    # [answered, correct] of each (transcript side, dimension, key); dimension 0 is
    # the task type, 1 the duration and 2 the model, so dimension 0 counts every record
    counts: dict[tuple, list[int]] = {}
    for tag, (_, _, cells) in tallies.items():
        for (task, duration, outcome), n in cells.items():
            answered, correct = n * (outcome in ANSWERED_OUTCOMES), n * (outcome == "answered_correct")
            for key in ((0, task), (1, duration), (2, tag.model_name)):
                pair = counts.setdefault((bool(tag.with_transcript), *key), [0, 0])
                pair[0] += answered
                pair[1] += correct

    warnings: list[str] = []
    if dropped:
        warnings.append(f"{dropped} record(s) reference unknown items and were skipped")
    both_sides = {side for side, _, _ in counts} == {True, False}
    if not both_sides:
        warnings.append("records cover a single transcript condition; delta tables skipped")

    def rows_for(dimension: int, sort_key=None) -> dict[str, RowTriple]:
        keys = {key for _, d, key in counts if d == dimension} if both_sides else ()
        rows: dict[str, RowTriple] = {}
        for key in sorted(keys, key=sort_key):
            (a, a_correct), (b, b_correct) = (counts.get((side, dimension, key), (0, 0)) for side in (True, False))
            if not a or not b:
                warnings.append(f"row {key!r} lacks answered records on one side; skipped")
                continue
            rows[key] = RowTriple(a_correct / a, b_correct / b)
        return rows

    by_task = rows_for(0)
    by_duration = rows_for(1, DURATION_CLASSES.index)
    by_model = rows_for(2)

    answered, correct = (sum(pair[i] for (_, d, _), pair in counts.items() if d == 0) for i in (0, 1))
    vary_model = len({tag.model_name for tag in tallies}) > 1
    vary_gpu = len({tag.gpu for tag in tallies}) > 1
    completeness = {}
    for tag, (outcomes, wall_ms, _) in tallies.items():
        prefix = [tag.model_name] * vary_model + [tag.gpu] * vary_gpu
        label = " / ".join([part for part in prefix if part] + [tag.label()])
        completeness[label] = completeness_counts(outcomes, wall_ms)
    return ScoreReport(
        overall_accuracy=correct / answered if answered else 0.0,
        by_task_type=by_task,
        task_average=_mean_triple(by_task),
        by_duration=by_duration,
        duration_average=_mean_triple(by_duration),
        by_model=by_model,
        model_average=_mean_triple(by_model),
        completeness=dict(sorted(completeness.items())),
        warnings=warnings,
    )


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
