"""Matching-node scoring, MCQ accuracy, and report aggregations.

All functions are pure; annotations (ground-truth keyframes and binary summary
verdicts) come in as Annotation objects, which config.load_annotations fills,
and the harness only computes means, it never judges summary semantics itself.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Annotated

from .benchmark import DURATION_CLASSES
from .parsing import KeyframeEntry, _keyframe_text

ANSWERED_OUTCOMES = ("answered_correct", "answered_wrong")


@dataclass
class RowTriple:
    """One (with transcript, without transcript) row; delta is exact."""

    with_value: float
    without_value: float

    @property
    def delta(self) -> float:
        return self.with_value - self.without_value


@dataclass
class Annotation:
    """One video's ground truth: its keyframes, and a verdict on each model's summary."""

    keyframes: list[Annotated[KeyframeEntry, _keyframe_text]] = field(default_factory=list)
    summary: dict[str, bool] = field(default_factory=dict)  # "false" would count as a match: _boolean refuses it


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


def matching_node_score(matches: list[bool]) -> float | None:
    """Mean indicator over the per-output matches; None when there are none."""
    return sum(1 for m in matches if m) / len(matches) if matches else None


def keyframe_match(pred: KeyframeEntry, truth: KeyframeEntry, tolerance_s: int = 0) -> bool:
    """True when the predicted timestamp is within tolerance (load_config's, at least 0) of the truth."""
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
    if not truth:
        return False
    covered = [
        any(keyframe_match(p, t, tolerance_s) for p in predicted) for t in truth
    ]
    return all(covered) if mode == "all" else any(covered)


def build_match_vector(
    scenario: str,
    outputs: dict[str, "object"],
    annotations: dict[str, Annotation],
    tolerance_s: int = 0,
    mode: str = "any",
    model: str | None = None,
) -> list[bool]:
    """The match of each output that has an annotation, in outputs order.

    outputs maps video_id -> ParsedVideoOutput, valid ones only, and annotations
    video_id -> Annotation. For the "keyframe" scenario the verdict is computed
    here, against the annotation's keyframes; for "summary" the annotation's
    verdict for model is taken as-is, and an output without one is left out.
    """
    matches: list[bool] = []
    for video_id, output in outputs.items():
        ann = annotations.get(video_id)
        if ann is None:
            continue
        if scenario == "keyframe":
            matches.append(match_keyframe_lists(output.keyframes, ann.keyframes, tolerance_s, mode))
        elif model in ann.summary:
            matches.append(ann.summary[model])
    return matches


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
    """The full score report of records, folded one at a time into a Tally."""
    tally = Tally(items)
    for record in records:
        tally.add(record)
    return tally.report()


class Tally:
    """The fold of records into a score report: report adds a manifest's records as it decodes them,
    evaluate its run's as they are made. Items supply each record's task type and duration. Each
    record adds to integers: per condition tag, its outcome counts, summed wall_ms and mcq (task type,
    duration, outcome) counts.
    """

    def __init__(self, items: Iterable):
        self.meta = {item.question_id: item for item in items}
        self.tallies: dict = {}  # tag -> [outcome counts, summed wall_ms, count of each (task, duration, outcome)]
        self.dropped = 0

    def add(self, record) -> None:
        tally = self.tallies.get(record.condition) or self.tallies.setdefault(record.condition, [{}, 0, {}])
        outcomes, _, cells = tally
        outcome = record.outcome
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        tally[1] += record.wall_ms
        if record.request_kind == "mcq":
            item = self.meta.get(record.item_ref)
            if item is None:
                self.dropped += 1
                return
            cell = (item.task_type, item.duration, outcome)
            cells[cell] = cells.get(cell, 0) + 1

    def report(self) -> ScoreReport:
        """The full score report: per-task, per-duration, and per-model rows
        with (with, without, delta) triples, average rows as unweighted means of
        the listed rows, plus per-condition completeness.

        Task and model rows are sorted by name, duration rows come in
        DURATION_CLASSES order. Records of one transcript side only give no rows, a
        warning and the overall accuracy. Every accuracy is correct / answered over
        the counts. A completeness row's label is the tag's `label()`, prefixed with
        the model and the GPU where they vary, model first.
        """
        tallies, dropped = self.tallies, self.dropped
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
