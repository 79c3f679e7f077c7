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


def completeness_counts(records: Iterable) -> CompletenessRow:
    """Outcome counts and summed wall_ms (0 for records that carry none)."""
    tally: dict[str, int] = {}
    wall_ms = 0
    for record in records:
        tally[record.outcome] = tally.get(record.outcome, 0) + 1
        wall_ms += getattr(record, "wall_ms", 0)
    return CompletenessRow(
        total=sum(tally.values()),
        answered=sum(tally.get(outcome, 0) for outcome in ANSWERED_OUTCOMES),
        correct=tally.get("answered_correct", 0),
        oom=tally.get("oom", 0),
        unanswered=tally.get("unanswered", 0),
        invalid_output=tally.get("invalid_output", 0),
        wall_ms=wall_ms,
    )


def _group_by(records: Iterable, key_fn) -> dict:
    """Records grouped by key, in first-seen key order, each group in record order."""
    groups: dict = {}
    for record in records:
        groups.setdefault(key_fn(record), []).append(record)
    return groups


def completeness_by_condition(records: Iterable) -> dict[str, CompletenessRow]:
    """One completeness row per distinct condition tag, keyed by its printed label.

    `ConditionTag.label()` leaves out the model and the GPU, so the label is
    prefixed with whichever of them varies across the records, model first.
    """
    by_tag = _group_by(records, lambda record: record.condition)
    vary_model = len({tag.model_name for tag in by_tag}) > 1
    vary_gpu = len({tag.gpu for tag in by_tag}) > 1
    rows = {}
    for tag, group in by_tag.items():
        prefix = [tag.model_name] * vary_model + [tag.gpu] * vary_gpu
        label = " / ".join([part for part in prefix if part] + [tag.label()])
        rows[label] = completeness_counts(group)
    return dict(sorted(rows.items()))


def _accuracy(records: list) -> float | None:
    row = completeness_counts(records)
    return row.correct_pct if row.answered else None


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
    """
    records = list(records)
    meta = {item.question_id: item for item in items}
    mcq = [r for r in records if r.request_kind == "mcq"]

    warnings: list[str] = []
    known = [r for r in mcq if r.item_ref in meta]
    dropped = len(mcq) - len(known)
    if dropped:
        warnings.append(f"{dropped} record(s) reference unknown items and were skipped")

    with_side = [r for r in known if r.condition.with_transcript]
    without_side = [r for r in known if not r.condition.with_transcript]
    if not with_side or not without_side:
        warnings.append("records cover a single transcript condition; delta tables skipped")
        with_side = without_side = []

    def rows_for(key_fn, sort_key=None) -> dict[str, RowTriple]:
        with_groups = _group_by(with_side, key_fn)
        without_groups = _group_by(without_side, key_fn)
        rows: dict[str, RowTriple] = {}
        for key in sorted(with_groups.keys() | without_groups.keys(), key=sort_key):
            a = _accuracy(with_groups.get(key, []))
            b = _accuracy(without_groups.get(key, []))
            if a is None or b is None:
                warnings.append(f"row {key!r} lacks answered records on one side; skipped")
                continue
            rows[key] = RowTriple(a, b)
        return rows

    by_task = rows_for(lambda r: meta[r.item_ref].task_type)
    by_duration = rows_for(lambda r: meta[r.item_ref].duration_class, DURATION_CLASSES.index)
    by_model = rows_for(lambda r: r.condition.model_name)

    overall = _accuracy(known)
    return ScoreReport(
        overall_accuracy=overall if overall is not None else 0.0,
        by_task_type=by_task,
        task_average=_mean_triple(by_task),
        by_duration=by_duration,
        duration_average=_mean_triple(by_duration),
        by_model=by_model,
        model_average=_mean_triple(by_model),
        completeness=completeness_by_condition(records),
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
