"""Load Video-MME-style datasets, expand the condition matrix, and run them.

A run produces one record per (condition x item) cell. Partial failures,
including replay misses and out-of-memory responses, become records rather than
aborting the run, so completeness can be accounted afterwards. Records come out
in (condition, question id) order. Replay is serial and deterministic, and its
wall-clock defers to the recorded latency; live runs the cells concurrently, up
to the hub's in-flight limit.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    HarnessError,
    MalformedProviderOutput,
    NoAnswerFound,
    SchemaError,
)
from .parsing import McqAnswer, ParsedVideoOutput, parse_mcq, parse_video_output
from .providers import (
    ConditionTag,
    ModelRequest,
    ModelResponse,
    ProviderHub,
    Transcript,
)
from .templates import DEFAULT_MCQ_TEMPLATE, render_prompt, transcript_block

OPTION_LETTERS = ("A", "B", "C", "D")
DURATION_CLASSES = ("short", "medium", "long")
OUTCOMES = ("answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom")

REPLAY_EPOCH = "1970-01-01T00:00:00Z"


@dataclass
class BenchmarkItem:
    video_id: str
    duration_class: str
    domain: str
    sub_category: str
    url: str
    question_id: str
    task_type: str
    question: str
    options: dict[str, str]
    answer: str

    def __post_init__(self):
        if self.duration_class not in DURATION_CLASSES:
            raise SchemaError(f"bad duration class: {self.duration_class!r}")
        if tuple(sorted(self.options)) != OPTION_LETTERS:
            raise SchemaError(
                f"item {self.question_id}: need exactly options A-D, got {sorted(self.options)}"
            )
        if self.answer not in self.options:
            raise SchemaError(f"item {self.question_id}: answer {self.answer!r} not among options")


def _normalize_options(raw) -> dict[str, str]:
    """Accept either {"A": text, ...} or ["A. text", ...] option shapes."""
    if isinstance(raw, dict):
        return {str(k).strip().upper(): str(v) for k, v in raw.items()}
    if isinstance(raw, list):
        options = {}
        for entry in raw:
            text = str(entry).strip()
            if len(text) >= 2 and text[0].upper() in OPTION_LETTERS and text[1] in ".):":
                options[text[0].upper()] = text[2:].strip()
            else:
                raise SchemaError(f"option entry not in 'A. text' form: {entry!r}")
        return options
    raise SchemaError(f"options must be a mapping or list, got {type(raw).__name__}")


def _normalize_duration(raw) -> str:
    value = str(raw).strip().lower()
    if value in DURATION_CLASSES:
        return value
    raise SchemaError(f"bad duration value: {raw!r}")


def item_from_record(record: dict) -> BenchmarkItem:
    try:
        return BenchmarkItem(
            video_id=str(record["video_id"]),
            duration_class=_normalize_duration(record["duration"]),
            domain=str(record.get("domain", "")),
            sub_category=str(record.get("sub_category", "")),
            url=str(record.get("url", "")),
            question_id=str(record["question_id"]),
            task_type=str(record.get("task_type", "")),
            question=str(record["question"]),
            options=_normalize_options(record["options"]),
            answer=str(record["answer"]).strip().upper(),
        )
    except KeyError as exc:
        raise SchemaError(f"record missing field {exc.args[0]!r}: {record}") from exc


def load_dataset(path: str | Path) -> list[BenchmarkItem]:
    """Load a JSON array or JSON-lines file of benchmark items."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise SchemaError(f"dataset file is empty: {path}")
    if stripped.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"dataset is not valid JSON: {exc}") from exc
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno} is not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise SchemaError("dataset must be a JSON array or JSON-lines file")

    items = [item_from_record(row) for row in rows]
    seen: set[str] = set()
    for item in items:
        if item.question_id in seen:
            raise SchemaError(f"duplicate question_id: {item.question_id}")
        seen.add(item.question_id)
    return items


def render_options(options: dict[str, str]) -> str:
    return "\n".join(f"{letter}. {options[letter]}" for letter in OPTION_LETTERS)


def build_question_prompt(
    item: BenchmarkItem,
    transcript: Transcript | None,
    template: str = DEFAULT_MCQ_TEMPLATE,
) -> str:
    """Render the MCQ prompt; the transcript block appears only when non-empty."""
    block = transcript_block(transcript)
    rendered = render_prompt(
        template,
        {
            "question": item.question,
            "options": render_options(item.options),
            "transcript": block,
        },
        required=("question", "options"),
    )
    if block and "{transcript}" not in template:
        rendered = block + rendered
    return rendered


@dataclass
class RunRecord:
    item_ref: str
    condition: ConditionTag
    request_kind: str  # mcq | summary_keyframes
    response: ModelResponse
    parsed: McqAnswer | ParsedVideoOutput | None
    outcome: str
    wall_ms: int = 0
    error: str | None = None

    def to_dict(self) -> dict:
        # not vars(): it would give each record and answer a dict of its own for the run's life
        if isinstance(self.parsed, McqAnswer):
            parsed = {name: getattr(self.parsed, name) for name in self.parsed.__match_args__}
        elif isinstance(self.parsed, ParsedVideoOutput):
            parsed = {
                "summary": self.parsed.summary,
                "keyframes": [[e.timestamp_s, e.caption] for e in self.parsed.keyframes],
                "valid": self.parsed.valid,
            }
        else:
            parsed = None
        return {
            **{name: getattr(self, name) for name in self.__match_args__},
            "condition": self.condition.to_dict(),
            "response": self.response.to_dict(),
            "parsed": parsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        parsed_raw = data.get("parsed")
        parsed: McqAnswer | ParsedVideoOutput | None
        if parsed_raw is None:
            parsed = None
        elif "letter" in parsed_raw:
            parsed = McqAnswer(parsed_raw["letter"], parsed_raw["confidence_source"])
        else:
            from .parsing import KeyframeEntry

            parsed = ParsedVideoOutput(
                summary=parsed_raw["summary"],
                keyframes=[KeyframeEntry(ts, cap) for ts, cap in parsed_raw["keyframes"]],
                valid=parsed_raw["valid"],
            )
        return cls(
            item_ref=data["item_ref"],
            condition=ConditionTag.from_dict(data["condition"]),
            request_kind=data["request_kind"],
            response=ModelResponse.from_dict(data["response"]),
            parsed=parsed,
            outcome=data["outcome"],
            wall_ms=int(data.get("wall_ms", 0)),
            error=data.get("error"),
        )


def classify_outcome(
    response: ModelResponse,
    parsed: McqAnswer | ParsedVideoOutput | None,
    item_answer: str | None,
) -> str:
    """Derive the record outcome purely from (response status, parsed, answer)."""
    if response.status == "oom":
        return "oom"
    if response.status == "timeout":
        return "unanswered"
    if response.status == "invalid":
        return "invalid_output"
    if isinstance(parsed, McqAnswer):
        return "answered_correct" if parsed.letter == item_answer else "answered_wrong"
    if isinstance(parsed, ParsedVideoOutput):
        return "answered" if parsed.valid else "invalid_output"
    return "unanswered"


@dataclass
class RunCondition:
    tag: ConditionTag
    provider: str

    def to_dict(self) -> dict:
        return {"tag": self.tag.to_dict(), "provider": self.provider}


@dataclass
class RunPlan:
    dataset_path: str
    items: list[BenchmarkItem]
    conditions: list[RunCondition]
    request_kind: str = "mcq"
    mcq_template: str = DEFAULT_MCQ_TEMPLATE
    summary_template: str = ""
    transcripts: dict[str, Transcript] = field(default_factory=dict)


@dataclass
class RunManifest:
    dataset_path: str
    conditions: list[RunCondition]
    providers: list[str]
    started_at: str
    records: list[RunRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        header = {
            "kind": "manifest",
            "dataset_path": self.dataset_path,
            "conditions": [c.to_dict() for c in self.conditions],
            "providers": self.providers,
            "started_at": self.started_at,
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for record in self.records:
            lines.append(json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunManifest":
        """Read a manifest back; a line that does not decode is a SchemaError naming it."""
        manifest = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if manifest is None:
                    manifest = cls(
                        dataset_path=data["dataset_path"],
                        conditions=[
                            RunCondition(ConditionTag.from_dict(c["tag"]), c["provider"])
                            for c in data["conditions"]
                        ],
                        providers=list(data["providers"]),
                        started_at=data["started_at"],
                    )
                else:
                    manifest.records.append(RunRecord.from_dict(data))
            except (KeyError, TypeError, ValueError, MalformedProviderOutput) as exc:
                raise SchemaError(f"manifest line {lineno} is malformed: {exc!r}") from exc
        if manifest is None:
            raise SchemaError("empty manifest")
        return manifest


def _build_prompt(plan: RunPlan, condition: RunCondition, item: BenchmarkItem) -> str:
    transcript = None
    if condition.tag.with_transcript:
        transcript = plan.transcripts.get(item.video_id)
    if plan.request_kind == "mcq":
        return build_question_prompt(item, transcript, plan.mcq_template)
    return render_prompt(
        plan.summary_template,
        {"transcript": transcript_block(transcript)},
        required=(),
    )


def _run_one(
    plan: RunPlan, hub: ProviderHub, condition: RunCondition, item: BenchmarkItem
) -> RunRecord:
    prompt = _build_prompt(plan, condition, item)
    request = ModelRequest(
        provider_id=condition.provider,
        modality="vlm",
        prompt=prompt,
        condition=condition.tag,
    )
    error = None
    start = time.perf_counter()
    try:
        response = hub.send(request)
    except HarnessError as exc:
        response = ModelResponse("", 0, "invalid")
        error = f"{type(exc).__name__}: {exc}"
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    parsed: McqAnswer | ParsedVideoOutput | None = None
    if response.status == "ok":
        if plan.request_kind == "mcq":
            try:
                parsed = parse_mcq(response.raw_text)
            except NoAnswerFound:
                parsed = None
        else:
            parsed = parse_video_output(response.raw_text)

    outcome = classify_outcome(response, parsed, item.answer)
    wall_ms = response.latency_ms if hub.mode == "replay" else elapsed_ms
    return RunRecord(
        item_ref=item.question_id,
        condition=condition.tag,
        request_kind=plan.request_kind,
        response=response,
        parsed=parsed,
        outcome=outcome,
        wall_ms=wall_ms,
        error=error,
    )


def run_benchmark(plan: RunPlan, hub: ProviderHub) -> RunManifest:
    """Run every (condition, item) cell and return the manifest of its records.

    Cells are taken in condition order and, within a condition, in question id
    order; the records keep that order. Replay runs the cells one after another.
    Live runs them through one pool as wide as the hub's in-flight limit.
    """
    started_at = (
        REPLAY_EPOCH
        if hub.mode == "replay"
        else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    items = sorted(plan.items, key=lambda item: item.question_id)
    cells = [(condition, item) for condition in plan.conditions for item in items]
    if hub.mode == "replay":
        records = [_run_one(plan, hub, condition, item) for condition, item in cells]
    else:
        with ThreadPoolExecutor(hub.max_in_flight) as pool:
            records = list(pool.map(lambda cell: _run_one(plan, hub, *cell), cells))
    return RunManifest(
        dataset_path=plan.dataset_path,
        conditions=plan.conditions,
        providers=sorted({c.provider for c in plan.conditions}),
        started_at=started_at,
        records=records,
    )
