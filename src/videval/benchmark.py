"""Load Video-MME-style datasets, expand the condition matrix, and run them.

A run produces one record per (condition x item) cell. Partial failures,
including replay misses and out-of-memory responses, become records rather than
aborting the run, so completeness can be accounted afterwards. Records come out
in (condition, question id) order. Replay is serial and deterministic; live
runs the cells concurrently, in a pool as wide as the plan's max_workers. A
record's `wall_ms` is its answer's recorded latency in both modes (in a live run,
that of the last attempt), so a replay of a live run's cassettes reads the same times.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's escaping
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
from .schema import _boolean, _choice, _fill, _keyframes, _list_of, _number, _object, _plain, _string, _strings
from .templates import DEFAULT_MCQ_TEMPLATE, render_prompt, transcript_block

OPTION_LETTERS = ("A", "B", "C", "D")
DURATION_CLASSES = ("short", "medium", "long")
OUTCOMES = ("answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom")
REQUEST_KINDS = ("mcq", "summary_keyframes")

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
    record = _object(record, "dataset row")
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
    text = Path(path).read_bytes()  # json.loads decodes it: a byte that is not UTF-8 is bad JSON
    stripped = text.lstrip()
    if not stripped:
        raise SchemaError(f"dataset file is empty: {path}")
    if stripped.startswith(b"["):
        try:
            rows = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"dataset is not valid JSON: {exc}") from exc
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except ValueError as exc:
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
    return render_prompt(
        template,
        {
            "question": item.question,
            "options": render_options(item.options),
            "transcript": transcript_block(transcript),
        },
        required=("question", "options"),
    )


# the readers of both parsed shapes: an McqAnswer has a letter, a ParsedVideoOutput has not
PARSED_READERS = {"letter": _choice(*OPTION_LETTERS), "keyframes": _keyframes, "valid": _boolean}
_ANSWERS: dict[str, McqAnswer] = {}  # _parsed's answers, keyed by the repr of their dict
_ANSWER_JSON: dict[McqAnswer, str] = {}  # the JSON text of each answer a record has written


def _parsed(value, what: str) -> McqAnswer | ParsedVideoOutput | None:
    if value is None:
        return None
    if "letter" not in _object(value, what):
        return _fill(ParsedVideoOutput, value, what, PARSED_READERS)
    key = repr(value)  # a manifest repeats a few answers: read each once (repr tells true from 1)
    if key not in _ANSWERS:
        _ANSWERS[key] = _fill(McqAnswer, value, what, PARSED_READERS)
    return _ANSWERS[key]


def _parsed_json(parsed: McqAnswer | ParsedVideoOutput | None) -> str:
    if parsed is None:
        return "null"
    if isinstance(parsed, McqAnswer):
        if parsed not in _ANSWER_JSON:
            _ANSWER_JSON[parsed] = (
                f'{{"confidence_source":{_quote(parsed.confidence_source)},"letter":{_quote(parsed.letter)}}}'
            )
        return _ANSWER_JSON[parsed]
    keyframes = ",".join(f"[{entry.timestamp_s!r},{_quote(entry.caption)}]" for entry in parsed.keyframes)
    valid = "true" if parsed.valid else "false"
    return f'{{"keyframes":[{keyframes}],"summary":{_quote(parsed.summary)},"valid":{valid}}}'


@dataclass
class RunRecord:
    item_ref: str
    condition: ConditionTag
    request_kind: str  # one of REQUEST_KINDS
    response: ModelResponse
    parsed: McqAnswer | ParsedVideoOutput | None
    outcome: str
    wall_ms: int = 0
    error: str | None = None

    def to_json(self) -> str:
        """The record's line: json.dumps(fields, sort_keys=True, separators=(",", ":")) byte for byte,
        keyframes as [seconds, caption]. Written by hand for speed, each string escaped as json.dumps
        escapes it; a tag's JSON is made once per tag, and an answer's once per answer."""
        response, error = self.response, "null" if self.error is None else _quote(self.error)
        return (
            f'{{"condition":{self.condition.canonical_json},"error":{error},"item_ref":{_quote(self.item_ref)},'
            f'"outcome":{_quote(self.outcome)},"parsed":{_parsed_json(self.parsed)},'
            f'"request_kind":{_quote(self.request_kind)},"response":{{"latency_ms":{response.latency_ms!r},'
            f'"raw_text":{_quote(response.raw_text)},"status":{_quote(response.status)}}},'
            f'"wall_ms":{self.wall_ms!r}}}'
        )


_request_kind, _outcome = _choice(*REQUEST_KINDS), _choice(*OUTCOMES)


def _record(data) -> RunRecord:
    """One manifest record, each field through its reader, with _fill's rules and messages:
    an absent wall_ms or error keeps its default, and so does a null error."""
    data = _object(data, "record")
    error = data.get("error")
    try:
        return RunRecord(  # positional, in field order: keywords would more than double the call's cost
            _string(data["item_ref"], "item_ref"),
            ConditionTag.from_dict(data["condition"], "condition"),
            _request_kind(data["request_kind"], "request_kind"),
            ModelResponse.from_dict(data["response"], "response"),
            _parsed(data["parsed"], "parsed"),
            _outcome(data["outcome"], "outcome"),
            _number(data.get("wall_ms", 0), "wall_ms"),
            None if error is None else _string(error, "error"),
        )
    except KeyError as exc:
        raise SchemaError(f"record is missing {exc.args[0]!r}") from None
    except SchemaError as exc:
        raise SchemaError(f"record.{exc}") from exc


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


@dataclass(frozen=True)
class RunCondition:
    tag: ConditionTag
    provider: str

    def to_dict(self) -> dict:
        return {**_plain(self), "tag": self.tag.to_dict()}


HEADER_READERS = {
    "conditions": _list_of(partial(_fill, RunCondition, readers={"tag": ConditionTag.from_dict})),
    "providers": _strings,
}


@dataclass
class RunPlan:
    dataset_path: str
    items: list[BenchmarkItem]
    conditions: list[RunCondition]
    request_kind: str = "mcq"
    mcq_template: str = DEFAULT_MCQ_TEMPLATE
    summary_template: str = ""
    transcripts: dict[str, Transcript] = field(default_factory=dict)
    max_workers: int = 4  # the width of a live run's pool: its limit on calls in flight


@dataclass
class RunManifest:
    dataset_path: str
    conditions: list[RunCondition]
    providers: list[str]
    started_at: str
    records: list[RunRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        header = {**_plain(self), "kind": "manifest"}
        header["conditions"] = [c.to_dict() for c in self.conditions]
        del header["records"]
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines += [record.to_json() for record in self.records]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str | bytes) -> "RunManifest":
        """Read a manifest back (text or bytes); a SchemaError names a line that does not decode."""
        manifest = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if manifest is None:
                    manifest = _fill(cls, data, "header", HEADER_READERS)
                else:
                    manifest.records.append(_record(data))
            except (ValueError, SchemaError, MalformedProviderOutput) as exc:
                raise SchemaError(f"manifest line {lineno} is malformed: {exc!r}") from exc
        if manifest is None:
            raise SchemaError("empty manifest")
        return manifest


def _build_prompt(plan: RunPlan, item: BenchmarkItem, with_transcript: bool) -> str:
    transcript = plan.transcripts.get(item.video_id) if with_transcript else None
    if plan.request_kind == "mcq":
        return build_question_prompt(item, transcript, plan.mcq_template)
    return render_prompt(plan.summary_template, {"transcript": transcript_block(transcript)})


def _cells(plan: RunPlan, items: list[BenchmarkItem]):
    """(slot, condition, item, prompt) of every cell, item by item.

    Each item's prompt is rendered once per transcript side, and dropped when
    the next item starts. slot is the cell's place in (condition, item) order.
    """
    for i, item in enumerate(items):
        prompts: dict[bool, str] = {}
        for c, condition in enumerate(plan.conditions):
            side = condition.tag.with_transcript
            if side not in prompts:
                prompts[side] = _build_prompt(plan, item, side)
            yield c * len(items) + i, condition, item, prompts[side]


def _run_one(
    plan: RunPlan, hub: ProviderHub, condition: RunCondition, item: BenchmarkItem, prompt: str
) -> RunRecord:
    request = ModelRequest(
        provider_id=condition.provider,
        modality="vlm",
        prompt=prompt,
        condition=condition.tag,
    )
    error = None
    try:
        response = hub.send(request)
    except HarnessError as exc:
        response = ModelResponse("", 0, "invalid")
        error = f"{type(exc).__name__}: {exc}"

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
    return RunRecord(
        item_ref=item.question_id,
        condition=condition.tag,
        request_kind=plan.request_kind,
        response=response,
        parsed=parsed,
        outcome=outcome,
        wall_ms=response.latency_ms,
        error=error,
    )


def run_benchmark(plan: RunPlan, hub: ProviderHub) -> RunManifest:
    """Run every (condition, item) cell and return the manifest of its records.

    Cells are taken item by item, in question id order, so each item's prompt
    is rendered once per transcript side; each record goes to its place in
    (condition, question id) order. Replay runs the cells one after another.
    Live runs them through one pool, plan.max_workers threads wide.
    """
    started_at = (
        REPLAY_EPOCH
        if hub.mode == "replay"
        else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    items = sorted(plan.items, key=lambda item: item.question_id)
    records: list = [None] * (len(plan.conditions) * len(items))
    if hub.mode == "replay":
        for slot, *cell in _cells(plan, items):
            records[slot] = _run_one(plan, hub, *cell)
    else:
        cells = list(_cells(plan, items))
        with ThreadPoolExecutor(plan.max_workers) as pool:
            done = pool.map(lambda cell: _run_one(plan, hub, *cell[1:]), cells)
            for (slot, *_), record in zip(cells, done):
                records[slot] = record
    return RunManifest(
        dataset_path=plan.dataset_path,
        conditions=plan.conditions,
        providers=sorted({c.provider for c in plan.conditions}),
        started_at=started_at,
        records=records,
    )
