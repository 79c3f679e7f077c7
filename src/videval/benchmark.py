"""Load Video-MME-style datasets, expand the condition matrix, and run them.

plan_cells says what each (item x condition) cell of a config sends, for evaluate and for
demo/regenerate.py, and run_benchmark makes one record of each and hands it to a sink. Partial
failures, including replay misses and out-of-memory responses, become records rather than aborting
the run, so completeness can be accounted afterwards. A manifest lists its records in (condition,
question id) order. Replay is serial and deterministic; live runs the cells concurrently, in a pool
as wide as the config's max_workers. A record's `wall_ms` is its answer's recorded latency in both
modes (in a live run, that of the last attempt), so a replay of a live run's cassettes reads the same
times.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's escaping
from pathlib import Path
from typing import TYPE_CHECKING

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
from .schema import _choice, _fill, _keyframes, _list_of, _object, _plain, _string, _strings, _text
from .templates import DEFAULT_MCQ_TEMPLATE, render_prompt, transcript_block

if TYPE_CHECKING:  # config imports this module
    from .config import HarnessConfig

OPTION_LETTERS = ("A", "B", "C", "D")
DURATION_CLASSES = ("short", "medium", "long")
OUTCOMES = ("answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom")
REQUEST_KINDS = ("mcq", "summary_keyframes")

REPLAY_EPOCH = "1970-01-01T00:00:00Z"


@dataclass(slots=True)
class BenchmarkItem:
    video_id: str
    duration_class: str
    question_id: str
    task_type: str
    question: str
    options: dict[str, str]
    answer: str

    def __post_init__(self):  # item_from_record's _duration has checked duration_class
        if tuple(sorted(self.options)) != OPTION_LETTERS:
            raise SchemaError(
                f"item {self.question_id}: need exactly options A-D, got {sorted(self.options)}"
            )
        if self.answer not in self.options:
            raise SchemaError(f"item {self.question_id}: answer {self.answer!r} not among options")


def _normalize_options(raw) -> dict[str, str]:
    """Accept either {"A": text, ...} or ["A. text", ...] option shapes."""
    if isinstance(raw, dict):
        return {str(k).strip().upper(): _text(v, f"options.{k}") for k, v in raw.items()}
    if isinstance(raw, list):
        options = {}
        for i, entry in enumerate(raw):
            text = _text(entry, f"options[{i}]").strip()
            if len(text) >= 2 and text[0].upper() in OPTION_LETTERS and text[1] in ".):":
                options[text[0].upper()] = text[2:].strip()
            else:
                raise SchemaError(f"option entry not in 'A. text' form: {entry!r}")
        return options
    raise SchemaError(f"options must be a mapping or list, got {type(raw).__name__}")


_duration = _choice(*DURATION_CLASSES)


def item_from_record(record: dict) -> BenchmarkItem:
    """The item of one dataset row. Each text must be a JSON string that UTF-8 can encode (nothing is
    coerced: null, a number or a lone surrogate is a SchemaError naming the field); an absent task_type is ""."""
    record = _object(record, "dataset row")
    try:
        return BenchmarkItem(
            video_id=_text(record["video_id"], "video_id"),
            duration_class=_duration(_text(record["duration"], "duration").strip().lower(), "duration"),
            question_id=_text(record["question_id"], "question_id"),
            task_type=_text(record.get("task_type", ""), "task_type"),
            question=_text(record["question"], "question"),
            options=_normalize_options(record["options"]),
            answer=_text(record["answer"], "answer").strip().upper(),
        )
    except KeyError as exc:
        raise SchemaError(f"record missing field {exc.args[0]!r}: {record}") from exc


def _utf8(data: bytes, what: str) -> str:
    """data decoded as UTF-8, a BOM at its start dropped (json.loads takes none in a str); anything else is a
    SchemaError naming what, where json.loads on the bytes would guess UTF-16 or UTF-32."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"dataset file {what} is not UTF-8: {exc}") from exc


def _rows(path: str | Path):
    """The decoded rows of a JSON array or JSON-lines file, in UTF-8 with an optional BOM."""
    data = Path(path).read_bytes()
    stripped = data.removeprefix(b"\xef\xbb\xbf").lstrip()
    if not stripped:
        raise SchemaError(f"dataset file is empty: {path}")
    if stripped.startswith(b"["):
        try:
            return json.loads(_utf8(data, str(path)))
        except ValueError as exc:
            raise SchemaError(f"dataset is not valid JSON: {exc}") from exc
    rows = []
    # split as bytes, then decoded: str.splitlines would also split at a U+2028 inside a JSON string
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(_utf8(line, f"{path} line {lineno}")))
        except ValueError as exc:
            raise SchemaError(f"line {lineno} is not valid JSON: {exc}") from exc
    return rows


def load_dataset(path: str | Path) -> list[BenchmarkItem]:
    """Load a JSON array or JSON-lines file of benchmark items. The file's bytes are dropped, once
    _rows has decoded them, before the items are built. An item's SchemaError names its row, counting
    from 1, and its question_id where that is a string."""
    rows = _rows(path)
    if not isinstance(rows, list):
        raise SchemaError("dataset must be a JSON array or JSON-lines file")

    items = []
    for n, row in enumerate(rows, start=1):
        try:
            items.append(item_from_record(row))
        except SchemaError as exc:
            question_id = row.get("question_id") if isinstance(row, dict) else None
            named = f" (question_id {question_id!r})" if isinstance(question_id, str) else ""
            raise SchemaError(f"dataset row {n}{named}: {exc}") from exc
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
    )


# the readers of both parsed shapes: an McqAnswer has a letter, a ParsedVideoOutput has not
PARSED_READERS = {"letter": _choice(*OPTION_LETTERS), "confidence_source": _choice("explicit", "extracted"),
                  "keyframes": _keyframes}
_ANSWERS: dict[str, McqAnswer] = {}  # _parsed's answers, keyed by the repr of their dict


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
        return f'{{"confidence_source":{_quote(parsed.confidence_source)},"letter":{_quote(parsed.letter)}}}'
    keyframes = ",".join(f"[{entry.timestamp_s!r},{_quote(entry.caption)}]" for entry in parsed.keyframes)
    valid = "true" if parsed.valid else "false"
    return f'{{"keyframes":[{keyframes}],"summary":{_quote(parsed.summary)},"valid":{valid}}}'


@dataclass(slots=True)
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
        escapes it; a tag's JSON is made once per tag."""
        error = "null" if self.error is None else _quote(self.error)
        return (
            f'{{"condition":{self.condition.canonical_json},"error":{error},"item_ref":{_quote(self.item_ref)},'
            f'"outcome":{_quote(self.outcome)},"parsed":{_parsed_json(self.parsed)},'
            f'"request_kind":{_quote(self.request_kind)},"response":{self.response.to_json()},'
            f'"wall_ms":{self.wall_ms!r}}}'
        )


# item_ref, wall_ms and error are read by their annotations
RECORD_READERS = {"condition": ConditionTag.from_dict, "request_kind": _choice(*REQUEST_KINDS),
                  "response": ModelResponse.from_dict, "parsed": _parsed, "outcome": _choice(*OUTCOMES)}


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
class RunManifest:
    dataset_path: str
    conditions: list[RunCondition]
    providers: list[str]
    started_at: str
    records: list[RunRecord] = field(default_factory=list)

    def lines(self):
        """The manifest's text a line at a time: the header, then each record, each ending in a newline."""
        header = {**_plain(self), "kind": "manifest"}
        header["conditions"] = [c.to_dict() for c in self.conditions]
        del header["records"]
        yield json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
        for record in self.records:
            yield record.to_json() + "\n"

    @classmethod
    def read(cls, chunks) -> tuple["RunManifest", Iterator[RunRecord]]:
        """Read a manifest back from chunks of text or UTF-8 bytes, each split into lines (a file opened "rb"
        gives one chunk per line, a BOM at its start taken): its header, with no records, read here, and a
        generator that decodes each record as it is taken, so no record outlives its use. A SchemaError,
        raised here or by the generator, names a line that does not decode."""
        numbered = enumerate((line for chunk in chunks for line in chunk.splitlines()), start=1)
        lines = ((lineno, line) for lineno, line in numbered if line.strip())
        first = next(lines, None)
        if first is None:
            raise SchemaError("empty manifest")
        return _decode(*first, cls, "header", HEADER_READERS), (
            _decode(*line, RunRecord, "record", RECORD_READERS) for line in lines
        )


def _decode(lineno: int, line: str | bytes, cls, what: str, readers: dict):
    """The object cls of one manifest line, lineno, through _fill."""
    try:
        if isinstance(line, bytes):  # UTF-8 alone: json.loads would guess UTF-16 and pass surrogates
            line = line.decode("utf-8").removeprefix("\ufeff")
        return _fill(cls, json.loads(line), what, readers)
    except (ValueError, SchemaError, MalformedProviderOutput) as exc:
        raise SchemaError(f"manifest line {lineno} is malformed: {exc!r}") from exc


def _build_prompt(config: HarnessConfig, item: BenchmarkItem, transcript: Transcript | None) -> str:
    if config.request_kind == "mcq":
        return build_question_prompt(item, transcript, config.mcq_template)
    return render_prompt(config.summary_template, {"transcript": transcript_block(transcript)})


def plan_cells(config: HarnessConfig, items: list[BenchmarkItem], transcripts: dict[str, Transcript]):
    """(item, request) of every cell: items in question id order, then the config's conditions in order.

    The one place that says what a cell sends. Each item's prompt is rendered
    once per transcript side, and dropped when the next item starts.
    """
    for item in sorted(items, key=lambda item: item.question_id):
        prompts: dict[bool, str] = {}
        for condition in config.conditions:
            side = condition.tag.with_transcript
            if side not in prompts:
                prompts[side] = _build_prompt(config, item, transcripts.get(item.video_id) if side else None)
            yield item, ModelRequest(condition.provider, "vlm", prompts[side], condition=condition.tag)


def _run_one(request_kind: str, hub: ProviderHub, cell: tuple[BenchmarkItem, ModelRequest]) -> RunRecord:
    item, request = cell
    error = None
    try:
        response = hub.send(request)
    except HarnessError as exc:
        response = ModelResponse("", 0, "invalid")
        error = f"{type(exc).__name__}: {exc}"

    parsed: McqAnswer | ParsedVideoOutput | None = None
    if response.status == "ok":
        if request_kind == "mcq":
            try:
                parsed = parse_mcq(response.raw_text)
            except NoAnswerFound:
                parsed = None
        else:
            parsed = parse_video_output(response.raw_text)

    outcome = classify_outcome(response, parsed, item.answer)
    return RunRecord(
        item_ref=item.question_id,
        condition=request.condition,
        request_kind=request_kind,
        response=response,
        parsed=parsed,
        outcome=outcome,
        wall_ms=response.latency_ms,
        error=error,
    )


AHEAD_PER_WORKER = 2  # calls in_order has submitted, or finished, and not yet handed out: per thread of its pool


def in_order(fn, items, width: int):
    """Yield (item, future of fn(item)) in item order from a pool width threads wide, at most AHEAD_PER_WORKER *
    width calls ahead of the item last taken. Closing it cancels the calls not started and waits for the rest."""
    from concurrent.futures import ThreadPoolExecutor  # it loads logging: only the commands that fan out pay
    pool = ThreadPoolExecutor(width)
    try:
        submitted = ((item, pool.submit(fn, item)) for item in items)
        ahead = deque(islice(submitted, AHEAD_PER_WORKER * width))
        while ahead:
            yield ahead.popleft()
            ahead.extend(islice(submitted, 1))
    finally:
        pool.shutdown(cancel_futures=True)


def run_benchmark(config: HarnessConfig, items: list[BenchmarkItem], transcripts: dict[str, Transcript],
                  hub: ProviderHub, sink: Callable[[RunRecord], object]) -> RunManifest:
    """Run every cell of plan_cells, hand each record to sink as it is made, and return the manifest's header.

    Replay runs the cells one after another; live runs them through in_order,
    config.max_workers threads wide. Both hand sink the records in cell order, item
    by item; evaluate's sink spools them, so that its manifest lists them condition
    by condition. An exception from sink stops the run, a live run's calls not yet
    started included.
    """
    started_at = (
        REPLAY_EPOCH
        if hub.mode == "replay"
        else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    )
    run, cells = partial(_run_one, config.request_kind, hub), plan_cells(config, items, transcripts)
    if hub.mode == "replay":
        for cell in cells:
            sink(run(cell))
    else:
        with contextlib.closing(in_order(run, cells, config.max_workers)) as done:
            for _, future in done:
                sink(future.result())
    return RunManifest(
        dataset_path=str(config.dataset),
        conditions=config.conditions,
        providers=sorted({c.provider for c in config.conditions}),
        started_at=started_at,
    )
