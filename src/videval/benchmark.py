"""Load Video-MME-style datasets, expand the condition matrix, and run them.

plan_cells says what each (item x condition) cell of a config sends, for evaluate and for
demo/regenerate.py, and run_benchmark makes one record of each, in that order, which is the
manifest's: question id first, then the config's conditions. Partial failures, including replay
misses and out-of-memory responses, become records rather than aborting the run, so completeness
can be accounted afterwards. Replay is serial and deterministic; live runs the cells concurrently,
in a pool as wide as the config's max_workers. A record's `wall_ms` is its answer's recorded latency in both
modes (in a live run, that of the last attempt), so a replay of a live run's cassettes reads the same
times.
"""

from __future__ import annotations

import contextlib
import json
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's escaping
from pathlib import Path
from typing import TYPE_CHECKING, Annotated, Literal, get_args

from .errors import (
    HarnessError,
    IoError,
    MalformedProviderOutput,
    NoAnswerFound,
    SchemaError,
)
from .parsing import Letter, McqAnswer, ParsedVideoOutput, parse_mcq, parse_video_output
from .providers import (
    ConditionTag,
    ModelRequest,
    ModelResponse,
    ProviderHub,
    Transcript,
)
from .schema import Text, _choice, _fill, _json, _object, _plain, _text
from .templates import DEFAULT_MCQ_TEMPLATE, render_prompt, transcript_block

if TYPE_CHECKING:  # config imports this module
    from .config import HarnessConfig

Duration = Literal["short", "medium", "long"]
Outcome = Literal["answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom"]
RequestKind = Literal["mcq", "summary_keyframes"]
OPTION_LETTERS, DURATION_CLASSES, OUTCOMES, REQUEST_KINDS = map(get_args, (Letter, Duration, Outcome, RequestKind))
_duration_class = _choice(*DURATION_CLASSES)


def _duration(value, what: str) -> str:
    return _duration_class(_text(value, what).strip().lower(), what)


def _options(value, what: str) -> dict[str, str]:
    """Either {"A": text, ...} or ["A. text", ...], keyed by upper-case letter (which __post_init__ checks)."""
    if not isinstance(value, list):
        return {letter.strip().upper(): _text(text, f"{what}[{letter!r}]")
                for letter, text in _object(value, what).items()}
    options = {}
    for i, entry in enumerate(value):
        text = _text(entry, f"{what}[{i}]").strip()
        if not (len(text) >= 2 and text[0].upper() in OPTION_LETTERS and text[1] in ".):"):
            raise SchemaError(f"{what}[{i}] not in 'A. text' form: {entry!r}")
        options[text[0].upper()] = text[2:].strip()
    return options


@dataclass(slots=True)
class BenchmarkItem:
    """One dataset row, its fields named as the row's keys."""

    video_id: Text
    duration: Annotated[Duration, _duration]
    question_id: Text
    question: Text
    options: Annotated[dict[str, str], _options]
    answer: Text
    task_type: Text = ""

    def __post_init__(self):  # _fill has read duration and options
        self.answer = self.answer.strip().upper()
        if tuple(sorted(self.options)) != OPTION_LETTERS:
            raise ValueError(f"item {self.question_id}: need exactly options A-D, got {sorted(self.options)}")
        if self.answer not in self.options:
            raise ValueError(f"item {self.question_id}: answer {self.answer!r} not among options")


def item_from_record(record: dict, what: str = "dataset row") -> BenchmarkItem:
    """The item of one dataset row, named what in its errors. Each text must be a JSON string that UTF-8 can
    encode (nothing is coerced: null, a number or a lone surrogate is a SchemaError naming the field); an absent
    task_type is ""."""
    return _fill(BenchmarkItem, record, what)


def _rows(path: str | Path) -> list[tuple[str, object]]:
    """(place, row) of each decoded row of a JSON array or JSON-lines file, in UTF-8 with an optional BOM:
    the place is "dataset row <n>" in an array and "dataset line <n>", the file's line, in JSON lines."""

    def parsed(data: bytes, where: str, place: str):
        try:
            return _json(data)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"dataset file {where} is not UTF-8: {exc}") from exc
        except ValueError as exc:
            raise SchemaError(f"{place} is not valid JSON: {exc}") from exc

    data = Path(path).read_bytes()
    stripped = data.removeprefix(b"\xef\xbb\xbf").lstrip()
    if not stripped:
        raise SchemaError(f"dataset file is empty: {path}")
    if stripped.startswith(b"["):  # so the file holds a list, if it is JSON
        return [(f"dataset row {n}", row) for n, row in enumerate(parsed(data, str(path), "dataset"), start=1)]
    # split as bytes, then decoded: str.splitlines would also split at a U+2028 inside a JSON string
    return [(f"dataset line {lineno}", parsed(line, f"{path} line {lineno}", f"line {lineno}"))
            for lineno, line in enumerate(data.splitlines(), start=1) if line.strip()]


def load_dataset(path: str | Path) -> list[BenchmarkItem]:
    """Load a JSON array or JSON-lines file of benchmark items. The file's bytes are dropped, once
    _rows has decoded them, before the items are built. An item's SchemaError names its place, the
    array's row or the file's line, counting from 1, and its question_id where that is a string; a
    repeated question_id names the place that held it first too."""
    items = []
    first_place: dict[str, str] = {}  # question_id -> the place that holds it
    for place, row in _rows(path):
        question_id = row.get("question_id") if isinstance(row, dict) else None
        where = place + (f" (question_id {question_id!r})" if isinstance(question_id, str) else "")
        item = item_from_record(row, where)
        first = first_place.setdefault(item.question_id, place)
        if first != place:
            raise SchemaError(f"{where}: duplicate question_id, first held by {first}")
        items.append(item)
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


_ANSWERS: dict[str, McqAnswer] = {}  # _parsed's answers, keyed by the repr of their dict


def _parsed(value, what: str) -> McqAnswer | ParsedVideoOutput | None:
    """Either parsed shape: an McqAnswer has a letter, a ParsedVideoOutput has not."""
    if value is None:
        return None
    if "letter" not in _object(value, what):
        return _fill(ParsedVideoOutput, value, what)
    key = repr(value)  # a manifest repeats a few answers: read each once (repr tells true from 1)
    if key not in _ANSWERS:
        _ANSWERS[key] = _fill(McqAnswer, value, what)
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
    condition: Annotated[ConditionTag, ConditionTag.from_dict]
    request_kind: RequestKind
    response: Annotated[ModelResponse, ModelResponse.from_dict]
    parsed: Annotated[McqAnswer | ParsedVideoOutput | None, _parsed]
    outcome: Outcome
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
    tag: Annotated[ConditionTag, ConditionTag.from_dict]
    provider: str

    def to_dict(self) -> dict:
        return {**_plain(self), "tag": self.tag.to_dict()}


@dataclass
class RunManifest:
    """A manifest's header: what the config asked, and nothing of where or when it ran."""

    conditions: list[RunCondition]
    providers: list[str]

    def lines(self, records: Iterable[RunRecord]):
        """The manifest's text a line at a time: this header, then each of records, each ending in a newline."""
        header = {**_plain(self), "kind": "manifest"}
        header["conditions"] = [c.to_dict() for c in self.conditions]
        yield json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records:
            yield record.to_json() + "\n"

    @classmethod
    def read(cls, chunks) -> tuple["RunManifest", Iterator[RunRecord]]:
        """Read a manifest back from chunks of text or UTF-8 bytes, each split into lines (a file opened "rb"
        gives one chunk per line, a BOM at its start taken): its header, read here, and a generator that
        decodes each record as it is taken, so no record outlives its use. A SchemaError, raised here or by
        the generator, names a line that does not decode."""
        numbered = enumerate((line for chunk in chunks for line in chunk.splitlines()), start=1)
        lines = ((lineno, line) for lineno, line in numbered if line.strip())
        first = next(lines, None)
        if first is None:
            raise SchemaError("empty manifest")
        return _decode(*first, cls, "header"), (_decode(*line, RunRecord, "record") for line in lines)


def _decode(lineno: int, line: str | bytes, cls, what: str):
    """The object cls of one manifest line, lineno, through _fill."""
    try:
        return _fill(cls, _json(line) if isinstance(line, bytes) else json.loads(line), what)
    except (ValueError, SchemaError, MalformedProviderOutput) as exc:
        raise SchemaError(f"manifest line {lineno} is malformed: {exc!r}") from exc


def _build_prompt(config: HarnessConfig, item: BenchmarkItem, transcript: Transcript | None) -> str:
    if config.request_kind == "mcq":
        return build_question_prompt(item, transcript, config.templates.mcq)
    return render_prompt(config.templates.summary, {"transcript": transcript_block(transcript)})


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
    except IoError:  # a cassette append that failed: as a record, its paid-for answer would be lost
        raise
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
                  hub: ProviderHub) -> tuple[RunManifest, Iterator[RunRecord]]:
    """The manifest's header, which the config alone decides, and a generator that makes the record of
    each cell of plan_cells as it is taken, in cell order, as RunManifest.read gives a manifest back.

    Replay runs the cells one after another; live runs them through in_order,
    config.max_workers threads wide. Closing the generator, or an error that ends it,
    cancels a live run's calls not yet started.
    """
    header = RunManifest(conditions=config.conditions, providers=sorted({c.provider for c in config.conditions}))
    return header, _records(config, plan_cells(config, items, transcripts), hub)


def _records(config: HarnessConfig, cells, hub: ProviderHub) -> Iterator[RunRecord]:
    run = partial(_run_one, config.request_kind, hub)
    if hub.mode == "replay":
        yield from map(run, cells)
    else:
        with contextlib.closing(in_order(run, cells, config.max_workers)) as done:
            for _, future in done:
                yield future.result()
