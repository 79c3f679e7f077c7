import dataclasses
import hashlib
import json
import random
import threading
import time
from dataclasses import replace

import pytest
from conftest import read_manifest, run_collected

from videval.benchmark import (
    AHEAD_PER_WORKER,
    OPTION_LETTERS,
    OUTCOMES,
    REQUEST_KINDS,
    RunCondition,
    RunManifest,
    RunRecord,
    build_question_prompt,
    classify_outcome,
    item_from_record,
    load_dataset,
    plan_cells,
    run_benchmark,
)
from videval.config import load_config, load_transcripts
from videval.errors import SchemaError
from videval.knowledge_graph import LayoutParams
from videval.parsing import KeyframeEntry, McqAnswer, ParsedVideoOutput, parse_video_output
from videval.providers import (
    CassetteStore,
    ConditionTag,
    ModelResponse,
    ProviderHub,
    Transcript,
    TranscriptSegment,
    request_key,
)
from videval.schema import _choice
from videval.templates import SUMMARY_PROMPT_PLAIN, transcript_block

GENRE_RECORD = {
    "video_id": "001",
    "duration": "Short",
    "domain": "Knowledge",
    "sub_category": "Humanity & History",
    "url": "https://www.youtube.com/watch?v=fFjy93ACGo8",
    "videoID": "fFjy93ACGo8",
    "question_id": "001-2",
    "task_type": "Information Synopsis",
    "question": "What is the genre of this video?",
    "options": {
        "A": "It is a news report that introduces the history behind Christmas decorations.",
        "B": "It is a documentary on the evolution of Christmas holiday recipes.",
        "C": "It is a travel vlog exploring Christmas markets around the world.",
        "D": "It is a tutorial on DIY Christmas ornament crafting.",
    },
    "answer": "A",
}


# --- dataset loading ------------------------------------------------------------


def test_item_from_record_exact_fields():
    item = item_from_record(GENRE_RECORD)
    assert item.question_id == "001-2"
    assert item.task_type == "Information Synopsis"
    assert item.answer == "A"
    assert item.duration_class == "short"
    assert item.video_id == "001"
    assert len(item.options) == 4


def test_item_with_option_list_form():
    record = dict(GENRE_RECORD)
    record["options"] = [
        "A. It is a news report that introduces the history behind Christmas decorations.",
        "B. It is a documentary on the evolution of Christmas holiday recipes.",
        "C. It is a travel vlog exploring Christmas markets around the world.",
        "D. It is a tutorial on DIY Christmas ornament crafting.",
    ]
    item = item_from_record(record)
    assert item.options["C"].startswith("It is a travel vlog")


def test_item_rejects_three_options():
    record = dict(GENRE_RECORD)
    record["options"] = {k: v for k, v in GENRE_RECORD["options"].items() if k != "D"}
    with pytest.raises(SchemaError):
        item_from_record(record)


def test_item_rejects_answer_outside_options():
    record = dict(GENRE_RECORD, answer="E")
    with pytest.raises(SchemaError):
        item_from_record(record)


def test_item_rejects_bad_duration():
    record = dict(GENRE_RECORD, duration="extra-long")
    with pytest.raises(SchemaError):
        item_from_record(record)


def test_item_rejects_missing_field():
    record = dict(GENRE_RECORD)
    del record["question"]
    with pytest.raises(SchemaError):
        item_from_record(record)


@pytest.mark.parametrize("change, message", [
    pytest.param({"question": None}, "question must be a string, got None", id="null-question"),
    pytest.param({"options": dict(GENRE_RECORD["options"], B=None)}, "options.B must be a string, got None",
                 id="null-option"),
    pytest.param({"options": ["A. one", None, "C. three", "D. four"]}, r"options\[1\] must be a string, got None",
                 id="null-option-in-a-list"),
    pytest.param({"question_id": 7}, "question_id must be a string, got 7", id="numeric-question-id"),
    pytest.param({"task_type": None}, "task_type must be a string, got None", id="null-task-type"),
    pytest.param({"answer": 1}, "answer must be a string, got 1", id="numeric-answer"),
])
def test_item_refuses_a_text_that_is_not_a_string(change, message):
    # str() would send "None" as the question or an option, and read 7 as the id "7"
    with pytest.raises(SchemaError, match=f"^{message}$"):
        item_from_record(dict(GENRE_RECORD, **change))


def test_item_without_a_task_type_has_an_empty_one():
    record = {key: value for key, value in GENRE_RECORD.items() if key != "task_type"}
    assert item_from_record(record).task_type == ""


def test_load_dataset_array_and_jsonl(tmp_path):
    second = dict(GENRE_RECORD, question_id="001-3", question="Who narrates the video?")
    bom = b"\xef\xbb\xbf"
    layouts = {
        "array": json.dumps([GENRE_RECORD, second]).encode(),
        "jsonl": (json.dumps(GENRE_RECORD) + "\n" + json.dumps(second) + "\n").encode(),
        "bom-array": bom + json.dumps([GENRE_RECORD, second]).encode(),
        "bom-pretty-array": bom + json.dumps([GENRE_RECORD, second], indent=2).encode(),
        "bom-jsonl": bom + (json.dumps(GENRE_RECORD) + "\n" + json.dumps(second) + "\n").encode(),
    }
    for name, data in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert [i.question_id for i in load_dataset(path)] == ["001-2", "001-3"], name


def test_load_dataset_rejects_duplicate_question_ids(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([GENRE_RECORD, GENRE_RECORD]), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_load_demo_dataset(demo_dir):
    items = load_dataset(demo_dir / "dataset.json")
    assert len(items) == 10
    assert len({i.video_id for i in items}) == 10
    assert items[0].question_id == "001-2"


def test_load_dataset_benchmark_scale(tmp_path):
    # 900 videos x 3 questions, the shape of the full benchmark file
    rows = []
    for v in range(900):
        for q in range(3):
            rows.append(
                dict(
                    GENRE_RECORD,
                    video_id=f"{v:03d}",
                    question_id=f"{v:03d}-{q}",
                    duration=("short", "medium", "long")[v % 3],
                )
            )
    path = tmp_path / "full.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    items = load_dataset(path)
    assert len(items) == 2700
    assert len({i.video_id for i in items}) == 900


# --- prompt building --------------------------------------------------------------


def transcript_fixture() -> Transcript:
    return Transcript(
        [TranscriptSegment(0, 0.0, 4.0, "Decorations through the ages.")],
        "Decorations through the ages.",
    )


def test_build_question_prompt_contains_all_options():
    item = item_from_record(GENRE_RECORD)
    prompt = build_question_prompt(item, None)
    for text in item.options.values():
        assert text in prompt
    assert item.question in prompt
    assert "A. " in prompt and "D. " in prompt


def test_build_question_prompt_includes_transcript():
    item = item_from_record(GENRE_RECORD)
    prompt = build_question_prompt(item, transcript_fixture())
    assert "Decorations through the ages." in prompt
    assert "Audio transcript:" in prompt


def test_build_question_prompt_empty_transcript_elided():
    item = item_from_record(GENRE_RECORD)
    without = build_question_prompt(item, None)
    empty = build_question_prompt(item, Transcript())
    assert without == empty


def test_build_question_prompt_renders_a_placeholder_in_a_value_literally():
    # a value used to be substituted again: the question took in the whole option list, and both texts the transcript block
    record = dict(GENRE_RECORD, question="What does the slide titled {options} show?",
                  options={**GENRE_RECORD["options"], "B": "use {transcript} here"})
    prompt = build_question_prompt(item_from_record(record), transcript_fixture())
    assert "Question: What does the slide titled {options} show?\n" in prompt
    assert "\nB. use {transcript} here\n" in prompt
    assert prompt.count("Audio transcript:") == 1 and prompt.count("A. ") == 1


# --- outcome classification ---------------------------------------------------------


def test_classify_outcomes():
    ok = ModelResponse("Answer: A", 10, "ok")
    assert classify_outcome(ok, McqAnswer("A", "explicit"), "A") == "answered_correct"
    assert classify_outcome(ok, McqAnswer("B", "explicit"), "A") == "answered_wrong"
    assert classify_outcome(ok, None, "A") == "unanswered"
    assert classify_outcome(ModelResponse("", 10, "oom"), None, "A") == "oom"
    assert classify_outcome(ModelResponse("", 10, "timeout"), None, "A") == "unanswered"
    assert classify_outcome(ModelResponse("", 10, "invalid"), None, "A") == "invalid_output"
    valid_summary = ParsedVideoOutput(summary="s", keyframes=[], valid=True)
    invalid_summary = ParsedVideoOutput(summary="", keyframes=[], valid=False)
    assert classify_outcome(ok, valid_summary, None) == "answered"
    assert classify_outcome(ok, invalid_summary, None) == "invalid_output"


# --- run orchestration ----------------------------------------------------------------


def demo_plan_and_hub(demo_dir):
    config = load_config(demo_dir / "config.json")
    items = load_dataset(config.dataset)
    transcripts = load_transcripts(config.transcripts)
    hub = ProviderHub(config.providers, CassetteStore(config.cassette_dir), mode="replay")
    return (config, items, transcripts), hub


class ScriptedTransport:
    """Thread-safe fake provider: each answer is a pure function of the prompt.

    Answers are ok (a letter), OOM or timeout; each call sleeps briefly so that
    concurrent calls overlap, and the peak number of calls in flight is kept.
    """

    def __init__(self, delay_s=0.02):
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __call__(self, url, body, headers, timeout_s):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.delay_s)
            pick = int(hashlib.sha256(body["prompt"].encode("utf-8")).hexdigest(), 16) % 6
            if pick == 0:
                return 500, "CUDA out of memory"
            if pick == 1:
                return 504, "request timed out"
            return 200, json.dumps({"text": f"The answer is {'ABCD'[pick - 2]}."})
        finally:
            with self.lock:
                self.active -= 1


def live_hub(demo_dir, cassette_dir, transport=None):
    config = load_config(demo_dir / "config.json")
    providers = {
        name: replace(settings, endpoint="http://scripted.invalid/v1")
        for name, settings in config.providers.items()
    }
    return ProviderHub(
        providers,
        CassetteStore(cassette_dir),
        mode="live",
        transport=transport or ScriptedTransport(),
    )


def record_dicts(manifest, drop_latency=False):
    """Record dicts, without the latency the hub measured, and the wall_ms that repeats it, if asked."""
    out = []
    for line in "".join(manifest.lines()).splitlines()[1:]:
        data = json.loads(line)
        if drop_latency:
            del data["wall_ms"], data["response"]["latency_ms"]
        out.append(data)
    return out


def test_run_benchmark_cross_product(demo_dir):
    (config, items, transcripts), hub = demo_plan_and_hub(demo_dir)
    manifest = run_collected(config, items, transcripts, hub)
    assert len(manifest.records) == len(items) * len(config.conditions) == 20
    pairs = {(r.item_ref, r.condition.with_transcript) for r in manifest.records}
    assert len(pairs) == 20
    assert all(r.outcome in ("answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom") for r in manifest.records)


def test_run_benchmark_oom_passthrough(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_collected(*plan, hub)
    oom = [r for r in manifest.records if r.outcome == "oom"]
    assert len(oom) == 1
    assert oom[0].response.status == "oom"
    assert oom[0].item_ref == "005-1"


def test_run_benchmark_idempotent_under_replay(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    first = "".join(run_collected(*plan, hub).lines())
    second = "".join(run_collected(*plan, hub).lines())
    assert first.encode() == second.encode()


def test_run_benchmark_worker_count_invariant(demo_dir, tmp_path):
    # live runs at in-flight limits 1 and 8 differ only in timings: the start
    # stamp, wall_ms and the latency the hub measured around each call
    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    serial_hub = live_hub(demo_dir, tmp_path / "c1", ScriptedTransport(0.001))
    serial = run_collected(replace(config, max_workers=1), items, transcripts, serial_hub)
    wide_hub = live_hub(demo_dir, tmp_path / "c8", ScriptedTransport(0.001))
    wide = run_collected(replace(config, max_workers=8), items, transcripts, wide_hub)
    assert serial.dataset_path == wide.dataset_path
    assert serial.conditions == wide.conditions
    assert serial.providers == wide.providers
    assert record_dicts(serial, drop_latency=True) == record_dicts(wide, drop_latency=True)


def test_run_benchmark_live_peak_in_flight(demo_dir, tmp_path):
    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    transport = ScriptedTransport()
    hub = live_hub(demo_dir, tmp_path / "c", transport)
    manifest = run_collected(replace(config, max_workers=3), items, transcripts, hub)
    assert len(manifest.records) == 20
    assert transport.peak == 3


class HeadHoldingTransport(ScriptedTransport):
    """Answers every call at once, save the one whose prompt is held: that one waits until every other
    call has started, or for at most timeout_s, and then notes how many others started meanwhile."""

    def __init__(self, held_prompt: str, calls: int, timeout_s=2.0):
        super().__init__(0.0)
        self.held_prompt, self.calls, self.timeout_s = held_prompt, calls, timeout_s
        self.others = 0
        self.others_while_held = None
        self.all_started = threading.Event()

    def __call__(self, url, body, headers, timeout_s):
        if body["prompt"] == self.held_prompt:
            self.all_started.wait(self.timeout_s)
            with self.lock:
                self.others_while_held = self.others
        else:
            with self.lock:
                self.others += 1
                if self.others == self.calls - 1:
                    self.all_started.set()
        return super().__call__(url, body, headers, timeout_s)


def test_run_benchmark_live_runs_a_bounded_window_past_a_slow_head_cell(demo_dir, tmp_path):
    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    head = next(item for item in items if item.question_id == "001-2")  # the first cell: its item, no transcript
    transport = HeadHoldingTransport(build_question_prompt(head, None, config.mcq_template), 20)
    hub = live_hub(demo_dir, tmp_path / "c", transport)
    manifest = run_collected(replace(config, max_workers=2), items, transcripts, hub)
    assert len(manifest.records) == 20
    # the cells behind the held one in the window, not all 19 others
    assert transport.others_while_held <= AHEAD_PER_WORKER * 2 - 1


def test_run_benchmark_live_replays_from_its_cassettes(demo_dir, tmp_path):
    plan, _ = demo_plan_and_hub(demo_dir)
    live = run_collected(*plan, live_hub(demo_dir, tmp_path / "c"))
    assert {r.response.status for r in live.records} == {"ok", "oom", "timeout"}
    assert not any(r.error for r in live.records)
    order = [(r.condition.with_transcript, r.item_ref) for r in live.records]
    assert order == sorted(order)  # the demo lists the without-transcript condition first

    replay_hub = ProviderHub({}, CassetteStore(tmp_path / "c"), mode="replay")
    replayed = run_collected(*plan, replay_hub)
    assert record_dicts(replayed) == record_dicts(live)


def test_run_benchmark_records_sorted(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    records = run_collected(*plan, hub).records
    without = [r.item_ref for r in records if not r.condition.with_transcript]
    with_t = [r.item_ref for r in records if r.condition.with_transcript]
    assert without == sorted(without)
    assert with_t == sorted(with_t)
    assert all(not r.condition.with_transcript for r in records[:10])


@pytest.mark.parametrize("mode", ["replay", "live"])
def test_run_benchmark_hands_its_sink_each_record_in_cell_order_and_keeps_none(demo_dir, tmp_path, mode):
    plan, hub = demo_plan_and_hub(demo_dir)
    if mode == "live":
        hub = live_hub(demo_dir, tmp_path / "c", ScriptedTransport(0.001))
        plan = (replace(plan[0], max_workers=3), *plan[1:])
    taken = []
    manifest = run_benchmark(*plan, hub, taken.append)
    assert manifest.records == []
    assert [(r.condition, r.item_ref) for r in taken] == [
        (request.condition, item.question_id) for item, request in plan_cells(*plan)
    ]


def test_a_sink_that_raises_stops_a_live_run(demo_dir, tmp_path):
    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    transport = ScriptedTransport(0.01)
    calls = []
    hub = live_hub(demo_dir, tmp_path / "c", lambda *args: calls.append(1) or transport(*args))

    def sink(record):
        if len(taken) == 3:
            raise OSError("disk full")
        taken.append(record)

    taken = []
    with pytest.raises(OSError, match="disk full"):
        run_benchmark(replace(config, max_workers=2), items, transcripts, hub, sink)
    # the four records taken and the window ahead of them, not the 20 cells: the calls not started were cancelled
    assert len(calls) <= 4 + AHEAD_PER_WORKER * 2


def test_plan_cells_key_the_demo_cassettes_line_by_line(demo_dir):
    # demo/regenerate.py writes one cassette line per cell of plan_cells, the requests evaluate sends
    plan, _ = demo_plan_and_hub(demo_dir)
    lines = (demo_dir / "cassettes" / "segment-000001.jsonl").read_text(encoding="utf-8").splitlines()
    assert [request_key(request) for _, request in plan_cells(*plan)] == [line.split("\t", 1)[0] for line in lines]


@pytest.mark.parametrize("mode", ["replay", "live"])
def test_run_benchmark_renders_each_prompt_once_per_item_and_side(demo_dir, tmp_path, monkeypatch, mode, request):
    import videval.benchmark

    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    # four conditions over the two transcript sides, listed so that neither side comes first throughout
    tags = [replace(config.conditions[0].tag, model_name=name, with_transcript=side)
            for name, side in (("m1", True), ("m1", False), ("m2", False), ("m2", True))]
    config = replace(config, conditions=[RunCondition(tag, "local-qwen") for tag in tags], max_workers=3)
    items = items[::-1]
    rendered = []
    real_build = videval.benchmark.build_question_prompt
    monkeypatch.setattr(
        videval.benchmark, "build_question_prompt", lambda *args: rendered.append(args[0]) or real_build(*args)
    )
    if mode == "replay":
        hub = ProviderHub({}, CassetteStore(tmp_path / "empty"), mode="replay")
    else:
        provider = request.getfixturevalue("loopback_provider")
        settings = {"local-qwen": replace(load_config(demo_dir / "config.json").providers["local-qwen"],
                                          endpoint=provider.endpoint)}
        hub = ProviderHub(settings, CassetteStore(tmp_path / "c"), mode="live")
    records = run_collected(config, items, transcripts, hub).records
    assert len(rendered) == 2 * len(items)
    question_ids = sorted(item.question_id for item in items)
    assert [(r.condition, r.item_ref) for r in records] == [(tag, qid) for tag in tags for qid in question_ids]
    if mode == "live":
        assert len(provider.seen) == 4 * len(items) and not any(r.error for r in records)


def test_outcomes_rederivable_from_raw_responses(demo_dir):
    # outcome must be a pure function of (status, parsed-from-raw, answer)
    from videval.errors import NoAnswerFound
    from videval.parsing import parse_mcq

    (config, items, transcripts), hub = demo_plan_and_hub(demo_dir)
    manifest = run_collected(config, items, transcripts, hub)
    answers = {item.question_id: item.answer for item in items}
    for record in manifest.records:
        parsed = None
        if record.response.status == "ok":
            try:
                parsed = parse_mcq(record.response.raw_text)
            except NoAnswerFound:
                parsed = None
        assert classify_outcome(record.response, parsed, answers[record.item_ref]) == record.outcome


def test_replay_miss_recorded_not_fatal(demo_dir, tmp_path):
    plan, _ = demo_plan_and_hub(demo_dir)
    empty_hub = ProviderHub({}, CassetteStore(tmp_path / "empty"), mode="replay")
    manifest = run_collected(*plan, empty_hub)
    assert len(manifest.records) == 20
    assert all(r.outcome == "invalid_output" for r in manifest.records)
    assert all(r.error and "ReplayMiss" in r.error for r in manifest.records)


def test_manifest_round_trip(demo_dir, tmp_path):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_collected(*plan, hub)
    text = "".join(manifest.lines())
    loaded = read_manifest((text,))
    assert "".join(loaded.lines()) == text
    # a summary_keyframes manifest: records with keyframes, and replay misses that carry their error
    config, items, transcripts = plan
    summary_config = replace(config, request_kind="summary_keyframes", summary_template="Summarize.")
    empty_hub = ProviderHub({}, CassetteStore(tmp_path / "empty"), mode="replay")
    summaries = run_collected(summary_config, items, transcripts, empty_hub)
    answer = ModelResponse("A dog runs.\n(00:08, a dog)\n(1:02:03, the end)", 1200)
    summaries.records[0] = replace(
        summaries.records[0], response=answer, parsed=parse_video_output(answer.raw_text), outcome="answered", error=None
    )
    assert summaries.records[0].parsed.keyframes and summaries.records[1].error.startswith("ReplayMiss")
    text = "".join(summaries.lines())
    assert "".join(read_manifest((text,)).lines()) == text


def test_choice_returns_the_allowed_object():
    value = "".join(["answered", "_correct"])  # equal to OUTCOMES[0], but another object
    assert value == OUTCOMES[0] and value is not OUTCOMES[0]
    assert _choice(*OUTCOMES)(value, "outcome") is OUTCOMES[0]
    with pytest.raises(SchemaError, match="outcome must be one of 'answered_correct', .*, got 'right'"):
        _choice(*OUTCOMES)("right", "outcome")


def _manifest_text(*responses: str) -> str:
    """A one-condition manifest with a record answered by each response, given as its JSON text."""
    header = (
        '{"conditions":[{"provider":"p","tag":{"model_name":"m"}}],"dataset_path":"d.json",'
        '"kind":"manifest","providers":["p"],"started_at":"1970-01-01T00:00:00Z"}\n'
    )
    record = (
        '{{"condition":{{"model_name":"m"}},"error":null,"item_ref":"q{0}","outcome":"unanswered",'
        '"parsed":null,"request_kind":"mcq","response":{1},"wall_ms":0}}\n'
    )
    return header + "".join(record.format(i, response) for i, response in enumerate(responses))


def test_manifest_records_read_back_share_their_repeated_values():
    response = '{"latency_ms":7,"raw_text":"","status":"timeout"}'
    first, second = read_manifest((_manifest_text(response, response),)).records
    assert first.outcome is second.outcome is OUTCOMES[3]
    assert first.request_kind is second.request_kind is REQUEST_KINDS[0]
    assert first.response.status is second.response.status is ModelResponse.STATUSES[2]


def test_a_record_and_an_answer_without_their_defaulted_fields_read_the_defaults():
    text = _manifest_text('{"raw_text":"Answer: A"}').replace('"error":null,', "").replace(',"wall_ms":0', "")
    assert '"wall_ms"' not in text and '"error"' not in text
    (record,) = read_manifest((text,)).records
    assert (record.wall_ms, record.error) == (0, None)
    assert record.response == ModelResponse.from_dict({"raw_text": "Answer: A"}) == ModelResponse("Answer: A", 0, "ok")


def test_each_read_makes_its_own_default_factory_value(demo_dir, tmp_path):
    # graph sets config.layout.seed from --seed: a layout shared between two configs would carry it over
    first, second = (read_manifest((_manifest_text(),)) for _ in range(2))
    assert first.records == second.records == [] and first.records is not second.records
    raw = json.loads((demo_dir / "config.json").read_text(encoding="utf-8"))
    del raw["layout"]
    for key in ("dataset", "cassette_dir", "transcripts", "outputs", "annotations"):
        raw[key] = str(demo_dir / raw[key])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    one, other = load_config(path), load_config(path)
    assert one.layout == other.layout == LayoutParams() and one.layout is not other.layout


def test_unknown_status_in_a_manifest_line_is_malformed():
    text = _manifest_text('{"latency_ms":7,"raw_text":"","status":"weird"}')
    with pytest.raises(SchemaError) as caught:
        read_manifest((text,))
    assert str(caught.value) == (
        "manifest line 2 is malformed: SchemaError(\"record.response.status must be one of "
        "'ok', 'oom', 'timeout', 'invalid', got 'weird'\")"
    )


# quotes, a backslash, control characters, U+2028, non-ASCII, an astral character and a lone surrogate
RECORD_ALPHABET = ["a", "Z", "0", " ", '"', "\\", "\t", "\n", "\r", "\x00", "\x7f", "é", "日", "\u2028", "😀", "\ud800"]


def _text(rng: random.Random, shortest: int, longest: int) -> str:
    return "".join(rng.choice(RECORD_ALPHABET) for _ in range(rng.randint(shortest, longest)))


def _oracle_line(record: RunRecord) -> str:
    data = dataclasses.asdict(record)
    if isinstance(record.parsed, ParsedVideoOutput):
        data["parsed"]["keyframes"] = [[e.timestamp_s, e.caption] for e in record.parsed.keyframes]
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _adversarial_record(rng: random.Random) -> RunRecord:
    status = rng.choice(ModelResponse.STATUSES)
    latency_ms = rng.choice([0, 2**40, rng.randint(1, 10**6)])
    parsed = rng.choice([
        None,
        McqAnswer(rng.choice(OPTION_LETTERS), rng.choice(["explicit", "extracted"])),  # all the reader takes
        ParsedVideoOutput(
            summary=_text(rng, 0, 20),
            # a caption is trimmed and holds no newline
            keyframes=[KeyframeEntry(rng.randint(0, 359998), "x" + _text(rng, 0, 6).replace("\n", "") + "y")
                       for _ in range(rng.randint(0, 3))],
            valid=rng.random() < 0.5,
        ),
    ])
    return RunRecord(
        item_ref=_text(rng, 0, 12),
        condition=ConditionTag(_text(rng, 0, 8), rng.choice([0.1, 1.0, 2.5e-07, 1e16, rng.uniform(0.01, 60)]),
                               rng.random() < 0.5, rng.choice(ConditionTag.ATTENTION_VALUES), _text(rng, 0, 4)),
        request_kind=rng.choice(REQUEST_KINDS),
        response=ModelResponse(_text(rng, 1, 40) if status == "ok" else "", latency_ms, status),
        parsed=parsed,
        outcome=rng.choice(OUTCOMES),
        wall_ms=rng.choice([0, 2**40, latency_ms]),
        error=rng.choice([None, _text(rng, 0, 30)]),
    )


def test_hand_built_record_line_equals_json_dumps():
    rng = random.Random(16)
    records = [_adversarial_record(rng) for _ in range(400)]
    assert {r.outcome for r in records} == set(OUTCOMES)
    assert {r.response.status for r in records} == set(ModelResponse.STATUSES)
    assert {r.response.latency_ms for r in records} >= {0, 2**40}
    assert {type(r.parsed) for r in records} == {type(None), McqAnswer, ParsedVideoOutput}
    for record in records:
        assert record.to_json() == _oracle_line(record)
        response = record.response
        assert response.to_json() == json.dumps(dataclasses.asdict(response), sort_keys=True, separators=(",", ":"))
    conditions = [RunCondition(ConditionTag("m"), "p")]
    manifest = RunManifest(_text(rng, 0, 12), conditions, ["p"], "1970-01-01T00:00:00Z", records)
    text = "".join(manifest.lines())
    assert text.splitlines()[1:] == [_oracle_line(record) for record in records]
    assert "".join(read_manifest((text,)).lines()) == text


class PromptRecorder:
    """Stands in for a replay hub: keeps each prompt under its condition's transcript flag."""

    mode = "replay"

    def __init__(self):
        self.prompts = {}

    def send(self, request):
        self.prompts[request.condition.with_transcript] = request.prompt
        return ModelResponse("A summary.", 10)


@pytest.mark.parametrize(
    "template, without, with_",
    [
        # without a placeholder the block goes in front, as it does for an mcq template
        ("Summarize.", "Summarize.", "BLOCKSummarize."),
        ("Summarize: {transcript}done", "Summarize: done", "Summarize: BLOCKdone"),
    ],
)
def test_summary_prompt_places_the_transcript(demo_dir, template, without, with_):
    (config, items, transcripts), _ = demo_plan_and_hub(demo_dir)
    item = next(item for item in items if item.video_id in transcripts)
    config = replace(config, request_kind="summary_keyframes", summary_template=template)
    hub = PromptRecorder()
    run_collected(config, [item], transcripts, hub)
    block = transcript_block(transcripts[item.video_id])
    assert block.startswith("Audio transcript:")
    assert hub.prompts == {False: without, True: with_.replace("BLOCK", block)}


def test_a_config_without_templates_sends_the_default_summary_prompt(demo_dir, tmp_path):
    # the config holds the one default of the summary template: plan_cells reads it from there
    raw = json.loads((demo_dir / "config.json").read_text(encoding="utf-8"))
    assert "templates" not in raw
    for key in ("dataset", "transcripts", "outputs", "annotations"):
        raw[key] = str(demo_dir / raw[key])
    raw["request_kind"] = "summary_keyframes"
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    config = load_config(tmp_path / "config.json")
    transcripts = load_transcripts(config.transcripts)
    item = next(item for item in load_dataset(config.dataset) if item.video_id in transcripts)
    cells = plan_cells(config, [item], transcripts)
    prompts = {request.condition.with_transcript: request.prompt for _, request in cells}
    block = transcript_block(transcripts[item.video_id])
    assert block.startswith("Audio transcript:")
    assert prompts == {False: SUMMARY_PROMPT_PLAIN, True: block + SUMMARY_PROMPT_PLAIN}


def test_wall_clock_from_cassette_latency_in_replay(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_collected(*plan, hub)
    assert all(r.wall_ms == r.response.latency_ms for r in manifest.records)
