import hashlib
import json
import threading
import time
from dataclasses import replace

import pytest

from videval.benchmark import (
    RunCondition,
    RunManifest,
    RunPlan,
    build_question_prompt,
    classify_outcome,
    item_from_record,
    load_dataset,
    run_benchmark,
)
from videval.config import load_config, load_transcripts
from videval.errors import SchemaError, TemplateError
from videval.parsing import McqAnswer, ParsedVideoOutput
from videval.providers import (
    CassetteStore,
    ModelResponse,
    ProviderHub,
    Transcript,
    TranscriptSegment,
)

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


def test_load_dataset_array_and_jsonl(tmp_path):
    second = dict(GENRE_RECORD, question_id="001-3", question="Who narrates the video?")
    array_path = tmp_path / "items.json"
    array_path.write_text(json.dumps([GENRE_RECORD, second]), encoding="utf-8")
    jsonl_path = tmp_path / "items.jsonl"
    jsonl_path.write_text(
        json.dumps(GENRE_RECORD) + "\n" + json.dumps(second) + "\n", encoding="utf-8"
    )
    assert [i.question_id for i in load_dataset(array_path)] == ["001-2", "001-3"]
    assert [i.question_id for i in load_dataset(jsonl_path)] == ["001-2", "001-3"]


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


def test_build_question_prompt_requires_placeholders():
    item = item_from_record(GENRE_RECORD)
    with pytest.raises(TemplateError):
        build_question_prompt(item, None, template="no placeholders at all")
    with pytest.raises(TemplateError):
        build_question_prompt(item, None, template="{question} only")


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
    plan = RunPlan(
        dataset_path=str(config.dataset),
        items=items,
        conditions=[RunCondition(tag, provider) for tag, provider in config.conditions],
        mcq_template=config.mcq_template,
        transcripts=transcripts,
    )
    return plan, hub


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


def live_hub(demo_dir, cassette_dir, max_in_flight, transport=None):
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
        max_in_flight=max_in_flight,
    )


def record_dicts(manifest, drop_latency=False):
    """Record dicts without wall_ms, and without the hub-measured latency if asked."""
    out = []
    for record in manifest.records:
        data = record.to_dict()
        del data["wall_ms"]
        if drop_latency:
            del data["response"]["latency_ms"]
        out.append(data)
    return out


def test_run_benchmark_cross_product(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_benchmark(plan, hub)
    assert len(manifest.records) == len(plan.items) * len(plan.conditions) == 20
    pairs = {(r.item_ref, r.condition.with_transcript) for r in manifest.records}
    assert len(pairs) == 20
    assert all(r.outcome in ("answered_correct", "answered_wrong", "answered", "unanswered", "invalid_output", "oom") for r in manifest.records)


def test_run_benchmark_oom_passthrough(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_benchmark(plan, hub)
    oom = [r for r in manifest.records if r.outcome == "oom"]
    assert len(oom) == 1
    assert oom[0].response.status == "oom"
    assert oom[0].item_ref == "005-1"


def test_run_benchmark_idempotent_under_replay(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    first = run_benchmark(plan, hub).to_jsonl()
    second = run_benchmark(plan, hub).to_jsonl()
    assert first.encode() == second.encode()


def test_run_benchmark_worker_count_invariant(demo_dir, tmp_path):
    # live runs at in-flight limits 1 and 8 differ only in timings: the start
    # stamp, wall_ms and the latency the hub measured around each call
    plan, _ = demo_plan_and_hub(demo_dir)
    serial = run_benchmark(plan, live_hub(demo_dir, tmp_path / "c1", 1, ScriptedTransport(0.001)))
    wide = run_benchmark(plan, live_hub(demo_dir, tmp_path / "c8", 8, ScriptedTransport(0.001)))
    assert serial.dataset_path == wide.dataset_path
    assert serial.conditions == wide.conditions
    assert serial.providers == wide.providers
    assert record_dicts(serial, drop_latency=True) == record_dicts(wide, drop_latency=True)


def test_run_benchmark_live_peak_in_flight(demo_dir, tmp_path):
    plan, _ = demo_plan_and_hub(demo_dir)
    transport = ScriptedTransport()
    manifest = run_benchmark(plan, live_hub(demo_dir, tmp_path / "c", 3, transport))
    assert len(manifest.records) == 20
    assert transport.peak == 3


def test_run_benchmark_live_replays_from_its_cassettes(demo_dir, tmp_path):
    plan, _ = demo_plan_and_hub(demo_dir)
    live = run_benchmark(plan, live_hub(demo_dir, tmp_path / "c", 4))
    assert {r.response.status for r in live.records} == {"ok", "oom", "timeout"}
    assert not any(r.error for r in live.records)
    order = [(r.condition.with_transcript, r.item_ref) for r in live.records]
    assert order == sorted(order)  # the demo lists the without-transcript condition first

    replay_hub = ProviderHub({}, CassetteStore(tmp_path / "c"), mode="replay")
    replayed = run_benchmark(plan, replay_hub)
    assert record_dicts(replayed) == record_dicts(live)


def test_run_benchmark_records_sorted(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    records = run_benchmark(plan, hub).records
    without = [r.item_ref for r in records if not r.condition.with_transcript]
    with_t = [r.item_ref for r in records if r.condition.with_transcript]
    assert without == sorted(without)
    assert with_t == sorted(with_t)
    assert all(not r.condition.with_transcript for r in records[:10])


def test_outcomes_rederivable_from_raw_responses(demo_dir):
    # outcome must be a pure function of (status, parsed-from-raw, answer)
    from videval.errors import NoAnswerFound
    from videval.parsing import parse_mcq

    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_benchmark(plan, hub)
    answers = {item.question_id: item.answer for item in plan.items}
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
    manifest = run_benchmark(plan, empty_hub)
    assert len(manifest.records) == 20
    assert all(r.outcome == "invalid_output" for r in manifest.records)
    assert all(r.error and "ReplayMiss" in r.error for r in manifest.records)


def test_manifest_round_trip(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_benchmark(plan, hub)
    text = manifest.to_jsonl()
    loaded = RunManifest.from_jsonl(text)
    assert loaded.to_jsonl() == text


def test_wall_clock_from_cassette_latency_in_replay(demo_dir):
    plan, hub = demo_plan_and_hub(demo_dir)
    manifest = run_benchmark(plan, hub)
    assert all(r.wall_ms == r.response.latency_ms for r in manifest.records)
