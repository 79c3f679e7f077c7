import dataclasses
import hashlib
import json
import random

import pytest

from videval.errors import (
    MalformedProviderOutput,
    ProviderUnavailable,
    ReplayMiss,
)
from videval.media import MediaAsset
from videval.providers import (
    CassetteStore,
    ConditionTag,
    ModelRequest,
    ModelResponse,
    ProviderHub,
    ProviderSettings,
    TranscriptSegment,
    parse_transcript_payload,
    request_fingerprint,
    request_key,
)

PCR_SEGMENT_TEXT = (
    " PCR of course refers to pathological complete response where once the "
    "patient has surgery"
)


def audio_asset(path) -> MediaAsset:
    return MediaAsset(
        path=str(path), kind="audio", container="wav",
        duration_s=45.0, has_audio_stream=True,
    )


def make_condition(**kwargs) -> ConditionTag:
    base = dict(model_name="qwen2-vl-7b", fps=0.1, with_transcript=False, attention="sdpa", gpu="a10g")
    base.update(kwargs)
    return ConditionTag(**base)


@pytest.fixture
def store(tmp_path) -> CassetteStore:
    return CassetteStore(tmp_path / "cassettes")


@pytest.fixture
def providers() -> dict:
    return {
        "asr": ProviderSettings(endpoint="http://test/asr", model="whisper-turbo"),
        "vlm": ProviderSettings(endpoint="http://test/vlm", model="qwen2-vl-7b"),
    }


# --- cassette semantics -------------------------------------------------------


def test_replay_miss(store, providers):
    hub = ProviderHub(providers, store, mode="replay")
    request = ModelRequest("vlm", "vlm", prompt="hello", condition=make_condition())
    with pytest.raises(ReplayMiss):
        hub.send(request)


def test_record_then_return_and_replay(store, providers, tmp_path):
    calls = []

    def transport(url, body, headers, timeout_s):
        calls.append(url)
        return 200, json.dumps({"text": "a fine summary"})

    live = ProviderHub(providers, store, mode="live", transport=transport)
    request = ModelRequest("vlm", "vlm", prompt="describe", condition=make_condition())
    response = live.send(request)
    assert response.status == "ok"
    assert calls == ["http://test/vlm"]
    # persisted before return: a replay hub sees it without any transport
    replay = ProviderHub(providers, store, mode="replay")
    replayed = replay.send(request)
    assert replayed.raw_text == "a fine summary"


def test_replay_is_byte_deterministic(store, providers):
    def transport(url, body, headers, timeout_s):
        return 200, json.dumps({"text": "stable output"})

    live = ProviderHub(providers, store, mode="live", transport=transport)
    request = ModelRequest("vlm", "vlm", prompt="describe", condition=make_condition())
    live.send(request)

    replay = ProviderHub(providers, store, mode="replay")
    first = replay.send(request).to_json()
    second = replay.send(request).to_json()
    assert first.encode() == second.encode()


def test_cassette_key_tracks_frame_content_not_path(tmp_path, store, providers):
    frame_a = tmp_path / "frame_a.jpg"
    frame_b = tmp_path / "frame_b.jpg"
    frame_a.write_bytes(b"pixels-1")
    frame_b.write_bytes(b"pixels-1")
    req_a = ModelRequest("vlm", "vlm", prompt="p", frame_refs=[str(frame_a)], condition=make_condition())
    req_b = ModelRequest("vlm", "vlm", prompt="p", frame_refs=[str(frame_b)], condition=make_condition())
    assert request_key(req_a) == request_key(req_b)
    frame_b.write_bytes(b"pixels-2")
    assert request_key(req_a) != request_key(req_b)


def test_cassette_key_tracks_condition(store):
    req_without = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition(with_transcript=False))
    req_with = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition(with_transcript=True))
    assert request_key(req_without) != request_key(req_with)


# characters json.dumps escapes (quotes, backslashes, controls, non-ASCII and an astral one) and plain ones
KEY_ALPHABET = ["a", "Z", "0", " ", '"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "\x7f", "é", "日", "\u2028", "😀", "{", ":"]


def _text(rng: random.Random, longest: int) -> str:
    return "".join(rng.choice(KEY_ALPHABET) for _ in range(rng.randint(0, longest)))


class KeyRecorder:
    """Stands in for a cassette store: keeps the key of every get, and the key and fingerprint of every put."""

    def __init__(self):
        self.gets, self.puts = [], []

    def get(self, key):
        self.gets.append(key)
        return ModelResponse("held", 1, "ok")

    def put(self, key, fingerprint, response):
        self.puts.append((key, fingerprint))


def test_hand_built_key_text_equals_json_dumps(tmp_path):
    rng = random.Random(11)
    media, sha256 = [], {}
    for i in range(4):
        path, data = tmp_path / f"media{i}.bin", rng.randbytes(rng.randint(0, 300))
        path.write_bytes(data)
        media.append(str(path))
        sha256[str(path)] = hashlib.sha256(data).hexdigest()
    fps_values = [0.1, 1e-05, 30.0, 1.0, 2.5e-07, 1e16]

    def transport(url, body, headers, timeout_s):
        return 200, json.dumps({"text": "live answer"})

    for _ in range(300):
        asr = rng.random() < 0.25  # an ASR request: audio and no condition
        condition = None if asr else ConditionTag(
            model_name=_text(rng, 12),
            fps=rng.choice([*fps_values, rng.uniform(0.01, 60)]),
            with_transcript=rng.random() < 0.5,
            attention=rng.choice(ConditionTag.ATTENTION_VALUES),
            gpu=_text(rng, 6),
        )
        request = ModelRequest(
            provider_id=_text(rng, 10),
            modality="asr" if asr else "vlm",
            prompt=_text(rng, 80),
            frame_refs=[] if asr else rng.sample(media, rng.randint(0, 3)),
            audio_ref=rng.choice(media) if asr or rng.random() < 0.3 else None,
            condition=condition,
        )
        fields = {
            "provider_id": request.provider_id,
            "modality": request.modality,
            "prompt": request.prompt,
            "frame_hashes": [sha256[ref] for ref in request.frame_refs],
            "audio_hash": sha256[request.audio_ref] if request.audio_ref else None,
            "condition": dataclasses.asdict(condition) if condition else None,
        }
        oracle = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        assert request_fingerprint(request) == oracle
        key = request_key(request)
        assert key == hashlib.sha256(oracle.encode("utf-8")).hexdigest()
        # the key send looks up in replay, and the key and the text it hashes that send records live
        recorder = KeyRecorder()
        ProviderHub({}, recorder, mode="replay").send(request)
        settings = {request.provider_id: ProviderSettings(endpoint="http://test/any")}
        ProviderHub(settings, recorder, mode="live", transport=transport).send(request)
        assert recorder.gets == [key] and recorder.puts == [(key, oracle)]


def test_cassette_store_append_only(store):
    response = ModelResponse("first", 10, "ok")
    store.put("k1", '{"prompt":"p"}', response)
    store.put("k1", '{"prompt":"p"}', ModelResponse("second", 20, "ok"))
    assert store.get("k1").raw_text == "first"
    assert CassetteStore(store.root).get("k1").raw_text == "first"
    (segment,) = store.root.iterdir()
    assert len(segment.read_bytes().splitlines()) == 1


def test_send_hashes_each_media_file_once(tmp_path, store, providers, monkeypatch):
    import videval.providers

    frames = [tmp_path / "f0.jpg", tmp_path / "f1.jpg"]
    for i, frame in enumerate(frames):
        frame.write_bytes(b"pixels-%d" % i)
    request = ModelRequest("vlm", "vlm", prompt="p", frame_refs=[str(f) for f in frames], condition=make_condition())
    store.put(request_key(request), "{}", ModelResponse("summary", 10, "ok"))
    hashed = []
    real_hash = videval.providers._hash_file
    monkeypatch.setattr(videval.providers, "_hash_file", lambda ref: hashed.append(ref) or real_hash(ref))
    assert ProviderHub(providers, store, mode="replay").send(request).raw_text == "summary"
    assert sorted(hashed) == sorted(map(str, frames))


def test_cassette_put_is_on_disk_when_it_returns(store):
    store.put("k1", '{"prompt":"p"}', ModelResponse("first", 10, "ok"))
    # a store opened after put returns, as a child process would be, reads the answer
    assert CassetteStore(store.root).get("k1") == ModelResponse("first", 10, "ok")
    store.put("k2", '{"prompt":"p"}', ModelResponse("", 30, "oom"))
    assert CassetteStore(store.root).get("k2") == ModelResponse("", 30, "oom")


def test_cassette_writers_have_their_own_segments_and_the_earlier_wins(store):
    first, second = store, CassetteStore(store.root)
    # both read the (empty) directory before either writes, so both record k1
    assert "k1" not in first and "k1" not in second
    first.put("k1", '{"prompt":"p"}', ModelResponse("first", 10, "ok"))
    second.put("k1", '{"prompt":"p"}', ModelResponse("second", 20, "ok"))
    second.put("k2", '{"prompt":"q"}', ModelResponse("only", 30, "ok"))
    assert sorted(p.name for p in store.root.iterdir()) == ["segment-000001.jsonl", "segment-000002.jsonl"]
    reader = CassetteStore(store.root)
    assert reader.get("k1").raw_text == "first"
    assert reader.get("k2").raw_text == "only"
    assert reader.dropped == 0


def test_cassette_segment_cut_mid_record(store):
    store.put("k1", '{"prompt":"p"}', ModelResponse("kept", 10, "ok"))
    store.put("k2", '{"prompt":"p"}', ModelResponse("cut off", 20, "ok"))
    (segment,) = store.root.iterdir()
    data = segment.read_bytes()
    segment.write_bytes(data[: len(data) - 25])  # as a crash in the middle of the second line leaves it
    reader = CassetteStore(store.root)
    assert reader.get("k1").raw_text == "kept"
    assert reader.get("k2") is None
    assert reader.dropped == 1
    # the next writer opens a segment of its own instead of appending to the cut one
    reader.put("k3", '{"prompt":"p"}', ModelResponse("after", 30, "ok"))
    assert segment.read_bytes() == data[: len(data) - 25]
    again = CassetteStore(store.root)
    assert again.get("k3").raw_text == "after"
    assert again.dropped == 1


def test_cassette_directory_without_segments_replays_as_misses(store, providers):
    request = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition())
    key = request_key(request)
    # an entry in the one-file-per-answer layout of earlier versions is not read
    store.root.mkdir(parents=True)
    (store.root / f"{key}.json").write_text(
        json.dumps({"key": key, "request": {}, "response": {"raw_text": "old", "latency_ms": 1, "status": "ok"}}),
        encoding="utf-8",
    )
    hub = ProviderHub(providers, store, mode="replay")
    with pytest.raises(ReplayMiss, match=f"key {key}"):
        hub.send(request)
    assert store.dropped == 0


def _legacy_line(key, response: ModelResponse) -> str:
    """One line of the {"key", "request", "response"} layout earlier versions wrote."""
    entry = {"key": key, "request": {"prompt": "p"}, "response": dataclasses.asdict(response)}
    return json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"


def test_cassette_line_is_key_response_request(store):
    store.put("k1", '{"prompt":"a\\tb"}', ModelResponse("tab\there", 10, "ok"))
    (segment,) = store.root.iterdir()
    assert segment.read_bytes() == (
        b'k1\t{"latency_ms":10,"raw_text":"tab\\there","status":"ok"}\t{"prompt":"a\\tb"}\n'
    )


def test_legacy_cassette_segment_replays(store, providers):
    request = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition())
    store.root.mkdir(parents=True)
    (store.root / "segment-000001.jsonl").write_text(
        _legacy_line(request_key(request), ModelResponse("old layout", 5, "ok")), encoding="utf-8"
    )
    store = CassetteStore(store.root)
    assert ProviderHub(providers, store, mode="replay").send(request).raw_text == "old layout"
    assert store.dropped == 0


@pytest.mark.parametrize("legacy_first", [True, False], ids=["legacy-then-new", "new-then-legacy"])
def test_first_recorded_wins_across_legacy_and_new_segments(store, legacy_first):
    store.root.mkdir(parents=True)
    writer = CassetteStore(store.root)
    assert "k1" not in writer  # read the directory before the hand-written segment exists
    legacy = ModelResponse("legacy", 5, "ok")
    if legacy_first:
        (store.root / "segment-000001.jsonl").write_text(_legacy_line("k1", legacy), encoding="utf-8")
    writer.put("k1", '{"prompt":"p"}', ModelResponse("new", 6, "ok"))  # the next free segment
    if not legacy_first:
        (store.root / "segment-000002.jsonl").write_text(_legacy_line("k1", legacy), encoding="utf-8")
    assert CassetteStore(store.root).get("k1").raw_text == ("legacy" if legacy_first else "new")


def test_cassette_lines_without_a_readable_key_are_dropped(store):
    store.root.mkdir(parents=True)
    (store.root / "segment-000001.jsonl").write_bytes(
        b'k1\t{"latency_ms":1,"raw_text":"kept","status":"ok"}\t{}\n'
        b'k2\t{"latency_ms":1,"raw_text":"two fields","status":"ok"}\n'
        b"k3\n"
        b"\n"
        b'k\xff\t{"latency_ms":1,"raw_text":"key not UTF-8","status":"ok"}\t{}\n'
        b'k4\t{"latency_ms":1,"raw_text":"no newline","status":"ok"}\t{}'
    )
    store = CassetteStore(store.root)
    assert store.get("k1").raw_text == "kept"
    assert [store.get(k) for k in ("k2", "k3", "k4")] == [None, None, None]
    assert store.dropped == 5


def test_cassette_line_whose_request_holds_a_tab_is_read(store):
    # only the first two tabs end fields: the request is the rest of the line, tabs and all
    store.root.mkdir(parents=True)
    (store.root / "segment-000001.jsonl").write_bytes(
        b'k1\t{"latency_ms":1,"raw_text":"kept","status":"ok"}\t{"prompt":"a\tb"}\t\n'
    )
    store = CassetteStore(store.root)
    assert store.get("k1") == ModelResponse("kept", 1, "ok")
    assert store.dropped == 0


def test_unknown_status_in_a_cassette_line_is_the_keys_error(store):
    store.root.mkdir(parents=True)
    (store.root / "segment-000001.jsonl").write_bytes(b'k1\t{"latency_ms":1,"raw_text":"","status":"weird"}\t{}\n')
    store = CassetteStore(store.root)
    with pytest.raises(MalformedProviderOutput) as caught:
        store.get("k1")
    assert str(caught.value) == (
        "corrupt cassette entry k1: response.status must be one of 'ok', 'oom', 'timeout', 'invalid', got 'weird'"
    )


@pytest.mark.parametrize("response", [b"{not json", b"", b'{"raw_text":"x\xff","status":"ok"}', b"[1]"])
def test_undecodable_response_field_is_the_keys_error(store, response):
    store.root.mkdir(parents=True)
    (store.root / "segment-000001.jsonl").write_bytes(b"k1\t" + response + b"\t{}\n")
    store = CassetteStore(store.root)
    with pytest.raises(MalformedProviderOutput, match="corrupt cassette entry k1: "):
        store.get("k1")
    assert "k1" in store and store.dropped == 0


@pytest.mark.parametrize(
    "key, fingerprint",
    [
        *(pytest.param(key, "{}", id=key) for key in ["a\tb", "a\nb", "k\n", "{k"]),
        *(pytest.param("k", f'{{"prompt":"a{c}b"}}', id=f"fingerprint {c}") for c in "\t\n"),
    ],
)
def test_cassette_put_rejects_a_key_that_breaks_the_line(store, key, fingerprint):
    with pytest.raises(ValueError, match="a cassette (key|request fingerprint) holds no tab or newline"):
        store.put(key, fingerprint, ModelResponse("x", 1, "ok"))
    assert not store.root.exists()


# --- status classification ------------------------------------------------------


def test_oom_classified_from_error_payload(store, providers):
    def transport(url, body, headers, timeout_s):
        return 500, "RuntimeError: CUDA out of memory. Tried to allocate 20.00 GiB"

    hub = ProviderHub(providers, store, mode="live", transport=transport)
    response = hub.send(ModelRequest("vlm", "vlm", prompt="p", condition=make_condition()))
    assert response.status == "oom"
    assert response.raw_text == ""


def test_timeout_classified(store, providers):
    def transport(url, body, headers, timeout_s):
        raise RuntimeError("request timed out after 300s")

    hub = ProviderHub(providers, store, mode="live", transport=transport)
    response = hub.send(ModelRequest("vlm", "vlm", prompt="p", condition=make_condition()))
    assert response.status == "timeout"


def test_unclassified_failure_raises_after_retries(store, providers):
    attempts = []

    def transport(url, body, headers, timeout_s):
        attempts.append(1)
        return 503, "service unavailable"

    hub = ProviderHub(providers, store, mode="live", transport=transport)
    with pytest.raises(ProviderUnavailable):
        hub.send(ModelRequest("vlm", "vlm", prompt="p", condition=make_condition()))
    assert len(attempts) == 2  # initial call + one retry


# --- the default transport, against a loopback HTTP server ----------------------------


ANSWER = json.dumps({"text": "Answer: B"})


def loopback_hub(store, endpoint, timeout_s=5.0) -> ProviderHub:
    settings = ProviderSettings(endpoint=endpoint, model="qwen2-vl-7b", auth_env="VLM_KEY", timeout_s=timeout_s)
    return ProviderHub({"vlm": settings}, store, mode="live")


def send_live(hub: ProviderHub) -> ModelResponse:
    return hub.send(ModelRequest("vlm", "vlm", prompt="p", condition=make_condition()))


@pytest.fixture
def vlm_key(monkeypatch):
    monkeypatch.setenv("VLM_KEY", "s3cret")


@pytest.mark.parametrize(
    "script, status, raw_text",
    [
        ([(200, ANSWER)], "ok", "Answer: B"),
        ([(200, json.dumps({"text": "caf\u00e9"}, ensure_ascii=False), 0.0, "latin-1")], "ok", "caf\u00e9"),
        ([(500, "RuntimeError: CUDA out of memory. Tried to allocate 2.00 GiB")], "oom", ""),
        ([(504, "upstream request timed out")], "timeout", ""),
        ([(503, "overloaded"), (200, ANSWER)], "ok", "Answer: B"),
    ],
)
def test_default_transport_replies(loopback_provider, store, vlm_key, script, status, raw_text):
    loopback_provider.script = script
    response = send_live(loopback_hub(store, loopback_provider.endpoint))
    assert (response.status, response.raw_text) == (status, raw_text)
    assert len(loopback_provider.seen) == len(script)


def test_default_transport_sends_json_and_headers(loopback_provider, store, vlm_key):
    send_live(loopback_hub(store, loopback_provider.endpoint))
    [(headers, body)] = loopback_provider.seen
    assert body == {"prompt": "p", "model": "qwen2-vl-7b"}
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer s3cret"


def test_default_transport_html_body_is_malformed(loopback_provider, store, vlm_key):
    loopback_provider.script = [(200, "<html><body>bad gateway</body></html>")]
    with pytest.raises(MalformedProviderOutput):
        send_live(loopback_hub(store, loopback_provider.endpoint))


def test_default_transport_503_twice_is_unavailable(loopback_provider, store, vlm_key):
    loopback_provider.script = [(503, "overloaded")]
    with pytest.raises(ProviderUnavailable, match="HTTP 503"):
        send_live(loopback_hub(store, loopback_provider.endpoint))
    assert len(loopback_provider.seen) == 2


def test_default_transport_slow_reply_is_timeout(loopback_provider, store, vlm_key):
    loopback_provider.script = [(200, ANSWER, 5.0)]
    response = send_live(loopback_hub(store, loopback_provider.endpoint, timeout_s=0.2))
    assert response.status == "timeout"
    assert len(loopback_provider.seen) == 1


def test_default_transport_closed_port_is_unavailable(store, vlm_key, monkeypatch):
    import socket

    monkeypatch.setenv("no_proxy", "*")
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    with pytest.raises(ProviderUnavailable, match="after 2 attempt"):
        send_live(loopback_hub(store, f"http://127.0.0.1:{port}/v1/generate"))


def test_unknown_provider(store, providers):
    hub = ProviderHub(providers, store, mode="live")
    with pytest.raises(ProviderUnavailable):
        hub.send(ModelRequest("nope", "vlm", prompt="p"))


def test_auth_env_reference(store, monkeypatch):
    seen_headers = []

    def transport(url, body, headers, timeout_s):
        seen_headers.append(headers)
        return 200, json.dumps({"text": "ok then"})

    providers = {
        "vlm": ProviderSettings(endpoint="http://test/vlm", auth_env="VLM_KEY", auth_header="X-Api-Key", auth_scheme="")
    }
    hub = ProviderHub(providers, store, mode="live", transport=transport)
    request = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition())

    monkeypatch.delenv("VLM_KEY", raising=False)
    with pytest.raises(ProviderUnavailable):
        hub.send(request)

    monkeypatch.setenv("VLM_KEY", "s3cret")
    hub.send(request)
    assert seen_headers[0]["X-Api-Key"] == "s3cret"


def test_response_status_text_invariant():
    with pytest.raises(MalformedProviderOutput):
        ModelResponse("", 0, "ok").validate()
    with pytest.raises(MalformedProviderOutput):
        ModelResponse("text", 0, "oom").validate()
    ModelResponse("text", 0, "ok").validate()
    ModelResponse("", 0, "timeout").validate()


def test_oom_cassette_passthrough(store, providers):
    request = ModelRequest("vlm", "vlm", prompt="p", condition=make_condition())
    store.put(request_key(request), "{}", ModelResponse("", 540, "oom"))
    hub = ProviderHub(providers, store, mode="replay")
    response = hub.send(request)
    assert response.status == "oom" and response.raw_text == ""


# --- transcribe --------------------------------------------------------------------


def whisper_payload() -> str:
    return json.dumps(
        {
            "segments": [
                {"id": 0, "start": 7.72, "end": 13.6, "text": PCR_SEGMENT_TEXT},
            ],
            "text": PCR_SEGMENT_TEXT,
            "language": "en",
        }
    )


def test_transcribe_segments(tmp_path, store, providers):
    audio = tmp_path / "lecture.wav"
    audio.write_bytes(b"fake wav")
    request = ModelRequest("asr", "asr", audio_ref=str(audio))
    store.put(request_key(request), "{}", ModelResponse(whisper_payload(), 900, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    assert transcript.segments[0] == TranscriptSegment(0, 7.72, 13.6, PCR_SEGMENT_TEXT)
    assert transcript.language == "en"


def test_transcribe_silent_clip(tmp_path, store, providers):
    audio = tmp_path / "silence.wav"
    audio.write_bytes(b"fake wav")
    request = ModelRequest("asr", "asr", audio_ref=str(audio))
    payload = json.dumps({"segments": [], "text": "", "language": None})
    store.put(request_key(request), "{}", ModelResponse(payload, 120, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    assert transcript.segments == []
    assert transcript.text == ""


def test_transcribe_concatenation_oracle(tmp_path, store, providers):
    # text must equal the segment concatenation, whitespace-normalized
    audio = tmp_path / "two_seg.wav"
    audio.write_bytes(b"fake wav")
    seg0, seg1 = " hello there", " general remark"
    payload = json.dumps(
        {
            "segments": [
                {"id": 0, "start": 0.0, "end": 1.5, "text": seg0},
                {"id": 1, "start": 1.5, "end": 3.0, "text": seg1},
            ],
            "text": seg0 + seg1,
        }
    )
    request = ModelRequest("asr", "asr", audio_ref=str(audio))
    store.put(request_key(request), "{}", ModelResponse(payload, 300, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    expected = " ".join((seg0 + seg1).split())
    assert " ".join(transcript.text.split()) == expected


def test_malformed_transcript_payload():
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload("not json at all{{")
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload(json.dumps({"segments": [{"id": 0}]}))
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload(
            json.dumps({"segments": [{"id": 0, "start": 0, "end": 1, "text": "a"}], "text": "zzz"})
        )
    # each of these was coerced (the id 1.7 read as 1) and accepted
    for change in ({"id": "3"}, {"id": 1.7}, {"start": "0.5"}, {"end": "1"}, {"text": 5}):
        segment = {"id": 0, "start": 0, "end": 1, "text": "a", **change}
        with pytest.raises(MalformedProviderOutput):
            parse_transcript_payload(json.dumps({"segments": [segment]}))


def test_condition_label():
    tag = make_condition()
    assert tag.label() == "SDPA (0.1 FPS) without Audio Transcription"
    assert make_condition(with_transcript=True, attention="flash_attention", fps=0.01).label() == (
        "FlashAttention (0.01 FPS) with Audio Transcription"
    )
