import json

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
    first = json.dumps(replay.send(request).to_dict(), sort_keys=True)
    second = json.dumps(replay.send(request).to_dict(), sort_keys=True)
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


def test_cassette_store_append_only(store):
    response = ModelResponse("first", 10, "ok")
    store.put("k1", {"prompt": "p"}, response)
    store.put("k1", {"prompt": "p"}, ModelResponse("second", 20, "ok"))
    assert store.get("k1")["response"]["raw_text"] == "first"


def test_send_hashes_each_media_file_once(tmp_path, store, providers, monkeypatch):
    import videval.providers

    frames = [tmp_path / "f0.jpg", tmp_path / "f1.jpg"]
    for i, frame in enumerate(frames):
        frame.write_bytes(b"pixels-%d" % i)
    request = ModelRequest("vlm", "vlm", prompt="p", frame_refs=[str(f) for f in frames], condition=make_condition())
    store.put(request_key(request), {}, ModelResponse("summary", 10, "ok"))
    hashed = []
    real_hash = videval.providers._hash_file
    monkeypatch.setattr(videval.providers, "_hash_file", lambda ref: hashed.append(ref) or real_hash(ref))
    assert ProviderHub(providers, store, mode="replay").send(request).raw_text == "summary"
    assert sorted(hashed) == sorted(map(str, frames))


def test_cassette_put_writes_through_its_own_temp_file(store):
    # a stale or foreign <key>.tmp must not block the writer
    store.root.mkdir(parents=True)
    (store.root / "k1.tmp").mkdir()
    store.put("k1", {"prompt": "p"}, ModelResponse("first", 10, "ok"))
    assert store.get("k1")["response"]["raw_text"] == "first"
    # a failed rename removes the writer's temp file
    (store.root / "k2.json").mkdir()
    with pytest.raises(OSError):
        store.put("k2", {"prompt": "p"}, ModelResponse("second", 10, "ok"))
    assert [p.name for p in store.root.glob("*.tmp") if not p.is_dir()] == []


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
    store.put(request_key(request), {}, ModelResponse("", 540, "oom"))
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
    store.put(request_key(request), {}, ModelResponse(whisper_payload(), 900, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    assert transcript.segments[0] == TranscriptSegment(0, 7.72, 13.6, PCR_SEGMENT_TEXT)
    assert transcript.language == "en"


def test_transcribe_silent_clip(tmp_path, store, providers):
    audio = tmp_path / "silence.wav"
    audio.write_bytes(b"fake wav")
    request = ModelRequest("asr", "asr", audio_ref=str(audio))
    payload = json.dumps({"segments": [], "text": "", "language": None})
    store.put(request_key(request), {}, ModelResponse(payload, 120, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    assert transcript.segments == []
    assert transcript.full_text == ""


def test_transcribe_concatenation_oracle(tmp_path, store, providers):
    # full_text must equal the segment concatenation, whitespace-normalized
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
    store.put(request_key(request), {}, ModelResponse(payload, 300, "ok"))

    hub = ProviderHub(providers, store, mode="replay")
    transcript = hub.transcribe(audio_asset(audio), "asr")
    expected = " ".join((seg0 + seg1).split())
    assert " ".join(transcript.full_text.split()) == expected


def test_transcribe_requires_audio(store, providers):
    video_no_audio = MediaAsset(
        path="mute.mp4", kind="video", container="mp4",
        duration_s=10.0, has_audio_stream=False, width_px=10, height_px=10,
    )
    hub = ProviderHub(providers, store, mode="replay")
    with pytest.raises(ValueError):
        hub.transcribe(video_no_audio, "asr")


def test_malformed_transcript_payload():
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload("not json at all{{")
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload(json.dumps({"segments": [{"id": 0}]}))
    with pytest.raises(MalformedProviderOutput):
        parse_transcript_payload(
            json.dumps({"segments": [{"id": 0, "start": 0, "end": 1, "text": "a"}], "text": "zzz"})
        )


def test_condition_label():
    tag = make_condition()
    assert tag.label() == "SDPA (0.1 FPS) without Audio Transcription"
    assert make_condition(with_transcript=True, attention="flash_attention", fps=0.01).label() == (
        "FlashAttention (0.01 FPS) with Audio Transcription"
    )
