"""Uniform request/response layer over ASR and VLM backends.

Every live response is persisted to the cassette store before it is returned,
so any live run can be replayed later byte-for-byte. Replay mode never touches
the network. Out-of-memory and timeout results are classified from provider
error payloads and surfaced in-band as response statuses, not exceptions: the
run accounting needs them as countable outcomes.

Live calls are one JSON POST each through the standard library's
`urllib.request`: proxies come from the `*_proxy` environment variables, HTTPS
is verified against the system trust store (or `SSL_CERT_FILE`), every socket
operation uses the provider's `timeout_s`, and a 307/308 reply to the POST is
returned as an answer rather than followed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import (
    MalformedProviderOutput,
    ProviderUnavailable,
    ReplayMiss,
)
from .media import MediaAsset

DEFAULT_TIMEOUT_S = 300.0
DEFAULT_RETRIES = 1

DEFAULT_ERROR_PATTERNS = {
    "oom": [
        "CUDA out of memory",
        "CUDA error: out of memory",
        "OutOfMemoryError",
        "RESOURCE_EXHAUSTED",
    ],
    "timeout": [
        "timed out",
        "Deadline Exceeded",
        "timeout",
    ],
}


@dataclass(frozen=True)
class ConditionTag:
    """One cell of the experiment matrix."""

    model_name: str
    fps: float = 1.0
    with_transcript: bool = False
    attention: str = "other"  # sdpa | flash_attention | other
    gpu: str = ""

    ATTENTION_VALUES = ("sdpa", "flash_attention", "other")

    def __post_init__(self):
        if self.attention not in self.ATTENTION_VALUES:
            raise ValueError(f"bad attention tag: {self.attention}")

    def label(self) -> str:
        names = {"sdpa": "SDPA", "flash_attention": "FlashAttention", "other": "Other"}
        suffix = "with" if self.with_transcript else "without"
        return f"{names[self.attention]} ({self.fps:g} FPS) {suffix} Audio Transcription"

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "fps": self.fps,
            "with_transcript": self.with_transcript,
            "attention": self.attention,
            "gpu": self.gpu,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConditionTag":
        return cls(
            model_name=data["model_name"],
            fps=float(data.get("fps", 1.0)),
            with_transcript=bool(data.get("with_transcript", False)),
            attention=data.get("attention", "other"),
            gpu=data.get("gpu", ""),
        )


@dataclass(frozen=True)
class TranscriptSegment:
    id: int
    start_s: float
    end_s: float
    text: str

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("segment id must be non-negative")
        if self.start_s > self.end_s:
            raise ValueError("segment start must not exceed end")


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


@dataclass
class Transcript:
    segments: list[TranscriptSegment] = field(default_factory=list)
    full_text: str = ""
    language: str | None = None

    def validate(self) -> None:
        ids = [s.id for s in self.segments]
        if len(set(ids)) != len(ids):
            raise MalformedProviderOutput("duplicate segment ids")
        if any(a.start_s > b.start_s for a, b in zip(self.segments, self.segments[1:])):
            raise MalformedProviderOutput("segments out of order")
        joined = _normalize_ws("".join(s.text for s in self.segments))
        if self.segments and _normalize_ws(self.full_text) != joined:
            raise MalformedProviderOutput("full_text does not match its segments")


@dataclass
class ModelRequest:
    provider_id: str
    modality: str  # asr | vlm
    prompt: str = ""
    frame_refs: list[str] = field(default_factory=list)
    audio_ref: str | None = None
    condition: ConditionTag | None = None


@dataclass
class ModelResponse:
    raw_text: str
    latency_ms: int = 0
    status: str = "ok"  # ok | oom | timeout | invalid

    STATUSES = ("ok", "oom", "timeout", "invalid")

    def validate(self) -> "ModelResponse":
        if self.status not in self.STATUSES:
            raise MalformedProviderOutput(f"bad status: {self.status}")
        if (self.status == "ok") != bool(self.raw_text):
            raise MalformedProviderOutput(
                f"status={self.status} inconsistent with raw_text length {len(self.raw_text)}"
            )
        if self.latency_ms < 0:
            raise MalformedProviderOutput("negative latency")
        return self

    def to_dict(self) -> dict:
        return {
            "raw_text": self.raw_text,
            "latency_ms": self.latency_ms,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelResponse":
        return cls(
            raw_text=data.get("raw_text", ""),
            latency_ms=int(data.get("latency_ms", 0)),
            status=data.get("status", "ok"),
        ).validate()


@dataclass
class ProviderSettings:
    """Declarative description of one HTTP JSON provider."""

    endpoint: str = ""
    model: str = ""
    auth_env: str | None = None
    auth_header: str = "Authorization"
    auth_scheme: str = "Bearer"
    prompt_field: str = "prompt"
    frames_field: str = "frames"
    audio_field: str = "audio"
    model_field: str = "model"
    response_text_path: str = "text"
    timeout_s: float = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    error_patterns: dict[str, list[str]] = field(
        default_factory=lambda: {k: list(v) for k, v in DEFAULT_ERROR_PATTERNS.items()}
    )

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderSettings":
        patterns = {k: list(v) for k, v in DEFAULT_ERROR_PATTERNS.items()}
        for status, pats in (data.get("error_patterns") or {}).items():
            patterns[status] = list(pats)
        return cls(
            endpoint=data.get("endpoint", ""),
            model=data.get("model", ""),
            auth_env=data.get("auth_env"),
            auth_header=data.get("auth_header", "Authorization"),
            auth_scheme=data.get("auth_scheme", "Bearer"),
            prompt_field=data.get("prompt_field", "prompt"),
            frames_field=data.get("frames_field", "frames"),
            audio_field=data.get("audio_field", "audio"),
            model_field=data.get("model_field", "model"),
            response_text_path=data.get("response_text_path", "text"),
            timeout_s=float(data.get("timeout_s", DEFAULT_TIMEOUT_S)),
            retries=int(data.get("retries", DEFAULT_RETRIES)),
            error_patterns=patterns,
        )


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def request_fingerprint(request: ModelRequest) -> dict:
    """Stable request description: file contents, not paths, identify media."""
    return {
        "provider_id": request.provider_id,
        "modality": request.modality,
        "prompt": request.prompt,
        "frame_hashes": [_hash_file(ref) for ref in request.frame_refs],
        "audio_hash": _hash_file(request.audio_ref) if request.audio_ref else None,
        "condition": request.condition.to_dict() if request.condition else None,
    }


def _fingerprint_key(fingerprint: dict) -> str:
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def request_key(request: ModelRequest) -> str:
    return _fingerprint_key(request_fingerprint(request))


class CassetteStore:
    """Append-only directory of JSON request/response records.

    Reads are lock-free; appends are serialized. Existing entries are never
    overwritten, so a recorded run stays stable.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._write_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedProviderOutput(f"corrupt cassette entry {key}: {exc}") from exc

    def put(self, key: str, fingerprint: dict, response: ModelResponse) -> None:
        with self._write_lock:
            path = self._path(key)
            if path.is_file():
                return
            self.root.mkdir(parents=True, exist_ok=True)
            record = {"key": key, "request": fingerprint, "response": response.to_dict()}
            text = json.dumps(record, indent=2, sort_keys=True) + "\n"
            # one temp file per writer: other processes may record the same key
            tmp = path.with_name(f"{key}.{os.getpid()}-{threading.get_ident()}.tmp")
            fh = open(tmp, "x", encoding="utf-8")
            try:
                with fh:
                    fh.write(text)
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise


def _default_transport(
    url: str, body: dict, headers: dict, timeout_s: float
) -> tuple[int, str]:
    """POST body as JSON; return (status, text) for any reply, raise if none came."""
    import urllib.error  # only live runs pay for loading http.client and ssl
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(body, allow_nan=False).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
        method="POST",
    )
    try:
        reply = urllib.request.urlopen(request, timeout=timeout_s)
    except urllib.error.HTTPError as exc:  # a non-2xx reply is an answer too
        reply = exc
    with reply:
        raw = reply.read()
        charset = reply.headers.get_content_charset() or "utf-8"
        try:
            return reply.status, raw.decode(charset, errors="replace")
        except LookupError:  # a charset name Python does not know
            return reply.status, raw.decode("utf-8", errors="replace")


def _dig(payload, dotted_path: str):
    value = payload
    for part in dotted_path.split("."):
        if isinstance(value, list):
            value = value[int(part)]
        elif isinstance(value, dict):
            value = value[part]
        else:
            raise KeyError(part)
    return value


class ProviderHub:
    """Routes each request to its provider in live or replay mode.

    Live mode records every response before returning it; replay mode answers
    exclusively from the cassette store. A global in-flight limit bounds
    concurrent live calls.
    """

    def __init__(
        self,
        providers: dict[str, ProviderSettings],
        store: CassetteStore,
        mode: str = "replay",
        transport: Callable[[str, dict, dict, float], tuple[int, str]] | None = None,
        max_in_flight: int = 4,
    ):
        if mode not in ("replay", "live"):
            raise ValueError(f"bad mode: {mode}")
        self.providers = providers
        self.store = store
        self.mode = mode
        self.transport = transport or _default_transport
        self.max_in_flight = max_in_flight
        self._in_flight = threading.Semaphore(max_in_flight)

    # -- core send ---------------------------------------------------------

    def send(self, request: ModelRequest) -> ModelResponse:
        fingerprint = request_fingerprint(request)
        key = _fingerprint_key(fingerprint)
        if self.mode == "replay":
            record = self.store.get(key)
            if record is None:
                raise ReplayMiss(
                    f"no cassette entry for {request.modality} request to "
                    f"{request.provider_id} (key {key[:12]}...)"
                )
            return ModelResponse.from_dict(record["response"])
        response = self._call_live(request)
        self.store.put(key, fingerprint, response)
        return response

    def _call_live(self, request: ModelRequest) -> ModelResponse:
        settings = self.providers.get(request.provider_id)
        if settings is None:
            raise ProviderUnavailable(f"unknown provider: {request.provider_id}")
        if not settings.endpoint:
            raise ProviderUnavailable(f"provider {request.provider_id} has no endpoint")

        headers = {}
        if settings.auth_env:
            secret = os.environ.get(settings.auth_env)
            if not secret:
                raise ProviderUnavailable(
                    f"environment variable {settings.auth_env} is not set"
                )
            value = f"{settings.auth_scheme} {secret}".strip()
            headers[settings.auth_header] = value

        body: dict = {settings.prompt_field: request.prompt}
        if settings.model:
            body[settings.model_field] = settings.model
        if request.frame_refs:
            import base64

            body[settings.frames_field] = [
                base64.b64encode(Path(ref).read_bytes()).decode("ascii")
                for ref in request.frame_refs
            ]
        if request.audio_ref:
            import base64

            body[settings.audio_field] = base64.b64encode(
                Path(request.audio_ref).read_bytes()
            ).decode("ascii")

        attempts = settings.retries + 1
        last_error = "unknown provider failure"
        for _ in range(attempts):
            start = time.perf_counter()
            try:
                with self._in_flight:
                    status_code, text = self.transport(
                        settings.endpoint, body, headers, settings.timeout_s
                    )
            except Exception as exc:  # transport-level failure
                elapsed = int((time.perf_counter() - start) * 1000)
                classified = self._classify_error(settings, str(exc))
                if classified:
                    return ModelResponse("", elapsed, classified).validate()
                last_error = str(exc)
                continue
            elapsed = int((time.perf_counter() - start) * 1000)
            if status_code == 200:
                return self._parse_live_payload(settings, text, elapsed)
            classified = self._classify_error(settings, text)
            if classified:
                return ModelResponse("", elapsed, classified).validate()
            last_error = f"HTTP {status_code}: {text[:200]}"
        raise ProviderUnavailable(
            f"provider {request.provider_id} failed after {attempts} attempt(s): {last_error}"
        )

    @staticmethod
    def _classify_error(settings: ProviderSettings, text: str) -> str | None:
        for status, patterns in settings.error_patterns.items():
            if any(pattern in text for pattern in patterns):
                return status
        return None

    @staticmethod
    def _parse_live_payload(
        settings: ProviderSettings, text: str, elapsed_ms: int
    ) -> ModelResponse:
        try:
            payload = json.loads(text)
            raw = _dig(payload, settings.response_text_path)
        except (json.JSONDecodeError, KeyError, IndexError, ValueError) as exc:
            raise MalformedProviderOutput(
                f"cannot extract text at {settings.response_text_path!r}: {exc}"
            ) from exc
        if not isinstance(raw, str):
            raise MalformedProviderOutput("response text field is not a string")
        status = "ok" if raw else "invalid"
        return ModelResponse(raw, elapsed_ms, status).validate()

    # -- pipeline operations -------------------------------------------------

    def transcribe(self, asset: MediaAsset, provider_id: str) -> Transcript:
        """Run ASR over the asset's audio and return ordered timed segments."""
        if asset.kind != "audio" and not asset.has_audio_stream:
            raise ValueError(f"asset has no audio stream: {asset.path}")
        request = ModelRequest(
            provider_id=provider_id, modality="asr", audio_ref=asset.path
        )
        response = self.send(request)
        return parse_transcript_payload(response.raw_text)


def parse_transcript_payload(raw_text: str) -> Transcript:
    """Parse an ASR JSON payload ({"segments": [...], "text": ..., "language"})."""
    if not raw_text.strip():
        return Transcript()
    try:
        payload = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise MalformedProviderOutput(f"ASR payload is not JSON: {exc}") from exc
    return transcript_from_payload(payload)


def transcript_from_payload(payload) -> Transcript:
    """Decode and validate one {"segments": [...], "text": ..., "language"} object."""
    if not isinstance(payload, dict):
        raise MalformedProviderOutput("transcript payload must be a JSON object")
    segments = []
    for entry in payload.get("segments") or []:
        try:
            segments.append(
                TranscriptSegment(
                    id=int(entry["id"]),
                    start_s=float(entry["start"]),
                    end_s=float(entry["end"]),
                    text=str(entry["text"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedProviderOutput(f"bad transcript segment {entry!r}") from exc
    segments.sort(key=lambda s: (s.start_s, s.id))
    full_text = payload.get("text")
    if full_text is None:
        full_text = "".join(s.text for s in segments)
    transcript = Transcript(
        segments=segments, full_text=str(full_text), language=payload.get("language")
    )
    transcript.validate()
    return transcript
