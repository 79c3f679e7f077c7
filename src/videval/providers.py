"""Uniform request/response layer over ASR and VLM backends.

Every live response is appended to the cassette store before it is returned,
so any live run can be replayed later byte-for-byte. `request_fingerprint`
writes a request's canonical JSON text, the one place that text is made: its
SHA-256 is the request's key, and a recorded line keeps the text. Replay mode
never touches the network: it reads the store's segments once into memory and
answers each request with a dict lookup. A segment line is
`key<TAB>response<TAB>request`, so replay keeps only the response, and decodes
it when it is asked for; a one-object `{...}` line of earlier versions is
still read, and a line whose key cannot be read is dropped and counted
(`CassetteStore` gives the details and which of two answers to one key wins).
Out-of-memory and timeout results are classified from provider error payloads
and surfaced in-band as response statuses, not exceptions: the run accounting
needs them as countable outcomes.

Live calls are one JSON POST each through the standard library's
`urllib.request`: proxies come from the `*_proxy` environment variables, HTTPS
is verified against the system trust store (or `SSL_CERT_FILE`), every socket
operation uses the provider's `timeout_s`, and a 307/308 reply to the POST is
returned as an answer rather than followed. The hub keeps no in-flight limit of
its own: a live run sends from `run_benchmark`'s pool, as wide as the run
config's `max_workers`, and `transcribe` sends one request at a time.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's escaping
from pathlib import Path
from typing import Annotated, Literal, get_args

from .errors import (
    ConfigError,
    IoError,
    MalformedProviderOutput,
    ProviderUnavailable,
    ReplayMiss,
    SchemaError,
)
from .media import MediaAsset
from .schema import Text, _choice, _fill, _list_of, _object, _plain, _string

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
SEGMENT_NAME = re.compile(r"segment-(\d+)\.jsonl")
_TAGS: dict[str, "ConditionTag"] = {}  # from_dict's tags, keyed by the repr of their dict
Attention = Literal["sdpa", "flash_attention", "other"]
Status = Literal["ok", "oom", "timeout", "invalid"]


@dataclass(frozen=True)
class ConditionTag:
    """One cell of the experiment matrix."""

    model_name: Text
    fps: float = 1.0
    with_transcript: bool = False
    attention: Attention = "other"
    gpu: Text = ""

    ATTENTION_VALUES = get_args(Attention)

    def __post_init__(self):  # _fill has checked attention
        if not self.fps > 0:
            raise ValueError(f"fps must be a positive number, got {self.fps!r}")

    def label(self) -> str:
        names = {"sdpa": "SDPA", "flash_attention": "FlashAttention", "other": "Other"}
        suffix = "with" if self.with_transcript else "without"
        return f"{names[self.attention]} ({self.fps:g} FPS) {suffix} Audio Transcription"

    def to_dict(self) -> dict:
        return _plain(self)

    @cached_property
    def canonical_json(self) -> str:
        """to_dict() as compact, sorted-keys JSON, the form a request key hashes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict, what: str = "condition") -> "ConditionTag":
        """The tag from the fields present in data; other keys, such as a provider, are ignored."""
        key = repr(data)  # a manifest repeats a few tags: read each once (repr tells true from 1)
        if key not in _TAGS:
            _TAGS[key] = _fill(cls, data, what)
        return _TAGS[key]


@dataclass(frozen=True, slots=True)
class TranscriptSegment:
    """One timed span of an ASR payload, its fields named as the payload's keys."""

    id: int
    start: float
    end: float
    text: Text

    def __post_init__(self):  # _fill has read id by its annotation
        if self.start > self.end:
            raise ValueError("segment start must not exceed end")


def _segments(value, what: str) -> list[TranscriptSegment]:
    """A transcript's segments: null, or any other value that is false, is none."""
    return _list_of(partial(_fill, TranscriptSegment))(value or [], what)


@dataclass
class Transcript:
    """An ASR payload, {"segments": [...], "text": ..., "language": ...}, its segments in time order.

    A null or absent text is the segments joined; a given one must equal them up to whitespace.
    """

    segments: Annotated[list[TranscriptSegment], _segments] = field(default_factory=list)
    text: Text | None = None
    language: Text | None = None

    def __post_init__(self):
        self.segments.sort(key=lambda s: (s.start, s.id))
        if len({s.id for s in self.segments}) != len(self.segments):
            raise ValueError("duplicate segment ids")
        joined = "".join(s.text for s in self.segments)
        if self.text is None:
            self.text = joined
        elif self.segments and self.text.split() != joined.split():
            raise ValueError("text does not match its segments")


@dataclass
class ModelRequest:
    provider_id: str
    modality: str  # asr | vlm
    prompt: str = ""
    frame_refs: list[str] = field(default_factory=list)
    audio_ref: str | None = None
    condition: ConditionTag | None = None


@dataclass(slots=True)
class ModelResponse:
    raw_text: str
    latency_ms: int = 0
    status: Status = "ok"

    STATUSES = get_args(Status)

    def validate(self) -> "ModelResponse":
        """The one rule across fields, which from_dict's readers cannot check: ok has text, nothing else has."""
        if (self.status == "ok") != bool(self.raw_text):
            raise MalformedProviderOutput(
                f"status={self.status} inconsistent with raw_text length {len(self.raw_text)}"
            )
        return self

    def to_json(self) -> str:
        """json.dumps of the three fields, sort_keys=True, separators=(",", ":"), byte for byte:
        the form a cassette line and a manifest record keep."""
        return f'{{"latency_ms":{self.latency_ms!r},"raw_text":{_quote(self.raw_text)},"status":{_quote(self.status)}}}'

    @classmethod
    def from_dict(cls, data: dict, what: str = "response") -> "ModelResponse":
        """The validated response in data: an absent latency_ms or status keeps its default, and null is an error."""
        return _fill(cls, data, what).validate()


# the statuses an error reply can be classified as: every answer status but ok
_error_status = _choice(*(status for status in ModelResponse.STATUSES if status != "ok"))


def _error_patterns(value, what: str) -> dict[str, list[str]]:
    return {
        _error_status(status, f"{what} key"): _list_of(_string)(texts, f"{what}.{status}")
        for status, texts in _object(value or {}, what).items()
    }


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
    timeout_s: float = 300.0
    retries: int = 1
    error_patterns: Annotated[dict[str, list[str]], _error_patterns] = field(default_factory=dict)

    def __post_init__(self):
        if not self.timeout_s > 0:  # 0 makes every socket non-blocking, and every live call fail
            raise ValueError(f"timeout_s must be a positive number, got {self.timeout_s!r}")
        # a status the given patterns leave out keeps its default texts
        defaults = {status: list(texts) for status, texts in DEFAULT_ERROR_PATTERNS.items()}
        self.error_patterns = {**defaults, **self.error_patterns}


def _hash_file(path: str) -> str:
    import hashlib  # only a command that hashes pays for loading OpenSSL

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def request_fingerprint(request: ModelRequest) -> str:
    """The canonical JSON text of a request, which its key hashes and its cassette line records.

    Media are identified by the SHA-256 of each file's contents, not by its
    path, and each file is read once. The text is written by hand for speed:
    it is json.dumps(fingerprint, sort_keys=True, separators=(",", ":")) byte
    for byte, for the object {"audio_hash", "condition", "frame_hashes",
    "modality", "prompt", "provider_id"}, with every string escaped as that
    call escapes it and the condition's JSON encoded once per tag.
    """
    audio = "null" if not request.audio_ref else _quote(_hash_file(request.audio_ref))
    condition = "null" if request.condition is None else request.condition.canonical_json
    frames = ",".join(_quote(_hash_file(ref)) for ref in request.frame_refs)
    return (
        f'{{"audio_hash":{audio},"condition":{condition},"frame_hashes":[{frames}],'
        f'"modality":{_quote(request.modality)},"prompt":{_quote(request.prompt)},'
        f'"provider_id":{_quote(request.provider_id)}}}'
    )


def _key(fingerprint: str) -> str:
    import hashlib

    return hashlib.sha256(fingerprint.encode("ascii")).hexdigest()


def request_key(request: ModelRequest) -> str:
    return _key(request_fingerprint(request))


def _line_fields(line: bytes) -> tuple[str | None, bytes | dict | None]:
    """The key of one segment line and its response, undecoded; key None for a line to drop."""
    if line.startswith(b"{"):  # the one-object line of earlier versions
        try:
            entry = json.loads(line.decode("utf-8"))
            key = entry["key"]
        except (ValueError, KeyError):  # cut off, not UTF-8 or not JSON, no key
            return None, None
        return (key, entry.get("response")) if isinstance(key, str) else (None, None)
    key_end = line.find(b"\t")  # the request after the second tab is never copied
    response_end = line.find(b"\t", key_end + 1)
    if key_end < 0 or response_end < 0 or not line.endswith(b"\n"):  # cut off, or not a line of this layout
        return None, None
    try:
        return line[:key_end].decode("utf-8"), line[key_end + 1:response_end]
    except UnicodeDecodeError:
        return None, None


class CassetteStore:
    """Append-only directory of recorded answers, one line each.

    A line is `key<TAB>response<TAB>request<LF>`: the request key, the answer
    as `ModelResponse.to_json` writes it (no raw tab or newline), and the request
    fingerprint text the key hashes, written as `put` is given it. Replay splits
    off the key and decodes only the response. A line that starts with `{` is
    one compact JSON object {"key", "request", "response"}, as earlier versions
    wrote, and is still read. So `put` refuses a key that holds a tab or newline
    or starts with `{`, and a fingerprint that holds a tab or newline.

    Every store writes the lines of its own `segment-<n>.jsonl`, which it
    creates on its first `put` under the next free sequence number, and each
    line is on disk before `put` returns. Opening the store reads every
    segment once, in sequence order, into an index of undecoded answers: the
    response bytes of each tab line, and the response value of each `{` line.
    So an answer held costs its key and its bytes, and each one decoded lives
    only as long as its record. `get` decodes it as UTF-8 through
    `ModelResponse.from_dict`, the one reader of an answer, which fills it
    through `schema._fill` and validates it.

    The first recorded answer to a key wins, across segments and within one:
    a key already held is never written again, and a later line for it is
    ignored. A line is dropped and counted in `dropped` when its key cannot be
    read: a tab line without its final newline or with fewer than three
    fields, or a `{` line that is not JSON or holds no string `key`. A line
    with a key whose response does not decode is that key's error, which `get`
    raises. A segment that cannot be read at all is a ConfigError, and one
    that cannot be made or appended to an IoError.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.dropped = 0
        self._lock = threading.Lock()
        self._next = 1  # sequence number of the first segment this store tries to create
        self._segment: Path | None = None
        self._index = self._read_segments()  # key -> a tab line's response bytes, or a { line's response

    def _read_segments(self) -> dict[str, object]:
        numbered = [(int(m[1]), p) for p in self.root.glob("segment-*.jsonl")
                    if (m := SEGMENT_NAME.fullmatch(p.name))]
        index: dict[str, object] = {}
        for number, path in sorted(numbered):
            self._next = number + 1
            try:
                with open(path, "rb") as fh:
                    for line in fh:
                        key, response = _line_fields(line)
                        if key is None:
                            self.dropped += 1
                        else:
                            index.setdefault(key, response)
            except OSError as exc:  # a directory, or unreadable: the command stops before its first request
                raise ConfigError(f"cannot read cassette segment {path}: {exc}") from exc
        return index

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> ModelResponse | None:
        try:
            response = self._index[key]
        except KeyError:
            return None
        try:
            if isinstance(response, bytes):  # UTF-8 alone, as RunManifest.read reads a manifest
                response = json.loads(response.decode("utf-8"))
            return ModelResponse.from_dict(response)
        except (ValueError, SchemaError, MalformedProviderOutput) as exc:  # JSON, field, validate()
            raise MalformedProviderOutput(f"corrupt cassette entry {key}: {exc}") from exc

    def put(self, key: str, fingerprint: str, response: ModelResponse) -> None:
        if "\t" in key or "\n" in key or key.startswith("{"):  # its line would read back wrong
            raise ValueError(f"a cassette key holds no tab or newline and does not start with {{, got {key!r}")
        if "\t" in fingerprint or "\n" in fingerprint:
            raise ValueError(f"a cassette request fingerprint holds no tab or newline, got {fingerprint!r}")
        with self._lock:
            if key in self._index:
                return
            answer = response.to_json()
            line = f"{key}\t{answer}\t{fingerprint}\n".encode("utf-8")
            path = self._segment
            try:
                while self._segment is None:  # the first put creates this store's own segment
                    self.root.mkdir(parents=True, exist_ok=True)
                    path = self.root / f"segment-{self._next:06d}.jsonl"
                    self._next += 1
                    try:
                        open(path, "xb").close()
                        self._segment = path
                    except FileExistsError:  # another writer's, or one this store did not read
                        pass
                with open(path, "ab") as fh:
                    fh.write(line)
            except OSError as exc:  # a full disk, say: the answer is not recorded, and the command stops
                raise IoError(f"cannot write {path or self.root}: {exc}") from exc
            self._index[key] = answer.encode("utf-8")


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
    exclusively from the cassette store. The hub sends from the thread that
    calls it: `run_benchmark`'s pool, as wide as the config's `max_workers`, is
    what bounds concurrent live calls.
    """

    def __init__(
        self,
        providers: dict[str, ProviderSettings],
        store: CassetteStore,
        mode: str = "replay",  # or "live": cli._hub passes no other
        transport: Callable[[str, dict, dict, float], tuple[int, str]] | None = None,
    ):
        self.providers = providers
        self.store = store
        self.mode = mode
        self.transport = transport or _default_transport

    # -- core send ---------------------------------------------------------

    def send(self, request: ModelRequest) -> ModelResponse:
        fingerprint = request_fingerprint(request)  # each media file is read once per send
        key = _key(fingerprint)
        if self.mode == "replay":
            response = self.store.get(key)
            if response is None:
                raise ReplayMiss(
                    f"no cassette entry for {request.modality} request to "
                    f"{request.provider_id} (key {key})"
                )
            return response
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

        import base64  # only live runs load it

        body: dict = {settings.prompt_field: request.prompt}
        if settings.model:
            body[settings.model_field] = settings.model
        if request.frame_refs:
            body[settings.frames_field] = [
                base64.b64encode(Path(ref).read_bytes()).decode("ascii")
                for ref in request.frame_refs
            ]
        if request.audio_ref:
            body[settings.audio_field] = base64.b64encode(
                Path(request.audio_ref).read_bytes()
            ).decode("ascii")

        attempts = settings.retries + 1
        last_error = "unknown provider failure"
        for _ in range(attempts):
            start = time.perf_counter()
            try:
                status_code, text = self.transport(
                    settings.endpoint, body, headers, settings.timeout_s
                )
            except Exception as exc:  # transport-level failure: no reply, only its message
                status_code, text = None, str(exc)
            elapsed = int((time.perf_counter() - start) * 1000)
            if status_code == 200:
                return self._parse_live_payload(settings, text, elapsed)
            classified = self._classify_error(settings, text)
            if classified:
                return ModelResponse("", elapsed, classified)  # an error status with no text: valid
            last_error = text if status_code is None else f"HTTP {status_code}: {text[:200]}"
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
        return ModelResponse(raw, elapsed_ms, status)  # valid as built

    # -- pipeline operations -------------------------------------------------

    def transcribe(self, asset: MediaAsset, provider_id: str) -> Transcript:
        """Run ASR over the asset's audio and return ordered timed segments.

        The caller checks that the asset has an audio stream. An answer that is
        not ok (oom, timeout, invalid) holds no transcript: it is a
        MalformedProviderOutput, as an ok answer that does not parse is.
        """
        request = ModelRequest(
            provider_id=provider_id, modality="asr", audio_ref=asset.path
        )
        response = self.send(request)
        if response.status != "ok":
            raise MalformedProviderOutput(f"the ASR answer is {response.status}, not a transcript")
        return parse_transcript_payload(response.raw_text)


def parse_transcript_payload(raw_text: str) -> Transcript:
    """Parse an ASR JSON payload ({"segments": [...], "text": ..., "language"})."""
    try:
        payload = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise MalformedProviderOutput(f"ASR payload is not JSON: {exc}") from exc
    try:
        return _fill(Transcript, payload, "transcript")
    except SchemaError as exc:
        raise MalformedProviderOutput(str(exc)) from exc
