"""Probe media files, classify containers, and plan frame sampling / splitting.

Frame extraction and probing are delegated to an external ffmpeg/ffprobe-style
tool through configurable command templates; this module only plans timestamps
and interprets the probe JSON.
"""

from __future__ import annotations

import json
import math
import shlex
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidOverlap, NotAVideo, ProbeFailure, SchemaError, UnsupportedFormat
from .schema import _list_of, _number, _object, _string

VIDEO_CONTAINERS = ("mp4", "m4v", "quicktime", "wmv", "webm", "msvideo", "mpg", "3gpp")
AUDIO_CONTAINERS = ("mp3", "wav", "m4a", "flac")

_EXTENSION_MAP = {
    ".mp4": "mp4",
    ".m4v": "m4v",
    ".mov": "quicktime",
    ".qt": "quicktime",
    ".wmv": "wmv",
    ".webm": "webm",
    ".avi": "msvideo",
    ".mpg": "mpg",
    ".mpeg": "mpg",
    ".3gp": "3gpp",
    ".3gpp": "3gpp",
    ".mp3": "mp3",
    ".wav": "wav",
    ".m4a": "m4a",
    ".flac": "flac",
}

# ffprobe format_name tokens -> container tags
_PROBE_NAME_MAP = {
    "mp4": "mp4",
    "m4v": "m4v",
    "mov": "quicktime",
    "asf": "wmv",
    "wmv": "wmv",
    "webm": "webm",
    "avi": "msvideo",
    "mpeg": "mpg",
    "mpegvideo": "mpg",
    "mpg": "mpg",
    "3gp": "3gpp",
    "3gpp": "3gpp",
    "mp3": "mp3",
    "wav": "wav",
    "m4a": "m4a",
    "flac": "flac",
}

# Containers sharing the ISO base-media layout; ffprobe reports them under one
# combined format_name, so the extension disambiguates within the family.
_ISOBMFF_FAMILY = {"mp4", "m4v", "quicktime", "3gpp", "m4a"}

DEFAULT_PROBE_CMD = "ffprobe -v error -print_format json -show_format -show_streams {input}"
DEFAULT_EXTRACT_CMD = "ffmpeg -y -v error -ss {timestamp} -i {input} -frames:v 1 {output}"


@dataclass
class MediaAsset:
    """A probed audio/video file with container, duration, and stream info."""

    path: str
    kind: str  # video | audio
    container: str
    duration_s: float
    has_audio_stream: bool
    width_px: int | None = None
    height_px: int | None = None

    def __post_init__(self):
        # probe gives the kind, a duration of at least 0 and a video's dimensions; the
        # container it classifies may still not be one of the kind's (a .wmv holding only audio)
        allowed = VIDEO_CONTAINERS if self.kind == "video" else AUDIO_CONTAINERS
        if self.container not in allowed:
            raise UnsupportedFormat(
                f"container {self.container!r} is not a supported {self.kind} format"
            )


@dataclass
class FramePlan:
    fps: float
    timestamps_s: list[float] = field(default_factory=list)


@dataclass
class SplitPlan:
    segment_length_s: float
    overlap_s: float
    segments: list[tuple[float, float]] = field(default_factory=list)


def classify_container(path: str | Path, probe_format_name: str | None = None) -> str:
    """Classify a file into one of the supported container tags.

    Probe metadata wins when available; the extension breaks ties inside the
    ISO media family and is the fallback when the probe names nothing known.
    """
    ext_tag = _EXTENSION_MAP.get(Path(path).suffix.lower())
    probe_tags: list[str] = []
    for token in (probe_format_name or "").split(","):
        tag = _PROBE_NAME_MAP.get(token.strip().lower())
        if tag and tag not in probe_tags:
            probe_tags.append(tag)
    if probe_tags:
        if ext_tag in probe_tags:
            return ext_tag
        if ext_tag in _ISOBMFF_FAMILY and any(t in _ISOBMFF_FAMILY for t in probe_tags):
            return ext_tag
        return probe_tags[0]
    if ext_tag:
        return ext_tag
    raise UnsupportedFormat(f"unsupported format: {path}")


def is_supported(path: str | Path) -> bool:
    return Path(path).suffix.lower() in _EXTENSION_MAP


class MediaToolRunner:
    """Invokes the external media tool via command templates.

    Placeholders: {input}, {timestamp}, {output}. One runner may serve many
    threads: `ingest` and `transcribe` probe through one, from a pool as wide
    as the config's `max_workers`. The runner takes no lock and keeps no
    per-file state, so its calls may run at once. The walk of `ingest` and
    `transcribe` lists a file reached twice once, so they probe no file twice.
    """

    def __init__(
        self,
        probe_cmd: str = DEFAULT_PROBE_CMD,
        extract_cmd: str = DEFAULT_EXTRACT_CMD,
        timeout_s: float = 120.0,
    ):
        self.probe_cmd = probe_cmd
        self.extract_cmd = extract_cmd
        self.timeout_s = timeout_s

    def _run(self, template: str, subs: dict[str, str]) -> subprocess.CompletedProcess:
        import subprocess  # only the commands that run the media tool pay for loading it
        argv = []
        for token in shlex.split(template):
            for name, value in subs.items():
                token = token.replace("{%s}" % name, value)
            argv.append(token)
        try:
            return subprocess.run(
                argv, capture_output=True, text=True, timeout=self.timeout_s
            )
        except FileNotFoundError as exc:
            raise ProbeFailure(f"media tool not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ProbeFailure(f"media tool timed out: {argv[0]}") from exc

    def probe(self, path: str | Path) -> dict:
        """Run the probe command and return its JSON document."""
        proc = self._run(self.probe_cmd, {"input": str(path)})
        if proc.returncode != 0:
            raise ProbeFailure(f"probe failed for {path}: {proc.stderr.strip()[:200]}")
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise ProbeFailure(f"probe emitted invalid JSON for {path}") from exc

    def extract_frame(self, path: str | Path, timestamp_s: float, output: str | Path) -> Path:
        proc = self._run(
            self.extract_cmd,
            {"input": str(path), "timestamp": f"{timestamp_s:g}", "output": str(output)},
        )
        if proc.returncode != 0:
            raise ProbeFailure(f"frame extraction failed for {path}: {proc.stderr.strip()[:200]}")
        return Path(output)


def probe(path: str | Path, tool: MediaToolRunner | None = None) -> MediaAsset:
    """Probe a file and return a classified MediaAsset."""
    p = Path(path)
    if not p.is_file():
        raise ProbeFailure(f"not a readable file: {path}")
    if not is_supported(p):
        raise UnsupportedFormat(f"unsupported format: {path}")
    tool = tool or MediaToolRunner()
    info = tool.probe(p)

    # the probe tool's JSON is outside input: a document of another shape is a failed probe
    try:
        info = _object(info, "document")
        fmt = _object(info.get("format") or {}, "format")
        streams = _list_of(_object)(info.get("streams") or [], "streams")
        video_streams = [
            s
            for s in streams
            if s.get("codec_type") == "video"
            and not _object(s.get("disposition") or {}, "disposition").get("attached_pic")
        ]
        format_name = _string(fmt.get("format_name") or "", "format_name")
        width = height = None
        if video_streams:
            width = _number(video_streams[0].get("width") or 0, "width") or None
            height = _number(video_streams[0].get("height") or 0, "height") or None
    except SchemaError as exc:
        raise ProbeFailure(f"probe output for {path} does not fit: {exc}") from exc
    audio_streams = [s for s in streams if s.get("codec_type") == "audio"]

    duration = 0.0
    for source in (fmt, *video_streams, *audio_streams):
        raw = source.get("duration")  # ffprobe writes it as a string
        if raw is not None:
            try:
                seconds = float(raw)
            except (TypeError, ValueError):
                continue
            if math.isfinite(seconds):  # float() takes "inf", which inventory.json cannot hold
                duration = max(duration, seconds)

    kind = "video" if video_streams else "audio"
    container = classify_container(p, format_name)
    if kind == "audio" and container in _ISOBMFF_FAMILY:
        container = "m4a"  # audio-only ISO media is what .m4a denotes
    if kind == "video" and (width is None or height is None):
        raise ProbeFailure(f"video stream missing dimensions: {path}")

    return MediaAsset(
        path=str(p),
        kind=kind,
        container=container,
        duration_s=duration,
        has_audio_stream=bool(audio_streams),
        width_px=width,
        height_px=height,
    )


def plan_frames(asset: MediaAsset, fps: float) -> FramePlan:
    """Plan sampling instants at the given rate.

    The grid is {0, 1/fps, 2/fps, ...} below the duration; when the rate would
    yield less than one frame for the whole clip, a single midpoint frame is
    planned instead so the downstream call never goes out with zero frames.
    """
    if asset.kind != "video":
        raise NotAVideo(f"not a video asset: {asset.path}")
    if fps <= 0:
        raise ValueError("fps must be positive")
    duration = asset.duration_s
    if duration <= 0:
        return FramePlan(fps=fps, timestamps_s=[])
    if fps * duration < 1.0:
        return FramePlan(fps=fps, timestamps_s=[duration / 2.0])
    step = 1.0 / fps
    timestamps = []
    i = 0
    while True:
        ts = i * step
        if ts >= duration:
            break
        timestamps.append(ts)
        i += 1
    return FramePlan(fps=fps, timestamps_s=timestamps)


def plan_split(asset: MediaAsset, segment_length_s: float, overlap_s: float = 0.0) -> SplitPlan:
    """Plan contiguous covering segments with a fixed pairwise overlap."""
    if segment_length_s <= 0:
        raise ValueError("segment length must be positive")
    if overlap_s < 0 or overlap_s >= segment_length_s:
        raise InvalidOverlap(
            f"overlap {overlap_s} must be in [0, {segment_length_s})"
        )
    duration = asset.duration_s
    if duration <= segment_length_s:
        return SplitPlan(segment_length_s, overlap_s, [(0.0, duration)])
    stride = segment_length_s - overlap_s
    # guard against float ratios landing epsilon above an integer
    count = math.ceil((duration - overlap_s) / stride - 1e-12)
    segments = []
    for i in range(count):
        start = i * stride
        end = min(start + segment_length_s, duration)
        segments.append((start, end))
    return SplitPlan(segment_length_s, overlap_s, segments)
