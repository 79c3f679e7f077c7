"""Turn raw model text into structured summaries, keyframe lists, and MCQ answers.

Models drift from the requested "(00:00, caption)" keyframe format, so the
keyframe extractor accepts the common variants seen in real output:
parenthesized pairs, "MM:SS - caption" and bare "MM:SS caption" lines, and a
"(MM:SS) caption" hybrid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import BadTimestamp, NoAnswerFound

MAX_TIMESTAMP_S = 359999  # exclusive bound; two-digit hour field tops out at 99:59:59
MAX_CAPTION_LEN = 500

_TIME = r"\d{1,2}(?::\d{2}){1,2}"
_TS_RE = re.compile(r"^(\d{1,2})(?::(\d{2}))?:(\d{2})$")

# Accepted keyframe line shapes, tried in order.
_KEYFRAME_RES = (
    re.compile(rf"^\(\s*({_TIME})\s*,\s*(.+)\)\s*$"),      # (00:08, caption)
    re.compile(rf"^\(\s*({_TIME})\s*\)[\s:]*(.+)$"),       # (00:08) caption
    re.compile(rf"^({_TIME})\s*[-–—:]\s+(.+)$"), # 00:08 - caption
    re.compile(rf"^({_TIME})\s+(.+)$"),                    # 00:08 caption
)

_KEYFRAME_HEADER_RE = re.compile(r"^[\s#*]*key\s*-?\s*frames?\b", re.IGNORECASE)

_MCQ_EXPLICIT_RE = re.compile(
    r"\banswers?\b[\s:*=-]*(?:is\b)?[\s:*=-]*\(?([ABCD])\)?(?![A-Za-z])", re.IGNORECASE
)
_MCQ_BARE_RE = re.compile(r"(?<![A-Za-z])([ABCD])(?![A-Za-z])")


@dataclass(frozen=True)
class KeyframeEntry:
    """A (timestamp, caption) pair a model claims marks a salient moment."""

    timestamp_s: int
    caption: str

    def __post_init__(self):
        if not 0 <= self.timestamp_s < MAX_TIMESTAMP_S:
            raise ValueError(f"timestamp out of range: {self.timestamp_s}")
        if not self.caption or self.caption != self.caption.strip():
            raise ValueError("caption must be non-empty and trimmed")
        if "\n" in self.caption:
            raise ValueError("caption must not contain newlines")


@dataclass
class ParsedVideoOutput:
    """A model's summary text plus its extracted keyframe entries."""

    summary: str
    keyframes: list[KeyframeEntry] = field(default_factory=list)
    valid: bool = False


@dataclass(frozen=True)
class McqAnswer:
    letter: str  # A-D
    confidence_source: str  # explicit | extracted | none


def parse_timestamp(text: str) -> int:
    """Convert "MM:SS" or "HH:MM:SS" to whole seconds."""
    m = _TS_RE.match(text.strip())
    if not m:
        raise BadTimestamp(f"not a timestamp: {text!r}")
    lead, mid, last = m.groups()
    if mid is None:
        hours, minutes, seconds = 0, int(lead), int(last)
    else:
        hours, minutes, seconds = int(lead), int(mid), int(last)
    if minutes >= 60 or seconds >= 60:
        raise BadTimestamp(f"minutes/seconds must be < 60: {text!r}")
    return 3600 * hours + 60 * minutes + seconds


def format_timestamp(seconds: int) -> str:
    """Render seconds back to the canonical MM:SS / HH:MM:SS form."""
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes:02d}:{secs:02d}"


def parse_keyframes(raw_text: str, max_caption_len: int = MAX_CAPTION_LEN) -> list[KeyframeEntry]:
    """Extract keyframe entries from every parseable line, in order.

    Unparseable lines are skipped; identical (timestamp, caption) pairs are
    deduplicated keeping the first occurrence.
    """
    entries: list[KeyframeEntry] = []
    seen: set[KeyframeEntry] = set()
    for line in raw_text.splitlines():
        line = line.strip()
        if not line:
            continue
        for pattern in _KEYFRAME_RES:
            m = pattern.match(line)
            if not m:
                continue
            try:
                ts = parse_timestamp(m.group(1))
            except BadTimestamp:
                break
            caption = m.group(2).strip()[:max_caption_len].strip()
            if not caption:
                break
            entry = KeyframeEntry(ts, caption)
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
            break
    return entries


def parse_mcq(raw_text: str) -> McqAnswer:
    """Pull the first standalone option letter out of a response."""
    m = _MCQ_EXPLICIT_RE.search(raw_text)
    if m:
        return McqAnswer(m.group(1).upper(), "explicit")
    m = _MCQ_BARE_RE.search(raw_text)
    if m:
        return McqAnswer(m.group(1), "extracted")
    raise NoAnswerFound(f"no option letter in: {raw_text[:80]!r}")


def _is_keyframe_line(line: str) -> bool:
    stripped = line.strip()
    if not stripped:
        return False
    if _KEYFRAME_HEADER_RE.match(stripped):
        return True
    for pattern in _KEYFRAME_RES:
        m = pattern.match(stripped)
        if m:
            try:
                parse_timestamp(m.group(1))
            except BadTimestamp:
                return False
            return bool(m.group(2).strip())
    return False


def parse_video_output(raw_text: str) -> ParsedVideoOutput:
    """Split raw text into summary (before the keyframe block) and keyframes."""
    lines = raw_text.splitlines()
    boundary = len(lines)
    for i, line in enumerate(lines):
        if _is_keyframe_line(line):
            boundary = i
            break
    summary = "\n".join(lines[:boundary]).strip()
    keyframes = parse_keyframes(raw_text)
    return ParsedVideoOutput(summary=summary, keyframes=keyframes, valid=bool(summary))
