"""Turn raw model text into structured summaries, keyframe lists, and MCQ answers.

Models drift from the requested "(00:00, caption)" keyframe format, so the
keyframe extractor accepts the common variants seen in real output:
parenthesized pairs, "MM:SS - caption" and bare "MM:SS caption" lines, and a
"(MM:SS) caption" hybrid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Annotated, Literal, get_args

from .errors import NoAnswerFound, SchemaError
from .schema import _float, _string, _text

MAX_TIMESTAMP_S = 359999  # exclusive: 99:59:59, the largest time with a two-digit hour, is out of range
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


def _keyframe(pair, what: str, read_caption=_string) -> KeyframeEntry:
    """A [seconds, caption] pair; seconds may be any number and counts in whole seconds."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise SchemaError(f"{what} must be a [seconds, caption] pair, got {pair!r}")
    seconds, caption = _float(pair[0], what), read_caption(pair[1], what)
    try:
        return KeyframeEntry(int(seconds), caption)
    except ValueError as exc:  # out of range, or untrimmed
        raise SchemaError(f"{what}: {exc}") from exc


_keyframe_text = partial(_keyframe, read_caption=_text)  # an annotation's, where a stored answer's is _keyframe


@dataclass
class ParsedVideoOutput:
    """A model's summary text plus its extracted keyframe entries."""

    summary: str
    keyframes: list[Annotated[KeyframeEntry, _keyframe]] = field(default_factory=list)
    valid: bool = False


Letter = Literal["A", "B", "C", "D"]
ConfidenceSource = Literal["explicit", "extracted"]


@dataclass(frozen=True)
class McqAnswer:
    letter: Letter
    confidence_source: ConfidenceSource


# every answer parse_mcq can give, made once: the records of a run share these few objects
_MCQ_ANSWERS = {
    (letter, source): McqAnswer(letter, source) for letter in get_args(Letter) for source in get_args(ConfidenceSource)
}


def parse_timestamp(text: str) -> int | None:
    """Convert "MM:SS" or "HH:MM:SS" to whole seconds, below MAX_TIMESTAMP_S; None if it is not one."""
    m = _TS_RE.match(text.strip())
    if not m:
        return None
    lead, mid, last = m.groups()
    if mid is None:
        hours, minutes, seconds = 0, int(lead), int(last)
    else:
        hours, minutes, seconds = int(lead), int(mid), int(last)
    total = 3600 * hours + 60 * minutes + seconds
    return total if minutes < 60 and seconds < 60 and total < MAX_TIMESTAMP_S else None


def _keyframe_line(line: str) -> KeyframeEntry | None:
    """The entry a stripped line holds in the first shape it matches, or None."""
    for pattern in _KEYFRAME_RES:
        m = pattern.match(line)
        if m:
            ts = parse_timestamp(m.group(1))
            caption = m.group(2).strip()[:MAX_CAPTION_LEN].strip()
            return KeyframeEntry(ts, caption) if caption and ts is not None else None
    return None


def parse_mcq(raw_text: str) -> McqAnswer:
    """Pull the first standalone option letter out of a response."""
    m = _MCQ_EXPLICIT_RE.search(raw_text)
    if m:
        return _MCQ_ANSWERS[m.group(1).upper(), "explicit"]
    m = _MCQ_BARE_RE.search(raw_text)
    if m:
        return _MCQ_ANSWERS[m.group(1), "extracted"]
    raise NoAnswerFound(f"no option letter in: {raw_text[:80]!r}")


def parse_video_output(raw_text: str) -> ParsedVideoOutput:
    """Split raw text into summary (before the keyframe block) and keyframes."""
    lines = raw_text.splitlines()
    entries = [_keyframe_line(line.strip()) for line in lines]
    # the block starts at a "Key frames" header or at its first entry
    boundary = next(
        (i for i, line in enumerate(lines) if entries[i] or _KEYFRAME_HEADER_RE.match(line.strip())),
        len(lines),
    )
    summary = "\n".join(lines[:boundary]).strip()
    keyframes = list(dict.fromkeys(filter(None, entries)))
    return ParsedVideoOutput(summary=summary, keyframes=keyframes, valid=bool(summary))
