"""Prompt templates and rendering helpers.

Placeholders use {name} syntax and are substituted literally (no str.format,
so braces elsewhere in a template are harmless). A transcript renders as a
self-contained block: when it is empty the substitution is the empty string
and the resulting prompt is identical to the no-transcript prompt. A template
without a {transcript} placeholder gets the block in front.
"""

from __future__ import annotations

import re

# Default prompt of the summary_keyframes request kind (templates.summary).
SUMMARY_PROMPT_PLAIN = (
    "Could you please provide a summary of this video, focusing on the content "
    "and workflow rather than specific logos or the color of text? After "
    "summarizing, list the key frames with brief captions in the format "
    "(00:00, caption). Ensure the analysis is accurate and avoid including any "
    "assumptions or extrapolations. Use an expert domain perspective to "
    "enhance relevance and precision. Do not repeat sentences or focus on QR "
    "codes or logos."
)

DEFAULT_MCQ_TEMPLATE = (
    "{transcript}Watch the video and answer the question by replying with the "
    "letter of the correct option.\n"
    "Question: {question}\n"
    "Options:\n{options}\n"
    "Answer with A, B, C, or D."
)


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def render_prompt(template: str, values: dict[str, str]) -> str:
    """Substitute {name} placeholders (load_config has checked that an mcq template holds its two).

    One pass over the template: a placeholder inside a value stays as it is, and an unknown
    name stays literal. A "transcript" value goes in front when the template has no {transcript}.
    """
    rendered = _PLACEHOLDER.sub(lambda m: values.get(m[1], m[0]), template)
    if "{transcript}" not in template:
        rendered = values.get("transcript", "") + rendered
    return rendered


def transcript_block(transcript) -> str:
    """Self-contained transcript section, empty when there is nothing to say."""
    if transcript is None:
        return ""
    text = transcript.text.strip()
    if not text:
        return ""
    return f"Audio transcript:\n{text}\n\n"
