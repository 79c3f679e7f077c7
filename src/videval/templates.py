"""Prompt templates and rendering helpers.

Placeholders use {name} syntax and are substituted literally (no str.format,
so braces elsewhere in a template are harmless). A transcript renders as a
self-contained block: when it is empty the substitution is the empty string
and the resulting prompt is identical to the no-transcript prompt.
"""

from __future__ import annotations

from .errors import TemplateError

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


def render_prompt(
    template: str, values: dict[str, str], required: tuple[str, ...] = ()
) -> str:
    """Substitute {name} placeholders; required ones must appear in the template."""
    for name in required:
        if "{%s}" % name not in template:
            raise TemplateError(f"template is missing a {{{name}}} placeholder")
    rendered = template
    for name, value in values.items():
        rendered = rendered.replace("{%s}" % name, value)
    return rendered


def transcript_block(transcript) -> str:
    """Self-contained transcript section, empty when there is nothing to say."""
    if transcript is None:
        return ""
    text = transcript.full_text.strip()
    if not text:
        return ""
    return f"Audio transcript:\n{text}\n\n"
