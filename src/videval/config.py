"""Harness configuration: a single JSON document, secrets via env references.

Relative paths inside the config resolve against the config file's directory,
so a bundled demo runs from any working directory.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

from .errors import ConfigError, MalformedProviderOutput, TemplateError
from .knowledge_graph import LayoutParams
from .providers import (
    ConditionTag,
    ProviderSettings,
    Transcript,
    transcript_from_payload,
)
from .templates import DEFAULT_MCQ_TEMPLATE, SUMMARY_PROMPT_PLAIN, render_prompt


@dataclass
class HarnessConfig:
    """One config file, read by load_config; a key the file leaves out takes the default here."""

    dataset: Path
    cassette_dir: Path
    out_dir: Path
    providers: dict[str, ProviderSettings]
    conditions: list[tuple[ConditionTag, str]]  # (tag, provider id)
    mode: str = "replay"
    request_kind: str = "mcq"
    mcq_template: str = DEFAULT_MCQ_TEMPLATE
    summary_template: str = SUMMARY_PROMPT_PLAIN
    transcripts: Path | None = None
    outputs: Path | None = None
    annotations: Path | None = None
    tolerance_s: int = 2
    keyframe_match_mode: str = "any"
    layout: LayoutParams = field(default_factory=LayoutParams)
    probe_command: str | None = None
    max_workers: int = 4
    asr_provider: str | None = None


# Readers take (value, what) and return the field's value or raise a ConfigError naming what.


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):  # "false" would read true
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _number(value, what: str, kind=int, minimum=0):
    """A JSON number of the given kind (int, or float which takes ints too), at least minimum.

    Anything else, a numeric string included, is a ConfigError naming what.
    """
    accepted = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    if not value >= minimum:  # also false for NaN
        raise ConfigError(f"{what} must be at least {minimum}, got {value!r}")
    return kind(value)


_float = partial(_number, kind=float)


def _choice(*allowed):
    def read(value, what: str):
        if value not in allowed:
            raise ConfigError(f"{what} must be one of {', '.join(map(repr, allowed))}, got {value!r}")
        return value

    return read


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _fill(cls, entry, what: str, readers: dict):
    """Build the dataclass cls from the JSON object entry, one key per field.

    An absent key keeps the field's default, and so does null where that
    default is None. Any other value goes through its reader in readers, a
    string check if it has none there. Unknown keys are ignored.
    """
    entry = _object(entry, what)
    values = {}
    for f in fields(cls):
        value = entry.get(f.name, MISSING)
        if value is MISSING:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{what} is missing {f.name!r}")
        elif value is not None or f.default is not None:
            values[f.name] = readers.get(f.name, _string)(value, f"{what}.{f.name}")
    try:
        return cls(**values)
    except ValueError as exc:  # a check in __post_init__
        raise ConfigError(f"{what}: {exc}") from exc


def _error_patterns(value, what: str) -> dict[str, list[str]]:
    given = _object(value or {}, what)
    for status, texts in given.items():
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ConfigError(f"{what}.{status} must be a list of strings")
    return given


PROVIDER_READERS = {
    "timeout_s": _float,
    "retries": _number,
    "error_patterns": _error_patterns,
}
CONDITION_READERS = {
    "fps": _float,
    "with_transcript": _boolean,
}
LAYOUT_READERS = {
    "spacing": _float,
    "area": _float,
    "iterations": _number,
    "seed": _number,
    "initial_temperature": _float,
    "cooling": _float,
}


def _providers(value, what: str) -> dict[str, ProviderSettings]:
    return {
        name: _fill(ProviderSettings, entry, f"provider {name!r}", PROVIDER_READERS)
        for name, entry in _object(value, what).items()
    }


def _conditions(value, what: str) -> list[tuple[ConditionTag, str]]:
    if not value or not isinstance(value, list):
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    conditions = []
    for i, entry in enumerate(value):
        tag = _fill(ConditionTag, entry, f"condition {i}", CONDITION_READERS)
        if not entry.get("provider"):
            raise ConfigError(f"condition {i} is missing 'provider'")
        # records carry the tag, not the provider, so equal tags cannot be told apart
        if any(tag == seen for seen, _ in conditions):
            raise ConfigError(f"condition {i} repeats the tag of an earlier condition")
        conditions.append((tag, entry["provider"]))
    return conditions


def _read_json_object(path: str | Path, what: str) -> dict:
    """Decode a JSON file whose top level must be an object; any failure is a ConfigError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {path} is not readable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data


def load_config(path: str | Path) -> HarnessConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    base = config_path.parent

    def path_in_base(value, what: str) -> Path:
        return base / _string(value, what)  # an absolute path replaces base

    def file_in_base(value, what: str) -> Path:
        resolved = path_in_base(value, what)
        if not resolved.is_file():
            raise ConfigError(f"{what} file not found: {resolved}")
        return resolved

    readers = {
        "dataset": file_in_base,
        "cassette_dir": path_in_base,
        "out_dir": path_in_base,
        "providers": _providers,
        "conditions": _conditions,
        "mode": _choice("replay", "live"),
        "request_kind": _choice("mcq", "summary_keyframes"),
        "transcripts": file_in_base,
        "outputs": file_in_base,
        "annotations": file_in_base,
        "tolerance_s": _number,
        "keyframe_match_mode": _choice("any", "all"),
        "layout": lambda value, what: _fill(LayoutParams, value or {}, what, LAYOUT_READERS),
        "max_workers": partial(_number, minimum=1),
        "mcq_template": lambda value, _what: _string(value, "templates.mcq"),
        "summary_template": lambda value, _what: _string(value, "templates.summary"),
    }
    # both directories default to a name in the config file's directory
    data = {"cassette_dir": "cassettes", "out_dir": "out", **_read_json_object(config_path, "config")}
    templates = _object(data.get("templates") or {}, "templates")
    # the templates object alone sets them (MISSING keeps the default); top-level keys are ignored
    data.update({f"{key}_template": templates.get(key, MISSING) for key in ("mcq", "summary")})
    config = _fill(HarnessConfig, data, "config", readers)
    for i, (_, provider) in enumerate(config.conditions):
        _choice(*config.providers)(provider, f"condition {i}.provider")
    _choice(None, *config.providers)(config.asr_provider, "config.asr_provider")
    if config.mode == "replay" and not config.cassette_dir.is_dir():
        raise ConfigError(f"cassette directory not found: {config.cassette_dir}")
    try:
        render_prompt(config.mcq_template, {}, required=("question", "options"))
    except TemplateError as exc:
        raise ConfigError(f"templates.mcq: {exc}") from exc
    return config


def load_transcripts(path: str | Path) -> dict[str, Transcript]:
    """Read stored transcripts keyed by video id, each validated like an ASR payload."""
    data = _read_json_object(path, "transcripts")
    transcripts = {}
    for video_id, entry in data.items():
        try:
            transcripts[video_id] = transcript_from_payload(entry)
        except MalformedProviderOutput as exc:
            raise ConfigError(f"transcript of video {video_id!r} is invalid: {exc}") from exc
    return transcripts


def load_outputs(path: str | Path) -> dict[str, dict[str, str]]:
    """Read raw model outputs: {video_id: {model_name: raw_text}}."""
    data = _read_json_object(path, "outputs")
    for video_id, models in data.items():
        if not isinstance(models, dict) or not all(isinstance(t, str) for t in models.values()):
            raise ConfigError(f"outputs of video {video_id!r} must be an object of strings")
    return data


def _is_keyframe_pair(pair) -> bool:
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], (int, float))
        and not isinstance(pair[0], bool)
        and isinstance(pair[1], str)
    )


def load_annotations(path: str | Path) -> dict[str, dict]:
    """Read ground-truth annotations: keyframes and binary summary verdicts.

    Each entry is {"keyframes": [[seconds, caption], ...], "summary": {model: verdict}};
    either key may be left out.
    """
    data = _read_json_object(path, "annotations")
    for video_id, entry in data.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"annotations of video {video_id!r} must be an object")
        keyframes = entry.get("keyframes", [])
        if not isinstance(keyframes, list) or not all(map(_is_keyframe_pair, keyframes)):
            raise ConfigError(
                f"keyframes of video {video_id!r} must be a list of [seconds, caption] pairs"
            )
        if not isinstance(entry.get("summary", {}), dict):
            raise ConfigError(f"summary of video {video_id!r} must be an object")
    return data
