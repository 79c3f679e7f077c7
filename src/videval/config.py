"""Harness configuration: a single JSON document, secrets via env references.

Relative paths inside the config resolve against the config file's directory,
so a bundled demo runs from any working directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Annotated, Literal

from .benchmark import RequestKind, RunCondition
from .errors import ConfigError, SchemaError
from .knowledge_graph import LayoutParams
from .providers import ConditionTag, ProviderSettings, Transcript
from .schema import Text, _choice, _fill, _fill_or_default, _json, _number, _object, _object_of, _plain, _text
from .scoring import Annotation
from .templates import DEFAULT_MCQ_TEMPLATE, SUMMARY_PROMPT_PLAIN


def _conditions(value, what: str) -> list[RunCondition]:
    if not value or not isinstance(value, list):
        raise SchemaError(f"{what} must be a non-empty list, got {value!r}")
    conditions = []
    rows: dict[tuple, int] = {}  # the (model, GPU, label) of each condition's completeness row -> its index
    for i, entry in enumerate(value):
        tag = ConditionTag.from_dict(entry, f"condition {i}")
        if not entry.get("provider"):
            raise SchemaError(f"condition {i} is missing 'provider'")
        # records carry the tag, not the provider, so equal tags cannot be told apart
        if any(tag == seen.tag for seen in conditions):
            raise SchemaError(f"condition {i} repeats the tag of an earlier condition")
        # nor can two tags whose labels print alike (fps 0.1 and 0.1000001): one row would overwrite the other
        row = (tag.model_name, tag.gpu, tag.label())
        if row in rows:
            raise SchemaError(f"conditions {rows[row]} and {i} would share the completeness row {row[2]!r} "
                              f"of model {row[0]!r} on GPU {row[1]!r}")
        rows[row] = i
        conditions.append(RunCondition(tag, entry["provider"]))
    return conditions


@dataclass
class Templates:
    """A config's "templates" object: the one place that sets a prompt template."""

    mcq: Text = DEFAULT_MCQ_TEMPLATE
    summary: Text = SUMMARY_PROMPT_PLAIN


@dataclass
class HarnessConfig:
    """One config file, read by load_config; a key the file leaves out takes the default here.
    Each path is as the file gives it until load_config joins it to the file's directory."""

    dataset: Path
    providers: dict[str, ProviderSettings]
    conditions: Annotated[list[RunCondition], _conditions]
    cassette_dir: Path = Path("cassettes")
    out_dir: Path = Path("out")
    mode: Literal["replay", "live"] = "replay"
    request_kind: RequestKind = "mcq"
    templates: Annotated[Templates, partial(_fill_or_default, Templates)] = field(default_factory=Templates)
    transcripts: Path | None = None
    outputs: Path | None = None
    annotations: Path | None = None
    tolerance_s: int = 2
    keyframe_match_mode: Literal["any", "all"] = "any"
    layout: Annotated[LayoutParams, partial(_fill_or_default, LayoutParams)] = field(default_factory=LayoutParams)
    probe_command: str | None = None
    # the width of a live run's pool: its limit on calls in flight
    max_workers: Annotated[int, partial(_number, minimum=1)] = 4
    asr_provider: str | None = None


def _read_json_object(path: str | Path, what: str, read):
    """read(object, what) of the JSON file at path, whose top level must be an object; any failure is a
    ConfigError that names the file."""
    try:
        data = _json(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {path} is not readable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    try:
        return read(data, what)
    except SchemaError as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc


def load_config(path: str | Path) -> HarnessConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data = _read_json_object(config_path, "config", _object)
    try:
        config = _fill(HarnessConfig, data, "config")
        for name, value in _plain(config).items():
            if isinstance(value, Path):
                value = config_path.parent / value  # an absolute path replaces the directory
                setattr(config, name, value)
                if name not in ("cassette_dir", "out_dir") and not value.is_file():
                    raise ConfigError(f"config.{name} file not found: {value}")
        for i, condition in enumerate(config.conditions):
            _choice(*config.providers)(condition.provider, f"condition {i}.provider")
        _choice(None, *config.providers)(config.asr_provider, "config.asr_provider")
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc
    for name in ("question", "options"):  # the one check: no prompt render checks again
        if "{%s}" % name not in config.templates.mcq:
            raise ConfigError(f"templates.mcq: template is missing a {{{name}}} placeholder")
    return config


def load_transcripts(path: str | Path) -> dict[str, Transcript]:
    """Read stored transcripts keyed by video id, each read as an ASR payload is."""
    return _read_json_object(path, "transcripts", _object_of(partial(_fill, Transcript)))


def load_outputs(path: str | Path) -> dict[str, dict[str, str]]:
    """Read raw model outputs: {video_id: {model_name: raw_text}}."""
    return _read_json_object(path, "outputs", _object_of(_object_of(_text)))


def load_annotations(path: str | Path) -> dict[str, Annotation]:
    """Read ground-truth annotations, {video_id: {"keyframes": [[seconds, caption], ...], "summary":
    {model: true | false}}}, either key left out or not."""
    return _read_json_object(path, "annotations", _object_of(partial(_fill, Annotation)))
