"""Harness configuration: a single JSON document, secrets via env references.

Relative paths inside the config resolve against the config file's directory,
so a bundled demo runs from any working directory.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from functools import partial
from pathlib import Path

from .benchmark import REQUEST_KINDS, RunCondition
from .errors import ConfigError, SchemaError
from .knowledge_graph import LayoutParams
from .providers import TRANSCRIPT_READERS, ConditionTag, ModelResponse, ProviderSettings, Transcript
from .schema import (_boolean, _choice, _fill, _json, _keyframe_texts, _number, _object, _object_of, _string, _strings,
                     _text)
from .scoring import Annotation
from .templates import DEFAULT_MCQ_TEMPLATE, SUMMARY_PROMPT_PLAIN


@dataclass
class HarnessConfig:
    """One config file, read by load_config; a key the file leaves out takes the default here."""

    dataset: Path
    cassette_dir: Path
    out_dir: Path
    providers: dict[str, ProviderSettings]
    conditions: list[RunCondition]
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
    max_workers: int = 4  # the width of a live run's pool: its limit on calls in flight
    asr_provider: str | None = None


# the statuses an error reply can be classified as: every answer status but ok
_error_status = _choice(*(status for status in ModelResponse.STATUSES if status != "ok"))


def _error_patterns(value, what: str) -> dict[str, list[str]]:
    given = _object(value or {}, what)
    return {
        _error_status(status, f"{what} key"): _strings(texts, f"{what}.{status}")
        for status, texts in given.items()
    }


def _providers(value, what: str) -> dict[str, ProviderSettings]:
    return {
        name: _fill(ProviderSettings, entry, f"provider {name!r}", {"error_patterns": _error_patterns})
        for name, entry in _object(value, what).items()
    }


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
    base = config_path.parent

    def path_in_base(value, what: str) -> Path:
        return base / _string(value, what)  # an absolute path replaces base

    def file_in_base(value, what: str) -> Path:
        resolved = path_in_base(value, what)
        if not resolved.is_file():
            raise SchemaError(f"{what} file not found: {resolved}")
        return resolved

    readers = {
        "dataset": file_in_base,
        "cassette_dir": path_in_base,
        "out_dir": path_in_base,
        "providers": _providers,
        "conditions": _conditions,
        "mode": _choice("replay", "live"),
        "request_kind": _choice(*REQUEST_KINDS),
        "transcripts": file_in_base,
        "outputs": file_in_base,
        "annotations": file_in_base,
        "keyframe_match_mode": _choice("any", "all"),
        "layout": lambda value, what: _fill(LayoutParams, value or {}, what, {}),
        "max_workers": partial(_number, minimum=1),
        "mcq_template": lambda value, _what: _text(value, "templates.mcq"),
        "summary_template": lambda value, _what: _text(value, "templates.summary"),
    }
    # both directories default to a name in the config file's directory
    data = {"cassette_dir": "cassettes", "out_dir": "out", **_read_json_object(config_path, "config", _object)}
    try:
        templates = _object(data.get("templates") or {}, "templates")
        # the templates object alone sets them (MISSING keeps the default); top-level keys are ignored
        data.update({f"{key}_template": templates.get(key, MISSING) for key in ("mcq", "summary")})
        config = _fill(HarnessConfig, data, "config", readers)
        for i, condition in enumerate(config.conditions):
            _choice(*config.providers)(condition.provider, f"condition {i}.provider")
        _choice(None, *config.providers)(config.asr_provider, "config.asr_provider")
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc
    for name in ("question", "options"):  # the one check: no prompt render checks again
        if "{%s}" % name not in config.mcq_template:
            raise ConfigError(f"templates.mcq: template is missing a {{{name}}} placeholder")
    return config


def load_transcripts(path: str | Path) -> dict[str, Transcript]:
    """Read stored transcripts keyed by video id, each read as an ASR payload is."""
    return _read_json_object(path, "transcripts", _object_of(partial(_fill, Transcript, readers=TRANSCRIPT_READERS)))


def load_outputs(path: str | Path) -> dict[str, dict[str, str]]:
    """Read raw model outputs: {video_id: {model_name: raw_text}}."""
    return _read_json_object(path, "outputs", _object_of(_object_of(_text)))


ANNOTATION_READERS = {"keyframes": _keyframe_texts, "summary": _object_of(_boolean)}  # "false" would count as a match


def load_annotations(path: str | Path) -> dict[str, Annotation]:
    """Read ground-truth annotations, {video_id: {"keyframes": [[seconds, caption], ...], "summary":
    {model: true | false}}}, either key left out or not."""
    return _read_json_object(path, "annotations", _object_of(partial(_fill, Annotation, readers=ANNOTATION_READERS)))
