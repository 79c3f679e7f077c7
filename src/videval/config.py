"""Harness configuration: a single JSON document, secrets via env references.

Relative paths inside the config resolve against the config file's directory,
so a bundled demo runs from any working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, MalformedProviderOutput
from .knowledge_graph import LayoutParams
from .providers import ConditionTag, ProviderSettings, Transcript, transcript_from_payload
from .templates import DEFAULT_MCQ_TEMPLATE, DEFAULT_REFINE_TEMPLATE, SUMMARY_PROMPT_PLAIN


@dataclass
class HarnessConfig:
    base_dir: Path
    dataset: Path
    cassette_dir: Path
    providers: dict[str, ProviderSettings]
    conditions: list[tuple[ConditionTag, str]]  # (tag, provider id)
    mode: str = "replay"
    request_kind: str = "mcq"
    mcq_template: str = DEFAULT_MCQ_TEMPLATE
    summary_template: str = SUMMARY_PROMPT_PLAIN
    refine_template: str = DEFAULT_REFINE_TEMPLATE
    transcripts: Path | None = None
    outputs: Path | None = None
    annotations: Path | None = None
    tolerance_s: int = 2
    keyframe_match_mode: str = "any"
    layout: LayoutParams = field(default_factory=LayoutParams)
    out_dir: Path = Path("out")
    probe_command: str | None = None
    max_workers: int = 4
    asr_provider: str | None = None


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


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
    data = _read_json_object(config_path, "config")
    base = config_path.parent

    if "dataset" not in data:
        raise ConfigError("config is missing 'dataset'")
    dataset = _resolve(base, data["dataset"])
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")

    providers = {
        name: ProviderSettings.from_dict(entry)
        for name, entry in (data.get("providers") or {}).items()
    }

    raw_conditions = data.get("conditions") or []
    if not raw_conditions:
        raise ConfigError("condition matrix must be non-empty")
    conditions = []
    for i, entry in enumerate(raw_conditions):
        provider = entry.get("provider")
        if not provider:
            raise ConfigError(f"condition {i} is missing 'provider'")
        if provider not in providers:
            raise ConfigError(f"condition {i} references unknown provider {provider!r}")
        try:
            tag = ConditionTag.from_dict(entry)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"condition {i} is malformed: {exc}") from exc
        # records carry the tag, not the provider, so equal tags cannot be told apart
        if any(tag == seen for seen, _ in conditions):
            raise ConfigError(f"condition {i} repeats the tag of an earlier condition")
        conditions.append((tag, provider))

    mode = data.get("mode", "replay")
    if mode not in ("replay", "live"):
        raise ConfigError(f"mode must be 'replay' or 'live', got {mode!r}")
    cassette_dir = _resolve(base, data.get("cassette_dir", "cassettes"))
    if mode == "replay" and not cassette_dir.is_dir():
        raise ConfigError(f"cassette directory not found: {cassette_dir}")

    optional_paths = {}
    for key in ("transcripts", "outputs", "annotations"):
        if data.get(key):
            resolved = _resolve(base, data[key])
            if not resolved.is_file():
                raise ConfigError(f"{key} file not found: {resolved}")
            optional_paths[key] = resolved
        else:
            optional_paths[key] = None

    templates = data.get("templates") or {}
    layout_raw = data.get("layout") or {}
    try:
        layout = LayoutParams(
            spacing=float(layout_raw.get("spacing", 1.0)),
            area=float(layout_raw.get("area", 1.0)),
            iterations=layout_raw.get("iterations"),
            seed=int(layout_raw.get("seed", 42)),
            initial_temperature=layout_raw.get("initial_temperature"),
            cooling=float(layout_raw.get("cooling", 0.95)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad layout params: {exc}") from exc

    max_workers = int(data.get("max_workers", 4))
    if max_workers < 1:
        raise ConfigError(f"max_workers must be at least 1, got {max_workers}")

    request_kind = data.get("request_kind", "mcq")
    if request_kind not in ("mcq", "summary_keyframes"):
        raise ConfigError(f"bad request_kind: {request_kind!r}")

    return HarnessConfig(
        base_dir=base,
        dataset=dataset,
        cassette_dir=cassette_dir,
        providers=providers,
        conditions=conditions,
        mode=mode,
        request_kind=request_kind,
        mcq_template=templates.get("mcq", DEFAULT_MCQ_TEMPLATE),
        summary_template=templates.get("summary", SUMMARY_PROMPT_PLAIN),
        refine_template=templates.get("refine", DEFAULT_REFINE_TEMPLATE),
        transcripts=optional_paths["transcripts"],
        outputs=optional_paths["outputs"],
        annotations=optional_paths["annotations"],
        tolerance_s=int(data.get("tolerance_s", 2)),
        keyframe_match_mode=data.get("keyframe_match_mode", "any"),
        layout=layout,
        out_dir=_resolve(base, data.get("out_dir", "out")),
        probe_command=data.get("probe_command"),
        max_workers=max_workers,
        asr_provider=data.get("asr_provider"),
    )


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
