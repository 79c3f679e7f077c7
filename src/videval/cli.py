"""Command-line entry point: ingest, transcribe, evaluate, graph, report.

Exit codes: 0 success, 1 a harness error (an output file that cannot be
written, say), 2 config error, 3 empty or invalid inputs, 4 provider hard
failure in live mode.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import benchmark as bench
from . import knowledge_graph as kg
from . import media, reports, scoring
from .config import (
    HarnessConfig,
    load_annotations,
    load_config,
    load_outputs,
    load_transcripts,
)
from .errors import (
    ConfigError,
    EmptyVector,
    HarnessError,
    IoError,
    MalformedProviderOutput,
    NoValidOutputs,
    ProbeFailure,
    ProviderUnavailable,
    SchemaError,
    UnsupportedFormat,
)
from .parsing import parse_video_output
from .providers import CassetteStore, ProviderHub
from .schema import _plain, _pretty_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_PROVIDER = 4


@dataclass
class ReportBundle:
    score_report: scoring.ScoreReport | None
    graph_metrics: dict[str, dict] = field(default_factory=dict)
    matching_scores: dict[str, dict] = field(default_factory=dict)
    manifest: str | None = None  # the manifest's file name
    emitted: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        score_report = reports.report_to_json(self.score_report) if self.score_report else None
        return {**_plain(self), "score_report": score_report, "emitted": sorted(self.emitted)}


def _write(path: Path, text: str) -> None:
    """Write one output file as UTF-8, making its directory; an OSError is an IoError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _emit(out_dir: Path, bundle: ReportBundle, name: str, text: str) -> None:
    """Write the artifact name (a path under out_dir) and list it in the bundle."""
    _write(out_dir / name, text)
    bundle.emitted.append(name)


# --- ingest ----------------------------------------------------------------


def _walk_media_files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        elif p.is_file():
            found.append(p)
    return found


def _duration_bucket(duration_s: float) -> str:
    if duration_s <= 120:
        return "short"
    if duration_s <= 900:
        return "medium"
    return "long"


def _probed_assets(paths: list[str], tool: media.MediaToolRunner):
    """Yield the probed asset of each supported file; report and skip those that fail."""
    for path in _walk_media_files(paths):
        if not media.is_supported(path):
            continue
        try:
            asset = media.probe(path, tool)
        except (ProbeFailure, UnsupportedFormat) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        yield asset


def cmd_ingest(args) -> int:
    probe_cmd = media.DEFAULT_PROBE_CMD
    if args.config:
        probe_cmd = load_config(args.config).probe_command or probe_cmd
    assets = list(_probed_assets(args.paths, media.MediaToolRunner(probe_cmd=probe_cmd)))

    if not assets:
        print("0 usable assets", file=sys.stderr)
        return EXIT_EMPTY

    containers: dict[str, int] = {}
    durations: dict[str, int] = {}
    for asset in assets:
        containers[asset.container] = containers.get(asset.container, 0) + 1
        bucket = _duration_bucket(asset.duration_s)
        durations[bucket] = durations.get(bucket, 0) + 1

    inventory = {
        "assets": [asdict(asset) for asset in assets],
        "histogram": {"containers": containers, "durations": durations},
    }
    out_path = Path(args.out or "inventory.json")
    _write(out_path, _pretty_json(inventory))

    print(f"{len(assets)} usable assets -> {out_path}")
    for tag in sorted(containers):
        print(f"  {tag}: {containers[tag]}")
    for bucket in bench.DURATION_CLASSES:
        if bucket in durations:
            print(f"  {bucket}: {durations[bucket]}")
    return EXIT_OK


# --- transcribe --------------------------------------------------------------


def _report_dropped(store: CassetteStore) -> None:
    if store.dropped:
        print(f"{store.dropped} cassette lines dropped (cut off, or no key to read)", file=sys.stderr)


def _hub(config: HarnessConfig, args) -> ProviderHub:
    """The hub of evaluate and transcribe, in the mode --replay/--live sets or else the config's.

    Replay reads the cassette directory, so it must exist; a live run's first answer makes it.
    """
    mode = args.mode or config.mode
    if mode == "replay" and not config.cassette_dir.is_dir():
        raise ConfigError(f"cassette directory not found: {config.cassette_dir}")
    store = CassetteStore(config.cassette_dir)
    return ProviderHub(config.providers, store, mode=mode)


def cmd_transcribe(args) -> int:
    config = load_config(args.config)
    if not config.asr_provider:
        raise ConfigError("config has no 'asr_provider' for the transcribe command")
    tool = media.MediaToolRunner(probe_cmd=config.probe_command or media.DEFAULT_PROBE_CMD)
    hub = _hub(config, args)

    transcripts: dict[str, dict] = {}
    holders: dict[str, str] = {}  # transcript id (a file stem) -> the file it was made from
    try:
        for asset in _probed_assets(args.paths, tool):
            if asset.kind != "audio" and not asset.has_audio_stream:
                print(f"skipping {asset.path}: no audio stream", file=sys.stderr)
                continue
            stem = Path(asset.path).stem
            if stem in holders:  # checked before the call, which a live run pays for
                holder = holders[stem]
                print(f"skipping {asset.path}: {holder} already has the transcript id {stem!r}", file=sys.stderr)
                continue
            try:
                transcript = hub.transcribe(asset, config.asr_provider)
            except MalformedProviderOutput as exc:  # an answer that is not a transcript
                print(f"skipping {asset.path}: {exc}", file=sys.stderr)
                continue
            holders[stem] = asset.path
            transcripts[stem] = {
                "segments": [_plain(segment) for segment in transcript.segments],
                "text": transcript.full_text,
                "language": transcript.language,
            }
    finally:  # a replay miss stops the command, and a dropped line may be why
        _report_dropped(hub.store)

    if not transcripts:
        print("0 transcribable assets", file=sys.stderr)
        return EXIT_EMPTY
    out_path = Path(args.out or "transcripts.json")
    _write(out_path, _pretty_json(transcripts))
    print(f"{len(transcripts)} transcripts -> {out_path}")
    return EXIT_OK


# --- evaluate / report -------------------------------------------------------


def _filter_conditions(config: HarnessConfig, expr: str | None) -> list[bench.RunCondition]:
    conditions = config.conditions
    if not expr:
        return conditions
    selected = []
    tokens = [token.strip() for token in expr.split(",") if token.strip()]
    for token in tokens:
        if token.isdigit():
            idx = int(token)
            if idx >= len(conditions):
                raise ConfigError(f"condition index {idx} out of range")
            selected.append(conditions[idx])
        else:
            matches = [c for c in conditions if token.lower() in c.tag.label().lower()]
            if not matches:
                raise ConfigError(f"no condition matches {token!r}")
            selected.extend(matches)
    return list(dict.fromkeys(selected))


def _graph_outputs(config: HarnessConfig, outputs_path: Path, out_dir: Path, bundle: ReportBundle):
    raw_outputs = load_outputs(outputs_path)
    annotations = load_annotations(config.annotations) if config.annotations else {}

    parsed_by_video: dict[str, dict] = {}
    for video_id in sorted(raw_outputs):
        parsed = {
            model: parse_video_output(text)
            for model, text in raw_outputs[video_id].items()
        }
        valid = {m: p for m, p in parsed.items() if p.valid}
        if not valid:
            print(f"no valid outputs for video {video_id}", file=sys.stderr)
            continue
        parsed_by_video[video_id] = valid
        graph = kg.build_comparison_graph(valid)
        positions = kg.fr_layout(graph, config.layout)
        _emit(out_dir, bundle, f"graphs/{video_id}.dot", kg.export_dot(graph, positions))
        _emit(out_dir, bundle, f"graphs/{video_id}.json", kg.export_json(graph, positions))
        metrics = _plain(kg.graph_metrics(graph, positions))
        metrics["unreachable"] = sorted(metrics["unreachable"])
        bundle.graph_metrics[video_id] = metrics

    if not parsed_by_video:
        raise NoValidOutputs(f"no valid model outputs in {outputs_path}")

    _emit(out_dir, bundle, "graph_metrics.json", _pretty_json(bundle.graph_metrics))

    if annotations:
        models = sorted({m for v in parsed_by_video.values() for m in v})
        for model in models:
            outputs_for_model = {
                vid: parsed[model]
                for vid, parsed in sorted(parsed_by_video.items())
                if model in parsed
            }
            entry: dict[str, dict] = {}
            for scenario in ("keyframe", "summary"):
                vector = scoring.build_match_vector(
                    scenario,
                    outputs_for_model,
                    annotations,
                    tolerance_s=config.tolerance_s,
                    mode=config.keyframe_match_mode,
                    model=model,
                )
                try:
                    score = scoring.matching_node_score(vector)
                except EmptyVector:
                    score = None
                entry[scenario] = {"score": score, "n": len(vector.matches)}
            bundle.matching_scores[model] = entry
        _emit(out_dir, bundle, "matching_scores.json", _pretty_json(bundle.matching_scores))


def _score_and_emit(items, manifest: bench.RunManifest, out_dir: Path, bundle: ReportBundle) -> None:
    bundle.score_report = scoring.aggregate(items, manifest.records)
    for name, text in reports.report_files(bundle.score_report).items():
        _emit(out_dir, bundle, name, text)


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir
    conditions = _filter_conditions(config, args.conditions)
    hub = _hub(config, args)

    items = bench.load_dataset(config.dataset)
    if not items:
        print("dataset has no items", file=sys.stderr)
        return EXIT_EMPTY
    transcripts = load_transcripts(config.transcripts) if config.transcripts else {}

    plan = bench.RunPlan(
        dataset_path=str(config.dataset),
        items=items,
        conditions=conditions,
        request_kind=config.request_kind,
        mcq_template=config.mcq_template,
        summary_template=config.summary_template,
        transcripts=transcripts,
        max_workers=config.max_workers,
    )
    manifest = bench.run_benchmark(plan, hub)
    _report_dropped(hub.store)
    mode = hub.mode
    del hub  # the index of every recorded answer is not needed past the run

    bundle = ReportBundle(score_report=None, manifest="manifest.jsonl")
    _emit(out_dir, bundle, bundle.manifest, manifest.to_jsonl())
    _score_and_emit(items, manifest, out_dir, bundle)
    if config.outputs:
        _graph_outputs(config, config.outputs, out_dir, bundle)
    _write(out_dir / "bundle.json", _pretty_json(bundle.to_dict()))

    print(f"{len(manifest.records)} records -> {out_dir / bundle.manifest}")
    print(f"tables and exports -> {out_dir}")

    if (
        mode == "live"
        and manifest.records
        and all(r.error for r in manifest.records)
        and any("ProviderUnavailable" in (r.error or "") for r in manifest.records)
    ):
        print("provider hard failure: every live call failed", file=sys.stderr)
        return EXIT_PROVIDER
    return EXIT_OK


def cmd_graph(args) -> int:
    config = load_config(args.config)
    if args.tolerance_s is not None:
        if args.tolerance_s < 0:
            raise ConfigError(f"--tolerance-s must be at least 0, got {args.tolerance_s}")
        config.tolerance_s = args.tolerance_s
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        config.layout.seed = args.seed
    outputs_path = Path(args.outputs) if args.outputs else config.outputs
    if not outputs_path or not Path(outputs_path).is_file():
        raise ConfigError("graph command needs an outputs file (--outputs or config)")
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir

    bundle = ReportBundle(score_report=None)
    _graph_outputs(config, Path(outputs_path), out_dir, bundle)
    _write(out_dir / "bundle.json", _pretty_json(bundle.to_dict()))
    print(f"{len(bundle.graph_metrics)} graph(s) -> {out_dir / 'graphs'}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = load_config(args.config)
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise ConfigError(f"manifest not found: {manifest_path}")
    # as bytes, so that a byte that is not UTF-8 is reported with its line
    manifest = bench.RunManifest.from_jsonl(manifest_path.read_bytes())
    items = bench.load_dataset(config.dataset)
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir

    bundle = ReportBundle(score_report=None, manifest=manifest_path.name)
    _score_and_emit(items, manifest, out_dir, bundle)
    _write(out_dir / "bundle.json", _pretty_json(bundle.to_dict()))
    print(f"tables -> {out_dir}")
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videval",
        description="Long-video model evaluation harness (replay-first).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="probe media files into an inventory")
    p_ingest.add_argument("paths", nargs="+")
    p_ingest.add_argument("--config")
    p_ingest.add_argument("--out")
    p_ingest.set_defaults(func=cmd_ingest)

    p_tr = sub.add_parser("transcribe", help="run ASR over media files")
    p_tr.add_argument("paths", nargs="+")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--out")
    _add_mode_flags(p_tr)
    p_tr.set_defaults(func=cmd_transcribe)

    p_eval = sub.add_parser("evaluate", help="run the benchmark and emit reports")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--conditions", help="comma-separated indices or label substrings")
    p_eval.add_argument("--out-dir")
    _add_mode_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_graph = sub.add_parser("graph", help="build comparison graphs from model outputs")
    p_graph.add_argument("--config", required=True)
    p_graph.add_argument("--outputs")
    p_graph.add_argument("--out-dir")
    p_graph.add_argument("--tolerance-s", type=int, dest="tolerance_s")
    p_graph.add_argument("--seed", type=int)
    p_graph.set_defaults(func=cmd_graph)

    p_rep = sub.add_parser("report", help="re-emit tables from an existing manifest")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--manifest", required=True)
    p_rep.add_argument("--out-dir")
    p_rep.set_defaults(func=cmd_report)

    return parser


def _add_mode_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--replay", dest="mode", action="store_const", const="replay", default=None
    )
    group.add_argument("--live", dest="mode", action="store_const", const="live")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, NoValidOutputs) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except ProviderUnavailable as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
