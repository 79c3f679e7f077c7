"""Command-line entry point: ingest, transcribe, evaluate, graph, report.

Exit codes: 0 success, 2 config error, 3 empty or invalid inputs, 4 provider
hard failure in live mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
    MissingCondition,
    NoValidOutputs,
    ProbeFailure,
    ProviderUnavailable,
    SchemaError,
    UnsupportedFormat,
)
from .parsing import parse_video_output
from .providers import CassetteStore, ProviderHub

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_PROVIDER = 4


@dataclass
class ReportBundle:
    score_report: scoring.ScoreReport | None
    graph_metrics: dict[str, dict] = field(default_factory=dict)
    matching_scores: dict[str, dict] = field(default_factory=dict)
    manifest_path: str | None = None
    emitted: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "score_report": (
                reports.report_to_json(self.score_report) if self.score_report else None
            ),
            "graph_metrics": self.graph_metrics,
            "matching_scores": self.matching_scores,
            "manifest": self.manifest_path,
            "emitted": sorted(self.emitted),
        }


def _dump_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def cmd_ingest(args) -> int:
    probe_cmd = media.DEFAULT_PROBE_CMD
    if args.config:
        probe_cmd = load_config(args.config).probe_command or probe_cmd
    tool = media.MediaToolRunner(probe_cmd=probe_cmd)

    assets = []
    for path in _walk_media_files(args.paths):
        if not media.is_supported(path):
            continue
        try:
            assets.append(media.probe(path, tool))
        except (ProbeFailure, UnsupportedFormat) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)

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
        "assets": [
            {
                "path": a.path,
                "kind": a.kind,
                "container": a.container,
                "duration_s": a.duration_s,
                "has_audio_stream": a.has_audio_stream,
                "width_px": a.width_px,
                "height_px": a.height_px,
            }
            for a in assets
        ],
        "histogram": {"containers": containers, "durations": durations},
    }
    out_path = Path(args.out or "inventory.json")
    _dump_json(out_path, inventory)

    print(f"{len(assets)} usable assets -> {out_path}")
    for tag in sorted(containers):
        print(f"  {tag}: {containers[tag]}")
    for bucket in ("short", "medium", "long"):
        if bucket in durations:
            print(f"  {bucket}: {durations[bucket]}")
    return EXIT_OK


# --- transcribe --------------------------------------------------------------


def cmd_transcribe(args) -> int:
    config = load_config(args.config)
    mode = args.mode or config.mode
    if not config.asr_provider:
        raise ConfigError("config has no 'asr_provider' for the transcribe command")
    tool = media.MediaToolRunner(probe_cmd=config.probe_command or media.DEFAULT_PROBE_CMD)
    hub = ProviderHub(config.providers, CassetteStore(config.cassette_dir), mode=mode)

    transcripts: dict[str, dict] = {}
    for path in _walk_media_files(args.paths):
        if not media.is_supported(path):
            continue
        try:
            asset = media.probe(path, tool)
        except (ProbeFailure, UnsupportedFormat) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        if asset.kind != "audio" and not asset.has_audio_stream:
            print(f"skipping {path}: no audio stream", file=sys.stderr)
            continue
        transcript = hub.transcribe(asset, config.asr_provider)
        transcripts[Path(path).stem] = {
            "segments": [
                {"id": s.id, "start": s.start_s, "end": s.end_s, "text": s.text}
                for s in transcript.segments
            ],
            "text": transcript.full_text,
            "language": transcript.language,
        }

    if not transcripts:
        print("0 transcribable assets", file=sys.stderr)
        return EXIT_EMPTY
    out_path = Path(args.out or "transcripts.json")
    _dump_json(out_path, transcripts)
    print(f"{len(transcripts)} transcripts -> {out_path}")
    return EXIT_OK


# --- evaluate / report -------------------------------------------------------


def _filter_conditions(config: HarnessConfig, expr: str | None):
    pairs = config.conditions
    if not expr:
        return pairs
    selected = []
    tokens = [token.strip() for token in expr.split(",") if token.strip()]
    for token in tokens:
        if token.isdigit():
            idx = int(token)
            if idx >= len(pairs):
                raise ConfigError(f"condition index {idx} out of range")
            selected.append(pairs[idx])
        else:
            matches = [p for p in pairs if token.lower() in p[0].label().lower()]
            if not matches:
                raise ConfigError(f"no condition matches {token!r}")
            selected.extend(matches)
    deduped = []
    for pair in selected:
        if pair not in deduped:
            deduped.append(pair)
    return deduped


def _graph_outputs(config: HarnessConfig, outputs_path: Path, out_dir: Path, bundle: ReportBundle):
    raw_outputs = load_outputs(outputs_path)
    annotations = load_annotations(config.annotations) if config.annotations else {}

    graphs_dir = out_dir / "graphs"
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
        dot_path = graphs_dir / f"{video_id}.dot"
        json_path = graphs_dir / f"{video_id}.json"
        graphs_dir.mkdir(parents=True, exist_ok=True)
        kg.export_graph(graph, positions, str(dot_path), str(json_path))
        metrics = kg.graph_metrics(graph, positions)
        bundle.graph_metrics[video_id] = {
            "node_count": metrics.node_count,
            "mean_pairwise_distance": metrics.mean_pairwise_distance,
            "distances_to_center": dict(sorted(metrics.distances_to_center.items())),
            "unreachable": sorted(metrics.unreachable),
        }
        bundle.emitted.extend([f"graphs/{video_id}.dot", f"graphs/{video_id}.json"])

    if not parsed_by_video:
        raise NoValidOutputs(f"no valid model outputs in {outputs_path}")

    _dump_json(out_dir / "graph_metrics.json", bundle.graph_metrics)
    bundle.emitted.append("graph_metrics.json")

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
        _dump_json(out_dir / "matching_scores.json", bundle.matching_scores)
        bundle.emitted.append("matching_scores.json")


def _score_and_emit(
    config: HarnessConfig,
    items,
    manifest: bench.RunManifest,
    out_dir: Path,
    bundle: ReportBundle,
) -> None:
    try:
        report = scoring.aggregate(items, manifest.records)
    except MissingCondition:
        report = scoring.ScoreReport(
            overall_accuracy=0.0,
            completeness=scoring.completeness_by_condition(manifest.records),
            warnings=["records cover a single transcript condition; delta tables skipped"],
        )
    written = reports.write_report_tables(report, out_dir)
    bundle.score_report = report
    bundle.emitted.extend(written)


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    mode = args.mode or config.mode
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir
    conditions = _filter_conditions(config, args.conditions)

    items = bench.load_dataset(config.dataset)
    if not items:
        print("dataset has no items", file=sys.stderr)
        return EXIT_EMPTY
    transcripts = load_transcripts(config.transcripts) if config.transcripts else {}

    hub = ProviderHub(
        config.providers,
        CassetteStore(config.cassette_dir),
        mode=mode,
        max_in_flight=config.max_workers,
    )
    plan = bench.RunPlan(
        dataset_path=str(config.dataset),
        items=items,
        conditions=[bench.RunCondition(tag, provider) for tag, provider in conditions],
        request_kind=config.request_kind,
        mcq_template=config.mcq_template,
        summary_template=config.summary_template,
        transcripts=transcripts,
    )
    manifest = bench.run_benchmark(plan, hub)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    manifest_path.write_text(manifest.to_jsonl(), encoding="utf-8")

    bundle = ReportBundle(score_report=None, manifest_path=manifest_path.name)
    bundle.emitted.append(manifest_path.name)
    _score_and_emit(config, items, manifest, out_dir, bundle)
    if config.outputs:
        _graph_outputs(config, config.outputs, out_dir, bundle)
    _dump_json(out_dir / "bundle.json", bundle.to_dict())

    print(f"{len(manifest.records)} records -> {manifest_path}")
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
    _dump_json(out_dir / "bundle.json", bundle.to_dict())
    print(f"{len(bundle.graph_metrics)} graph(s) -> {out_dir / 'graphs'}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = load_config(args.config)
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise ConfigError(f"manifest not found: {manifest_path}")
    manifest = bench.RunManifest.from_jsonl(manifest_path.read_text(encoding="utf-8"))
    items = bench.load_dataset(config.dataset)
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir

    bundle = ReportBundle(score_report=None, manifest_path=manifest_path.name)
    _score_and_emit(config, items, manifest, out_dir, bundle)
    _dump_json(out_dir / "bundle.json", bundle.to_dict())
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
