"""Command-line entry point: ingest, transcribe, evaluate, graph, report.

Exit codes: 0 success, 1 a harness error (an output file that cannot be
written, say), 2 config error, 3 empty or invalid inputs, 4 provider hard
failure in live mode.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import partial
from itertools import chain
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


def _write(path: Path, chunks) -> None:
    """Write one output file, the text chunks in order, as UTF-8, making its directory. The text goes
    to <name>.tmp beside it, which then replaces it, so a reader sees the old file or the whole new one;
    a failed write removes the .tmp, and an OSError or a text UTF-8 cannot encode is an IoError. A caller
    with one text passes (text,): writelines on a str writes a character at a time."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except (OSError, UnicodeEncodeError) as exc:  # a lone surrogate in a dataset's text, say
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:  # the .tmp is gone after the replace; unlink(missing_ok=True) raises when the parent is a file
        with contextlib.suppress(OSError):
            tmp.unlink()


def _remove_bundle(out_dir: Path) -> None:
    """Remove out_dir's bundle.json, before a command's first write: it would name another run's files beside this run's."""
    bundle = out_dir / "bundle.json"
    try:
        bundle.unlink(missing_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {bundle}: {exc}") from exc


def _emit(out_dir: Path, emitted: list[str], name: str, chunks) -> None:
    """Write the artifact name (a path under out_dir), the text chunks in order, and add name to emitted."""
    if not emitted:
        _remove_bundle(out_dir)
    _write(out_dir / name, chunks)
    emitted.append(name)


def _write_bundle(out_dir: Path, emitted: list[str], manifest: str | None) -> None:
    """Write bundle.json, the index of a command's output: the names it emitted, and the manifest it wrote or None."""
    _write(out_dir / "bundle.json", (_pretty_json({"emitted": sorted(emitted), "manifest": manifest}),))


# --- ingest ----------------------------------------------------------------


def _walk_media_files(paths: list[str]) -> list[Path]:
    """Every file the paths name or hold, each directory's in sorted order.

    A file reached twice (named twice, or inside two of the paths) is listed
    once, where it is first reached and spelled as it was given there.
    """
    found: dict[Path, Path] = {}  # resolved path -> the path as first given
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files = sorted(q for q in p.rglob("*") if q.is_file())
        elif p.is_file():
            files = [p]
        else:
            continue
        for q in files:
            found.setdefault(q.resolve(), q)
    return list(found.values())


def _duration_bucket(duration_s: float) -> str:
    if duration_s <= 120:
        return "short"
    if duration_s <= 900:
        return "medium"
    return "long"


def _probed_assets(paths: list[str], tool: media.MediaToolRunner, max_workers: int):
    """Yield the probed asset of each supported file; report and skip those that fail.

    Files are probed through bench.in_order, max_workers threads wide, and taken
    in walk order, so the assets and the `skipping` lines come out as a serial
    loop gives them. Closing the generator (the caller stopped early) closes the pool.
    """
    files = (path for path in _walk_media_files(paths) if media.is_supported(path))
    # media.probe is looked up at each call, so a wrapper set on the module sees every probe
    with contextlib.closing(bench.in_order(lambda path: media.probe(path, tool), files, max_workers)) as probes:
        for path, probed in probes:
            try:
                asset = probed.result()
            except (ProbeFailure, UnsupportedFormat) as exc:
                print(f"skipping {path}: {exc}", file=sys.stderr)
                continue
            yield asset


def cmd_ingest(args) -> int:
    probe_cmd, max_workers = media.DEFAULT_PROBE_CMD, HarnessConfig.max_workers  # the config's defaults
    if args.config:
        config = load_config(args.config)
        probe_cmd, max_workers = config.probe_command or probe_cmd, config.max_workers
    assets = list(_probed_assets(args.paths, media.MediaToolRunner(probe_cmd=probe_cmd), max_workers))

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
        "assets": [_plain(asset) for asset in assets],
        "histogram": {"containers": containers, "durations": durations},
    }
    out_path = Path(args.out or "inventory.json")
    _write(out_path, (_pretty_json(inventory),))

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

    Replay reads the cassette directory, so it must exist; a live run makes it here, before its first
    request, so that a path where no directory can be made costs no call whose answer is then lost.
    """
    mode = args.mode or config.mode
    if mode == "replay" and not config.cassette_dir.is_dir():
        raise ConfigError(f"cassette directory not found: {config.cassette_dir}")
    if mode == "live":
        try:
            config.cassette_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a regular file, or a path under one
            raise ConfigError(f"cannot make cassette directory {config.cassette_dir}: {exc}") from exc
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
    assets = _probed_assets(args.paths, tool, config.max_workers)
    try:
        for asset in assets:
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
        assets.close()  # stops the probing too
        _report_dropped(hub.store)

    if not transcripts:
        print("0 transcribable assets", file=sys.stderr)
        return EXIT_EMPTY
    out_path = Path(args.out or "transcripts.json")
    _write(out_path, (_pretty_json(transcripts),))
    print(f"{len(transcripts)} transcripts -> {out_path}")
    return EXIT_OK


# --- evaluate / report -------------------------------------------------------


def _filter_conditions(config: HarnessConfig, expr: str | None) -> list[bench.RunCondition]:
    conditions = config.conditions
    if not expr:
        return conditions
    selected = []
    tokens = [token.strip() for token in expr.split(",") if token.strip()]
    if not tokens:  # a run of no condition would write a manifest no config can hold
        raise ConfigError(f"--conditions {expr!r} names no condition")
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


def _read_outputs(config: HarnessConfig, outputs_path: Path) -> tuple[dict, dict]:
    """Read and check the outputs file and the annotations, before anything is sent or written.

    Returns each video's valid parsed outputs and its comparison graph, in video
    id order, and the annotations. An outputs file with no valid output is
    NoValidOutputs, and two model names that give one node id DuplicateModelName.
    """
    raw_outputs = load_outputs(outputs_path)
    annotations = load_annotations(config.annotations) if config.annotations else {}

    videos: dict[str, tuple[dict, kg.EvalGraph]] = {}
    for video_id in sorted(raw_outputs):
        parsed = {model: parse_video_output(text) for model, text in raw_outputs[video_id].items()}
        valid = {m: p for m, p in parsed.items() if p.valid}
        if not valid:
            print(f"no valid outputs for video {video_id}", file=sys.stderr)
            continue
        videos[video_id] = valid, kg.build_comparison_graph(valid)

    if not videos:
        raise NoValidOutputs(f"no valid model outputs in {outputs_path}")
    return videos, annotations


def _graph_outputs(config: HarnessConfig, videos: dict, annotations: dict, out_dir: Path, emitted: list[str]) -> None:
    """Lay out and emit each video's graph, then the graph metrics and any matching scores."""
    graph_metrics: dict[str, dict] = {}
    for video_id, (_, graph) in videos.items():
        positions = kg.fr_layout(graph, config.layout)
        _emit(out_dir, emitted, f"graphs/{video_id}.dot", (kg.export_dot(graph, positions),))
        _emit(out_dir, emitted, f"graphs/{video_id}.json", (kg.export_json(graph, positions),))
        metrics = _plain(kg.graph_metrics(graph, positions))
        metrics["unreachable"] = sorted(metrics["unreachable"])
        graph_metrics[video_id] = metrics

    _emit(out_dir, emitted, "graph_metrics.json", (_pretty_json(graph_metrics),))

    if annotations:
        models = sorted({m for valid, _ in videos.values() for m in valid})
        matching_scores: dict[str, dict] = {}
        for model in models:
            outputs_for_model = {vid: valid[model] for vid, (valid, _) in videos.items() if model in valid}
            entry: dict[str, dict] = {}
            for scenario in ("keyframe", "summary"):
                matches = scoring.build_match_vector(
                    scenario,
                    outputs_for_model,
                    annotations,
                    tolerance_s=config.tolerance_s,
                    mode=config.keyframe_match_mode,
                    model=model,
                )
                entry[scenario] = {"score": scoring.matching_node_score(matches), "n": len(matches)}
            matching_scores[model] = entry
        _emit(out_dir, emitted, "matching_scores.json", (_pretty_json(matching_scores),))


def _emit_tables(scores: scoring.ScoreReport, out_dir: Path, emitted: list[str]) -> None:
    for name, text in reports.report_files(scores).items():
        _emit(out_dir, emitted, name, (text,))


class _Spools:
    """evaluate's sink: each record's line goes to manifest.jsonl.<c>.tmp in the out dir, the spool of its
    condition c, and the record into the score fold, so the run holds no record. run_benchmark hands the
    records in cell order, each item's in condition order, so the n-th is of condition n % width (a count,
    where a lookup would hash the tag). Entering removes the out dir's bundle.json and makes the spools, one
    open file per condition, before the run's first request; lines() reads them back in condition order,
    the manifest's; leaving removes them. An OSError is an IoError.
    """

    def __init__(self, out_dir: Path, conditions: list[bench.RunCondition], items: list[bench.BenchmarkItem]):
        self.out_dir, self.tally = out_dir, scoring.Tally(items)
        self.paths = [out_dir / f"manifest.jsonl.{c}.tmp" for c in range(len(conditions))]
        self.files: list = []
        self.records = self.failed = self.unavailable = 0  # records, those with an error, a ProviderUnavailable

    def __enter__(self) -> "_Spools":
        _remove_bundle(self.out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for path in self.paths:
                self.files.append(open(path, "w+", encoding="utf-8"))
        except OSError as exc:
            self.__exit__()
            raise IoError(f"cannot write {self.paths[len(self.files)]}: {exc}") from exc
        return self

    def __exit__(self, *exc) -> None:
        for fh, path in zip(self.files, self.paths):
            with contextlib.suppress(OSError):  # a flush that fails on a full disk: the spool goes either way
                fh.close()
            with contextlib.suppress(OSError):
                path.unlink()

    def __call__(self, record: bench.RunRecord) -> None:
        c = self.records % len(self.paths)
        try:
            self.write(c, record.to_json() + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {self.paths[c]}: {exc}") from exc
        self.tally.add(record)
        self.records += 1
        if record.error:
            self.failed += 1
            self.unavailable += "ProviderUnavailable" in record.error

    def write(self, c: int, line: str) -> None:
        self.files[c].write(line)

    def lines(self):
        for fh in self.files:
            fh.seek(0)
            yield from iter(partial(fh.read, 1 << 16), "")


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir
    config.conditions = _filter_conditions(config, args.conditions)

    items = bench.load_dataset(config.dataset)
    if not items:
        print("dataset has no items", file=sys.stderr)
        return EXIT_EMPTY
    transcripts = load_transcripts(config.transcripts) if config.transcripts else {}
    outputs = _read_outputs(config, config.outputs) if config.outputs else None  # before any request
    hub = _hub(config, args)  # reads the cassette index, once the inputs are known good
    mode = hub.mode

    emitted: list[str] = []
    with _Spools(out_dir, config.conditions, items) as spools:
        manifest = bench.run_benchmark(config, items, transcripts, hub, spools)
        _report_dropped(hub.store)
        del hub  # the index of every recorded answer is not needed past the run
        _emit(out_dir, emitted, "manifest.jsonl", chain(manifest.lines(), spools.lines()))
    _emit_tables(spools.tally.report(), out_dir, emitted)
    if outputs:
        _graph_outputs(config, *outputs, out_dir, emitted)
    _write_bundle(out_dir, emitted, "manifest.jsonl")

    print(f"{spools.records} records -> {out_dir / 'manifest.jsonl'}")
    print(f"tables and exports -> {out_dir}")

    if mode == "live" and spools.records and spools.failed == spools.records and spools.unavailable:
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

    videos, annotations = _read_outputs(config, Path(outputs_path))
    emitted: list[str] = []
    _graph_outputs(config, videos, annotations, out_dir, emitted)
    _write_bundle(out_dir, emitted, None)
    print(f"{len(videos)} graph(s) -> {out_dir / 'graphs'}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = load_config(args.config)
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise ConfigError(f"manifest not found: {manifest_path}")
    # as bytes, a line at a time, so that a byte that is not UTF-8 is reported with its line; the header
    # is checked before the dataset is read, and each record is scored as it is decoded, then dropped
    with open(manifest_path, "rb") as fh:
        _, records = bench.RunManifest.read(fh)
        scores = scoring.aggregate(bench.load_dataset(config.dataset), records)
    out_dir = Path(args.out_dir) if args.out_dir else config.out_dir

    emitted: list[str] = []
    _emit_tables(scores, out_dir, emitted)
    _write_bundle(out_dir, emitted, None)  # it reads --manifest and writes no manifest
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
