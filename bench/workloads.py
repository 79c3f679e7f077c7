"""Seeded inputs, commands and output checks for the four benchmark workloads.

Each workload writes its inputs from a seed into a directory of its own, names
the `videval` command lines one timed run executes, and checks the files those
commands leave against what its generator scripted. The generators use
`random.Random(seed)` only, so one seed always gives the same files.

The replay cassettes are written through the program's own code
(`build_question_prompt`, `request_key` and `CassetteStore.put`), because
their file names are the program's request keys. Every set-up ends by reading
its inputs back with the program's loaders (`_read_back`), so a malformed
input fails before any timing. Every file and directory is made inside
`DISK.timing()` (`_write`, `_mkdir` and the cassette writes), and the set-up
time the benchmark reports leaves that time out (see `DiskClock`). The many
small files, cassettes and media, are written after they are all generated.

No measured traffic exists for this program, so the shares of answer kinds
below are assumptions, not a traffic model. Each rare kind gets the same share,
large enough that every branch it drives is hit in every run whatever the seed;
the common kind takes the rest. Only the per-model accuracies come from a
source: the published Video-MME rows that the acceptance tests also quote.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Video-MME accuracy (without, with transcript) of four models, from the
# published rows quoted in tests/test_acceptance.py (MODEL_REFERENCE_ROWS).
# A replayed answer that holds a letter is right with this probability.
REFERENCE_ACCURACY = {
    "Qwen2-VL": (0.712, 0.778),
    "LLaVA-Video": (0.760, 0.769),
    "InternVL2.5": (0.676, 0.740),
    "GPT-4o": (0.690, 0.772),
}
MODELS = tuple(REFERENCE_ACCURACY)
TASK_TYPES = (
    "Temporal Perception",
    "Spatial Perception",
    "Attribute Perception",
    "Action Recognition",
    "Object Recognition",
    "OCR Problems",
    "Counting Problem",
    "Temporal Reasoning",
    "Spatial Reasoning",
    "Action Reasoning",
    "Object Reasoning",
    "Information Synopsis",
)
DOMAINS = (
    "Knowledge",
    "Film & Television",
    "Sports Competition",
    "Artistic Performance",
    "Life Record",
    "Multilingual",
)
LETTERS = ("A", "B", "C", "D")
WORDS = (
    "river bridge worker crane kitchen stage dancer referee goal crowd chart "
    "engine garden market lecture robot violin harbor tunnel mountain clock "
    "tractor bakery glacier museum canal lantern festival studio workshop"
).split()

# Replayed answer texts. None of them holds a standalone capital A-D other
# than the scripted letter, so the scripted letter is the only answer in them.
EXPLICIT_TEXTS = ("Answer: {L}", "The answer is ({L}).", "**Answer:** {L}")
BARE_TEXTS = ("{L}", "{L}.", "Option {L} fits the clip best.")
NO_LETTER_TEXTS = (
    "the clip does not show enough to decide.",
    "i cannot tell from the sampled frames.",
)


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


class DiskClock:
    """Seconds spent creating and writing input files.

    The set-up time leaves them out. On the disk the benchmark was built on,
    creating a file cost 10-20 times more kernel time in the minute after many
    files had been deleted, as every run does when it ends (bench/README.md,
    Noise); that measures the disk's recent history, not the set-up.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextlib.contextmanager
    def timing(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


DISK = DiskClock()


def _write(path: Path, text: str) -> None:
    with DISK.timing():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _mkdir(path: Path) -> None:
    with DISK.timing():
        path.mkdir(parents=True, exist_ok=True)


def _dump(path: Path, payload) -> None:
    _write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _digest(*parts) -> int:
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass
class Inputs:
    """Generated files of one workload plus what the generator scripted."""

    root: Path
    config: Path
    steps: list[list[str]]
    expected: dict = field(default_factory=dict)
    units: int = 0  # records, nodes or files that records_per_s divides


# --- shared dataset pieces -----------------------------------------------------


def _dataset(rng: random.Random, n_videos: int, per_video: int, prefix: str):
    """Video-MME-shaped items plus a transcript per video."""
    items, transcripts = [], {}
    for v in range(n_videos):
        video_id = f"{prefix}v{v:04d}"
        duration = ("short", "medium", "long")[v % 3]
        domain = DOMAINS[v % len(DOMAINS)]
        segments, start = [], 0.0
        for s in range(rng.randint(2, 5)):
            end = start + rng.uniform(3.0, 20.0)
            segments.append(
                {"id": s, "start": round(start, 2), "end": round(end, 2), "text": " " + _words(rng, 12) + "."}
            )
            start = end
        # the marker lets the fake provider see a transcript without parsing prompts
        segments[0]["text"] = " [tx]" + segments[0]["text"]
        transcripts[video_id] = {
            "segments": segments,
            "text": "".join(s["text"] for s in segments),
            "language": "en",
        }
        for q in range(per_video):
            qid = f"{prefix}q{v:04d}-{q}"
            items.append(
                {
                    "video_id": video_id,
                    "duration": duration,
                    "domain": domain,
                    "sub_category": domain,
                    "url": f"https://example.invalid/{video_id}",
                    "question_id": qid,
                    "task_type": TASK_TYPES[(v * per_video + q) % len(TASK_TYPES)],
                    "question": f"[{qid}] What does the {_words(rng, 3)} do?",
                    "options": {letter: _words(rng, 4) for letter in LETTERS},
                    "answer": rng.choice(LETTERS),
                }
            )
    return items, transcripts


def _config(root: Path, providers: dict, conditions: list, workers: int, **extra) -> Path:
    doc = {
        "dataset": "dataset.json",
        "cassette_dir": "cassettes",
        "providers": providers,
        "conditions": conditions,
        "max_workers": workers,
        "out_dir": "out",
    }
    doc.update(extra)
    path = root / "config.json"
    _dump(path, doc)
    return path


def _conditions(models, providers_for) -> list[dict]:
    return [
        {
            "provider": providers_for(model),
            "model_name": model,
            "fps": 1.0,
            "with_transcript": with_transcript,
            "attention": "sdpa",
            "gpu": "a10g",
        }
        for model in models
        for with_transcript in (False, True)
    ]


def _condition_key(condition: dict) -> str:
    side = "with" if condition["with_transcript"] else "without"
    return f"{condition['model_name']}/{side}"


def _read_back(config: Path) -> None:
    """Load the generated inputs with the program's own loaders."""
    from videval.benchmark import load_dataset
    from videval.config import load_annotations, load_config, load_outputs, load_transcripts

    cfg = load_config(config)
    load_dataset(cfg.dataset)
    for path, loader in ((cfg.transcripts, load_transcripts), (cfg.outputs, load_outputs),
                         (cfg.annotations, load_annotations)):
        if path is not None:
            loader(path)


def _manifest_records(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


# --- replay_videomme -------------------------------------------------------------


class ReplayVideoMME:
    """2,700 items x 8 conditions replayed from cassettes, then `report`."""

    name = "replay_videomme"
    params = {
        "videos": 900,
        "questions_per_video": 3,
        "models": len(MODELS),
        "conditions": 2 * len(MODELS),
        "records": 900 * 3 * 2 * len(MODELS),
        # 10% for each of the four rarer kinds: about 270 records of each per
        # condition, so every parse_mcq branch and both failure statuses are hit
        # in every condition; an explicit letter, the common case, takes the rest
        "status_mix": {"explicit": 0.60, "bare": 0.10, "no_letter": 0.10, "oom": 0.10, "timeout": 0.10},
    }

    def setup(self, root: Path, seed: int, workers: int) -> Inputs:
        from videval.benchmark import build_question_prompt, item_from_record
        from videval.config import load_transcripts
        from videval.providers import (
            CassetteStore,
            ConditionTag,
            ModelRequest,
            ModelResponse,
            request_fingerprint,
            request_key,
        )

        rng = random.Random(seed)
        p = self.params
        items, transcripts = _dataset(rng, p["videos"], p["questions_per_video"], "r")
        _dump(root / "dataset.json", items)
        _dump(root / "transcripts.json", transcripts)
        providers = {f"vlm-{m}": {"endpoint": "", "model": m} for m in MODELS}
        conditions = _conditions(MODELS, lambda m: f"vlm-{m}")
        config = _config(root, providers, conditions, workers, transcripts="transcripts.json")

        loaded = load_transcripts(root / "transcripts.json")
        store = CassetteStore(root / "cassettes")
        _mkdir(store.root)
        mix = list(p["status_mix"].items())
        expected: dict[str, Counter] = {}
        cassettes = []
        for cond in conditions:
            tag = ConditionTag.from_dict(cond)
            counts = expected.setdefault(_condition_key(cond), Counter())
            skill = REFERENCE_ACCURACY[cond["model_name"]][cond["with_transcript"]]
            for raw in items:
                item = item_from_record(raw)
                transcript = loaded[item.video_id] if tag.with_transcript else None
                request = ModelRequest(
                    provider_id=cond["provider"],
                    modality="vlm",
                    prompt=build_question_prompt(item, transcript),
                    condition=tag,
                )
                kind = rng.choices([k for k, _ in mix], [w for _, w in mix])[0]
                latency = rng.randint(800, 3000)
                if kind in ("oom", "timeout"):
                    response = ModelResponse("", latency, kind)
                    counts["oom" if kind == "oom" else "unanswered"] += 1
                elif kind == "no_letter":
                    response = ModelResponse(rng.choice(NO_LETTER_TEXTS), latency, "ok")
                    counts["unanswered"] += 1
                else:
                    right = rng.random() < skill
                    letter = item.answer if right else rng.choice([x for x in LETTERS if x != item.answer])
                    texts = EXPLICIT_TEXTS if kind == "explicit" else BARE_TEXTS
                    response = ModelResponse(rng.choice(texts).format(L=letter), latency, "ok")
                    counts["answered_correct" if right else "answered_wrong"] += 1
                cassettes.append((request_key(request), request_fingerprint(request), response))
        # Written after the loop: creating files on a disk that has just seen many
        # deletions leaves the timed generation around it up to twice as slow.
        with DISK.timing():
            for cassette in cassettes:
                store.put(*cassette)

        _read_back(config)
        steps = [
            ["evaluate", "--config", str(config), "--replay", "--out-dir", "{out}/eval"],
            [
                "report",
                "--config",
                str(config),
                "--manifest",
                "{out}/eval/manifest.jsonl",
                "--out-dir",
                "{out}/report",
            ],
        ]
        return Inputs(
            root=root,
            config=config,
            steps=steps,
            expected={k: dict(v) for k, v in expected.items()},
            units=len(items) * len(conditions),
        )

    def check(self, inputs: Inputs, out: Path) -> tuple[list[str], dict]:
        errors = []
        records = _manifest_records(out / "eval" / "manifest.jsonl")
        if len(records) != inputs.units:
            errors.append(f"manifest has {len(records)} records, scripted {inputs.units}")
        got: dict[str, Counter] = {}
        for r in records:
            got.setdefault(_condition_key(r["condition"]), Counter())[r["outcome"]] += 1
        got_plain = {k: dict(v) for k, v in got.items()}
        if got_plain != inputs.expected:
            errors.append(f"per-condition outcomes differ from the script: {got_plain} != {inputs.expected}")
        failed = sum(1 for r in records if r.get("error"))
        if failed:
            errors.append(f"{failed} replayed records carry an error")
        for name in _table_files(out / "eval"):
            if (out / "eval" / name).read_bytes() != (out / "report" / name).read_bytes():
                errors.append(f"report re-emitted {name} differently from evaluate")
        return errors, {"attempted": len(records), "failed": failed}

    def stable_files(self, out: Path) -> dict[str, bytes]:
        files = {"eval/manifest.jsonl": (out / "eval" / "manifest.jsonl").read_bytes()}
        for name in _table_files(out / "eval"):
            files[f"eval/{name}"] = (out / "eval" / name).read_bytes()
        return files


def _table_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.suffix in (".md", ".csv") or p.name == "scores.json")


# --- live_record ----------------------------------------------------------------------


# 6% for each of the five non-ok answers: about 24 of the 408 requests each, so
# every classification and retry path is hit in every run (the chance that one
# gets no request is below 1e-10); a plain ok answer takes the rest.
LIVE_MIX = {"ok": 0.70, "oom": 0.06, "timeout": 0.06, "malformed": 0.06, "flaky": 0.06, "down": 0.06}
LIVE_MODELS = MODELS[:2]


def live_script(seed: int, model: str, question_id: str, with_transcript: bool):
    """(action, latency in ms, letter) the fake provider plays for one request.

    A pure function of the request, so the answer does not depend on the order
    in which requests arrive.
    """
    rnd = random.Random(_digest(seed, model, question_id, with_transcript))
    action = rnd.choices(list(LIVE_MIX), list(LIVE_MIX.values()))[0]
    latency_ms = rnd.uniform(2.0, 18.0)
    return action, latency_ms, rnd.choice(LETTERS)


def live_expected_outcome(action: str, letter: str, answer: str) -> tuple[str, str | None]:
    """(outcome, error class) the record of one scripted request must carry."""
    if action in ("ok", "flaky"):
        return ("answered_correct" if letter == answer else "answered_wrong"), None
    if action == "oom":
        return "oom", None
    if action == "timeout":
        return "unanswered", None
    if action == "malformed":
        return "invalid_output", "MalformedProviderOutput"
    return "invalid_output", "ProviderUnavailable"


class LiveRecord:
    """`evaluate --live` against the loopback fake provider, into fresh cassettes."""

    name = "live_record"
    params = {
        "videos": 34,
        "questions_per_video": 3,
        "models": len(LIVE_MODELS),
        "conditions": 2 * len(LIVE_MODELS),
        "records": 34 * 3 * 2 * len(LIVE_MODELS),
        "latency_ms": "uniform 2-18 per request, seeded by the request",
        "answer_mix": LIVE_MIX,
        "retries": 1,
    }

    def setup(self, root: Path, seed: int, workers: int, endpoint: str) -> Inputs:
        rng = random.Random(seed)
        p = self.params
        items, transcripts = _dataset(rng, p["videos"], p["questions_per_video"], "l")
        _dump(root / "dataset.json", items)
        _dump(root / "transcripts.json", transcripts)
        providers = {
            f"live-{m}": {"endpoint": f"{endpoint}/v1/{m}", "model": m, "timeout_s": 30, "retries": 1}
            for m in LIVE_MODELS
        }
        conditions = _conditions(LIVE_MODELS, lambda m: f"live-{m}")
        config = _config(root, providers, conditions, workers, transcripts="transcripts.json", mode="live")
        expected = {}
        for cond in conditions:
            for item in items:
                action, _, letter = live_script(
                    seed, cond["model_name"], item["question_id"], cond["with_transcript"]
                )
                key = f"{_condition_key(cond)}/{item['question_id']}"
                expected[key] = (action, *live_expected_outcome(action, letter, item["answer"]))
        _read_back(config)
        steps = [["evaluate", "--config", str(config), "--live", "--out-dir", "{out}/eval"]]
        return Inputs(root=root, config=config, steps=steps, expected=expected, units=len(expected))

    def check(self, inputs: Inputs, out: Path) -> tuple[list[str], dict]:
        errors = []
        records = _manifest_records(out / "eval" / "manifest.jsonl")
        if len(records) != inputs.units:
            errors.append(f"manifest has {len(records)} records, scripted {inputs.units}")
        wrong = 0
        for r in records:
            key = f"{_condition_key(r['condition'])}/{r['item_ref']}"
            _, outcome, error_class = inputs.expected.get(key, (None, None, None))
            got_class = r["error"].split(":", 1)[0] if r.get("error") else None
            if (r["outcome"], got_class) != (outcome, error_class):
                wrong += 1
                if wrong <= 3:
                    errors.append(f"{key}: got {r['outcome']}/{got_class}, scripted {outcome}/{error_class}")
        if wrong > 3:
            errors.append(f"... {wrong} records differ from the script in all")
        failed = sum(1 for r in records if r.get("error"))
        return errors, {"attempted": len(records), "failed": failed}

    def stable_files(self, out: Path) -> dict[str, bytes]:
        return {}


# --- graph_layout ---------------------------------------------------------------------------


# (models, total keyframes) per video: 2 + 2M + K nodes.
GRAPH_SHAPES = ((3, 24), (4, 60), (4, 100), (6, 244))
TOLERANCE_S = 2


def _fmt_ts(seconds: int) -> str:
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}" if hours else f"{minutes:02d}:{secs:02d}"


KEYFRAME_LINES = ("({t}, {c})", "({t}) {c}", "{t} - {c}", "{t} {c}")


class GraphLayout:
    """`videval graph` over seeded outputs and annotations of several videos."""

    name = "graph_layout"
    params = {
        "videos": [{"models": m, "keyframes": k, "nodes": 2 + 2 * m + k} for m, k in GRAPH_SHAPES],
        "invalid_videos": 1,
        "tolerance_s": TOLERANCE_S,
        "excluded": "the 1,242-node graph (20 models x 60 keyframes, 233 s at the seed) "
        "stays out of every run until the layout is fast",
    }

    def setup(self, root: Path, seed: int, workers: int) -> Inputs:
        rng = random.Random(seed)
        outputs, annotations, nodes = {}, {}, {}
        hits: dict[str, list[bool]] = {}
        verdicts: dict[str, list[bool]] = {}
        for v, (n_models, n_keyframes) in enumerate(GRAPH_SHAPES):
            video_id = f"g{v:02d}-n{2 + 2 * n_models + n_keyframes}"
            duration = rng.randint(1800, 7200)
            truth = sorted(rng.sample(range(60, duration - 60, 97), 3))
            split = [n_keyframes // n_models] * n_models
            split[-1] += n_keyframes - sum(split)
            outputs[video_id], annotations[video_id] = {}, {"keyframes": [], "summary": {}}
            annotations[video_id]["keyframes"] = [[ts, _words(rng, 3)] for ts in truth]
            for m in range(n_models):
                model = f"model-{m}"
                # assumed shares: both outcomes of the keyframe and the summary
                # score turn up among the 17 model outputs for almost every seed
                hit = rng.random() < 0.6
                stamps = set()
                while len(stamps) < split[m]:
                    ts = rng.randrange(duration)
                    if all(abs(ts - t) > TOLERANCE_S + 1 for t in truth):
                        stamps.add(ts)
                stamps = sorted(stamps)
                if hit:
                    stamps[rng.randrange(len(stamps))] = rng.choice(truth) + rng.randint(-TOLERANCE_S, TOLERANCE_S)
                lines = [f"{_words(rng, 10).capitalize()}.", f"{_words(rng, 8).capitalize()}.", "", "Key Frames:"]
                for i, ts in enumerate(stamps):
                    caption = f"{_words(rng, 4)} {i}"
                    lines.append(rng.choice(KEYFRAME_LINES).format(t=_fmt_ts(ts), c=caption))
                outputs[video_id][model] = "\n".join(lines)
                verdict = rng.random() < 0.5
                annotations[video_id]["summary"][model] = verdict
                hits.setdefault(model, []).append(hit)
                verdicts.setdefault(model, []).append(verdict)
            nodes[video_id] = 2 + 2 * n_models + n_keyframes
        # a video whose outputs have no summary, so graph skips it
        outputs["g99-invalid"] = {"model-0": "(00:05, a keyframe with no summary)"}

        _dump(root / "outputs.json", outputs)
        _dump(root / "annotations.json", annotations)
        _dump(root / "dataset.json", [])
        _mkdir(root / "cassettes")
        config = _config(
            root,
            {"none": {"endpoint": ""}},
            [{"provider": "none", "model_name": "none"}],
            workers,
            outputs="outputs.json",
            annotations="annotations.json",
            tolerance_s=TOLERANCE_S,
            layout={"spacing": 1.0, "area": 1.0, "seed": 42},
        )
        scores = {
            model: {
                "keyframe": {"score": sum(h) / len(h), "n": len(h)},
                "summary": {"score": sum(verdicts[model]) / len(verdicts[model]), "n": len(verdicts[model])},
            }
            for model, h in hits.items()
        }
        _read_back(config)
        steps = [["graph", "--config", str(config), "--out-dir", "{out}"]]
        return Inputs(
            root=root,
            config=config,
            steps=steps,
            expected={"nodes": nodes, "scores": scores, "skipped": ["g99-invalid"]},
            units=sum(nodes.values()),
        )

    def check(self, inputs: Inputs, out: Path) -> tuple[list[str], dict]:
        errors = []
        metrics = json.loads((out / "graph_metrics.json").read_text(encoding="utf-8"))
        got_nodes = {vid: m["node_count"] for vid, m in metrics.items()}
        if got_nodes != inputs.expected["nodes"]:
            errors.append(f"node counts {got_nodes} != 2 + 2M + K {inputs.expected['nodes']}")
        for video_id in inputs.expected["nodes"]:
            doc = json.loads((out / "graphs" / f"{video_id}.json").read_text(encoding="utf-8"))
            if not all(math.isfinite(n["x"]) and math.isfinite(n["y"]) for n in doc["nodes"]):
                errors.append(f"{video_id}: non-finite layout position")
        scores = json.loads((out / "matching_scores.json").read_text(encoding="utf-8"))
        if scores != inputs.expected["scores"]:
            errors.append(f"matching scores {scores} != scripted {inputs.expected['scores']}")
        attempted = len(inputs.expected["nodes"]) + len(inputs.expected["skipped"])
        return errors, {"attempted": attempted, "failed": attempted - len(metrics)}

    def stable_files(self, out: Path) -> dict[str, bytes]:
        files = {p.name: p.read_bytes() for p in sorted((out / "graphs").iterdir())}
        for name in ("graph_metrics.json", "matching_scores.json"):
            files[name] = (out / name).read_bytes()
        return files


# --- ingest_cold --------------------------------------------------------------------------------


# extension -> (kind, ffprobe format_name, expected container tag)
CONTAINERS = {
    ".mp4": ("video", "mov,mp4,m4a,3gp,3g2,mj2", "mp4"),
    ".m4v": ("video", "mov,mp4,m4a,3gp,3g2,mj2", "m4v"),
    ".mov": ("video", "mov,mp4,m4a,3gp,3g2,mj2", "quicktime"),
    ".wmv": ("video", "asf", "wmv"),
    ".webm": ("video", "matroska,webm", "webm"),
    ".avi": ("video", "avi", "msvideo"),
    ".mpg": ("video", "mpeg", "mpg"),
    ".3gp": ("video", "mov,mp4,m4a,3gp,3g2,mj2", "3gpp"),
    ".mp3": ("audio", "mp3", "mp3"),
    ".wav": ("audio", "wav", "wav"),
    ".m4a": ("audio", "mov,mp4,m4a,3gp,3g2,mj2", "m4a"),
    ".flac": ("audio", "flac", "flac"),
}
INGEST_FILES = 400
UNPROBEABLE = 8


def _bucket(duration_s: float) -> str:
    if duration_s <= 120:
        return "short"
    if duration_s <= 900:
        return "medium"
    return "long"


class IngestCold:
    """`videval ingest` over seeded files of every supported container."""

    name = "ingest_cold"
    params = {
        "files": INGEST_FILES,
        "containers": sorted(c for _, _, c in CONTAINERS.values()),
        "unprobeable": UNPROBEABLE,
        "ignored_non_media": 6,
        "probe_command": "cat {input}",
    }

    def setup(self, root: Path, seed: int, workers: int) -> Inputs:
        rng = random.Random(seed)
        media = root / "media"
        containers: Counter = Counter()
        durations: Counter = Counter()
        extensions = sorted(CONTAINERS)
        broken = set(rng.sample(range(INGEST_FILES), UNPROBEABLE))
        files = {media / f"notes{i}.txt": "not media\n" for i in range(6)}
        for i in range(INGEST_FILES):
            ext = extensions[i % len(extensions)]
            kind, format_name, tag = CONTAINERS[ext]
            path = media / f"d{i % 7}" / f"clip{i:04d}{ext}"
            if i in broken:
                files[path] = "probe: unreadable stream header\n"
                continue
            duration = round(rng.choice((rng.uniform(5, 120), rng.uniform(121, 900), rng.uniform(901, 7200))), 3)
            streams = [{"codec_type": "audio", "duration": str(duration)}]
            if kind == "video":
                streams.insert(0, {"codec_type": "video", "width": 1280, "height": 720})
            doc = {"format": {"format_name": format_name, "duration": str(duration)}, "streams": streams}
            files[path] = json.dumps(doc)
            containers[tag] += 1
            durations[_bucket(duration)] += 1
        # written after the loop, like the replay cassettes
        for path, text in files.items():
            _write(path, text)
        _dump(root / "dataset.json", [])
        _mkdir(root / "cassettes")
        config = _config(
            root,
            {"none": {"endpoint": ""}},
            [{"provider": "none", "model_name": "none"}],
            workers,
            probe_command="cat {input}",
        )
        _read_back(config)
        steps = [["ingest", str(media), "--config", str(config), "--out", "{out}/inventory.json"]]
        expected = {"containers": dict(containers), "durations": dict(durations)}
        return Inputs(root=root, config=config, steps=steps, expected=expected, units=INGEST_FILES)

    def check(self, inputs: Inputs, out: Path) -> tuple[list[str], dict]:
        errors = []
        inventory = json.loads((out / "inventory.json").read_text(encoding="utf-8"))
        if inventory["histogram"] != inputs.expected:
            errors.append(f"histogram {inventory['histogram']} != generated {inputs.expected}")
        usable = len(inventory["assets"])
        if usable != INGEST_FILES - UNPROBEABLE:
            errors.append(f"{usable} usable assets, generated {INGEST_FILES - UNPROBEABLE}")
        return errors, {"attempted": INGEST_FILES, "failed": INGEST_FILES - usable}

    def stable_files(self, out: Path) -> dict[str, bytes]:
        return {"inventory.json": (out / "inventory.json").read_bytes()}


WORKLOADS = {w.name: w for w in (ReplayVideoMME(), LiveRecord(), GraphLayout(), IngestCold())}
