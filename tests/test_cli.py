import json
import shutil

import pytest

from videval.cli import main
from videval.config import load_config
from videval.errors import ConfigError
from videval.providers import ModelRequest, request_key


def run_cli(*argv) -> int:
    return main(list(argv))


# --- ingest -----------------------------------------------------------------------


@pytest.fixture
def media_tree(tmp_path):
    root = tmp_path / "media"
    (root / "nested").mkdir(parents=True)
    (root / "a_d60.mp4").write_bytes(b"v1")
    (root / "b.flac").write_bytes(b"a1")
    (root / "nested" / "c_d700.webm").write_bytes(b"v2")
    (root / "nested" / "d_d3000.wmv").write_bytes(b"v3")
    (root / "notes.txt").write_text("not media")
    (root / "paper.pdf").write_bytes(b"%PDF")
    return root


@pytest.fixture
def probe_config(tmp_path, fake_probe_cmd):
    path = tmp_path / "probe_config.json"
    dataset = tmp_path / "tiny_dataset.json"
    dataset.write_text("[]", encoding="utf-8")
    cassettes = tmp_path / "cassettes"
    cassettes.mkdir()
    path.write_text(
        json.dumps(
            {
                "dataset": str(dataset),
                "cassette_dir": str(cassettes),
                "probe_command": fake_probe_cmd,
                "providers": {"p": {"endpoint": ""}},
                "conditions": [{"provider": "p", "model_name": "m"}],
            }
        ),
        encoding="utf-8",
    )
    return path


def test_ingest_walks_tree(media_tree, probe_config, tmp_path, capsys):
    out = tmp_path / "inventory.json"
    code = run_cli("ingest", str(media_tree), "--config", str(probe_config), "--out", str(out))
    assert code == 0
    inventory = json.loads(out.read_text(encoding="utf-8"))
    # filesystem walk oracle: every supported file, nothing else
    supported = [p for p in media_tree.rglob("*") if p.suffix in (".mp4", ".flac", ".webm", ".wmv")]
    assert len(inventory["assets"]) == len(supported) == 4
    assert inventory["histogram"]["containers"] == {"flac": 1, "mp4": 1, "webm": 1, "wmv": 1}
    assert inventory["histogram"]["durations"] == {"short": 2, "medium": 1, "long": 1}
    assert "4 usable assets" in capsys.readouterr().out


def test_ingest_skips_probe_documents_of_another_shape(media_tree, probe_config, tmp_path, capsys):
    # the fake probe gives a stream "width": "wide" and wraps a document in a list
    bad = [media_tree / "e_textwidth.mp4", media_tree / "f_listdoc.flac"]
    for path in bad:
        path.write_bytes(b"x")
    out = tmp_path / "inventory.json"
    assert run_cli("ingest", str(media_tree), "--config", str(probe_config), "--out", str(out)) == 0
    err = capsys.readouterr().err
    for path in bad:
        assert f"skipping {path}: probe output for {path} does not fit" in err
    inventory = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(asset["path"] for asset in inventory["assets"]) == sorted(
        str(p) for p in media_tree.rglob("*") if p.suffix in (".mp4", ".flac", ".webm", ".wmv") and p not in bad
    )


def test_ingest_zero_usable_exits_3(tmp_path, probe_config, capsys):
    empty = tmp_path / "docs"
    empty.mkdir()
    (empty / "a.pdf").write_bytes(b"%PDF")
    code = run_cli("ingest", str(empty), "--config", str(probe_config))
    assert code == 3
    assert "0 usable assets" in capsys.readouterr().err


# --- evaluate ------------------------------------------------------------------------


def test_evaluate_demo_emits_reports(demo_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir))
    assert code == 0
    for name in (
        "manifest.jsonl",
        "task_accuracy.md",
        "model_accuracy.md",
        "completeness.md",
        "scores.json",
        "bundle.json",
        "graph_metrics.json",
    ):
        assert (out_dir / name).is_file()
    assert (out_dir / "graphs" / "P69idA8JO98.dot").is_file()
    manifest_lines = (out_dir / "manifest.jsonl").read_text().splitlines()
    assert len(manifest_lines) == 1 + 20  # header + records


def test_evaluate_rerun_byte_identical(demo_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out1)) == 0
    assert run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out2)) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


# SHA-256 of each numpy-free file that `videval evaluate --config demo/config.json`
# writes, run from the repository root. A change that alters any of them changes
# the demo's published output and must say so.
DEMO_GOLDEN_SHA256 = {
    "manifest.jsonl": "2dec0ac1af983ee9875f0281f27a4b738c7a434fc98570c2a457918b4fb8f45c",
    "completeness.md": "b142a7d48c1f8cbb61b3af69dd3236c6b0ca1e131f46f8691c5c2541d2042eb1",
    "completeness.csv": "ee8c4b7582cedb42b4d8ce0d93152e1be107b44f5aea13f73e11f71668e8f4dc",
    "duration_accuracy.md": "ce3d7b8c677b5ca54355cd2e38ca3de99bcbe0f64479479e1c3f389117982de3",
    "duration_accuracy.csv": "1f60de3844e32f7f2845a9910d61f6cfd274aa00f6eb1fbf64ffd632625e11b6",
    "model_accuracy.md": "97e48d5db392ed1059914d2d19919c830625bdd94f48eb4bfc6338d2ad227c18",
    "model_accuracy.csv": "84ba60997eabf0b3715fead003226f7aa779b1eb390a22bb373376c07004f696",
    "task_accuracy.md": "6579d0d9bca62ffce1a3943e65dccad80097a5985a0c0be5438f01742d02a23c",
    "task_accuracy.csv": "6e0dac69452c30298ff654f05b0f76ce70cf8d350a5216c2d726509940748944",
    "scores.json": "3edd270bf6908f103007063e5ff769d30a09f019727eebbaabea25d976e1a3d1",
    # from parsing and the annotations only: graph layout does not reach it
    "matching_scores.json": "7643c21e78c1098b425768496f3e8cc0a1cbdb03da7473970a5853c07b105cfc",
    # the layout starts from random.Random(seed) and then does only IEEE-exact
    # arithmetic, so these hold under any numpy version
    "graphs/P69idA8JO98.dot": "3c2fc288e622a6704a0a6e3c36c9c3e5339be20bdf807ef0cd939d70dcd66ea6",
    "graphs/P69idA8JO98.json": "1cba91d1ad24498422ad415a8d89f1f3ead08ec595e4592e67bff5e0debb1a69",
    "graph_metrics.json": "96676ee4cfe23b99970656959d15fdbafd8cd5482cce5b3395760c62be0c8711",
}


def test_evaluate_demo_golden_digests(demo_dir, tmp_path, monkeypatch):
    import hashlib

    # the manifest header holds the dataset path as given, so run from the root
    monkeypatch.chdir(demo_dir.parent)
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", "demo/config.json", "--out-dir", str(out_dir)) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in DEMO_GOLDEN_SHA256
    }
    assert digests == DEMO_GOLDEN_SHA256


def test_evaluate_missing_dataset_is_config_error(demo_dir, tmp_path, capsys):
    config = json.loads((demo_dir / "config.json").read_text())
    config["dataset"] = "missing.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("evaluate", "--config", str(bad)) == 2
    assert "config error" in capsys.readouterr().err


def test_evaluate_truncated_transcripts_is_config_error(demo_dir, tmp_path, capsys):
    transcripts = tmp_path / "transcripts.json"
    transcripts.write_text((demo_dir / "transcripts.json").read_text(encoding="utf-8").rstrip()[:-1])
    path = _demo_config_variant(demo_dir, tmp_path, transcripts=str(transcripts))
    assert run_cli("evaluate", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(transcripts) in err


def test_evaluate_condition_filter(demo_dir, tmp_path):
    out_dir = tmp_path / "out"
    code = run_cli(
        "evaluate",
        "--config", str(demo_dir / "config.json"),
        "--out-dir", str(out_dir),
        "--conditions", "0",
    )
    assert code == 0
    lines = (out_dir / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 10


def test_evaluate_unknown_condition_filter(demo_dir, tmp_path):
    assert (
        run_cli(
            "evaluate",
            "--config", str(demo_dir / "config.json"),
            "--out-dir", str(tmp_path / "x"),
            "--conditions", "nonexistent-label",
        )
        == 2
    )


# --- graph -----------------------------------------------------------------------------


def test_graph_command(demo_dir, tmp_path):
    out_dir = tmp_path / "gout"
    code = run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "graphs" / "P69idA8JO98.json").read_text())
    assert len(doc["nodes"]) == 28
    metrics = json.loads((out_dir / "graph_metrics.json").read_text())
    assert metrics["P69idA8JO98"]["node_count"] == 28


def test_graph_command_model_clusters(demo_dir, tmp_path):
    out_dir = tmp_path / "gout"
    run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir))
    doc = json.loads((out_dir / "graphs" / "P69idA8JO98.json").read_text())
    keyframe_colors = {n["color"] for n in doc["nodes"] if n["size"] == 400}
    assert keyframe_colors == {"lightblue", "lightcoral"}  # one light shade per model


def test_graph_command_empty_outputs_exits_3(demo_dir, tmp_path, capsys):
    empty_outputs = tmp_path / "outputs.json"
    empty_outputs.write_text(json.dumps({"vid": {"m": ""}}), encoding="utf-8")
    code = run_cli(
        "graph",
        "--config", str(demo_dir / "config.json"),
        "--outputs", str(empty_outputs),
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3


def test_graph_skips_a_keyframe_at_the_timestamp_bound(demo_dir, tmp_path):
    # 99:59:59 is a timestamp parse_timestamp once accepted and KeyframeEntry rejects
    outputs = json.loads((demo_dir / "outputs.json").read_text(encoding="utf-8"))
    outputs["P69idA8JO98"]["Qwen-7B"] += "\n(99:59:59, the curtain falls)"
    path = tmp_path / "outputs.json"
    path.write_text(json.dumps(outputs), encoding="utf-8")
    out_dir = tmp_path / "gout"
    code = run_cli("graph", "--config", str(demo_dir / "config.json"), "--outputs", str(path), "--out-dir", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "graph_metrics.json").read_text())["P69idA8JO98"]["node_count"] == 28


@pytest.mark.parametrize(
    "key, content, message",
    [
        ("outputs", {"vid": "just text"}, "outputs of video 'vid' must be an object of strings"),
        ("outputs", {"vid": {"m": 5}}, "outputs of video 'vid' must be an object of strings"),
        ("annotations", {"P69idA8JO98": ["a"]}, "annotations of video 'P69idA8JO98' must be an object"),
        ("annotations", {"P69idA8JO98": {"keyframes": {"7": "x"}}}, "keyframes of video 'P69idA8JO98'"),
        ("annotations", {"P69idA8JO98": {"keyframes": [[7]]}}, "keyframes of video 'P69idA8JO98'"),
        ("annotations", {"P69idA8JO98": {"keyframes": [["7", "x"]]}}, "keyframes of video 'P69idA8JO98'"),
        ("annotations", {"P69idA8JO98": {"keyframes": [[7, 5]]}}, "keyframes of video 'P69idA8JO98'"),
        ("annotations", {"P69idA8JO98": {"summary": [True]}}, "summary of video 'P69idA8JO98' must be an object"),
        # each of these passed the loader, then stopped `graph` with a ValueError traceback
        *(
            ("annotations", {"P69idA8JO98": {"keyframes": [pair]}}, "keyframes of video 'P69idA8JO98'")
            for pair in ([-1, "x"], [10000000, "x"], [5, ""], [5, " x"])
        ),
        # a string verdict counted as a match
        ("annotations", {"P69idA8JO98": {"summary": {"Qwen-7B": "false"}}}, "summary of video 'P69idA8JO98'"),
    ],
)
def test_graph_bad_input_shape_is_config_error(demo_dir, tmp_path, capsys, key, content, message):
    bad = tmp_path / f"{key}.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    path = _demo_config_variant(demo_dir, tmp_path, **{key: str(bad)})
    assert run_cli("graph", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


# (config changes, the name the error must give); each of these, and the graph
# flags below 0, used to end in a traceback or run on regardless
BAD_CONFIG_VALUES = [
    ({"tolerance_s": "two"}, "tolerance_s"),
    ({"tolerance_s": -1}, "tolerance_s"),
    ({"max_workers": "four"}, "max_workers"),
    ({"keyframe_match_mode": "most"}, "keyframe_match_mode"),
    ({"providers": {"local-qwen": {"timeout_s": "slow"}}}, "timeout_s"),
    ({"providers": {"local-qwen": "http://127.0.0.1:9"}}, "provider 'local-qwen'"),
    ({"providers": {"local-qwen": {"error_patterns": ["CUDA out of memory"]}}}, "error_patterns"),
    # keys that are not an error status: a live reply that matched one would raise before it was recorded
    (
        {"providers": {"local-qwen": {"error_patterns": {"ok": ["Bad"], "banana": ["overloaded"]}}}},
        "error_patterns key",
    ),
    ({"conditions": ["local-qwen"]}, "condition 0"),
    (
        {"conditions": [{"provider": "local-qwen", "model_name": "m", "with_transcript": "false"}]},
        "with_transcript",
    ),
    ({"probe_command": 5}, "probe_command"),
    ({"layout": {"iterations": "10"}}, "layout.iterations"),
    ({"layout": {"initial_temperature": "hot"}}, "layout.initial_temperature"),
    ({"templates": {"mcq": 5}}, "templates.mcq"),
    ({"outputs": 5}, "outputs"),
    *(
        ({"conditions": [{"provider": "local-qwen", "model_name": "m", "fps": fps}]}, "fps")
        for fps in ("0.1", True, 0)
    ),
    ({"conditions": [{"provider": "local-qwen", "model_name": 5}]}, "model_name"),
    (
        {
            "conditions": [
                {"provider": "local-qwen", "model_name": "m", "gpu": 5},
                {"provider": "local-qwen", "model_name": "m", "gpu": "a10g"},
            ]
        },
        "gpu",
    ),
    ({"providers": {"local-qwen": {"endpoint": 5}}}, "endpoint"),
    ({"providers": {"local-qwen": {"response_text_path": 5}}}, "response_text_path"),
    ({"asr_provider": "nope"}, "asr_provider"),
    ({"conditions": [{"provider": "local-qwen", "model_name": "m", "attention": "xformers"}]}, "attention"),
    ({"templates": {"mcq": "Answer: {options}"}}, "templates.mcq: template is missing a {question}"),
]


@pytest.mark.parametrize(
    "command, changes, flags, key",
    [
        pytest.param(command, changes, [], key, id=f"{command}-{key}")
        for changes, key in BAD_CONFIG_VALUES
        for command in ("evaluate", "graph")
    ]
    + [
        pytest.param("graph", {}, [flag, "-1"], flag, id=f"graph{flag}")
        for flag in ("--tolerance-s", "--seed")
    ],
)
def test_bad_config_value_is_config_error(demo_dir, tmp_path, capsys, command, changes, flags, key):
    path = _demo_config_variant(demo_dir, tmp_path, **changes)
    out_dir = tmp_path / "out"
    assert run_cli(command, "--config", str(path), "--out-dir", str(out_dir), *flags) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out_dir.exists()


def test_integer_fps_loads_like_float(demo_dir, tmp_path):
    # the tag is part of the cassette key, so "fps": 1 must key like "fps": 1.0
    tags = []
    for fps in (1, 1.0):
        condition = {"provider": "local-qwen", "model_name": "m", "fps": fps}
        path = _demo_config_variant(demo_dir, tmp_path, conditions=[condition])
        tags.append(load_config(path).conditions[0].tag)
    assert json.dumps(tags[0].to_dict()) == json.dumps(tags[1].to_dict())
    keys = [request_key(ModelRequest("local-qwen", "vlm", prompt="p", condition=t)) for t in tags]
    assert keys[0] == keys[1]


def test_top_level_template_keys_are_ignored(demo_dir, tmp_path):
    # only the templates object sets a template; a key named like the field is not read
    path = _demo_config_variant(demo_dir, tmp_path, mcq_template="Answer: {options}", summary_template=5)
    loaded, demo = load_config(path), load_config(demo_dir / "config.json")
    assert (loaded.mcq_template, loaded.summary_template) == (demo.mcq_template, demo.summary_template)


def test_graph_seed_flag_changes_layout(demo_dir, tmp_path):
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(out1), "--seed", "42")
    run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(out2), "--seed", "42")
    run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(out3), "--seed", "7")
    dot = "graphs/P69idA8JO98.dot"
    assert (out1 / dot).read_bytes() == (out2 / dot).read_bytes()
    assert (out1 / dot).read_bytes() != (out3 / dot).read_bytes()


# --- report ------------------------------------------------------------------------------


def test_report_regenerates_tables_from_manifest(demo_dir, tmp_path):
    eval_dir = tmp_path / "eval"
    run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(eval_dir))
    report_dir = tmp_path / "rep"
    code = run_cli(
        "report",
        "--config", str(demo_dir / "config.json"),
        "--manifest", str(eval_dir / "manifest.jsonl"),
        "--out-dir", str(report_dir),
    )
    assert code == 0
    for name in ("task_accuracy.md", "model_accuracy.md", "completeness.md", "scores.json"):
        assert (report_dir / name).read_bytes() == (eval_dir / name).read_bytes()


@pytest.mark.parametrize(
    "damage, line",
    [
        pytest.param(lambda text: text[:-40], 21, id="record-cut-mid-line"),
        pytest.param(
            lambda text: text.replace('"dataset_path":', '"dataset":', 1), 1, id="header-without-dataset_path"
        ),
        pytest.param(lambda text: "manifest\n" + text.split("\n", 1)[1], 1, id="first-line-not-json"),
    ],
)
def test_report_on_damaged_manifest_is_invalid_input(demo_dir, tmp_path, capsys, damage, line):
    eval_dir = tmp_path / "eval"
    run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(eval_dir))
    manifest = eval_dir / "manifest.jsonl"
    manifest.write_text(damage(manifest.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        "report",
        "--config", str(demo_dir / "config.json"),
        "--manifest", str(manifest),
        "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid input" in err and f"manifest line {line} " in err


def _evaluate_demo(demo_dir, tmp_path, **changes):
    """Run evaluate on the demo with the given config changes; return the config's and manifest's paths."""
    config = _demo_config_variant(demo_dir, tmp_path, **changes)
    out_dir = tmp_path / "eval"
    assert run_cli("evaluate", "--config", str(config), "--out-dir", str(out_dir)) == 0
    return str(config), out_dir / "manifest.jsonl"


DELETE = object()  # as _set_field's value: take the field out


def _set_field(record: dict, dotted: str, value) -> dict:
    """Set the field at a dotted path of record, or delete it for DELETE, in place; return record."""
    *parents, key = dotted.split(".")
    target = record
    for part in parents:
        target = target[part]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return record


# (dotted field of the first record, value); report took each of the first six, some changing its tables.
# The rest pin each field reader's checks, null included: null keeps the default of error alone.
MISTYPED_RECORD_FIELDS = [
    ("outcome", "bogus"),
    ("condition.with_transcript", "false"),
    ("wall_ms", "12"),
    ("parsed.letter", "Z"),
    ("response.raw_text", 5),
    ("request_kind", "essay"),
    ("wall_ms", True),
    ("wall_ms", -1),
    ("wall_ms", 1.5),
    ("response.latency_ms", 1.5),
    ("response.latency_ms", True),
    ("response.status", "bogus"),
    ("response.status", None),
    ("error", 5),
    ("item_ref", None),
    ("item_ref", 7),
    ("parsed", "A"),
    ("parsed.confidence_source", 3),
    ("condition", None),
    ("condition.fps", 0),
    ("condition.with_transcript", 1),
    ("response", None),
    ("response.raw_text", None),
    ("parsed", DELETE),
]


@pytest.mark.parametrize("field, value", MISTYPED_RECORD_FIELDS, ids=lambda v: "deleted" if v is DELETE else None)
def test_report_on_mistyped_manifest_field_is_invalid_input(demo_dir, tmp_path, capsys, field, value):
    _, manifest = _evaluate_demo(demo_dir, tmp_path)
    header, first, *rest = manifest.read_text(encoding="utf-8").splitlines()
    record = _set_field(json.loads(first), field, value)
    manifest.write_text("\n".join([header, json.dumps(record), *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli(
        "report",
        "--config", str(demo_dir / "config.json"),
        "--manifest", str(manifest),
        "--out-dir", str(tmp_path / "rep"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid input" in err and "manifest line 2 " in err and field.split(".")[-1] in err


def _damage_response(edit):
    """Replace the response field of a key-first cassette line by edit(decoded response), a text."""
    return lambda fields: [fields[0], edit(json.loads(fields[1])), fields[2]]


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(_damage_response(lambda response: ""), id="no-response"),
        pytest.param(_damage_response(lambda response: json.dumps([response])), id="json-list"),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "raw_text", 5))), id="raw_text-number"
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "latency_ms", "12"))),
            id="latency-string",
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "status", "weird"))),
            id="status-unknown",
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "latency_ms", True))), id="latency-true"
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "latency_ms", -1))), id="latency-negative"
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "raw_text", DELETE))), id="no-raw_text"
        ),
        pytest.param(
            _damage_response(lambda response: json.dumps(_set_field(response, "status", None))), id="status-null"
        ),
        pytest.param(_damage_response(lambda response: "{not json"), id="not-json"),
        pytest.param(lambda fields: fields[:1], id="key-only"),
    ],
)
def test_evaluate_records_corrupt_cassette_entry(demo_dir, tmp_path, capsys, damage):
    cassettes = tmp_path / "cassettes"
    shutil.copytree(demo_dir / "cassettes", cassettes)
    (segment,) = cassettes.glob("segment-*.jsonl")
    lines = segment.read_text(encoding="utf-8").splitlines()
    fields = lines[0].split("\t")
    key = fields[0]
    assert len(fields) == 3 and len(key) == 64
    damaged_fields = damage(fields)
    lines[0] = "\t".join(damaged_fields)
    segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    _, manifest = _evaluate_demo(demo_dir, tmp_path, cassette_dir=str(cassettes))
    records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()[1:]]
    damaged = [r for r in records if r["error"]]
    assert len(damaged) == 1 and len(records) == 20
    assert damaged[0]["outcome"] == "invalid_output"
    err = capsys.readouterr().err
    if len(damaged_fields) == 3:
        # the line still names its key: the damage is that key's error
        assert damaged[0]["error"].startswith(f"MalformedProviderOutput: corrupt cassette entry {key}")
        assert "dropped" not in err
    else:
        # a line with no key to read is dropped, and its request misses by the full key
        assert damaged[0]["error"].startswith("ReplayMiss: ") and damaged[0]["error"].endswith(f"(key {key})")
        assert "1 cassette lines dropped" in err


# each of these stopped the command with a traceback (TypeError or UnicodeDecodeError)
@pytest.mark.parametrize(
    "command, name, damage",
    [
        pytest.param("evaluate", "dataset.json", lambda data: b"[5]", id="dataset-row-not-object"),
        pytest.param(
            "evaluate", "dataset.json", lambda data: data.replace(b"001-2", b"001-\xff"), id="dataset-not-utf8"
        ),
        pytest.param(
            "report", "eval/manifest.jsonl", lambda data: data.replace(b"001-2", b"001-\xff"), id="manifest-not-utf8"
        ),
    ],
)
def test_undecodable_input_is_invalid_input(demo_dir, tmp_path, capsys, command, name, damage):
    shutil.copy(demo_dir / "dataset.json", tmp_path / "dataset.json")
    config, manifest = _evaluate_demo(demo_dir, tmp_path, dataset=str(tmp_path / "dataset.json"))
    target = tmp_path / name
    target.write_bytes(damage(target.read_bytes()))
    capsys.readouterr()
    if command == "evaluate":
        code = run_cli("evaluate", "--config", config, "--out-dir", str(tmp_path / "again"))
    else:
        code = run_cli("report", "--config", config, "--manifest", str(manifest), "--out-dir", str(tmp_path / "rep"))
    assert code == 3
    assert "invalid input" in capsys.readouterr().err


# --- output files ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["evaluate", "report", "graph", "ingest", "transcribe"])
def test_unwritable_output_path_exits_1(demo_dir, tmp_path, capsys, request, fake_probe_cmd, command):
    blocker = tmp_path / "afile"  # a regular file where the output's directory should be
    blocker.write_text("not a directory", encoding="utf-8")
    demo_config = str(demo_dir / "config.json")
    if command == "report":
        _, manifest = _evaluate_demo(demo_dir, tmp_path)
        argv = ["report", "--config", demo_config, "--manifest", str(manifest), "--out-dir", str(blocker / "out")]
    elif command == "ingest":
        media, config = request.getfixturevalue("media_tree"), request.getfixturevalue("probe_config")
        argv = ["ingest", str(media), "--config", str(config), "--out", str(blocker / "inventory.json")]
    elif command == "transcribe":
        audio, config, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
        argv = ["transcribe", str(audio), "--config", str(config), "--out", str(blocker / "transcripts.json")]
    else:
        argv = [command, "--config", demo_config, "--out-dir", str(blocker / "out")]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert f"error: cannot write {blocker}" in capsys.readouterr().err


# --- transcribe -----------------------------------------------------------------------------


def _recorded_transcribe(tmp_path, fake_probe_cmd):
    """An audio file, a replay config for transcribe and its one cassette entry; return (audio, config, key)."""
    from videval.providers import CassetteStore, ModelRequest, ModelResponse, request_key

    audio = tmp_path / "talk.wav"
    audio.write_bytes(b"wav bytes")
    cassettes = tmp_path / "cassettes"
    cassettes.mkdir()
    dataset = tmp_path / "dataset.json"
    dataset.write_text("[]", encoding="utf-8")

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dataset": str(dataset),
                "cassette_dir": str(cassettes),
                "probe_command": fake_probe_cmd,
                "asr_provider": "whisper",
                "providers": {"whisper": {"endpoint": ""}},
                "conditions": [{"provider": "whisper", "model_name": "w"}],
            }
        ),
        encoding="utf-8",
    )

    payload = json.dumps(
        {"segments": [{"id": 0, "start": 0.0, "end": 2.0, "text": "hello world"}], "text": "hello world"}
    )
    key = request_key(ModelRequest("whisper", "asr", audio_ref=str(audio)))
    CassetteStore(cassettes).put(key, "{}", ModelResponse(payload, 150, "ok"))
    return audio, config_path, key


def test_transcribe_command_replay(tmp_path, fake_probe_cmd):
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    out = tmp_path / "transcripts.json"
    code = run_cli("transcribe", str(audio), "--config", str(config_path), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["talk"]["text"] == "hello world"
    assert data["talk"]["segments"][0]["start"] == 0.0


def test_transcribe_reports_dropped_cassette_lines(tmp_path, capsys, fake_probe_cmd):
    audio, config_path, key = _recorded_transcribe(tmp_path, fake_probe_cmd)
    (segment,) = (tmp_path / "cassettes").iterdir()
    segment.write_bytes(segment.read_bytes()[:-10])  # the only line, cut off as a crash while writing leaves it
    capsys.readouterr()
    code = run_cli("transcribe", str(audio), "--config", str(config_path), "--out", str(tmp_path / "t.json"))
    err = capsys.readouterr().err
    assert code == 1  # the replay miss stops the command, after the count is printed
    assert "1 cassette lines dropped" in err and f"(key {key})" in err


def test_transcribe_skips_probe_documents_of_another_shape(tmp_path, capsys, fake_probe_cmd):
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    bad = [tmp_path / "e_textwidth.mp4", tmp_path / "f_listdoc.wav"]
    for path in bad:
        path.write_bytes(b"x")
    out = tmp_path / "transcripts.json"
    capsys.readouterr()
    assert run_cli("transcribe", str(audio), *map(str, bad), "--config", str(config_path), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert all(f"skipping {path}: probe output for {path} does not fit" in err for path in bad)
    assert list(json.loads(out.read_text(encoding="utf-8"))) == ["talk"]


def test_transcribe_skips_a_video_without_audio(tmp_path, capsys, fake_probe_cmd):
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    silent = tmp_path / "a_silent.mp4"  # the fake probe lists no audio stream for a "silent" stem
    silent.write_bytes(b"video bytes")
    out = tmp_path / "transcripts.json"
    capsys.readouterr()
    assert run_cli("transcribe", str(silent), str(audio), "--config", str(config_path), "--out", str(out)) == 0
    assert f"skipping {silent}: no audio stream" in capsys.readouterr().err
    assert list(json.loads(out.read_text(encoding="utf-8"))) == ["talk"]


def test_transcribe_skips_a_file_whose_stem_another_file_holds(tmp_path, capsys, fake_probe_cmd):
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    other = tmp_path / "b" / "talk.mp3"  # the same id, other bytes: no cassette entry, so a call would miss
    other.parent.mkdir()
    other.write_bytes(b"mp3 bytes")
    out = tmp_path / "transcripts.json"
    capsys.readouterr()
    assert run_cli("transcribe", str(audio), str(other), "--config", str(config_path), "--out", str(out)) == 0
    assert f"skipping {other}: {audio} already has the transcript id 'talk'" in capsys.readouterr().err
    assert json.loads(out.read_text(encoding="utf-8"))["talk"]["text"] == "hello world"


def test_transcribe_skips_an_answer_that_is_not_a_transcript(tmp_path, capsys, fake_probe_cmd, loopback_provider):
    asr = {"segments": [{"id": 0, "start": 0.0, "end": 1.5, "text": "hello"}], "text": "hello", "language": "en"}
    loopback_provider.script = [(200, json.dumps({"text": "not json"})), (200, json.dumps({"text": json.dumps(asr)}))]
    bad, good = tmp_path / "a_bad.wav", tmp_path / "b_good.wav"
    for path in (bad, good):
        path.write_bytes(path.name.encode())
    _, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    raw["providers"]["whisper"]["endpoint"] = loopback_provider.endpoint
    config_path.write_text(json.dumps(raw), encoding="utf-8")

    outputs = {}
    for mode in ("--live", "--replay"):
        out = tmp_path / f"transcripts{mode}.json"
        capsys.readouterr()
        assert run_cli("transcribe", mode, str(bad), str(good), "--config", str(config_path), "--out", str(out)) == 0
        assert f"skipping {bad}: ASR payload is not JSON" in capsys.readouterr().err
        outputs[mode] = out.read_bytes()
    assert len(loopback_provider.seen) == 2  # the replay asked nothing live
    assert json.loads(outputs["--live"]) == {"b_good": {"segments": asr["segments"], "text": "hello", "language": "en"}}
    assert outputs["--replay"] == outputs["--live"]


# --- the cassette directory ----------------------------------------------------------------------


def test_graph_and_report_need_no_cassette_directory(demo_dir, tmp_path):
    _, manifest = _evaluate_demo(demo_dir, tmp_path)
    path = _demo_config_variant(demo_dir, tmp_path, cassette_dir=str(tmp_path / "absent"))
    assert run_cli("graph", "--config", str(path), "--out-dir", str(tmp_path / "g")) == 0
    assert run_cli("report", "--config", str(path), "--manifest", str(manifest), "--out-dir", str(tmp_path / "r")) == 0
    assert not (tmp_path / "absent").exists()


def test_live_flag_records_into_a_new_cassette_directory(demo_dir, tmp_path, loopback_provider):
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    cassettes = tmp_path / "cassettes"
    # the config's mode is replay; --live overrides it, and the first answer creates the directory
    path = _demo_config_variant(demo_dir, tmp_path, cassette_dir=str(cassettes), providers=raw["providers"])
    assert run_cli("evaluate", "--live", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 0
    assert len((cassettes / "segment-000001.jsonl").read_bytes().splitlines()) == 20


def test_live_run_replays_to_the_same_records_and_tables(demo_dir, tmp_path, loopback_provider):
    # the first call is refused and retried; each reply takes 0.1 s, so a record
    # timed across its attempts would read more than the latency its cassette keeps
    loopback_provider.script = [(503, "busy", 0.1), (200, json.dumps({"text": "Answer: A"}), 0.1)]
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    cassettes = str(tmp_path / "cassettes")
    path = _demo_config_variant(demo_dir, tmp_path, cassette_dir=cassettes, providers=raw["providers"])
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert run_cli("evaluate", "--live", "--config", str(path), "--out-dir", str(live)) == 0
    assert run_cli("evaluate", "--replay", "--config", str(path), "--out-dir", str(replay)) == 0
    assert len(loopback_provider.seen) == 21

    def outputs(out_dir):
        """Each file's bytes; the manifest without its header, whose started_at tells the modes apart."""
        files = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        files["manifest.jsonl"] = files["manifest.jsonl"].split(b"\n", 1)[1]
        return files

    assert "completeness.md" in outputs(live)
    assert outputs(live) == outputs(replay)


def test_replay_flag_needs_the_cassette_directory(demo_dir, tmp_path, capsys):
    # a live config: the check follows --replay, not the config's mode
    path = _demo_config_variant(demo_dir, tmp_path, mode="live", cassette_dir=str(tmp_path / "absent"))
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--replay", "--config", str(path), "--out-dir", str(out_dir)) == 2
    assert "cassette directory not found" in capsys.readouterr().err
    assert not out_dir.exists()


# --- config loading ----------------------------------------------------------------------------


def test_load_config_validates(demo_dir, tmp_path):
    config = load_config(demo_dir / "config.json")
    assert config.mode == "replay"
    assert len(config.conditions) == 2
    assert config.tolerance_s == 2

    raw = json.loads((demo_dir / "config.json").read_text())
    raw["conditions"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_load_config_rejects_unknown_provider(demo_dir, tmp_path):
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["conditions"][0]["provider"] = "ghost"
    # keep relative paths resolvable
    for key in ("dataset", "cassette_dir", "transcripts", "outputs", "annotations"):
        if key in raw:
            raw[key] = str(demo_dir / raw[key])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def _demo_config_variant(demo_dir, tmp_path, **changes):
    raw = json.loads((demo_dir / "config.json").read_text())
    for key in ("dataset", "cassette_dir", "transcripts", "outputs", "annotations"):
        raw[key] = str(demo_dir / raw[key])
    raw.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_load_config_rejects_equal_condition_tags(demo_dir, tmp_path):
    raw = json.loads((demo_dir / "config.json").read_text())
    # a second provider does not tell the records apart: they carry only the tag
    twin = dict(raw["conditions"][0], provider="local-whisper")
    path = _demo_config_variant(demo_dir, tmp_path, conditions=[*raw["conditions"], twin])
    with pytest.raises(ConfigError, match="condition 2 repeats"):
        load_config(path)


def test_load_config_rejects_zero_workers(demo_dir, tmp_path):
    with pytest.raises(ConfigError, match="max_workers"):
        load_config(_demo_config_variant(demo_dir, tmp_path, max_workers=0))


def test_load_transcripts_rejects_duplicate_segment_ids(tmp_path):
    from videval.config import load_transcripts

    segments = [
        {"id": 0, "start": 0.0, "end": 1.0, "text": "a"},
        {"id": 0, "start": 1.0, "end": 2.0, "text": "b"},
    ]
    path = tmp_path / "transcripts.json"
    path.write_text(json.dumps({"vid-7": {"segments": segments, "text": "ab"}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="vid-7.*duplicate segment ids"):
        load_transcripts(path)


@pytest.mark.parametrize("loader", ["load_config", "load_transcripts", "load_outputs", "load_annotations"])
@pytest.mark.parametrize("content", ['{"x": {"segments": [{"id": 0}]}', "[]", "\xff"])
def test_json_loaders_raise_config_error_naming_the_file(tmp_path, loader, content):
    import videval.config

    path = tmp_path / "broken.json"
    path.write_bytes(content.encode("latin-1"))
    with pytest.raises(ConfigError, match="broken.json"):
        getattr(videval.config, loader)(path)


def _run_python(code: str, **kwargs):
    """Run code in a fresh interpreter that imports this checkout's videval."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import videval

    src = str(Path(videval.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, **kwargs)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, videval.cli; print('numpy' in sys.modules)"
    done = _run_python(code, check=True)
    assert done.stdout.strip() == "False"


def test_live_evaluate_runs_without_requests(demo_dir, tmp_path, loopback_provider):
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    path = _demo_config_variant(demo_dir, tmp_path, mode="live", cassette_dir=str(tmp_path / "cassettes"),
                                providers=raw["providers"])
    out_dir = tmp_path / "out"
    # any import of the requests package now raises ImportError
    code = (
        "import sys; sys.modules['requests'] = None; from videval.cli import main; "
        f"sys.exit(main(['evaluate', '--config', {str(path)!r}, '--out-dir', {str(out_dir)!r}]))"
    )
    done = _run_python(code, timeout=120)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in (out_dir / "manifest.jsonl").read_text().splitlines()[1:]]
    assert len(records) == len(loopback_provider.seen) == 20
    assert {r["response"]["status"] for r in records} == {"ok"}
    segments = list((tmp_path / "cassettes").glob("segment-*.jsonl"))
    assert sum(len(path.read_bytes().splitlines()) for path in segments) == 20


def test_evaluate_runs_from_any_cwd(demo_dir, tmp_path, monkeypatch):
    # relative config paths resolve against the config file, not the cwd
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir)) == 0
