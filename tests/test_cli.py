import json

import pytest

from videval.cli import main
from videval.config import load_config
from videval.errors import ConfigError


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


# --- transcribe -----------------------------------------------------------------------------


def test_transcribe_command_replay(tmp_path, fake_probe_cmd):
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
    request = ModelRequest("whisper", "asr", audio_ref=str(audio))
    CassetteStore(cassettes).put(request_key(request), {}, ModelResponse(payload, 150, "ok"))

    out = tmp_path / "transcripts.json"
    code = run_cli("transcribe", str(audio), "--config", str(config_path), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["talk"]["text"] == "hello world"
    assert data["talk"]["segments"][0]["start"] == 0.0


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
    assert len(list((tmp_path / "cassettes").glob("*.json"))) == 20


def test_evaluate_runs_from_any_cwd(demo_dir, tmp_path, monkeypatch):
    # relative config paths resolve against the config file, not the cwd
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir)) == 0
