import gc
import json
import os
import shutil
import threading
import time
import tracemalloc
import warnings

import pytest
from conftest import read_manifest

import videval.media
from videval.benchmark import AHEAD_PER_WORKER, RunManifest, load_dataset, plan_cells
from videval.cli import _write, main
from videval.config import load_config
from videval.errors import ConfigError, IoError, SchemaError
from videval.providers import (
    CassetteStore,
    ModelRequest,
    ModelResponse,
    ProviderHub,
    request_fingerprint,
    request_key,
)


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


def test_ingest_skips_a_probe_whose_output_is_not_utf8(media_tree, probe_config, tmp_path, capsys):
    # the fake probe writes bytes that are not UTF-8 to stdout for one stem, and to stderr, failing, for the
    # other: each ended ingest in a UnicodeDecodeError traceback
    stdout_bad, stderr_bad = media_tree / "g_latin1out.mp4", media_tree / "h_latin1err.wav"
    for path in (stdout_bad, stderr_bad):
        path.write_bytes(b"x")
    out = tmp_path / "inventory.json"
    assert run_cli("ingest", str(media_tree), "--config", str(probe_config), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert f"skipping {stdout_bad}: probe emitted invalid JSON for {stdout_bad}\n" in err
    assert f"skipping {stderr_bad}: probe failed for {stderr_bad}: probe \ufffd\ufffd exploded\n" in err
    inventory = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(asset["path"] for asset in inventory["assets"]) == sorted(
        str(p) for p in media_tree.rglob("*") if p.suffix in (".mp4", ".flac", ".webm", ".wmv") and p != stdout_bad
    )


def test_ingest_skips_a_duration_that_is_not_finite(tmp_path, probe_config):
    # float() reads "inf", and the inventory held Infinity, which is not JSON, counted as long
    raw = json.loads(probe_config.read_text(encoding="utf-8"))
    raw["probe_command"] = "cat {input}"
    config = tmp_path / "cat_config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    media = tmp_path / "media"
    media.mkdir()
    for name, duration in (("a.wav", "inf"), ("b.wav", "NaN"), ("c.wav", "-Infinity")):
        doc = {"format": {"duration": duration, "format_name": "wav"}, "streams": [{"codec_type": "audio"}]}
        (media / name).write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "inventory.json"
    assert run_cli("ingest", str(media), "--config", str(config), "--out", str(out)) == 0

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    inventory = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
    assert [asset["duration_s"] for asset in inventory["assets"]] == [0.0, 0.0, 0.0]
    assert inventory["histogram"]["durations"] == {"short": 3}


def test_ingest_zero_usable_exits_3(tmp_path, probe_config, capsys):
    empty = tmp_path / "docs"
    empty.mkdir()
    (empty / "a.pdf").write_bytes(b"%PDF")
    code = run_cli("ingest", str(empty), "--config", str(probe_config))
    assert code == 3
    assert "0 usable assets" in capsys.readouterr().err


def test_ingest_lists_a_file_reached_twice_once(media_tree, probe_config, tmp_path, capsys):
    first = media_tree / "nested" / "c_d700.webm"
    again = media_tree / "nested" / ".." / "a_d60.mp4"  # another spelling of a file the walk reaches
    out = tmp_path / "inventory.json"
    argv = [str(first), str(media_tree), str(media_tree / "nested"), str(again), str(first)]
    assert run_cli("ingest", *argv, "--config", str(probe_config), "--out", str(out)) == 0
    inventory = json.loads(out.read_text(encoding="utf-8"))
    # each file where the arguments first reach it, spelled as given there
    assert [asset["path"] for asset in inventory["assets"]] == [
        str(first), str(media_tree / "a_d60.mp4"), str(media_tree / "b.flac"), str(media_tree / "nested" / "d_d3000.wmv")
    ]
    assert inventory["histogram"]["containers"] == {"flac": 1, "mp4": 1, "webm": 1, "wmv": 1}
    assert inventory["histogram"]["durations"] == {"short": 2, "medium": 1, "long": 1}
    assert "4 usable assets" in capsys.readouterr().out


def _with_max_workers(config_path, max_workers: int):
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    raw["max_workers"] = max_workers
    config_path.write_text(json.dumps(raw), encoding="utf-8")


def test_ingest_output_does_not_depend_on_the_pool_width(media_tree, probe_config, tmp_path, capsys, monkeypatch):
    # the fake probe fails on an extension it does not know, on "broken", and on documents of another shape
    failing = ["a1_unknown.qt", "b1_textwidth.mp4", "c1_listdoc.flac", "nested/c0_broken.avi", "nested/e_unknown.mpeg"]
    for name in [*failing, "a2_d30.mp3", "c2_d1000.m4a", "nested/c3_d200.avi", "z_d10.wav"]:
        (media_tree / name).write_bytes(name.encode())
    walk = sorted(p for p in media_tree.rglob("*") if videval.media.is_supported(p))
    # the earlier a file comes in the walk, the longer its probe takes, so a pool finishes them out of order
    delays = {str(path): 0.004 * (len(walk) - i) for i, path in enumerate(walk)}
    real_probe = videval.media.probe
    monkeypatch.setattr(videval.media, "probe", lambda path, tool: time.sleep(delays[str(path)]) or real_probe(path, tool))

    runs = {}
    for max_workers in (1, 4):
        _with_max_workers(probe_config, max_workers)
        capsys.readouterr()
        assert run_cli("ingest", str(media_tree), "--config", str(probe_config), "--out", str(tmp_path / "inv.json")) == 0
        captured = capsys.readouterr()
        runs[max_workers] = ((tmp_path / "inv.json").read_bytes(), captured.out, captured.err)
    assert runs[4] == runs[1]
    inventory_bytes, _, err = runs[4]
    skipped = [line.split(": ", 1)[0].removeprefix("skipping ") for line in err.splitlines()]
    assert skipped == [str(path) for path in walk if path.relative_to(media_tree).as_posix() in failing]
    assert [asset["path"] for asset in json.loads(inventory_bytes)["assets"]] == [
        str(path) for path in walk if str(path) not in skipped
    ]


def test_ingest_probes_at_most_max_workers_at_once(tmp_path, probe_config, monkeypatch):
    media = tmp_path / "media"
    media.mkdir()
    for i in range(12):
        (media / f"clip{i:02d}_d30.mp3").write_bytes(b"a")
    log: list[str] = []  # "start" and "end" of each probe, in the order they happened
    lock = threading.Lock()
    real_probe = videval.media.probe

    def slow_probe(path, tool):
        with lock:
            log.append("start")
        try:
            time.sleep(0.05)
            return real_probe(path, tool)
        finally:
            with lock:
                log.append("end")

    monkeypatch.setattr(videval.media, "probe", slow_probe)
    _with_max_workers(probe_config, 3)
    assert run_cli("ingest", str(media), "--config", str(probe_config), "--out", str(tmp_path / "inv.json")) == 0
    in_flight, peak = 0, 0
    for event in log:
        in_flight += 1 if event == "start" else -1
        peak = max(peak, in_flight)
    assert log.count("start") == log.count("end") == 12
    assert peak == 3


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
    "manifest.jsonl": "60f902f300e7654ae1d0ad074c94d5288a5ddf5b01278b56dbc1bba943e7fb7b",
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
    # the names of the files above, and the manifest's
    "bundle.json": "988aff4cd84fa16a3e46d568e6ca79d3dc74694752224871240edf911a23da76",
}


def _demo_digests(monkeypatch, root, out_dir) -> dict[str, str]:
    """The SHA-256 of each DEMO_GOLDEN_SHA256 file that evaluate on root/demo/config.json writes to out_dir."""
    import hashlib

    monkeypatch.chdir(root)
    assert run_cli("evaluate", "--config", "demo/config.json", "--out-dir", str(out_dir)) == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in DEMO_GOLDEN_SHA256}


def test_evaluate_demo_golden_digests(demo_dir, tmp_path, monkeypatch):
    assert _demo_digests(monkeypatch, demo_dir.parent, tmp_path / "out") == DEMO_GOLDEN_SHA256


# the manifest.jsonl digest of evaluate before its header dropped dataset_path and started_at and its
# records came item by item: the header held "demo/dataset.json" and the epoch, and the records came
# condition by condition
CONDITION_ORDER_MANIFEST_SHA256 = "2dec0ac1af983ee9875f0281f27a4b738c7a434fc98570c2a457918b4fb8f45c"


def test_report_on_a_manifest_in_the_old_header_and_order_writes_evaluates_tables(demo_dir, tmp_path, monkeypatch):
    # the scores fold is order-free, and a header's unknown keys are ignored
    import hashlib

    _demo_digests(monkeypatch, demo_dir.parent, tmp_path / "eval")
    header, *records = (tmp_path / "eval" / "manifest.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    old_header = {**json.loads(header), "dataset_path": "demo/dataset.json", "started_at": "1970-01-01T00:00:00Z"}
    tags = [condition["tag"] for condition in old_header["conditions"]]
    by_condition = sorted(records, key=lambda line: tags.index(json.loads(line)["condition"]))  # stable: by item within
    old = json.dumps(old_header, sort_keys=True, separators=(",", ":")) + "\n" + "".join(by_condition)
    assert hashlib.sha256(old.encode("utf-8")).hexdigest() == CONDITION_ORDER_MANIFEST_SHA256
    (tmp_path / "old.jsonl").write_text(old, encoding="utf-8")
    argv = ["report", "--config", "demo/config.json", "--manifest", str(tmp_path / "old.jsonl")]
    assert run_cli(*argv, "--out-dir", str(tmp_path / "rep")) == 0
    tables = sorted(p.name for p in (tmp_path / "eval").iterdir() if p.suffix in (".md", ".csv") or p.name == "scores.json")
    assert len(tables) == 9
    for name in tables:
        assert (tmp_path / "rep" / name).read_bytes() == (tmp_path / "eval" / name).read_bytes(), name


def test_evaluate_out_dir_depends_on_no_path_spelling_directory_or_environment(demo_dir, tmp_path):
    """evaluate --replay on the demo, one subprocess per variant: each out dir holds the same bytes."""
    root = demo_dir.parent
    shutil.copytree(demo_dir, tmp_path / "copy" / "demo")
    variants = {
        "relative": (root, "demo/config.json", {}),
        "absolute": (root, str(demo_dir / "config.json"), {}),
        "dotdot": (root / "tests", "../demo/config.json", {}),  # and a second working directory
        "copy": (tmp_path / "copy", "demo/config.json", {}),
        "hashseed-0": (root, "demo/config.json", {"PYTHONHASHSEED": "0"}),
        "hashseed-1": (root, "demo/config.json", {"PYTHONHASHSEED": "1"}),
        "tz": (root, "demo/config.json", {"TZ": "Asia/Kolkata"}),
        "c-locale": (root, "demo/config.json", {"LC_ALL": "C"}),
    }
    code = "import sys, videval.cli; sys.exit(videval.cli.main(sys.argv[1:]))"
    outputs = {}
    for name, (cwd, config, env) in variants.items():
        out_dir = tmp_path / "out" / name
        done = _run_python(code, "evaluate", "--config", config, "--replay", "--out-dir", str(out_dir), cwd=cwd, env=env)
        assert done.returncode == 0, (name, done.stderr)
        outputs[name] = {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert "manifest.jsonl" in outputs["relative"] and "graphs/P69idA8JO98.json" in outputs["relative"]
    for name, files in outputs.items():
        assert files == outputs["relative"], name


def test_evaluate_takes_json_files_that_start_with_a_bom(demo_dir, tmp_path, monkeypatch):
    demo = shutil.copytree(demo_dir, tmp_path / "demo")
    for name in ("config.json", "dataset.json", "transcripts.json", "outputs.json", "annotations.json"):
        (demo / name).write_bytes(b"\xef\xbb\xbf" + (demo_dir / name).read_bytes())
    assert _demo_digests(monkeypatch, tmp_path, tmp_path / "out") == DEMO_GOLDEN_SHA256


@pytest.mark.parametrize("name, code, message", [
    pytest.param("dataset.json", 3, "invalid input: dataset file {path} line 1 is not UTF-8: 'utf-8' codec can't "
                 "decode byte 0xff", id="dataset"),
    pytest.param("config.json", 2, "config error: config file {path} is not readable JSON: 'utf-8' codec can't "
                 "decode byte 0xff", id="config"),
])
def test_a_utf16_input_file_is_one_error_line(demo_dir, tmp_path, capsys, name, code, message):
    # json.loads on the bytes guessed UTF-16: such a config was taken, and such a dataset's error held every row
    demo = shutil.copytree(demo_dir, tmp_path / "demo")
    path = demo / name
    path.write_bytes((demo_dir / name).read_text(encoding="utf-8").encode("utf-16"))
    assert run_cli("evaluate", "--config", str(demo / "config.json"), "--out-dir", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path)) and err.count("\n") == 1 and len(err) < 300, err
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_a_null_dataset_text_before_any_request(demo_dir, tmp_path, capsys, loopback_provider):
    # str() read a null question as "Question: None" and a null option as "B. None", and sent both
    rows = json.loads((demo_dir / "dataset.json").read_text(encoding="utf-8"))
    rows[0]["question"] = None
    rows[1]["options"]["B"] = None
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    path = _demo_config_variant(demo_dir, tmp_path, dataset=str(dataset), cassette_dir=str(tmp_path / "cassettes"),
                                providers=raw["providers"])
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--live", "--config", str(path), "--out-dir", str(out_dir)) == 3
    assert capsys.readouterr().err == (
        "invalid input: dataset row 1 (question_id '001-2').question must be a string, got None\n"
    )
    assert len(loopback_provider.seen) == 0
    assert not out_dir.exists() and not (tmp_path / "cassettes").exists()


def test_bundle_lists_what_each_command_wrote(demo_dir, tmp_path):
    runs = {  # evaluate first: report reads its manifest
        "evaluate": ([], "manifest.jsonl"),
        "graph": ([], None),
        "report": (["--manifest", str(tmp_path / "evaluate" / "manifest.jsonl")], None),  # it writes none
    }
    for command, (argv, manifest) in runs.items():
        out_dir = tmp_path / command
        assert run_cli(command, "--config", str(demo_dir / "config.json"), *argv, "--out-dir", str(out_dir)) == 0
        bundle = json.loads((out_dir / "bundle.json").read_text(encoding="utf-8"))
        written = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())
        written.remove("bundle.json")
        assert bundle == {"emitted": written, "manifest": manifest}, command


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


def test_evaluate_condition_filter_by_label(demo_dir, tmp_path):
    # a token is matched, case aside, inside each label: "with audio" is not inside "without Audio"
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", str(demo_dir / "config.json"), "--out-dir", str(out_dir),
                   "--conditions", "with audio") == 0
    header, records = read_manifest(((out_dir / "manifest.jsonl").read_bytes(),))
    second = load_config(demo_dir / "config.json").conditions[1]
    assert header.conditions == [second]
    records = list(records)
    assert len(records) == 10 and {record.condition for record in records} == {second.tag}


def test_evaluate_unknown_condition_filter(demo_dir, tmp_path):
    # "," named no condition, and the run wrote a manifest of "conditions": [], which no config holds
    for expr in ("nonexistent-label", ","):
        assert (
            run_cli(
                "evaluate",
                "--config", str(demo_dir / "config.json"),
                "--out-dir", str(tmp_path / "x"),
                "--conditions", expr,
            )
            == 2
        )


def test_unreadable_cassette_segment_is_config_error(demo_dir, tmp_path, capsys):
    # a segment that could not be opened ended evaluate in an IsADirectoryError traceback
    cassettes = tmp_path / "cassettes"
    shutil.copytree(demo_dir / "cassettes", cassettes)
    (cassettes / "segment-000002.jsonl").mkdir()
    config = _demo_config_variant(demo_dir, tmp_path, cassette_dir=str(cassettes))
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", str(config), "--replay", "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read cassette segment {cassettes / 'segment-000002.jsonl'}: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


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


KF = "annotations['P69idA8JO98'].keyframes"  # where each annotation keyframe case's error points


@pytest.mark.parametrize(
    "key, content, case, error",  # case: what is wrong, in words
    [
        ("outputs", {"vid": "just text"}, "outputs of video 'vid' must be an object of strings",
         "outputs['vid'] must be an object, got 'just text'"),
        ("outputs", {"vid": {"m": 5}}, "outputs of video 'vid' must be an object of strings",
         "outputs['vid']['m'] must be a string, got 5"),
        ("annotations", {"P69idA8JO98": ["a"]}, "annotations of video 'P69idA8JO98' must be an object",
         "annotations['P69idA8JO98'] must be an object, got ['a']"),
        ("annotations", {"P69idA8JO98": {"keyframes": {"7": "x"}}}, "keyframes of video 'P69idA8JO98'",
         f"{KF} must be a list, got {{'7': 'x'}}"),
        ("annotations", {"P69idA8JO98": {"keyframes": [[7]]}}, "keyframes of video 'P69idA8JO98'",
         f"{KF}[0] must be a [seconds, caption] pair, got [7]"),
        ("annotations", {"P69idA8JO98": {"keyframes": [["7", "x"]]}}, "keyframes of video 'P69idA8JO98'",
         f"{KF}[0] must be a number, got '7'"),
        ("annotations", {"P69idA8JO98": {"keyframes": [[7, 5]]}}, "keyframes of video 'P69idA8JO98'",
         f"{KF}[0] must be a string, got 5"),
        ("annotations", {"P69idA8JO98": {"summary": [True]}}, "summary of video 'P69idA8JO98' must be an object",
         "annotations['P69idA8JO98'].summary must be an object, got [True]"),
        # each of these passed the loader, then stopped `graph` with a ValueError traceback
        *(
            ("annotations", {"P69idA8JO98": {"keyframes": [pair]}}, "keyframes of video 'P69idA8JO98'",
             f"{KF}[0]{error}")
            for pair, error in (([-1, "x"], " must be at least 0, got -1"),
                                ([10000000, "x"], ": timestamp out of range: 10000000"),
                                ([5, ""], ": caption must be non-empty and trimmed"),
                                ([5, " x"], ": caption must be non-empty and trimmed"))
        ),
        # a string verdict counted as a match
        ("annotations", {"P69idA8JO98": {"summary": {"Qwen-7B": "false"}}}, "summary of video 'P69idA8JO98'",
         "annotations['P69idA8JO98'].summary['Qwen-7B'] must be true or false, got 'false'"),
    ],
)
def test_graph_bad_input_shape_is_config_error(demo_dir, tmp_path, capsys, key, content, case, error):
    bad = tmp_path / f"{key}.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    path = _demo_config_variant(demo_dir, tmp_path, **{key: str(bad)})
    assert run_cli("graph", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: {key} file {bad}: {error}\n"


@pytest.mark.parametrize("command", ["graph", "evaluate"])
def test_colliding_model_names_are_an_error(demo_dir, tmp_path, capsys, command):
    # "a:summary" is the id of model a's summary node: this ended in a ValueError traceback
    outputs = tmp_path / "outputs.json"
    outputs.write_text(json.dumps({"vid": {"a": "A summary.\n(00:05, a frame)", "a:summary": "Another."}}))
    path = _demo_config_variant(demo_dir, tmp_path, outputs=str(outputs))
    assert run_cli(command, "--config", str(path), "--out-dir", str(tmp_path / "out")) == 1
    assert "error: duplicate node id: 'a:summary'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "outputs, code, message",
    [
        pytest.param({"vid": {"a": "A summary.\n(00:05, a frame)", "a:summary": "Another."}}, 1,
                     "error: duplicate node id: 'a:summary'", id="colliding"),
        pytest.param({"vid": {"m": ""}}, 3, "invalid input: no valid model outputs", id="no-valid-output"),
    ],
)
def test_evaluate_refuses_a_bad_outputs_file_before_any_request(
    demo_dir, tmp_path, capsys, loopback_provider, outputs, code, message
):
    # such a run sent every request, paid for in a live run, and wrote the manifest and tables first
    outputs_path = tmp_path / "outputs.json"
    outputs_path.write_text(json.dumps(outputs), encoding="utf-8")
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    path = _demo_config_variant(demo_dir, tmp_path, outputs=str(outputs_path),
                                cassette_dir=str(tmp_path / "cassettes"), providers=raw["providers"])
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--live", "--config", str(path), "--out-dir", str(out_dir)) == code
    assert message in capsys.readouterr().err
    assert len(loopback_provider.seen) == 0
    assert not (out_dir / "manifest.jsonl").exists() and not (tmp_path / "cassettes").exists()


def test_graph_without_a_valid_output_is_invalid_input(demo_dir, tmp_path, capsys):
    # no summary text in any output: no graph can be built
    outputs = tmp_path / "outputs.json"
    outputs.write_text(json.dumps({"v1": {"m": ""}, "v2": {"m": "  ", "n": "(00:05, only a frame)"}}))
    out_dir = tmp_path / "out"
    assert run_cli("graph", "--config", str(demo_dir / "config.json"), "--outputs", str(outputs),
                   "--out-dir", str(out_dir)) == 3
    assert "invalid input: no valid model outputs" in capsys.readouterr().err
    assert not out_dir.exists()


# (config changes, the name the error must give); each of these, and the graph
# flags below 0, used to end in a traceback or run on regardless
BAD_CONFIG_VALUES = [
    ({"tolerance_s": "two"}, "tolerance_s"),
    ({"tolerance_s": -1}, "tolerance_s"),
    ({"max_workers": "four"}, "max_workers"),
    ({"keyframe_match_mode": "most"}, "keyframe_match_mode"),
    ({"providers": {"local-qwen": {"timeout_s": "slow"}}}, "timeout_s"),
    # 0 gave every live call a non-blocking socket, so each one failed
    ({"providers": {"local-qwen": {"timeout_s": 0}}}, "timeout_s must be a positive number"),
    ({"providers": {"local-qwen": "http://127.0.0.1:9"}}, "config.providers['local-qwen'] must be an object"),
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
    # fields read by their annotation alone: no reader table names them
    ({"layout": {"seed": "42"}}, "layout.seed must be an integer, got '42'"),
    ({"layout": {"cooling": "0.9"}}, "layout.cooling must be a number"),
    ({"layout": {"spacing": True}}, "layout.spacing must be a number"),
    (
        {"providers": {"local-qwen": {"retries": 1.5}}},
        "config.providers['local-qwen'].retries must be an integer, got 1.5",
    ),
    # 0 passed the loader, and every laid-out position was NaN
    ({"layout": {"spacing": 0}}, "layout: spacing"),
    # above 1 the temperature grew each round: graph exited 0 with positions near 1e76
    ({"layout": {"cooling": 1.5}}, "layout: cooling must be at most 1, got 1.5"),
    ({"layout": {"area": 0}}, "layout: area"),
    # json.loads reads Infinity: graph exited 0 with NaN in its exports; an int past the largest
    # float ended in an OverflowError traceback
    *(({"layout": {"area": area}}, "layout.area") for area in (float("inf"), 10**400)),
    ({"templates": {"mcq": 5}}, "templates.mcq"),
    ({"outputs": 5}, "outputs"),
    *(
        ({"conditions": [{"provider": "local-qwen", "model_name": "m", "fps": fps}]}, "fps")
        for fps in ("0.1", True, 0, float("inf"))  # an infinite fps put Infinity, which is not JSON, in the manifest
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
    # fps 0.1 and 0.1000001 print alike in a label: the second condition's completeness row overwrote the first's
    (
        {"conditions": [{"provider": "local-qwen", "model_name": "m", "fps": fps} for fps in (0.1, 0.1000001)]},
        "conditions 0 and 1 would share the completeness row 'Other (0.1 FPS) without Audio Transcription'",
    ),
    ({"providers": {"local-qwen": {"endpoint": 5}}}, "endpoint"),
    ({"providers": {"local-qwen": {"response_text_path": 5}}}, "response_text_path"),
    ({"asr_provider": "nope"}, "asr_provider"),
    ({"conditions": [{"provider": "local-qwen", "model_name": "m", "attention": "xformers"}]}, "attention"),
    ({"templates": {"mcq": "Answer: {options}"}}, "templates.mcq: template is missing a {question}"),
    # a lone surrogate in a template went into every prompt
    ({"templates": {"mcq": "{question}\n{options}\ud800"}}, "templates.mcq holds a lone surrogate at index 20"),
    ({"templates": {"summary": "\ud800"}}, "templates.summary holds a lone surrogate at index 0"),
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
    assert loaded.templates == demo.templates


def test_graph_tolerance_flag_is_the_config_key(demo_dir, tmp_path):
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(by_flag),
                   "--tolerance-s", "30") == 0
    path = _demo_config_variant(demo_dir, tmp_path, tolerance_s=30)
    assert run_cli("graph", "--config", str(path), "--out-dir", str(by_config)) == 0
    scores = (by_flag / "matching_scores.json").read_bytes()
    assert scores == (by_config / "matching_scores.json").read_bytes()
    # the demo's Qwen-7B keyframe lies more than the config's 2 s, and at most 30 s, from its annotation
    assert json.loads(scores)["Qwen-7B"]["keyframe"] == {"n": 1, "score": 1.0}
    assert run_cli("graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(tmp_path / "default")) == 0
    default = json.loads((tmp_path / "default" / "matching_scores.json").read_text())
    assert default["Qwen-7B"]["keyframe"] == {"n": 1, "score": 0.0}


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


def test_report_skips_a_record_of_an_unknown_item(demo_dir, tmp_path):
    # such a record counts in its condition's completeness row, and in no accuracy table
    config = str(demo_dir / "config.json")
    assert run_cli("evaluate", "--config", config, "--out-dir", str(tmp_path / "eval")) == 0
    header, first, *rest = (tmp_path / "eval" / "manifest.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(first)
    assert record["outcome"] == "answered_correct"
    unknown = json.dumps({**record, "item_ref": "999-9"}, sort_keys=True, separators=(",", ":")) + "\n"
    for name, lines in (("unknown", [header, unknown, *rest]), ("dropped", [header, *rest])):
        (tmp_path / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
        assert run_cli("report", "--config", config, "--manifest", str(tmp_path / f"{name}.jsonl"),
                       "--out-dir", str(tmp_path / name)) == 0
    unknown, dropped = (json.loads((tmp_path / name / "scores.json").read_text()) for name in ("unknown", "dropped"))
    assert unknown["warnings"] == ["1 record(s) reference unknown items and were skipped", *dropped["warnings"]]
    for key in ("overall_accuracy", "by_task_type", "by_duration", "by_model"):
        assert unknown[key] == dropped[key], key
    for name in ("task_accuracy.md", "duration_accuracy.md", "model_accuracy.md"):
        assert (tmp_path / "unknown" / name).read_bytes() == (tmp_path / "dropped" / name).read_bytes(), name
    rows = [unknown["completeness"], dropped["completeness"]]
    assert [sum(row["total"] for row in table.values()) for table in rows] == [20, 19]


@pytest.mark.parametrize(
    "damage, line",
    [
        pytest.param(lambda text: text[:-40], 21, id="record-cut-mid-line"),
        pytest.param(
            lambda text: text.replace('"conditions":', '"condition":', 1), 1, id="header-without-conditions"
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


@pytest.fixture(scope="module")
def demo_manifest(demo_dir, tmp_path_factory):
    """The demo's config path, the bytes of the manifest evaluate wrote, and its tables' directory."""
    tmp_path = tmp_path_factory.mktemp("demo_manifest")
    config, manifest = _evaluate_demo(demo_dir, tmp_path)
    return config, manifest.read_bytes(), manifest.parent


def _replace_line_end(data: bytes, n: int, end: bytes) -> bytes:
    """data with the newline that ends line n (from 1) replaced by end."""
    lines = data.split(b"\n")
    return b"\n".join(lines[: n - 1] + [lines[n - 1] + end + lines[n]] + lines[n + 1 :])


def _spoil_line(data: bytes, n: int) -> bytes:
    """data with a byte that is not UTF-8 in line n (from 1), in its item_ref."""
    lines = data.split(b"\n")
    lines[n - 1] = lines[n - 1].replace(b'"item_ref":"', b'"item_ref":"\xff', 1)
    return b"\n".join(lines)


# How report reads a manifest's bytes, each case as the manifest whole gives it to bytes.splitlines:
# None reads as the undamaged manifest, a number is the line an error names.
MANIFEST_LAYOUTS = [
    pytest.param(lambda data: b"\xef\xbb\xbf" + data, None, id="bom-first-line"),
    pytest.param(lambda data: data.replace(b"\n", b"\r\n"), None, id="crlf"),
    pytest.param(lambda data: _replace_line_end(data, 2, b"\r"), None, id="lone-cr-between-records"),
    pytest.param(lambda data: data.replace(b"\n", b"\n\n \t\n"), None, id="blank-lines"),
    pytest.param(lambda data: _spoil_line(data, 3), 3, id="not-utf8-on-line-3"),
    pytest.param(lambda data: _replace_line_end(_spoil_line(data, 3), 1, b"\r"), 3, id="not-utf8-after-a-lone-cr"),
    pytest.param(lambda data: _spoil_line(data, 3).replace(b"\n", b"\r\n\n"), 5, id="not-utf8-after-blank-lines"),
]


@pytest.mark.parametrize("layout, line", MANIFEST_LAYOUTS)
def test_report_reads_the_manifest_a_line_at_a_time_as_it_read_it_whole(demo_manifest, tmp_path, capsys, layout, line):
    """report gives the result, or the error text, of one bytes.splitlines over the whole file, and
    closes the file either way: a ResourceWarning from an unclosed one is caught here."""
    config, original, eval_dir = demo_manifest
    data = layout(original)
    try:
        whole = "".join(RunManifest.lines(*read_manifest((data,))))
    except SchemaError as exc:
        whole = f"invalid input: {exc}\n"
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(data)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = run_cli("report", "--config", config, "--manifest", str(manifest), "--out-dir", str(tmp_path / "rep"))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    if line is None:
        assert code == 0 and whole == original.decode("utf-8")
        with open(manifest, "rb") as fh:  # the round trip through the file, as report reads it
            assert "".join(RunManifest.lines(*read_manifest(fh))) == whole
        for name in ("task_accuracy.md", "model_accuracy.md", "completeness.md", "scores.json"):
            assert (tmp_path / "rep" / name).read_bytes() == (eval_dir / name).read_bytes()
    else:
        assert code == 3 and capsys.readouterr().err == whole
        assert whole.startswith(f"invalid input: manifest line {line} is malformed: UnicodeDecodeError(")


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
    ("parsed.confidence_source", "guess"),
    ("condition", None),
    ("condition.fps", 0),
    ("condition.with_transcript", 1),
    ("condition.gpu", "a10g\ud800"),  # a text of the config, as model_name is, which UTF-8 must encode
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


@pytest.mark.parametrize("spoiled_line, first_error", [
    pytest.param(1, "manifest line 1 is malformed", id="bad-header"),  # the header is read before the dataset
    pytest.param(3, "dataset file is empty", id="bad-record"),  # a record is read as aggregate scores it
])
def test_report_reads_the_header_then_the_dataset_then_the_records(demo_dir, demo_manifest, tmp_path, capsys,
                                                                   spoiled_line, first_error):
    lines = demo_manifest[1].split(b"\n")
    lines[spoiled_line - 1] = b"{not JSON"
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(b"\n".join(lines))
    (tmp_path / "empty.json").write_bytes(b"")
    path = _demo_config_variant(demo_dir, tmp_path, dataset=str(tmp_path / "empty.json"))
    capsys.readouterr()
    code = run_cli("report", "--config", str(path), "--manifest", str(manifest), "--out-dir", str(tmp_path / "rep"))
    assert code == 3 and capsys.readouterr().err.startswith(f"invalid input: {first_error}")
    assert not (tmp_path / "rep").exists()


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
        # json.loads reads Infinity, which is not JSON: the tag passed, and the records written from it held it
        pytest.param(
            "report",
            "eval/manifest.jsonl",
            lambda data: data.replace(b'"fps":0.1', b'"fps":Infinity'),
            id="manifest-fps-infinite",
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


def test_write_writes_its_chunks_in_order(tmp_path):
    path = tmp_path / "made" / "out.txt"
    _write(path, (chunk for chunk in ["first\n", "", "é 日 😀\n", "last"]))
    assert path.read_bytes() == "first\né 日 😀\nlast".encode("utf-8")


def test_a_write_that_fails_keeps_the_old_file_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier\n")

    def chunks():
        yield "first\n"
        raise OSError("disk full")

    with pytest.raises(IoError, match="cannot write .*out.txt: disk full"):
        _write(path, chunks())
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_text_utf8_cannot_encode_is_an_io_error_that_keeps_the_old_file_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier\n")
    with pytest.raises(IoError, match="cannot write .*out.txt: .*surrogates not allowed"):
        _write(path, ("first\n", "a lone \ud800 surrogate\n"))
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_evaluate_on_a_lone_surrogate_in_a_dataset_exits_3_naming_the_field_and_row(demo_dir, tmp_path):
    # it was taken, and the run failed with exit 1 at its first table write, leaving a lone manifest
    rows = json.loads((demo_dir / "dataset.json").read_text(encoding="utf-8"))
    for row in rows:
        if row["question_id"] == "001-2":
            row["task_type"] = "\ud800"  # json.dumps writes the escape; json.loads reads a lone surrogate back
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    config = _demo_config_variant(demo_dir, tmp_path, dataset=str(dataset))
    out_dir = tmp_path / "out"
    argv = ["evaluate", "--config", str(config), "--replay", "--out-dir", str(out_dir)]
    done = _run_python(f"import sys; from videval.cli import main; sys.exit(main({argv!r}))", timeout=120)
    assert done.returncode == 3
    assert done.stderr == (
        "invalid input: dataset row 1 (question_id '001-2').task_type holds a lone surrogate at index 0, "
        "which UTF-8 cannot encode: '\\ud800'\n"
    )
    assert not out_dir.exists()  # no manifest, and no table


def _with_a_lone_surrogate(doc, keys):
    """doc with a lone surrogate put in the middle of the text at keys, or, where the value there is not a text,
    of its key."""
    *inner, last = keys
    container = doc
    for key in inner:
        container = container[key]

    def spoiled(text: str) -> str:
        return text[:len(text) // 2] + "\ud800" + text[len(text) // 2:]

    if isinstance(container[last], str):
        container[last] = spoiled(container[last])
    else:
        container[spoiled(last)] = container.pop(last)
    return doc


@pytest.mark.parametrize("name, keys, where", [
    pytest.param("transcripts.json", ["001", "segments", 0, "text"], "transcripts file {path}: "
                 "transcripts['001'].segments[0].text", id="transcript-segment-text"),
    pytest.param("transcripts.json", ["001", "language"], "transcripts file {path}: transcripts['001'].language",
                 id="transcript-language"),
    # the 1,036 characters of this output are not quoted whole
    pytest.param("outputs.json", ["P69idA8JO98", "Gemini-2-Flash"], "outputs file {path}: "
                 "outputs['P69idA8JO98']['Gemini-2-Flash']", id="outputs-text"),
    pytest.param("annotations.json", ["P69idA8JO98", "keyframes", 0, 1], "annotations file {path}: "
                 "annotations['P69idA8JO98'].keyframes[0]", id="annotation-caption"),
    pytest.param("annotations.json", ["P69idA8JO98", "summary", "Qwen-7B"], "annotations file {path}: "
                 "annotations['P69idA8JO98'].summary key", id="summary-model-name"),
    pytest.param("config.json", ["conditions", 1, "gpu"], "config.condition 1.gpu", id="condition-gpu"),
])
def test_a_lone_surrogate_in_an_input_text_exits_2_before_any_request(demo_dir, tmp_path, capsys, loopback_provider,
                                                                       name, keys, where):
    # an outputs text ran every cell and then failed writing its graph, a transcript text went into the prompts,
    # and a GPU name failed the completeness table: each past the manifest
    demo = shutil.copytree(demo_dir, tmp_path / "demo")
    raw = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    raw["cassette_dir"] = str(tmp_path / "cassettes")
    (demo / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    path = demo / name
    path.write_text(json.dumps(_with_a_lone_surrogate(json.loads(path.read_text(encoding="utf-8")), keys)),
                    encoding="utf-8")
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--live", "--config", str(demo / "config.json"), "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where.format(path=path)} holds a lone surrogate at index "), err
    assert err.count("\n") == 1 and len(err) < 300, err
    assert len(loopback_provider.seen) == 0
    assert not out_dir.exists() and not (tmp_path / "cassettes").exists()


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


def test_a_rerun_that_fails_past_its_first_write_leaves_no_bundle(demo_dir, tmp_path, capsys):
    # the first run's bundle.json named its own tables beside the rerun's manifest
    config = str(demo_dir / "config.json")
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", config, "--replay", "--out-dir", str(out_dir)) == 0
    bundle = (out_dir / "bundle.json").read_bytes()
    # a command that fails before its first write keeps the bundle, which still indexes the out dir
    assert run_cli("evaluate", "--config", config, "--conditions", "9", "--out-dir", str(out_dir)) == 2
    assert (out_dir / "bundle.json").read_bytes() == bundle
    (out_dir / "task_accuracy.md").unlink()
    (out_dir / "task_accuracy.md").mkdir()
    capsys.readouterr()
    assert run_cli("evaluate", "--config", config, "--replay", "--conditions", "1", "--out-dir", str(out_dir)) == 1
    assert f"error: cannot write {out_dir / 'task_accuracy.md'}" in capsys.readouterr().err
    assert not (out_dir / "bundle.json").exists()
    assert not list(out_dir.rglob("*.tmp"))


def test_a_live_run_whose_out_dir_cannot_be_made_costs_no_call(demo_dir, tmp_path, capsys, loopback_provider):
    # the manifest's .tmp is opened before the first request; the parent writes the manifest once every call is made
    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    cassettes = tmp_path / "cassettes"
    path = _demo_config_variant(demo_dir, tmp_path, mode="live", cassette_dir=str(cassettes), providers=raw["providers"])
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("evaluate", "--config", str(path), "--out-dir", str(blocker)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}") and err.count("\n") == 1
    assert loopback_provider.seen == []
    assert not [line for segment in cassettes.glob("*") for line in segment.read_bytes().splitlines()]


@pytest.mark.parametrize("k", [0, 7, 19])
def test_a_manifest_write_that_fails_mid_run_leaves_nothing_behind(demo_dir, tmp_path, capsys, monkeypatch, k):
    import videval.cli

    config = str(demo_dir / "config.json")
    out_dir = tmp_path / "out"
    assert run_cli("evaluate", "--config", config, "--replay", "--out-dir", str(out_dir)) == 0
    assert (out_dir / "bundle.json").exists()
    manifest = (out_dir / "manifest.jsonl").read_bytes()
    written, tmps = [], []

    class FullAfterK:
        """The manifest's .tmp, with no room past its header and k records."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, lines):
            for line in lines:
                if len(written) == 1 + k:
                    tmps.extend(sorted(p.name for p in out_dir.rglob("*.tmp")))
                    raise OSError("disk full")
                written.append(line)
                self.fh.write(line)

    def open_(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FullAfterK(fh) if path == out_dir / "manifest.jsonl.tmp" else fh

    monkeypatch.setattr(videval.cli, "open", open_, raising=False)
    capsys.readouterr()
    assert run_cli("evaluate", "--config", config, "--replay", "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_dir / 'manifest.jsonl'}: ") and err.endswith(": disk full\n")
    assert err.count("\n") == 1 and len(written) == 1 + k
    assert tmps == ["manifest.jsonl.tmp"]  # each record's line is written once, there
    assert not list(out_dir.rglob("*.tmp"))
    assert not (out_dir / "bundle.json").exists()
    assert (out_dir / "manifest.jsonl").read_bytes() == manifest


def test_a_live_run_whose_cassette_append_fails_exits_1_naming_the_segment(
    demo_dir, tmp_path, capsys, monkeypatch, loopback_provider
):
    # the OSError of the fifth append left put, and evaluate ended in a traceback
    import videval.providers

    raw = json.loads((demo_dir / "config.json").read_text())
    raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
    cassettes = tmp_path / "cassettes"
    path = _demo_config_variant(demo_dir, tmp_path, mode="live", cassette_dir=str(cassettes),
                                providers=raw["providers"], max_workers=1)
    appends = []

    def open_(file, mode="r", *args, **kwargs):
        if mode == "ab":
            appends.append(file)
            if len(appends) == 5:
                raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(videval.providers, "open", open_, raising=False)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("evaluate", "--config", str(path), "--out-dir", str(out_dir)) == 1
    segment = cassettes / "segment-000001.jsonl"
    assert capsys.readouterr().err == f"error: cannot write {segment}: [Errno 28] No space left on device\n"
    # the run stopped at that answer, within the window past it, and every other answer it was sent is recorded
    assert 5 <= len(loopback_provider.seen) <= 4 + AHEAD_PER_WORKER
    assert len(segment.read_bytes().splitlines()) == len(loopback_provider.seen) - 1
    assert not (out_dir / "bundle.json").exists() and not (out_dir / "manifest.jsonl").exists()
    assert not list(out_dir.rglob("*.tmp"))


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
    # a lone surrogate in a segment: evaluate would refuse the transcripts file that held it
    spoiled = {**asr, "segments": [{**asr["segments"][0], "text": "hel\ud800lo"}]}
    loopback_provider.script = [(200, json.dumps({"text": text})) for text in ("not json", json.dumps(spoiled),
                                                                                json.dumps(asr))]
    bad, surrogate, good = tmp_path / "a_bad.wav", tmp_path / "a_surrogate.wav", tmp_path / "b_good.wav"
    for path in (bad, surrogate, good):
        path.write_bytes(path.name.encode())
    _, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    raw["providers"]["whisper"]["endpoint"] = loopback_provider.endpoint
    config_path.write_text(json.dumps(raw), encoding="utf-8")

    outputs = {}
    for mode in ("--live", "--replay"):
        out = tmp_path / f"transcripts{mode}.json"
        capsys.readouterr()
        files = map(str, (bad, surrogate, good))
        assert run_cli("transcribe", mode, *files, "--config", str(config_path), "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert f"skipping {bad}: ASR payload is not JSON" in err
        assert f"skipping {surrogate}: transcript.segments[0].text holds a lone surrogate at index 3" in err
        outputs[mode] = out.read_bytes()
    assert len(loopback_provider.seen) == 3  # the replay asked nothing live
    assert json.loads(outputs["--live"]) == {"b_good": {"segments": asr["segments"], "text": "hello", "language": "en"}}
    assert outputs["--replay"] == outputs["--live"]


@pytest.mark.parametrize("status", ["oom", "timeout", "invalid"])
def test_transcribe_skips_an_answer_that_is_not_ok(tmp_path, capsys, fake_probe_cmd, status):
    # such an answer gave its file an empty transcript, so the prompts "with" it equalled those without
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    failed = tmp_path / "b" / "talk.mp3"  # the same transcript id: the skip must leave it unclaimed
    failed.parent.mkdir()
    failed.write_bytes(b"mp3 bytes")
    key = request_key(ModelRequest("whisper", "asr", audio_ref=str(failed)))
    CassetteStore(tmp_path / "cassettes").put(key, "{}", ModelResponse("", 540, status))
    out = tmp_path / "transcripts.json"
    capsys.readouterr()
    argv = ["transcribe", "--replay", str(failed), str(audio), "--config", str(config_path), "--out", str(out)]
    assert run_cli(*argv) == 0
    assert f"skipping {failed}: the ASR answer is {status}, not a transcript" in capsys.readouterr().err
    assert json.loads(out.read_text(encoding="utf-8"))["talk"]["text"] == "hello world"


def test_transcribe_takes_a_file_reached_twice_once(tmp_path, capsys, fake_probe_cmd):
    audio, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    out = tmp_path / "transcripts.json"
    capsys.readouterr()
    assert run_cli("transcribe", str(audio), str(tmp_path), "--config", str(config_path), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""  # no "already has the transcript id" line for the second sight of it
    assert list(json.loads(out.read_text(encoding="utf-8"))) == ["talk"]


def test_transcribe_stopped_by_a_replay_miss_stops_the_probing(tmp_path, capsys, fake_probe_cmd, monkeypatch):
    _, config_path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
    _with_max_workers(config_path, 2)
    clips = tmp_path / "clips"  # no cassette entry for any of them, so the first send misses
    clips.mkdir()
    for i in range(40):
        (clips / f"clip{i:02d}.wav").write_bytes(b"wav %d" % i)
    probed: list[str] = []
    lock = threading.Lock()
    real_probe = videval.media.probe

    def logged_probe(path, tool):
        with lock:
            probed.append(path.name)
        return real_probe(path, tool)

    monkeypatch.setattr(videval.media, "probe", logged_probe)
    real_transcribe = ProviderHub.transcribe  # slowed, so that a probing left running would go on meanwhile
    monkeypatch.setattr(ProviderHub, "transcribe", lambda *args: time.sleep(0.3) or real_transcribe(*args))
    capsys.readouterr()
    code = run_cli("transcribe", str(clips), "--config", str(config_path), "--out", str(tmp_path / "t.json"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no cassette entry for asr request to whisper")
    assert "clip00.wav" in probed
    assert len(probed) <= 1 + AHEAD_PER_WORKER * 2  # the one taken, and those ahead of it


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
    # the config's mode is replay; --live overrides it, and the live run creates the directory
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
        """Each file's bytes, the manifest's header included."""
        return {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}

    assert "completeness.md" in outputs(live)
    assert outputs(live) == outputs(replay)


@pytest.mark.parametrize("command", ["evaluate", "transcribe"])
@pytest.mark.parametrize("under_a_file", [False, True], ids=["a-file", "under-a-file"])
def test_live_run_refuses_a_cassette_dir_it_cannot_make_before_any_request(
    demo_dir, tmp_path, capsys, loopback_provider, fake_probe_cmd, command, under_a_file
):
    # the first answer made the directory: the call was paid for, and then put ended in a traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file", encoding="utf-8")
    cassettes = blocker / "cassettes" if under_a_file else blocker
    out_dir = tmp_path / "out"
    if command == "evaluate":
        raw = json.loads((demo_dir / "config.json").read_text())
        raw["providers"]["local-qwen"]["endpoint"] = loopback_provider.endpoint
        path = _demo_config_variant(demo_dir, tmp_path, cassette_dir=str(cassettes), providers=raw["providers"])
        argv = ["evaluate", "--live", "--config", str(path), "--out-dir", str(out_dir)]
    else:
        audio, path, _ = _recorded_transcribe(tmp_path, fake_probe_cmd)
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["providers"]["whisper"]["endpoint"] = loopback_provider.endpoint
        raw["cassette_dir"] = str(cassettes)
        path.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["transcribe", "--live", str(audio), "--config", str(path), "--out", str(out_dir / "transcripts.json")]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot make cassette directory {cassettes}: ")
    assert loopback_provider.seen == []
    assert not out_dir.exists()


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


def _run_python(code: str, *argv: str, env: dict | None = None, **kwargs):
    """Run code with argv in a fresh interpreter that imports this checkout's videval, env added to its environment."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import videval

    src = str(Path(videval.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **(env or {}), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, **kwargs)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, videval.cli; print('numpy' in sys.modules)"
    done = _run_python(code, check=True)
    assert done.stdout.strip() == "False"


def _modules_loaded_by_each_command(modules, demo_dir, demo_manifest, media_tree, probe_config, tmp_path):
    """Per command, run in a fresh interpreter: its exit code, then whether each of modules is loaded."""
    config = str(demo_dir / "config.json")
    commands = {
        "import": None,
        "ingest": ["ingest", str(media_tree), "--config", str(probe_config), "--out", str(tmp_path / "inv.json")],
        "graph": ["graph", "--config", config, "--out-dir", str(tmp_path / "graph")],
        "report": ["report", "--config", demo_manifest[0], "--manifest", str(demo_manifest[2] / "manifest.jsonl"),
                   "--out-dir", str(tmp_path / "report")],
        "evaluate --replay": ["evaluate", "--config", config, "--replay", "--out-dir", str(tmp_path / "eval")],
    }
    loaded = {}
    for name, argv in commands.items():
        code = (
            "import sys; from videval.cli import main; "
            f"argv = {argv!r}; code = 0 if argv is None else main(argv); "
            f"print(code, *(m in sys.modules for m in {modules!r}), file=sys.stderr)"
        )
        done = _run_python(code, timeout=120)
        loaded[name] = done.stderr.splitlines()[-1]
    return loaded


def test_only_the_commands_that_hash_load_openssl(demo_dir, demo_manifest, media_tree, probe_config, tmp_path):
    """hashlib loads OpenSSL's _hashlib, a few MiB resident; of these commands only evaluate hashes."""
    loaded = _modules_loaded_by_each_command(
        ("_hashlib",), demo_dir, demo_manifest, media_tree, probe_config, tmp_path
    )
    assert loaded == {
        "import": "0 False", "ingest": "0 False", "graph": "0 False", "report": "0 False",
        "evaluate --replay": "0 True",
    }


def test_only_the_commands_that_run_a_pool_or_the_media_tool_load_them(
    demo_dir, demo_manifest, media_tree, probe_config, tmp_path
):
    """concurrent.futures, with the logging it loads, and subprocess are loaded only where they run."""
    loaded = _modules_loaded_by_each_command(
        ("concurrent.futures", "subprocess"), demo_dir, demo_manifest, media_tree, probe_config, tmp_path
    )
    assert loaded == {
        "import": "0 False False", "ingest": "0 True True", "graph": "0 False False",
        "report": "0 False False", "evaluate --replay": "0 False False",
    }


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc/self/task")
def test_graph_leaves_one_thread(demo_dir, tmp_path, monkeypatch):
    """The layout makes no BLAS call, so numpy's OpenBLAS starts no worker thread beside the main one."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    argv = ["graph", "--config", str(demo_dir / "config.json"), "--out-dir", str(tmp_path / "graph")]
    code = (
        "import os, sys; from videval.cli import main; "
        f"code = main({argv!r}); print(code, len(os.listdir('/proc/self/task')), file=sys.stderr)"
    )
    done = _run_python(code, timeout=120)
    assert done.stderr.splitlines()[-1] == "0 1"


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


# --- memory per record ------------------------------------------------------------------------


MEMORY_CONDITIONS = 8


def _synthetic_replay(root, n_items: int):
    """n_items questions x MEMORY_CONDITIONS conditions, every answer in the cassettes; return the config's path."""
    root.mkdir()
    items = [
        {
            "video_id": f"v{i // 3:04d}",
            "duration": "short",
            "domain": "Knowledge",
            "sub_category": "History",
            "url": f"https://example.invalid/{i}",
            "question_id": f"q{i:05d}",
            "task_type": "Counting Problem",
            "question": f"How many objects are in scene {i}?",
            "options": {letter: f"option {letter} of {i}" for letter in "ABCD"},
            "answer": "ABCD"[i % 4],
        }
        for i in range(n_items)
    ]
    conditions = [{"provider": "p", "model_name": f"m{c}"} for c in range(MEMORY_CONDITIONS)]
    (root / "dataset.json").write_text(json.dumps(items), encoding="utf-8")
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "dataset": "dataset.json",
                "cassette_dir": "cassettes",
                "providers": {"p": {"endpoint": ""}},
                "conditions": conditions,
            }
        ),
        encoding="utf-8",
    )
    loaded = load_config(config)  # keyed as evaluate sends them: a change there misses no answer
    store = CassetteStore(loaded.cassette_dir)
    for item, request in plan_cells(loaded, load_dataset(loaded.dataset), {}):
        i = int(item.question_id[1:])
        answer = ModelResponse(f"The answer is {'ABCD'[i * 7 % 4]}.", 1000 + i, "ok")
        store.put(request_key(request), request_fingerprint(request), answer)
    return config


def _peak_traced_bytes(*argv) -> int:
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_per_record_of_evaluate_and_report(tmp_path):
    """The peak traced memory grows by under 450 B per added record in evaluate --replay, and under 300 B in report.

    Holding the manifest's text whole grew it by about 1,720 B (evaluate) and 1,280 B (report);
    writing and reading it a line at a time, with slotted records, by about 730 B and 760 B; one
    object per repeated status, outcome, request kind and answer, by about 530 B and 580 B; with
    no unread dataset fields in BenchmarkItem, by about 510 B and 580 B. With report scoring each
    record as it decodes it, and the dataset file's bytes dropped before its items are built,
    report's peak is its dataset's, about 220 B per record. With evaluate holding no record, each
    written as it is made, and its cassette index holding each answer as its line's undecoded bytes,
    evaluate's grows by about 370 B, most of it that index's entries.
    Every record must carry an answer: a request rule the cassettes no longer match made each
    cell a ReplayMiss, a cheaper record, and the slopes still passed.
    """
    peaks = {}
    for n_items in (50, 400):
        root = tmp_path / str(n_items)
        config = str(_synthetic_replay(root, n_items))
        peaks[n_items * MEMORY_CONDITIONS] = (
            _peak_traced_bytes("evaluate", "--config", config, "--replay", "--out-dir", str(root / "eval")),
            _peak_traced_bytes(
                "report", "--config", config, "--manifest", str(root / "eval" / "manifest.jsonl"),
                "--out-dir", str(root / "rep"),
            ),
        )
        records = (root / "eval" / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        assert len(records) == n_items * MEMORY_CONDITIONS
        assert not [line for line in records if json.loads(line)["error"] is not None]
    (small, small_peaks), (large, large_peaks) = peaks.items()
    slopes = [(b - a) / (large - small) for a, b in zip(small_peaks, large_peaks)]
    assert slopes[0] < 450 and slopes[1] < 300, f"bytes per added record (evaluate, report): {slopes}"
