"""Every function defined in src/videval is on the path of a CLI command, or on ALLOWED.

A fresh interpreter installs a profile hook with `sys.setprofile` and, for the
threads it starts later (the pool of a live run), `threading.setprofile`. Only
then does it import `videval.cli`, so calls made at import time count too. It
runs each command of RUNS through `cli.main`, then `cli.entrypoint()` with a
patched `sys.argv`, and writes out the file and first line of every code
object that was called.

Every `def` in `src/videval/*.py`, nested ones included, is listed with `ast`.
A def is reached when a called code object has its file and the line of its
`def` or of its first decorator: a decorated function's code object starts at
its first decorator. (`co_qualname` would name the def directly, but Python
3.10 has none.)

The test fails on a def that no command reaches and ALLOWED does not list, and
on an ALLOWED entry that a command now reaches or that no longer exists, so
the list cannot outlive its reasons. To keep a function that no command calls,
add its dotted name (module, then any enclosing classes and functions) to
ALLOWED with the reason it stays.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import videval

SRC = Path(videval.__file__).resolve().parent

ALLOWED = {
    "providers.request_key": "bench/workloads.py and demo/regenerate.py key the cassettes they build with it",
    "providers.CassetteStore.__contains__": "bench/tracing.py's put hook evaluates `args[1] in args[0]`",
    "media.plan_frames": "ROADMAP item 6, frames through the loop, samples the frames with it",
    "media.MediaToolRunner.extract_frame": "ROADMAP item 6, frames through the loop, extracts the frames with it",
    "media.plan_split": "ROADMAP item 7, split on OOM, plans the segments with it",
    "scoring.stated_average_warnings": "acceptance criteria 4 and 5 check the paper's printed average rows with it",
    "scoring.claim_mismatch_warnings": "acceptance criterion 5 checks the paper's caption against its table with it",
    "scoring._differences": "stated_average_warnings and claim_mismatch_warnings compare rows with it",
}

# Installs the hooks before the first import of videval; argv[1] holds the runs
# and the file the called code objects are written to.
_TRACER = r"""
import json, sys, threading

called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

runs, entry_argv, out = json.loads(sys.argv[1])
threading.setprofile(hook)
sys.setprofile(hook)
import videval.cli as cli

codes = [cli.main(argv) for argv in runs]
sys.argv = entry_argv
try:
    cli.entrypoint()
except SystemExit as exc:
    codes.append(exc.code)
sys.setprofile(None)
threading.setprofile(None)
with open(out, "w") as fh:
    json.dump({"codes": codes, "called": sorted({(c.co_filename, c.co_firstlineno) for c in called})}, fh)
"""


def defined_functions() -> dict[str, tuple[Path, set[int]]]:
    """Dotted name -> (file, the lines that identify it) of every def in src/videval."""
    found = {}

    def visit(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                    found[name] = (path, lines)
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), path.stem)
    return found


def _live_config(demo_dir: Path, tmp_path: Path, endpoint: str, probe_cmd: str) -> Path:
    raw = json.loads((demo_dir / "config.json").read_text(encoding="utf-8"))
    for key in ("dataset", "transcripts", "outputs", "annotations"):
        raw[key] = str(demo_dir / raw[key])
    raw["providers"]["local-qwen"]["endpoint"] = endpoint
    raw["providers"]["local-whisper"].update(endpoint=endpoint, response_text_path="asr")
    raw.update(cassette_dir=str(tmp_path / "cassettes"), probe_command=probe_cmd)
    path = tmp_path / "live.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def called_lines(demo_dir: Path, tmp_path: Path, endpoint: str, probe_cmd: str) -> set[tuple[str, int]]:
    """Run every command in a traced interpreter; return (file, first line) of each code called."""
    media = tmp_path / "media"
    media.mkdir()
    for name in ("clip_d60.mp4", "talk.wav", "x_broken.mp4", "notes.txt"):
        (media / name).write_bytes(name.encode())
    demo = str(demo_dir / "config.json")
    live = str(_live_config(demo_dir, tmp_path, endpoint, probe_cmd))
    out = tmp_path / "out"
    manifest = str(out / "replay" / "manifest.jsonl")
    runs = [
        ["evaluate", "--replay", "--config", demo, "--out-dir", str(out / "replay")],
        ["report", "--config", demo, "--manifest", manifest, "--out-dir", str(out / "report")],
        ["graph", "--config", demo, "--out-dir", str(out / "graph")],
        ["evaluate", "--live", "--config", live, "--out-dir", str(out / "live")],
        ["transcribe", "--live", str(media), "--config", live, "--out", str(out / "transcripts.json")],
        ["ingest", str(media), "--config", live, "--out", str(out / "inventory.json")],
    ]
    entry_argv = ["videval", "report", "--config", demo, "--manifest", manifest, "--out-dir", str(out / "entry")]
    result = tmp_path / "called.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _TRACER, json.dumps([runs, entry_argv, str(result)])],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(result.read_text(encoding="utf-8"))
    assert traced["codes"] == [0] * (len(runs) + 1), done.stderr
    return {(str(Path(name).resolve()), line) for name, line in traced["called"]}


def test_every_function_is_on_a_command_path(demo_dir, tmp_path, loopback_provider, fake_probe_cmd):
    asr = {"segments": [{"id": 0, "start": 0.0, "end": 1.5, "text": "hello"}], "text": "hello", "language": "en"}
    # the first call is refused, so a live run retries and classifies the reply
    loopback_provider.script = [(503, "busy"), (200, json.dumps({"text": "Answer: A", "asr": json.dumps(asr)}))]
    called = called_lines(demo_dir, tmp_path, loopback_provider.endpoint, fake_probe_cmd)

    defs = defined_functions()
    reached = {name for name, (path, lines) in defs.items() if any((str(path), n) in called for n in lines)}
    unreached = sorted(set(defs) - reached - set(ALLOWED))
    assert not unreached, f"no command calls these; delete them or list them in ALLOWED with a reason: {unreached}"
    stale = sorted(name for name in ALLOWED if name not in defs or name in reached)
    assert not stale, f"ALLOWED lists these, but they are gone or a command now calls them: {stale}"
