import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "demo"

# ffprobe-compatible stub: emits JSON keyed off the file extension and an
# optional "_d<seconds>" stem suffix; special stems simulate tool failures,
# output that is not UTF-8 and documents of another shape.
_FAKE_PROBE_SCRIPT = r'''
import json, sys
from pathlib import Path

path = Path(sys.argv[1])
stem = path.stem
if "broken" in stem:
    sys.stderr.write("probe exploded\n")
    sys.exit(1)
if "badjson" in stem:
    sys.stdout.write("this is not json")
    sys.exit(0)
if "latin1out" in stem:  # output that is not UTF-8
    sys.stdout.buffer.write(b"\xff\xfe{}")
    sys.exit(0)
if "latin1err" in stem:
    sys.stderr.buffer.write(b"probe \xff\xfe exploded\n")
    sys.exit(1)

duration = 120.0
for part in stem.split("_"):
    if part.startswith("d") and part[1:].replace(".", "", 1).isdigit():
        duration = float(part[1:])

ext = path.suffix.lower()
video_names = {
    ".mp4": "mov,mp4,m4a,3gp,3g2,mj2",
    ".m4v": "mov,mp4,m4a,3gp,3g2,mj2",
    ".mov": "mov,mp4,m4a,3gp,3g2,mj2",
    ".3gp": "mov,mp4,m4a,3gp,3g2,mj2",
    ".wmv": "asf",
    ".webm": "matroska,webm",
    ".avi": "avi",
    ".mpg": "mpeg",
}
audio_names = {".mp3": "mp3", ".wav": "wav", ".m4a": "mov,mp4,m4a,3gp,3g2,mj2", ".flac": "flac"}

if ext in video_names:
    doc = {
        "format": {"format_name": video_names[ext], "duration": str(duration)},
        "streams": [
            {"codec_type": "video", "width": 640, "height": 360},
            {"codec_type": "audio"},
        ],
    }
elif ext in audio_names:
    doc = {
        "format": {"format_name": audio_names[ext], "duration": str(duration)},
        "streams": [{"codec_type": "audio"}],
    }
else:
    sys.stderr.write("unknown format\n")
    sys.exit(1)
if "silent" in stem:
    doc["streams"] = [s for s in doc["streams"] if s["codec_type"] != "audio"]
if "textwidth" in stem:
    doc["streams"][0]["width"] = "wide"
if "listdoc" in stem:
    doc = [doc]
json.dump(doc, sys.stdout)
'''


@pytest.fixture(scope="session")
def fake_probe_cmd(tmp_path_factory) -> str:
    script = tmp_path_factory.mktemp("tools") / "fakeprobe.py"
    script.write_text(_FAKE_PROBE_SCRIPT, encoding="utf-8")
    return f"{sys.executable} {script} {{input}}"


def read_manifest(chunks):
    """The whole manifest that RunManifest.read gives a piece at a time: its header, every record read into it."""
    from videval.benchmark import RunManifest

    manifest, records = RunManifest.read(chunks)
    manifest.records.extend(records)
    return manifest


def run_collected(config, items, transcripts, hub):
    """run_benchmark's manifest, every record its sink was handed collected into it, in the manifest's
    order: condition by condition, as evaluate's spools list them."""
    from videval.benchmark import run_benchmark

    taken = []
    manifest = run_benchmark(config, items, transcripts, hub, taken.append)
    spool_of = {condition.tag: c for c, condition in enumerate(config.conditions)}
    manifest.records = sorted(taken, key=lambda record: spool_of[record.condition])  # stable: cell order within
    return manifest


@pytest.fixture(scope="session")
def demo_dir() -> Path:
    return DEMO_DIR


@pytest.fixture(scope="session")
def snow_white_outputs() -> dict:
    data = json.loads((DEMO_DIR / "outputs.json").read_text(encoding="utf-8"))
    return data["P69idA8JO98"]


class LoopbackProvider:
    """HTTP provider on 127.0.0.1 that answers POSTs from a script.

    `script` holds one (status, text[, delay_s[, charset]]) reply per attempt,
    in order; once it runs out, the last reply repeats. `seen` keeps the
    headers and decoded JSON body of every request received.
    """

    def __init__(self):
        self.script: list[tuple] = [(200, json.dumps({"text": "Answer: A"}))]
        self.seen: list[tuple] = []
        self._lock = threading.Lock()
        self._release = threading.Event()
        provider = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with provider._lock:
                    provider.seen.append((self.headers, body))
                    reply = provider.script[min(len(provider.seen), len(provider.script)) - 1]
                status, text, delay_s, charset = reply + (0.0, "utf-8")[len(reply) - 2:]
                provider._release.wait(delay_s)
                payload = text.encode(charset)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", f"application/json; charset={charset}")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except ConnectionError:  # the client gave up waiting
                    pass

            def log_message(self, format, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self._server.server_address[1]}/v1/generate"
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True)

    def __enter__(self) -> "LoopbackProvider":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._release.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture
def loopback_provider(monkeypatch):
    # reach 127.0.0.1 directly even where a *_proxy variable is set
    monkeypatch.setenv("no_proxy", "*")
    with LoopbackProvider() as provider:
        yield provider
