"""Scripted VLM provider on loopback for the live_record workload.

It binds to 127.0.0.1 only and serves with a fixed number of threads, each
handling one connection at a time, so it never holds more connections than
that. Every answer comes from `workloads.live_script`, keyed by the request,
so what a request gets does not depend on the order requests arrive in.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler

from workloads import live_script

_QID_RE = re.compile(r"\[(lq[0-9-]+)\]")


class FakeProvider:
    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self._sock = socket.create_server(("127.0.0.1", 0), backlog=threads)
        self._sock.settimeout(0.2)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._attempts: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._threads = [threading.Thread(target=self._serve, daemon=True) for _ in range(threads)]

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def __enter__(self) -> "FakeProvider":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._sock.close()

    def reset(self) -> None:
        """Forget attempt counts, so the next run sees the same first attempts."""
        with self._lock:
            self._attempts.clear()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return
            conn.settimeout(30)
            try:
                _Handler(conn, addr, self)
            except OSError:
                pass
            finally:
                conn.close()

    def answer(self, body: dict) -> tuple[int, str, float]:
        """(HTTP status, body text, delay in ms) for one request."""
        model = body.get("model", "")
        prompt = body.get("prompt", "")
        match = _QID_RE.search(prompt)
        if not match:
            return 400, "no question id in prompt", 0.0
        key = (model, match.group(1), "[tx]" in prompt)
        action, latency_ms, letter = live_script(self.seed, *key)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        if action == "ok" or (action == "flaky" and attempt > 0):
            return 200, json.dumps({"text": f"Answer: {letter}"}), latency_ms
        if action == "oom":
            return 500, json.dumps({"error": "CUDA out of memory. Tried to allocate 2.00 GiB"}), latency_ms
        if action == "timeout":
            return 504, json.dumps({"error": "upstream request timed out"}), latency_ms
        if action == "malformed":
            return 200, "<html><body>bad gateway</body></html>", latency_ms
        return 503, json.dumps({"error": "service overloaded, retry later"}), latency_ms


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError:
            body = {}
        status, text, delay_ms = self.server.answer(body)
        time.sleep(delay_ms / 1000.0)
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:
        pass
