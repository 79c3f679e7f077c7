"""Spans around videval's layer boundaries, and the per-layer metrics they give.

`install` wraps public functions and methods of each videval module at the
names `videval.cli` and the modules it calls look them up by, so the program
itself is unchanged. Each span records its name, start, end, parent span and
request id; spans stay in memory until `Tracer.dump` writes them out.
`layer_metrics` turns the spans of one traced run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "benchmark", "providers", "parsing", "scoring", "reports", "knowledge_graph", "media")
ERROR_CLASSES = ("ReplayMiss", "MalformedProviderOutput", "ProviderUnavailable")
STATUSES = ("ok", "oom", "timeout", "invalid")
LAYOUT_SIZES = (32, 110, 258)

# span fields, in the order a dumped span lists them
ID, NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unhooked: list[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_request: bool = False) -> list:
        stack = self._stack()
        # a pool thread's first span is a child of what the main thread runs
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if new_request:
            request = next(self._requests)
        else:
            request = parent[REQUEST] if parent else None
        span = [next(self._ids), name, time.perf_counter(), None, parent[ID] if parent else None,
                request, threading.get_ident(), {}]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([next(self._ids), name, start, end, None, None, threading.get_ident(), {}])

    def wrap(self, owner, attr: str, name: str, note=None, before=None, new_request=False) -> None:
        """Replace owner.attr with a wrapper that records a span per call."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, new_request)
            if before:
                before(span[ATTRS], args)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS]["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if note:
                note(span[ATTRS], args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "unhooked": self.unhooked, **extra}, fh, separators=(",", ":"))


class _TimedSemaphore:
    """Stands in for the hub's in-flight semaphore and times each wait for it."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __enter__(self):
        span = self._tracer.open("providers.in_flight_wait")
        self._inner.acquire()
        self._tracer.close(span)
        return self

    def __exit__(self, *exc):
        self._inner.release()
        return False


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls where videval.cli and its callees find them."""
    from videval import benchmark, cli, knowledge_graph, media, providers, reports, scoring

    w = tracer.wrap
    w(cli, "load_config", "cli.load_config")
    w(benchmark, "load_dataset", "benchmark.load_dataset")
    w(benchmark, "run_benchmark", "benchmark.run_benchmark")
    w(benchmark.RunManifest, "to_jsonl", "benchmark.manifest_to_jsonl",
      note=lambda a, args, r: a.update(bytes=len(r.encode("utf-8"))))
    w(benchmark.RunManifest, "from_jsonl", "benchmark.manifest_from_jsonl")

    w(providers.ProviderHub, "send", "providers.send", new_request=True,
      note=lambda a, args, r: a.update(status=r.status))
    w(providers, "request_key", "providers.request_key")
    w(providers.CassetteStore, "get", "providers.cassette_get",
      note=lambda a, args, r: a.update(hit=r is not None))
    w(providers.CassetteStore, "put", "providers.cassette_put",
      before=lambda a, args: a.update(existed=args[1] in args[0]))
    # the hub binds its transport when it is built, so this must precede evaluate
    w(providers, "_default_transport", "providers.transport",
      note=lambda a, args, r: a.update(code=r[0]))

    original_init = providers.ProviderHub.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if hasattr(self, "_in_flight"):
            self._in_flight = _TimedSemaphore(self._in_flight, tracer)
        else:
            tracer.unhooked.append("ProviderHub._in_flight")

    providers.ProviderHub.__init__ = init

    w(benchmark, "parse_mcq", "parsing.parse_mcq", note=lambda a, args, r: a.update(source=r.confidence_source))
    for module in (benchmark, cli):
        w(module, "parse_video_output", "parsing.parse_video_output",
          note=lambda a, args, r: a.update(keyframes=len(r.keyframes)))

    w(scoring, "aggregate", "scoring.aggregate",
      note=lambda a, args, r: a.update(rows=len(r.completeness), conditions=len({x.condition for x in args[1]})))
    w(scoring, "build_match_vector", "scoring.match_vector")
    w(reports, "write_report_tables", "reports.write_tables")

    w(knowledge_graph, "build_comparison_graph", "knowledge_graph.build")
    w(knowledge_graph, "fr_layout", "knowledge_graph.fr_layout",
      before=lambda a, args: a.update(n=len(args[0].nodes)))
    w(knowledge_graph, "graph_metrics", "knowledge_graph.graph_metrics")
    w(knowledge_graph, "export_graph", "knowledge_graph.export")

    w(media, "probe", "media.probe", new_request=True)
    w(media.MediaToolRunner, "probe", "media.tool")


# --- analysis ---------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children.get(s[ID], ())
            if c[END] > s[START] and c[START] < s[END]
        ]
        out[s[ID]] = (s[END] - s[START]) - _union_length(covered)
    return out


def _tail_idle(sends: list[list], workers: int) -> float:
    """Time with fewer than `workers` sends in flight while sends remain to start."""
    if not sends:
        return 0.0
    last_start = max(s[START] for s in sends)
    events = sorted([(s[START], 1) for s in sends] + [(s[END], -1) for s in sends])
    idle, in_flight, prev = 0.0, 0, min(s[START] for s in sends)
    for t, delta in events:
        t_clipped = min(t, last_start)
        if in_flight < workers and t_clipped > prev:
            idle += t_clipped - prev
        prev = max(prev, t_clipped)
        in_flight += delta
    return idle


def _quantile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1000.0 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def layer_metrics(runs: list[dict], workers: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics over the spans of one traced run's processes.

    Each entry of `runs` is one dumped process trace. Returns the metrics and
    a per-span-name summary for the trace file.
    """
    spans: list[list] = []
    offset = 0
    for run in runs:
        for s in run["spans"]:
            shifted = list(s)
            shifted[ID] += offset
            if shifted[PARENT] is not None:
                shifted[PARENT] += offset
            spans.append(shifted)
        offset += len(run["spans"]) + 1
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def count(name: str, **match) -> int:
        return sum(1 for s in by_name.get(name, ()) if all(s[ATTRS].get(k) == v for k, v in match.items()))

    selfs = self_times(spans)
    m: dict[str, float] = {}
    imports = by_name.get("cli.import", [])
    m["cli.import_s"] = total("cli.import") / len(imports) if imports else 0.0
    m["cli.load_config_s"] = total("cli.load_config")

    m["benchmark.load_dataset_s"] = total("benchmark.load_dataset")
    m["benchmark.run_benchmark_s"] = total("benchmark.run_benchmark")
    m["benchmark.run_benchmark_self_s"] = sum(selfs[s[ID]] for s in by_name.get("benchmark.run_benchmark", ()))
    sends_by_parent = defaultdict(list)
    for s in by_name.get("providers.send", ()):
        sends_by_parent[s[PARENT]].append(s)
    m["benchmark.tail_idle_s"] = sum(
        _tail_idle(sends_by_parent.get(r[ID], []), workers) for r in by_name.get("benchmark.run_benchmark", ())
    )
    m["benchmark.manifest_to_jsonl_s"] = total("benchmark.manifest_to_jsonl")
    m["benchmark.manifest_from_jsonl_s"] = total("benchmark.manifest_from_jsonl")
    m["benchmark.manifest_bytes"] = sum(s[ATTRS].get("bytes", 0) for s in by_name.get("benchmark.manifest_to_jsonl", ()))

    sends = by_name.get("providers.send", [])
    m["providers.send_calls"] = len(sends)
    m["providers.send_s"] = total("providers.send")
    durations = [s[END] - s[START] for s in sends]
    m["providers.send_p50_ms"] = _quantile_ms(durations, 50)
    m["providers.send_p99_ms"] = _quantile_ms(durations, 99)
    m["providers.request_key_s"] = total("providers.request_key")
    m["providers.cassette_get_s"] = total("providers.cassette_get")
    m["providers.cassette_hits"] = count("providers.cassette_get", hit=True)
    m["providers.replay_misses"] = count("providers.send", error="ReplayMiss")
    m["providers.cassette_put_s"] = total("providers.cassette_put")
    m["providers.cassette_writes"] = count("providers.cassette_put", existed=False)
    transports = by_name.get("providers.transport", [])
    m["providers.transport_calls"] = len(transports)
    m["providers.transport_s"] = total("providers.transport")
    transport_by_request = Counter(s[REQUEST] for s in transports)
    m["providers.retries"] = sum(n - 1 for n in transport_by_request.values())
    m["providers.in_flight_wait_s"] = total("providers.in_flight_wait")
    for status in STATUSES:
        m[f"providers.status.{status}"] = count("providers.send", status=status)
    for cls in ERROR_CLASSES:
        m[f"providers.errors.{cls}"] = count("providers.send", error=cls)
    useful = sum(1 for s in sends if s[ATTRS].get("status") == "ok" and transport_by_request.get(s[REQUEST]))
    m["providers.useful_ok"] = useful
    m["providers.useful_ratio"] = useful / len(transports) if transports else 0.0

    m["parsing.parse_mcq_s"] = total("parsing.parse_mcq")
    for source in ("explicit", "extracted"):
        m[f"parsing.mcq.{source}"] = count("parsing.parse_mcq", source=source)
    m["parsing.mcq.none"] = count("parsing.parse_mcq", error="NoAnswerFound")
    m["parsing.parse_video_output_s"] = total("parsing.parse_video_output")
    m["parsing.keyframes"] = sum(s[ATTRS].get("keyframes", 0) for s in by_name.get("parsing.parse_video_output", ()))

    m["scoring.aggregate_s"] = total("scoring.aggregate")
    m["scoring.match_vector_s"] = total("scoring.match_vector")
    aggregates = by_name.get("scoring.aggregate", [])
    m["scoring.completeness_rows"] = aggregates[0][ATTRS].get("rows", 0) if aggregates else 0
    m["scoring.conditions"] = aggregates[0][ATTRS].get("conditions", 0) if aggregates else 0
    m["reports.write_tables_s"] = total("reports.write_tables")

    m["knowledge_graph.build_s"] = total("knowledge_graph.build")
    m["knowledge_graph.fr_layout_s"] = total("knowledge_graph.fr_layout")
    for n in LAYOUT_SIZES:
        m[f"knowledge_graph.fr_layout_s.n{n}"] = sum(
            s[END] - s[START] for s in by_name.get("knowledge_graph.fr_layout", ()) if s[ATTRS].get("n") == n
        )
    m["knowledge_graph.graph_metrics_s"] = total("knowledge_graph.graph_metrics")
    m["knowledge_graph.export_s"] = total("knowledge_graph.export")

    m["media.probe_calls"] = len(by_name.get("media.probe", ()))
    m["media.probe_s"] = total("media.probe")
    m["media.tool_s"] = total("media.tool")
    m["media.probe_failures"] = sum(1 for s in by_name.get("media.probe", ()) if "error" in s[ATTRS])

    layer_self = Counter()
    for s in spans:
        layer_self[s[NAME].split(".", 1)[0]] += selfs[s[ID]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    summary = {
        name: {"calls": len(group), "total_s": sum(s[END] - s[START] for s in group),
               "self_s": sum(selfs[s[ID]] for s in group)}
        for name, group in sorted(by_name.items())
    }
    return m, summary
