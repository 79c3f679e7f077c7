#!/usr/bin/env python3
"""Rebuild the demo cassette directory from the scripted responses below.

Run from anywhere: python demo/regenerate.py
The cassette keys hash the exact requests the harness sends, so this script
keys each answer by the request benchmark.plan_cells gives its cell: the
requests the evaluate command sends.
"""

from pathlib import Path

from videval.benchmark import load_dataset, plan_cells
from videval.config import load_config, load_transcripts
from videval.providers import CassetteStore, ModelResponse, request_fingerprint, request_key

DEMO_DIR = Path(__file__).resolve().parent

# (question_id, condition index) -> (raw_text, status, latency_ms)
SCRIPTED: dict[tuple[str, int], tuple[str, str, int]] = {
    ("001-2", 0): ("The answer is A.", "ok", 1420),
    ("001-2", 1): ("Answer: A", "ok", 1510),
    ("002-1", 0): ("B", "ok", 980),
    ("002-1", 1): ("The answer is B.", "ok", 1015),
    ("003-1", 0): ("the options are unclear from the frames provided", "ok", 2230),
    ("003-1", 1): ("Answer: C", "ok", 2180),
    ("004-1", 0): ("Answer: B", "ok", 1340),
    ("004-1", 1): ("Answer: C", "ok", 1395),
    ("005-1", 0): ("Answer: A", "ok", 3620),
    ("005-1", 1): ("", "oom", 540),
    ("006-1", 0): ("I think the answer is C.", "ok", 4115),
    ("006-1", 1): ("Answer: B", "ok", 4230),
    ("007-1", 0): ("Answer: D", "ok", 760),
    ("007-1", 1): ("Answer: D", "ok", 812),
    ("008-1", 0): ("", "timeout", 300000),
    ("008-1", 1): ("Answer: A", "ok", 1890),
    ("009-1", 0): ("Answer: A", "ok", 3980),
    ("009-1", 1): ("Answer: C", "ok", 4050),
    ("010-1", 0): ("Answer: B", "ok", 4490),
    ("010-1", 1): ("Answer: B", "ok", 4555),
}


def main() -> None:
    cassette_dir = DEMO_DIR / "cassettes"
    config = load_config(DEMO_DIR / "config.json")
    transcripts = load_transcripts(config.transcripts) if config.transcripts else {}

    # old segments, and the one-file-per-answer entries of earlier versions
    for stale in [*cassette_dir.glob("segment-*.jsonl"), *cassette_dir.glob("*.json")]:
        stale.unlink()
    store = CassetteStore(cassette_dir)  # writes one segment

    cells = list(plan_cells(config, load_dataset(config.dataset), transcripts))
    for n, (item, request) in enumerate(cells):  # each item's cells take the conditions in order
        raw_text, status, latency_ms = SCRIPTED[(item.question_id, n % len(config.conditions))]
        response = ModelResponse(raw_text, latency_ms, status).validate()
        store.put(request_key(request), request_fingerprint(request), response)

    print(f"wrote {len(cells)} cassette entries to {cassette_dir}")


if __name__ == "__main__":
    main()
