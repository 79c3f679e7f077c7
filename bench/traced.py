"""Run one `videval` command in this process with layer spans recorded.

Usage: python bench/traced.py TRACE_JSON VIDEVAL_ARGS...

The process imports videval, wraps its layer calls (see tracing.install),
runs `videval.cli.main(VIDEVAL_ARGS)` and writes the spans to TRACE_JSON.
Its exit code is the command's.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import videval.cli

    imported = time.perf_counter()
    from tracing import Tracer, install

    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    install(tracer)
    span = tracer.open("cli.main")
    try:
        code = videval.cli.main(argv)
    finally:
        tracer.close(span)
    tracer.dump(trace_path, {"argv": argv, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
