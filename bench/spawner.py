"""Start the command lines read from stdin, one at a time, and report their cost.

Each input line is a JSON object {"argv", "env", "stdout", "stderr"}; each
output line is {"wall_s", "cpu_s", "rss_mb", "code"} for that command: wall
time from spawn to exit and the child's own rusage.

bench/run.py starts this small process and has it start every videval
process. On Linux a child's peak resident memory counts the memory of the
process it was spawned from, so spawning from the benchmark process itself
would report the benchmark's memory, not videval's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

LIMIT_S = 150


def _on_alarm(signum, frame):
    raise TimeoutError


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            err.write(f"\nkilled after {LIMIT_S} s\n".encode())
            return {"wall_s": time.perf_counter() - start, "cpu_s": 0.0, "rss_mb": 0.0, "code": -9}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
