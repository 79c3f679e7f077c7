"""Offline benchmark of the videval CLI on four seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N

A run runs the workload's `python -m videval ...` command lines in fresh
processes, over and over for S seconds and at least three times. Before each
of those runs it writes the workload's inputs from the seed into a directory
of its own and times that, leaving out the time spent creating and writing the
files (workloads.DiskClock); every run uses the first copy, and setup_s is the
median over the copies. After every run it checks the outputs against what
the generator scripted and against the first run's bytes. With --trace 0 the last line of output is a JSON object holding the
median of each end-to-end metric. With --trace 1 the timed runs are followed
by one traced run (bench/traced.py) and the JSON holds the per-layer metrics
instead; the spans go to .bench_traces/. A failed check makes the exit code 1.

Before the JSON line it prints each end-to-end metric with its unit, median,
highest percentile the sample supports and sample count. `--workload all`
runs every workload in turn.
It needs no network beyond a fake provider on 127.0.0.1 and no media tools.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from provider import FakeProvider
from tracing import layer_metrics
from workloads import DISK, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
MIN_RUNS = 3


@dataclass
class ProcStat:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Spawner:
    """The bench/spawner.py process, through which every videval process starts."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, argv: list[str], log: Path, env: dict) -> ProcStat:
        """Run argv to completion; wall time from spawn to exit, rusage of that child."""
        request = {"argv": argv, "env": env, "stdout": str(log.with_suffix(".out")), "stderr": str(log.with_suffix(".err"))}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench/spawner.py exited")
        return ProcStat(**json.loads(reply))


def run_steps(spawner: Spawner, inputs, out: Path, env: dict, traced: bool = False) -> list[ProcStat]:
    out.mkdir(parents=True)
    stats = []
    for i, step in enumerate(inputs.steps):
        args = [a.replace("{out}", str(out)) for a in step]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(out / f"trace{i}.json"), *args]
        else:
            argv = [sys.executable, "-m", "videval", *args]
        stat = spawner.run(argv, out / f"step{i}", env)
        stats.append(stat)
        if stat.code != 0:
            err = (out / f"step{i}.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"videval {args[0]} exited {stat.code}: {err[-2000:]}")
    return stats


def _records_compared(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    out = {}
    for line in lines:
        record = json.loads(line)
        record.pop("wall_ms")  # elapsed in a live run, recorded latency in replay
        out[(json.dumps(record["condition"], sort_keys=True), record["item_ref"])] = record
    return out


def replay_divergent(spawner: Spawner, inputs, out: Path, env: dict) -> int:
    """Records of a live run that differ when replayed from the cassettes it left."""
    replay = out / "replay"
    step = ["evaluate", "--config", str(inputs.config), "--replay", "--out-dir", str(replay)]
    replay.mkdir()
    spawner.run([sys.executable, "-m", "videval", *step], replay / "step", env)
    live = _records_compared(out / "eval" / "manifest.jsonl")
    again = _records_compared(replay / "manifest.jsonl")
    return sum(1 for key, record in live.items() if again.get(key) != record)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "videval").glob("*.py"))


def run_workload(spawner: Spawner, workload, seed: int, seconds: float, trace: bool, root: Path, workers: int,
                 units: dict[str, str]) -> dict:
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    live = workload.name == "live_record"
    serve = FakeProvider(seed, workers) if live else contextlib.nullcontext()
    errors: list[str] = []
    try:
        with serve as provider:
            extra = {"endpoint": provider.endpoint} if live else {}
            setup_s: list[float] = []

            def set_up():
                """Write a copy of the inputs into a directory of its own; time it, writes left out."""
                start, disk = time.perf_counter(), DISK.seconds
                copy = workload.setup(work / f"inputs{len(setup_s)}", seed, workers, **extra)
                setup_s.append(time.perf_counter() - start - (DISK.seconds - disk))
                return copy

            inputs = set_up()

            def fresh_run(out: Path, traced: bool = False) -> list[ProcStat]:
                if live:
                    provider.reset()
                    shutil.rmtree(inputs.root / "cassettes", ignore_errors=True)
                return run_steps(spawner, inputs, out, env, traced)

            samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "records_per_s", "cpu_s", "peak_rss_mb")}
            attempted = failed = 0
            reference = None
            begin = time.perf_counter()
            while attempted < MIN_RUNS or time.perf_counter() - begin < seconds:
                if attempted:
                    set_up()
                out = work / f"run{attempted}"
                attempted += 1
                try:
                    stats = fresh_run(out)
                except RuntimeError as exc:
                    failed += 1
                    errors.append(f"{workload.name} run {attempted}: {exc}")
                    break
                problems, _ = workload.check(inputs, out)
                stable = workload.stable_files(out)
                if reference is None:
                    reference = stable
                elif stable != reference:
                    differing = sorted(k for k in reference if stable.get(k) != reference[k])
                    problems.append(f"outputs differ from the first run's bytes: {differing}")
                if problems:
                    failed += 1
                    errors.extend(f"{workload.name} run {attempted}: {p}" for p in problems)
                samples["wall_s"].append(sum(s.wall_s for s in stats))
                samples["records_per_s"].append(inputs.units / stats[0].wall_s)
                samples["cpu_s"].append(sum(s.cpu_s for s in stats))
                samples["peak_rss_mb"].append(max(s.rss_mb for s in stats))
                shutil.rmtree(out)
            samples["setup_s"] = setup_s
            result = {
                "errors": errors,
                "attempted": attempted,
                "failed": failed,
                "samples": samples,
                "metrics": {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items() if v},
            }
            if trace and not errors:
                out = work / "traced"
                traced_wall = sum(s.wall_s for s in fresh_run(out, traced=True))
                problems, counts = workload.check(inputs, out)
                errors.extend(f"{workload.name} traced run: {p}" for p in problems)
                runs = [json.loads((out / f"trace{i}.json").read_text(encoding="utf-8")) for i in range(len(inputs.steps))]
                per_layer, summary = layer_metrics(runs, workers)
                per_layer["providers.replay_divergent"] = replay_divergent(spawner, inputs, out, env) if live else 0
                per_layer["failed_ops"] = counts["failed"]
                per_layer["attempted_ops"] = counts["attempted"]
                per_layer["failed_share"] = counts["failed"] / counts["attempted"]
                per_layer["src_lines"] = src_lines(root)
                per_layer["trace.spans"] = sum(len(r["spans"]) for r in runs)
                per_layer["trace.wall_s"] = traced_wall
                per_layer["trace.overhead_s"] = traced_wall - result["metrics"]["wall_s"]["value"]
                trace_dir = root / ".bench_traces"
                trace_dir.mkdir(exist_ok=True)
                trace_file = trace_dir / f"{workload.name}-seed{seed}.json"
                with open(trace_file, "w", encoding="utf-8") as fh:
                    json.dump(
                        {"workload": workload.name, "seed": seed, "params": workload.params,
                         "max_workers": workers, "metrics": per_layer, "spans_by_name": summary, "processes": runs},
                        fh, separators=(",", ":"),
                    )
                print(f"trace -> {trace_file.relative_to(root)}", file=sys.stderr)
                result["per_layer"] = per_layer
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()
    return result


def _percentile_line(name: str, unit: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        ordered = sorted(values)
        high = f"p{pct}={ordered[max(0, -(-pct * n // 100) - 1)]:.6g}"
    else:
        high = "no percentile above the median (needs 20 samples)"
    return f"  {name:<15} {unit:<10} median={med:.6g}  {high}  n={n}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "videval" / "cli.py").is_file():
        print("bench: run from the repository root; src/videval is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # cache the bytecode before any timing, whatever PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir(str(root / "src" / "videval"), quiet=1)
    import videval  # noqa: F401  (the set-ups use it; no timed copy pays for the import)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workers = len(os.sched_getaffinity(0))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        results = {name: run_workload(spawner, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root,
                                      workers, units)
                   for name in names}
    errors = [e for r in results.values() for e in r["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    for name, r in results.items():
        print(f"{name}: {r['attempted']} runs, {r['failed']} failed")
        for metric, values in r["samples"].items():
            if values:
                print(_percentile_line(metric, units[metric], values))
    metrics = {}
    for name, r in results.items():
        for m, v in r.get("per_layer" if args.trace else "metrics", {}).items():
            metrics[f"{name}.{m}" if args.workload == "all" else m] = {"value": v, "unit": units[m]} if args.trace else v
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
