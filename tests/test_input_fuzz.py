"""A seeded fuzzer of the inputs that evaluate --replay, graph and report read.

Each mutation takes a fresh copy of the demo (its config, dataset, transcripts,
outputs, annotations and cassette segment) and of a manifest that evaluate
wrote from it, and changes one JSON value in one of those files: it replaces
the value with one from POOL, or deletes its key. Every command that reads
that file then runs through `cli.main` into a fresh out dir. However bad the
input, no exception may escape `main`, the exit code is one of 0-4, a command
that fails leaves no `bundle.json`, and no command leaves a `.tmp` behind. An
`evaluate` that fails on any input but its cassette segment leaves no
`manifest.jsonl` either: every other input is checked before the first request.

The mutations come from stdlib `random` with fixed seeds, so a failure names
a seed and a mutation that reproduce it.
"""

import json
import random
import shutil

import pytest

from videval.cli import main

POOL = [None, True, False, 0, -1, -0.0, 1.5, 2**63, int("9" * 400), "", [], {}, "\ud800", "00:99"]

SEGMENT = "cassettes/segment-000001.jsonl"
# the commands that read each input
READERS = {
    "config.json": ("evaluate", "graph", "report"),
    "dataset.json": ("evaluate", "report"),
    "transcripts.json": ("evaluate",),
    "outputs.json": ("evaluate", "graph"),
    "annotations.json": ("evaluate", "graph"),
    "manifest.jsonl": ("report",),
    SEGMENT: ("evaluate",),
}
MUTATIONS_PER_SEED = 60


def _mutate(doc, rng: random.Random):
    """doc with one value (the document itself among them) replaced from POOL or, in an object, deleted."""
    slots = [(None, None)]  # (container, key) of every value; (None, None) is the document
    stack = [doc]
    while stack:
        node = stack.pop()
        pairs = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in pairs:
            slots.append((node, key))
            stack.append(value)
    container, key = rng.choice(slots)
    if container is None:
        return rng.choice(POOL)
    if isinstance(container, dict) and rng.random() < 0.25:
        del container[key]
    else:
        container[key] = rng.choice(POOL)
    return doc


def _mutate_file(path, rng: random.Random) -> str:
    """Mutate one JSON document of the file at path in place: the whole file, or for a JSON-lines file one
    line, or one tab-separated JSON field of a cassette line. Return what was changed."""
    if path.suffix == ".json":
        path.write_text(json.dumps(_mutate(json.loads(path.read_text(encoding="utf-8")), rng)), encoding="utf-8")
        return path.name
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = rng.randrange(len(lines))
    fields = lines[lineno].split("\t")
    index = rng.randrange(1, len(fields)) if len(fields) > 1 else 0  # a cassette line's key is not JSON
    fields[index] = json.dumps(_mutate(json.loads(fields[index]), rng))
    lines[lineno] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path.name} line {lineno + 1} field {index}"


@pytest.fixture(scope="module")
def pristine(demo_dir, tmp_path_factory):
    """A copy of the demo, beside the manifest evaluate --replay writes from it."""
    root = tmp_path_factory.mktemp("pristine")
    shutil.copytree(demo_dir, root, dirs_exist_ok=True)
    out = root / "eval"
    assert main(["evaluate", "--config", str(root / "config.json"), "--replay", "--out-dir", str(out)]) == 0
    shutil.move(out / "manifest.jsonl", root / "manifest.jsonl")
    shutil.rmtree(out)
    return root


# seeds 12 and 18 put a lone surrogate in an outputs text, which evaluate wrote its manifest past
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 12, 18])
def test_no_input_mutation_ends_a_command_in_an_exception(pristine, tmp_path, capsys, seed):
    rng = random.Random(seed)
    for i in range(MUTATIONS_PER_SEED):
        case = tmp_path / str(i)
        shutil.copytree(pristine, case)
        target = rng.choice(sorted(READERS))
        label = f"seed {seed}, mutation {i}: {_mutate_file(case / target, rng)}"
        config = str(case / "config.json")
        for command in READERS[target]:
            out = case / f"out-{command}"
            argv = {
                "evaluate": ["evaluate", "--config", config, "--replay", "--out-dir", str(out)],
                "graph": ["graph", "--config", config, "--out-dir", str(out)],
                "report": ["report", "--config", config, "--manifest", str(case / "manifest.jsonl"),
                           "--out-dir", str(out)],
            }[command]
            try:
                code = main(argv)
            except Exception as exc:
                raise AssertionError(f"{label}: {command} raised") from exc
            assert code in range(5), (label, command, code)
            assert code == 0 or not (out / "bundle.json").exists(), (label, command, code)
            if command == "evaluate" and target != SEGMENT:
                assert code == 0 or not (out / "manifest.jsonl").exists(), (label, code)
        assert not list(case.rglob("*.tmp")), label
        capsys.readouterr()  # the commands' output, dropped mutation by mutation
