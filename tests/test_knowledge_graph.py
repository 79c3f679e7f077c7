import json
import math
import os
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

from videval.errors import DuplicateModelName, UnknownCenter
from videval.knowledge_graph import (
    KEYFRAMES_NODE,
    SUMMARY_NODE,
    EvalGraph,
    LayoutParams,
    NodePosition,
    _numpy,
    build_comparison_graph,
    export_dot,
    export_json,
    fr_layout,
    graph_metrics,
)
from videval.parsing import KeyframeEntry, ParsedVideoOutput, parse_video_output


def simple_graph(edges, nodes=None) -> EvalGraph:
    graph = EvalGraph()
    names = nodes or sorted({n for e in edges for n in e})
    for name in names:
        graph.add_node(name, name, "gray", 100)
    for s, t in edges:
        graph.add_edge(s, t)
    return graph


def output_with(n_keyframes: int, summary="a summary") -> ParsedVideoOutput:
    frames = [KeyframeEntry(5 * i, f"moment {i}") for i in range(n_keyframes)]
    return ParsedVideoOutput(summary=summary, keyframes=frames, valid=True)


# --- construction -----------------------------------------------------------------


def test_build_comparison_graph_two_models(snow_white_outputs):
    outputs = {name: parse_video_output(text) for name, text in snow_white_outputs.items()}
    graph = build_comparison_graph(outputs)
    # closed form: 2 core + 2 per model (model + summary) + 22 keyframes
    assert len(graph.nodes) == 2 + 2 * 2 + 22 == 28
    assert len(graph.edges) == 3 * 2 + 22
    assert graph.nodes[KEYFRAMES_NODE].size == 800
    assert graph.nodes[KEYFRAMES_NODE].color == "gray"
    assert graph.nodes[SUMMARY_NODE].size == 600
    assert ("Gemini-2-Flash", KEYFRAMES_NODE) in graph.edges
    assert ("Gemini-2-Flash", SUMMARY_NODE) in graph.edges


def test_build_comparison_graph_color_families(snow_white_outputs):
    outputs = {name: parse_video_output(text) for name, text in snow_white_outputs.items()}
    graph = build_comparison_graph(outputs)
    gemini_kf = [n for nid, n in graph.nodes.items() if nid.startswith("Gemini-2-Flash:kf")]
    qwen_kf = [n for nid, n in graph.nodes.items() if nid.startswith("Qwen-7B:kf")]
    assert {n.color for n in gemini_kf} == {"lightblue"}
    assert {n.color for n in qwen_kf} == {"lightcoral"}
    assert graph.nodes["Gemini-2-Flash:summary"].color == "darkblue"
    assert graph.nodes["Qwen-7B:summary"].color == "red"
    assert all(n.size == 400 for n in gemini_kf)


def test_build_comparison_graph_single_model_no_keyframes():
    graph = build_comparison_graph({"solo": output_with(0)})
    assert len(graph.nodes) == 4  # 2 core + model + summary
    assert len(graph.edges) == 3


def test_build_comparison_graph_counting_oracle():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(0, 40)
        graph = build_comparison_graph({"one-model": output_with(n)})
        assert len(graph.nodes) == 4 + n


def test_build_comparison_graph_identical_captions_stay_distinct():
    shared = [KeyframeEntry(10, "same caption")]
    outputs = {
        "m1": ParsedVideoOutput("s1", shared, True),
        "m2": ParsedVideoOutput("s2", shared, True),
    }
    graph = build_comparison_graph(outputs)
    caption_nodes = [n for n in graph.nodes.values() if n.label == "same caption"]
    assert len(caption_nodes) == 2
    assert len({n.id for n in caption_nodes}) == 2


def test_build_comparison_graph_many_models_distinct_clusters():
    outputs = {f"model-{i}": output_with(2) for i in range(4)}
    graph = build_comparison_graph(outputs)
    light_colors = [
        graph.nodes[f"model-{i}:kf0"].color for i in range(4)
    ]
    assert len(set(light_colors)) == 4
    assert light_colors[0] == "lightblue" and light_colors[1] == "lightcoral"


def test_build_comparison_graph_rejects_model_collisions():
    with pytest.raises(DuplicateModelName):
        build_comparison_graph({"m  1": output_with(1), "m 1": output_with(1)})
    with pytest.raises(DuplicateModelName):
        build_comparison_graph({"KeyFrames": output_with(1)})
    # a model name that is another model's summary or keyframe node id, in either order
    collisions = [(("a", "a:summary"), "a:summary"), (("a:summary", "a"), "a:summary"), (("a", "a:kf0"), "a:kf0")]
    for names, node_id in collisions:
        with pytest.raises(DuplicateModelName, match=f"'{node_id}'"):
            build_comparison_graph({name: output_with(1) for name in names})


# --- layout -------------------------------------------------------------------------


def test_two_node_layout_converges_to_optimal_distance():
    graph = simple_graph([("A", "B")])
    params = LayoutParams()
    positions = fr_layout(graph, params)
    d = math.dist(
        (positions["A"].x, positions["A"].y), (positions["B"].x, positions["B"].y)
    )
    k = params.optimal_distance(2)
    assert abs(d - k) / k < 0.01


def test_star_layout_symmetric_leaf_distances():
    edges = [("hub", f"leaf{i}") for i in range(6)]
    positions = fr_layout(simple_graph(edges, nodes=["hub"] + [f"leaf{i}" for i in range(6)]))
    hub = (positions["hub"].x, positions["hub"].y)
    dists = [math.dist(hub, (positions[f"leaf{i}"].x, positions[f"leaf{i}"].y)) for i in range(6)]
    assert (max(dists) - min(dists)) / min(dists) < 0.05


def test_layout_deterministic_bit_for_bit():
    graph = simple_graph([("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")])
    p1 = fr_layout(graph, LayoutParams(seed=42))
    p2 = fr_layout(graph, LayoutParams(seed=42))
    for node_id in graph.nodes:
        assert p1[node_id].x == p2[node_id].x
        assert p1[node_id].y == p2[node_id].y
    p3 = fr_layout(graph, LayoutParams(seed=43))
    assert any(p1[n].x != p3[n].x for n in graph.nodes)


def test_single_node_layout_at_center():
    graph = simple_graph([], nodes=["only"])
    positions = fr_layout(graph, LayoutParams(area=4.0))
    assert (positions["only"].x, positions["only"].y) == (1.0, 1.0)


def test_layout_direction_ignored_for_forces():
    forward = fr_layout(simple_graph([("A", "B")]))
    backward = fr_layout(simple_graph([("B", "A")], nodes=["A", "B"]))
    for node_id in ("A", "B"):
        assert forward[node_id].x == backward[node_id].x
        assert forward[node_id].y == backward[node_id].y



def _reference_fr_layout(
    graph: EvalGraph, params: LayoutParams, every_round: bool = False
) -> dict[str, tuple[float, float]]:
    """The layout loop written plainly, over dense (n, n, 2) temporaries.

    Kept as an oracle: `fr_layout` must reproduce its positions bit for bit,
    so every graph export stays byte-identical. It draws the start from
    `random.Random(seed)`, x then y, node by node, and stops before the first
    round whose temperature is below 1e-6 * k; `every_round` runs all
    `iterations` rounds instead, to measure what the stop leaves out.
    """
    import numpy as np

    p = params
    ids = list(graph.nodes)
    n = len(ids)
    side = math.sqrt(p.area)
    k = p.optimal_distance(n)
    iterations = p.iterations if p.iterations is not None else 50 * math.ceil(math.sqrt(n))
    temperature = (
        p.initial_temperature if p.initial_temperature is not None else 0.1 * side
    )

    index = {node_id: i for i, node_id in enumerate(ids)}
    undirected = sorted(
        {
            (min(index[s], index[t]), max(index[s], index[t]))
            for s, t in graph.edges
            if s != t
        }
    )
    eu = np.array([u for u, _ in undirected], dtype=int)
    ev = np.array([v for _, v in undirected], dtype=int)

    rng = random.Random(p.seed)
    start = []
    for _ in range(n):
        x = rng.random() * side
        y = rng.random() * side
        start.append([x, y])
    pos = np.array(start)

    for _ in range(iterations):
        if temperature < 1e-6 * k and not every_round:
            break
        delta = pos[:, None, :] - pos[None, :, :]
        dist2 = (delta**2).sum(axis=2)
        np.fill_diagonal(dist2, 1.0)  # self-term contributes zero via delta=0
        dist2 = np.maximum(dist2, 1e-18)
        disp = (delta * (k * k / dist2)[..., None]).sum(axis=1)

        if len(eu):
            d = pos[eu] - pos[ev]
            pull = d * (np.sqrt((d**2).sum(axis=1)) / k)[:, None]
            np.subtract.at(disp, eu, pull)
            np.add.at(disp, ev, pull)

        lengths = np.maximum(np.sqrt((disp**2).sum(axis=1)), 1e-12)
        pos = pos + disp * (np.minimum(lengths, temperature) / lengths)[:, None]
        temperature *= p.cooling

    return {node_id: (float(pos[i, 0]), float(pos[i, 1])) for node_id, i in index.items()}


def comparison_graph(n_models: int, n_keyframes: int) -> EvalGraph:
    """A 2 + 2M + K node comparison graph, keyframes split evenly over the models."""
    split = [n_keyframes // n_models] * n_models
    split[-1] += n_keyframes - sum(split)
    return build_comparison_graph({f"model-{m}": output_with(kf) for m, kf in enumerate(split)})


def awkward_graph() -> EvalGraph:
    """A self-loop, an edge given in both directions and two isolated nodes."""
    return simple_graph(
        [("A", "B"), ("B", "A"), ("B", "B"), ("B", "C"), ("C", "D"), ("E", "C"), ("A", "E")],
        nodes=list("ABCDEFG") + ["H", "I"],
    )


ORACLE_CASES = {
    # the graph_layout bench shapes, default params
    "n32": (lambda: comparison_graph(3, 24), LayoutParams()),
    "n70": (lambda: comparison_graph(4, 60), LayoutParams()),
    "n110": (lambda: comparison_graph(4, 100), LayoutParams()),
    # larger graphs with fewer rounds, to keep the suite fast
    "n258": (lambda: comparison_graph(6, 244), LayoutParams(iterations=40)),
    "n1242": (lambda: comparison_graph(20, 1200), LayoutParams(iterations=40)),
    "awkward": (awkward_graph, LayoutParams()),
    "awkward_params": (
        awkward_graph,
        LayoutParams(spacing=1.7, area=3.5, iterations=120, seed=7, initial_temperature=0.4, cooling=0.9),
    ),
    "no_rounds": (awkward_graph, LayoutParams(iterations=0)),
    # the bound, 50 * ceil(sqrt(2)) = 100 rounds, ends the loop ~130 rounds before it cools
    "pair": (lambda: simple_graph([("A", "B")]), LayoutParams()),
    # starts below 1e-6 * k, so the stop ends the loop before its first round
    "cold_start": (awkward_graph, LayoutParams(initial_temperature=1e-9)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_layout_matches_reference_bit_for_bit(case):
    make_graph, params = ORACLE_CASES[case]
    graph = make_graph()
    expected = _reference_fr_layout(graph, params)
    got = fr_layout(graph, params)
    assert list(got) == list(expected)
    for node_id, (x, y) in expected.items():
        assert got[node_id].x == x, (node_id, got[node_id].x.hex(), x.hex())
        assert got[node_id].y == y, (node_id, got[node_id].y.hex(), y.hex())


def _xy(positions: dict[str, NodePosition]) -> dict[str, tuple[float, float]]:
    return {node_id: (q.x, q.y) for node_id, q in positions.items()}


def test_layout_ends_at_the_bound_or_when_cooled():
    pair = simple_graph([("A", "B")])
    params = LayoutParams()
    k = params.optimal_distance(2)
    temperature, cooled = 0.1, 0  # the default start, 0.1 * sqrt(area)
    while temperature >= 1e-6 * k:
        temperature *= params.cooling
        cooled += 1
    assert 50 * math.ceil(math.sqrt(2)) == 100 < cooled == 232
    # the default bound ends the loop first; with a huge bound, the cooling stop does
    expected = _reference_fr_layout(pair, replace(params, iterations=100), every_round=True)
    assert _xy(fr_layout(pair, params)) == expected
    expected = _reference_fr_layout(pair, replace(params, iterations=cooled), every_round=True)
    assert _xy(fr_layout(pair, replace(params, iterations=10**6))) == expected


@pytest.mark.parametrize("case", ["n32", "n70", "n110"])
def test_cooling_stop_moves_no_node_visibly(case):
    make_graph, params = ORACLE_CASES[case]
    graph = make_graph()
    k = params.optimal_distance(len(graph.nodes))
    stopped = fr_layout(graph, params)
    full = _reference_fr_layout(graph, params, every_round=True)
    shift = max(math.dist((stopped[i].x, stopped[i].y), xy) for i, xy in full.items())
    assert shift <= 2e-5 * k


@pytest.mark.parametrize("case", ["n32", "n70", "n110"])
def test_huge_iteration_bound_changes_nothing(case):
    make_graph, params = ORACLE_CASES[case]
    graph = make_graph()
    default = fr_layout(graph, params)
    assert _xy(fr_layout(graph, replace(params, iterations=10**6))) == _xy(default)

# --- metrics -----------------------------------------------------------------------


def test_metrics_mean_pairwise_3_4_5():
    graph = simple_graph([("A", "B")])
    positions = {
        "A": NodePosition("A", 0.0, 0.0),
        "B": NodePosition("B", 3.0, 4.0),
    }
    metrics = graph_metrics(graph, positions, center="A")
    assert metrics.mean_pairwise_distance == 5.0
    assert metrics.node_count == 2


def _dense_mean_pairwise_distance(graph: EvalGraph, positions: dict[str, NodePosition]) -> float:
    """The mean over an (n, n) distance matrix's upper triangle, as graph_metrics once computed it."""
    np = _numpy()
    ids = list(graph.nodes)
    coords = np.array([[positions[i].x, positions[i].y] for i in ids])
    delta = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((delta**2).sum(axis=2))
    pairs = dist[np.triu_indices(len(ids), k=1)]
    return math.fsum(pairs.tolist()) / len(pairs)


METRIC_GRAPHS = {
    "n2": lambda: simple_graph([("A", "B")]),
    "n3": lambda: simple_graph([("A", "B"), ("B", "C")]),
    "n258": lambda: comparison_graph(6, 244),
    "n1242": lambda: comparison_graph(20, 1200),  # 20 models x 60 keyframes
}


@pytest.mark.parametrize("case", sorted(METRIC_GRAPHS))
def test_mean_pairwise_distance_row_by_row_equals_the_dense_sum(case):
    """Summed a row of pairs at a time, the mean is the dense matrix's float, bit for bit, in memory
    linear in n: the dense (1242, 1242, 2) temporaries peaked at about 68 MB traced."""
    graph = METRIC_GRAPHS[case]()
    rng = random.Random(len(graph.nodes))
    positions = {nid: NodePosition(nid, rng.uniform(-50, 50), rng.uniform(-50, 50)) for nid in graph.nodes}
    center = next(iter(graph.nodes))
    _numpy()  # loaded before the trace starts: its import is not graph_metrics' memory
    tracemalloc.start()
    try:
        metrics = graph_metrics(graph, positions, center=center)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _dense_mean_pairwise_distance(graph, positions)
    assert metrics.mean_pairwise_distance == expected, (metrics.mean_pairwise_distance.hex(), expected.hex())
    assert metrics.node_count == len(graph.nodes)
    assert peak < 1_000_000, peak


def test_metrics_keyframe_fanout_hops():
    graph = build_comparison_graph({"solo": output_with(5)})
    positions = fr_layout(graph)
    metrics = graph_metrics(graph, positions, center=KEYFRAMES_NODE)
    for i in range(5):
        assert metrics.distances_to_center[f"solo:kf{i}"] == 1.0
    assert metrics.unreachable == set()


def test_metrics_bfs_oracle_on_random_graphs():
    from collections import deque

    rng = random.Random(59)
    cases = []
    for _ in range(50):
        n = rng.randint(2, 15)
        nodes = [f"n{i}" for i in range(n)]
        edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 2 * n))]
        cases.append((nodes, edges, rng.choice(nodes)))
    # a self-loop, a repeated edge and both directions of a pair, next to an unreachable node
    cases.append((["a", "b", "c", "d"], [("a", "a"), ("a", "b"), ("a", "b"), ("c", "b"), ("b", "c")], "c"))

    for nodes, edges, center in cases:
        graph = simple_graph(edges, nodes=nodes)
        positions = {nid: NodePosition(nid, rng.random(), rng.random()) for nid in nodes}
        metrics = graph_metrics(graph, positions, center=center)

        # BFS over the undirected view
        undirected = {n: set() for n in nodes}
        for s, t in edges:
            undirected[s].add(t)
            undirected[t].add(s)
        hops = {center: 0.0}
        queue = deque([center])
        while queue:
            u = queue.popleft()
            for v in undirected[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        assert metrics.distances_to_center == hops
        assert metrics.unreachable == set(nodes) - set(hops)


def test_metrics_translation_invariance():
    rng = random.Random(61)
    graph = simple_graph([("A", "B"), ("B", "C")])
    base = {n: NodePosition(n, rng.random() * 10, rng.random() * 10) for n in graph.nodes}
    shifted = {
        n: NodePosition(n, p.x + 123.0, p.y - 45.0) for n, p in base.items()
    }
    m1 = graph_metrics(graph, base, center="A")
    m2 = graph_metrics(graph, shifted, center="A")
    assert m1.mean_pairwise_distance == pytest.approx(m2.mean_pairwise_distance)


def test_metrics_unknown_center():
    graph = simple_graph([("A", "B")])
    positions = fr_layout(graph)
    with pytest.raises(UnknownCenter):
        graph_metrics(graph, positions, center="missing")


@pytest.mark.parametrize("given, held", [(None, "1"), ("3", "3")])
def test_numpy_loader_holds_openblas_to_one_thread_unless_it_is_set(monkeypatch, given, held):
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    assert _numpy().__name__ == "numpy"
    assert os.environ["OPENBLAS_NUM_THREADS"] == held


# --- exports -----------------------------------------------------------------------


def test_export_dot_statement_count(snow_white_outputs):
    outputs = {name: parse_video_output(text) for name, text in snow_white_outputs.items()}
    graph = build_comparison_graph(outputs)
    dot = export_dot(graph, fr_layout(graph))
    node_statements = [line for line in dot.splitlines() if "[label=" in line]
    assert len(node_statements) == 28


def test_export_dot_empty_keyframes():
    graph = build_comparison_graph({"solo": output_with(0)})
    dot = export_dot(graph)
    assert dot.startswith("digraph")
    assert len([line for line in dot.splitlines() if "[label=" in line]) == 4


def test_export_json_round_trip(snow_white_outputs):
    outputs = {name: parse_video_output(text) for name, text in snow_white_outputs.items()}
    graph = build_comparison_graph(outputs)
    positions = fr_layout(graph)
    doc = json.loads(export_json(graph, positions))
    assert [(n["id"], n["label"], n["color"], n["size"]) for n in doc["nodes"]] == [
        (n.id, n.label, n.color, n.size) for n in graph.nodes.values()
    ]
    assert [(e["source"], e["target"]) for e in doc["edges"]] == graph.edges
    # both exports carry each position rounded to the same six decimals
    pos_in_dot = re.findall(r'^  "([^"]+)" \[.*pos="([^,]+),([^!]+)!"', export_dot(graph, positions), re.M)
    assert {n["id"]: (n["x"], n["y"]) for n in doc["nodes"]} == {
        node_id: (float(x), float(y)) for node_id, x, y in pos_in_dot
    } == {node_id: (round(p.x, 6), round(p.y, 6)) for node_id, p in positions.items()}


def test_exports_byte_stable():
    graph = build_comparison_graph({"solo": output_with(3)})
    positions = fr_layout(graph)
    assert export_dot(graph, positions).encode() == export_dot(graph, positions).encode()
    assert export_json(graph, positions).encode() == export_json(graph, positions).encode()


def test_export_dot_escapes_quotes():
    graph = EvalGraph()
    graph.add_node("a", 'say "hi"', "gray", 10)
    dot = export_dot(graph)
    assert '\\"hi\\"' in dot
