import json
import math
import random

import pytest

from videval.errors import (
    DuplicateModelName,
    NegativeWeight,
    NoValidOutputs,
    UnknownCenter,
    UnknownSource,
)
from videval.knowledge_graph import (
    KEYFRAMES_NODE,
    SUMMARY_NODE,
    EvalGraph,
    LayoutParams,
    NodePosition,
    build_comparison_graph,
    dijkstra,
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


def test_build_comparison_graph_rejects_empty_and_invalid():
    with pytest.raises(NoValidOutputs):
        build_comparison_graph({})
    with pytest.raises(NoValidOutputs):
        build_comparison_graph({"m": ParsedVideoOutput("", [], False)})


def test_build_comparison_graph_rejects_model_collisions():
    with pytest.raises(DuplicateModelName):
        build_comparison_graph({"m  1": output_with(1), "m 1": output_with(1)})
    with pytest.raises(DuplicateModelName):
        build_comparison_graph({"KeyFrames": output_with(1)})


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



def _reference_fr_layout(graph: EvalGraph, params: LayoutParams) -> dict[str, tuple[float, float]]:
    """The layout loop as first written, over dense (n, n, 2) temporaries.

    Kept as an oracle: `fr_layout` must reproduce its positions bit for bit,
    so every graph export stays byte-identical.
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

    rng = np.random.default_rng(p.seed)
    pos = rng.random((n, 2)) * side

    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2))
        np.fill_diagonal(dist, 1.0)  # self-term contributes zero via delta=0
        dist = np.maximum(dist, 1e-9)
        disp = (delta / dist[..., None] * (k * k / dist)[..., None]).sum(axis=1)

        if len(eu):
            d = pos[eu] - pos[ev]
            ln = np.maximum(np.sqrt((d**2).sum(axis=1)), 1e-9)
            pull = d / ln[:, None] * (ln**2 / k)[:, None]
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
    "pair": (lambda: simple_graph([("A", "B")]), LayoutParams()),
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

# --- dijkstra ----------------------------------------------------------------------


def enumerate_shortest_paths(nodes, edges, weights, source):
    """Exhaustive simple-path enumeration (independent oracle).

    Prunes only branches strictly worse than a known distance, which cannot
    change any minimum.
    """
    adjacency = {n: [] for n in nodes}
    for s, t in edges:
        adjacency[s].append((t, weights[(s, t)]))
    best = {source: 0.0}

    def walk(node, acc, visited):
        for nxt, w in adjacency[node]:
            if nxt in visited:
                continue
            total = acc + w
            if nxt in best and total > best[nxt]:
                continue
            if nxt not in best or total < best[nxt]:
                best[nxt] = total
            walk(nxt, total, visited | {nxt})

    walk(source, 0.0, {source})
    return best


def test_dijkstra_single_edge():
    graph = simple_graph([("A", "B")])
    assert dijkstra(graph, "A", {("A", "B"): 1.0}) == {"A": 0.0, "B": 1.0}


def test_dijkstra_respects_direction():
    graph = simple_graph([("B", "A")], nodes=["A", "B"])
    assert dijkstra(graph, "A") == {"A": 0.0}


def test_dijkstra_unknown_source():
    with pytest.raises(UnknownSource):
        dijkstra(simple_graph([("A", "B")]), "Z")


def test_dijkstra_negative_weight():
    graph = simple_graph([("A", "B")])
    with pytest.raises(NegativeWeight):
        dijkstra(graph, "A", {("A", "B"): -0.5})


def test_dijkstra_random_graphs_match_enumeration():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 20)
        nodes = [f"n{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            s, t = rng.choice(nodes), rng.choice(nodes)
            if s != t:
                edges.add((s, t))
        weights = {e: float(rng.randint(0, 10)) for e in edges}
        graph = simple_graph(sorted(edges), nodes=nodes)
        source = rng.choice(nodes)
        assert dijkstra(graph, source, weights) == enumerate_shortest_paths(
            nodes, edges, weights, source
        )


def test_dijkstra_triangle_inequality():
    rng = random.Random(43)
    for _ in range(50):
        nodes = [f"n{i}" for i in range(8)]
        edges = {(s, t) for s in nodes for t in nodes if s != t and rng.random() < 0.4}
        weights = {e: float(rng.randint(0, 10)) for e in edges}
        graph = simple_graph(sorted(edges), nodes=nodes)
        dist = dijkstra(graph, "n0", weights)
        for (s, t), w in weights.items():
            if s in dist and t in dist:
                assert dist[t] <= dist[s] + w + 1e-12


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
    for _ in range(50):
        n = rng.randint(2, 15)
        nodes = [f"n{i}" for i in range(n)]
        edges = sorted({
            (rng.choice(nodes), rng.choice(nodes))
            for _ in range(rng.randint(1, 2 * n))
        })
        edges = [(s, t) for s, t in edges if s != t]
        graph = simple_graph(edges, nodes=nodes)
        positions = {nid: NodePosition(nid, rng.random(), rng.random()) for nid in nodes}
        center = rng.choice(nodes)
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
    # floats survive the JSON text exactly
    assert {n["id"]: (n["x"], n["y"]) for n in doc["nodes"]} == {
        node_id: (p.x, p.y) for node_id, p in positions.items()
    }


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
