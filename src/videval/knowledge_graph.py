"""Comparison graphs over models' summaries and keyframes.

Construction fans each model's keyframe captions out from a shared "KeyFrames"
core node and its summary out from a shared "VideoSummary" core node, giving a
closed-form size of 2 + 2M + K nodes for M models and K total keyframes.
Layout is a deterministic force-directed placement (attraction d^2/k along
edges, repulsion k^2/d between all pairs, temperature-capped displacement).
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field

from .errors import (
    DuplicateModelName,
    IoError,
    NegativeWeight,
    NoValidOutputs,
    UnknownCenter,
    UnknownSource,
)
from .parsing import ParsedVideoOutput

KEYFRAMES_NODE = "KeyFrames"
SUMMARY_NODE = "VideoSummary"

CORE_KEYFRAMES_SIZE = 800
CORE_SUMMARY_SIZE = 600
MODEL_NODE_SIZE = 600
SUMMARY_TEXT_NODE_SIZE = 500
KEYFRAME_NODE_SIZE = 400

# (keyframe/light shade, summary/dark shade) per model, first model blue,
# second red, cycling beyond that.
COLOR_FAMILIES = (
    ("lightblue", "darkblue"),
    ("lightcoral", "red"),
    ("lightgreen", "darkgreen"),
    ("khaki", "darkorange"),
    ("plum", "purple"),
    ("lightcyan", "teal"),
)

MAX_LABEL_LEN = 500


@dataclass
class GraphNode:
    id: str
    label: str
    color: str
    size: int


@dataclass
class EvalGraph:
    """Attributed directed graph with insertion-ordered nodes and edges."""

    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)
    _edge_set: set[tuple[str, str]] = field(default_factory=set, repr=False)

    def add_node(self, node_id: str, label: str, color: str, size: int) -> GraphNode:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id: {node_id}")
        node = GraphNode(node_id, label, color, size)
        self.nodes[node_id] = node
        return node

    def add_edge(self, source: str, target: str) -> None:
        if source not in self.nodes or target not in self.nodes:
            raise ValueError(f"edge endpoints must exist: ({source}, {target})")
        key = (source, target)
        if key not in self._edge_set:
            self._edge_set.add(key)
            self.edges.append(key)


@dataclass
class LayoutParams:
    """Knobs for the force-directed layout; k = spacing * sqrt(area / n)."""

    spacing: float = 1.0
    area: float = 1.0
    iterations: int | None = None  # None -> 50 * ceil(sqrt(n))
    seed: int = 42
    initial_temperature: float | None = None  # None -> 0.1 * sqrt(area)
    cooling: float = 0.95

    def optimal_distance(self, n: int) -> float:
        if n < 1:
            raise ValueError("need at least one node")
        return self.spacing * math.sqrt(self.area / n)


@dataclass
class NodePosition:
    node_id: str
    x: float
    y: float


@dataclass
class GraphMetrics:
    node_count: int
    mean_pairwise_distance: float
    distances_to_center: dict[str, float]
    unreachable: set[str]


def _sanitize_id(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def model_colors(index: int) -> tuple[str, str]:
    """(light, dark) color pair assigned to the model at the given position."""
    return COLOR_FAMILIES[index % len(COLOR_FAMILIES)]


def build_comparison_graph(outputs: dict[str, ParsedVideoOutput]) -> EvalGraph:
    """Build the model-comparison graph from parsed outputs.

    Core nodes first, then per model: a model node wired to both cores, a
    summary-text node under "VideoSummary", and one caption node per keyframe
    under "KeyFrames". Caption node ids are model-prefixed so identical
    captions from different models stay in their own clusters.
    """
    if not outputs:
        raise NoValidOutputs("no model outputs supplied")
    invalid = [name for name, out in outputs.items() if not out.valid]
    if invalid:
        raise NoValidOutputs(f"invalid outputs for: {', '.join(sorted(invalid))}")

    graph = EvalGraph()
    graph.add_node(KEYFRAMES_NODE, KEYFRAMES_NODE, "gray", CORE_KEYFRAMES_SIZE)
    graph.add_node(SUMMARY_NODE, SUMMARY_NODE, "gray", CORE_SUMMARY_SIZE)

    seen_ids: set[str] = set()
    for index, (model_name, output) in enumerate(outputs.items()):
        model_id = _sanitize_id(model_name)
        if not model_id or model_id in seen_ids or model_id in (KEYFRAMES_NODE, SUMMARY_NODE):
            raise DuplicateModelName(f"model id collision: {model_name!r}")
        seen_ids.add(model_id)
        light, dark = model_colors(index)

        graph.add_node(model_id, model_name, dark, MODEL_NODE_SIZE)
        graph.add_edge(model_id, KEYFRAMES_NODE)
        graph.add_edge(model_id, SUMMARY_NODE)

        summary_id = f"{model_id}:summary"
        graph.add_node(
            summary_id, output.summary[:MAX_LABEL_LEN], dark, SUMMARY_TEXT_NODE_SIZE
        )
        graph.add_edge(SUMMARY_NODE, summary_id)

        for i, entry in enumerate(output.keyframes):
            kf_id = f"{model_id}:kf{i}"
            graph.add_node(kf_id, entry.caption, light, KEYFRAME_NODE_SIZE)
            graph.add_edge(KEYFRAMES_NODE, kf_id)
    return graph


def fr_layout(
    graph: EvalGraph, params: LayoutParams | None = None
) -> dict[str, NodePosition]:
    """Deterministic force-directed layout.

    Every round applies pairwise repulsion and per-edge attraction (direction
    ignored), caps each node's displacement at the current temperature, then
    cools. Initial positions come from a seeded uniform draw over the layout
    square, so identical inputs give bit-identical positions.
    """
    import numpy as np  # only the graph command pays for loading numpy

    p = params or LayoutParams()
    ids = list(graph.nodes)
    n = len(ids)
    if n == 0:
        return {}
    side = math.sqrt(p.area)
    if n == 1:
        return {ids[0]: NodePosition(ids[0], side / 2.0, side / 2.0)}

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

    # Repulsion works on (n, n) planes, reused every round. They are stored
    # transposed, dx[j, i] = x[i] - x[j], so that summing over axis 0 adds the
    # pair terms of node i in j order, one row at a time: the same sequence of
    # additions a sum over j of an (n, n, 2) array does, so positions are
    # bit-identical to it.
    dx, dy, dist, force = (np.empty((n, n)) for _ in range(4))
    disp = np.empty((n, 2))
    for _ in range(iterations):
        np.subtract(pos[None, :, 0], pos[:, None, 0], out=dx)
        np.subtract(pos[None, :, 1], pos[:, None, 1], out=dy)
        np.multiply(dx, dx, out=dist)
        np.multiply(dy, dy, out=force)
        np.add(dist, force, out=dist)
        np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, 1.0)  # self-term contributes zero via dx = dy = 0
        np.maximum(dist, 1e-9, out=dist)
        np.divide(k * k, dist, out=force)
        for c, plane in enumerate((dx, dy)):
            np.divide(plane, dist, out=plane)
            np.multiply(plane, force, out=plane)
            plane.sum(axis=0, out=disp[:, c])

        if len(eu):
            d = pos[eu] - pos[ev]
            ln = np.maximum(np.sqrt((d**2).sum(axis=1)), 1e-9)
            pull = d / ln[:, None] * (ln**2 / k)[:, None]
            np.subtract.at(disp, eu, pull)
            np.add.at(disp, ev, pull)

        lengths = np.maximum(np.sqrt((disp**2).sum(axis=1)), 1e-12)
        pos = pos + disp * (np.minimum(lengths, temperature) / lengths)[:, None]
        temperature *= p.cooling

    return {
        node_id: NodePosition(node_id, float(pos[i, 0]), float(pos[i, 1]))
        for node_id, i in index.items()
    }


def dijkstra(
    graph: EvalGraph,
    source: str,
    weights: dict[tuple[str, str], float] | None = None,
) -> dict[str, float]:
    """Directed shortest-path distances from source; unreachable nodes absent.

    Edges missing from the weights map default to weight 1.
    """
    if source not in graph.nodes:
        raise UnknownSource(f"unknown source node: {source}")
    weights = weights or {}
    for edge, w in weights.items():
        if w < 0:
            raise NegativeWeight(f"negative weight on {edge}: {w}")

    adjacency: dict[str, list[tuple[str, float]]] = {nid: [] for nid in graph.nodes}
    for s, t in graph.edges:
        adjacency[s].append((t, weights.get((s, t), 1.0)))

    dist: dict[str, float] = {source: 0.0}
    done: set[str] = set()
    queue: list[tuple[float, str]] = [(0.0, source)]
    while queue:
        d, u = heapq.heappop(queue)
        if u in done:
            continue
        done.add(u)
        for v, w in adjacency[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(queue, (nd, v))
    return dist


def _undirected_view(graph: EvalGraph) -> EvalGraph:
    view = EvalGraph()
    view.nodes = dict(graph.nodes)
    for s, t in graph.edges:
        key = (s, t)
        if key not in view._edge_set:
            view._edge_set.add(key)
            view.edges.append(key)
        rkey = (t, s)
        if rkey not in view._edge_set:
            view._edge_set.add(rkey)
            view.edges.append(rkey)
    return view


def graph_metrics(
    graph: EvalGraph,
    positions: dict[str, NodePosition],
    center: str = KEYFRAMES_NODE,
) -> GraphMetrics:
    """Node count, layout-space spread, and hop distances from the center.

    Center distances use unit weights on the undirected view of the graph;
    the directed, weighted shortest paths stay available through dijkstra().
    """
    import numpy as np

    if center not in graph.nodes:
        raise UnknownCenter(f"unknown center node: {center}")
    missing = [nid for nid in graph.nodes if nid not in positions]
    if missing:
        raise ValueError(f"positions missing for: {missing[:5]}")

    ids = list(graph.nodes)
    n = len(ids)
    mean_distance = 0.0
    if n >= 2:
        coords = np.array([[positions[i].x, positions[i].y] for i in ids])
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2))
        mean_distance = float(dist[np.triu_indices(n, k=1)].mean())

    hops = dijkstra(_undirected_view(graph), center)
    unreachable = {nid for nid in graph.nodes if nid not in hops}
    return GraphMetrics(
        node_count=n,
        mean_pairwise_distance=mean_distance,
        distances_to_center=hops,
        unreachable=unreachable,
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: EvalGraph, positions: dict[str, NodePosition] | None = None) -> str:
    """Render the graph as a DOT document; byte-stable for identical inputs."""
    lines = ["digraph comparison {"]
    for node in graph.nodes.values():
        attrs = [
            f'label="{_dot_escape(node.label)}"',
            f'fillcolor="{node.color}"',
            'style="filled"',
            f"size={node.size}",
        ]
        if positions and node.id in positions:
            p = positions[node.id]
            attrs.append(f'pos="{p.x:.6f},{p.y:.6f}!"')
        lines.append(f'  "{_dot_escape(node.id)}" [{", ".join(attrs)}];')
    for s, t in graph.edges:
        lines.append(f'  "{_dot_escape(s)}" -> "{_dot_escape(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: EvalGraph, positions: dict[str, NodePosition] | None = None) -> str:
    """Render the graph as the JSON schema {nodes: [...], edges: [...]}."""
    nodes = []
    for node in graph.nodes.values():
        entry: dict = {
            "id": node.id,
            "label": node.label,
            "color": node.color,
            "size": node.size,
        }
        if positions and node.id in positions:
            entry["x"] = positions[node.id].x
            entry["y"] = positions[node.id].y
        nodes.append(entry)
    edges = [{"source": s, "target": t} for s, t in graph.edges]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True) + "\n"


def export_graph(
    graph: EvalGraph,
    positions: dict[str, NodePosition] | None,
    dot_path: str,
    json_path: str,
) -> None:
    """Write both export documents to disk."""
    try:
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(export_dot(graph, positions))
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(export_json(graph, positions))
    except OSError as exc:
        raise IoError(f"failed to write graph export: {exc}") from exc
