"""Comparison graphs over models' summaries and keyframes.

Construction fans each model's keyframe captions out from a shared "KeyFrames"
core node and its summary out from a shared "VideoSummary" core node, giving a
closed-form size of 2 + 2M + K nodes for M models and K total keyframes.
Layout is a deterministic force-directed placement (attraction d^2/k along
edges, repulsion k^2/d between all pairs, temperature-capped displacement)
that stops once it has cooled below 1e-6 * k. It starts from a
`random.Random(seed)` draw and then does only IEEE-exact arithmetic, so the
graph bytes do not depend on the numpy version.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, field

from .errors import DuplicateModelName, UnknownCenter
from .parsing import ParsedVideoOutput
from .schema import _plain, _pretty_json

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

# The layout stops before the first round whose temperature, the most any node
# may move, is below this fraction of the optimal distance k.
COOLED_FRACTION = 1e-6

# Decimals of the layout coordinates in both exports.
COORD_DECIMALS = 6


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

    def add_node(self, node_id: str, label: str, color: str, size: int) -> GraphNode:
        """Add the node; an id already taken (model names that collide) is a DuplicateModelName."""
        if node_id in self.nodes:
            raise DuplicateModelName(f"duplicate node id: {node_id!r}")
        node = GraphNode(node_id, label, color, size)
        self.nodes[node_id] = node
        return node

    def add_edge(self, source: str, target: str) -> None:
        """Add an edge between two nodes already added."""
        self.edges.append((source, target))


@dataclass
class LayoutParams:
    """Knobs for the force-directed layout; k = spacing * sqrt(area / n)."""

    spacing: float = 1.0
    area: float = 1.0
    iterations: int | None = None  # upper bound on rounds; None -> 50 * ceil(sqrt(n))
    seed: int = 42
    initial_temperature: float | None = None  # None -> 0.1 * sqrt(area)
    cooling: float = 0.95

    def __post_init__(self):  # k = 0 would put NaN in every position
        for name in ("spacing", "area"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be a positive number, got {getattr(self, name)!r}")
        if self.cooling > 1:  # the temperature, and with it each round's step, would grow without bound
            raise ValueError(f"cooling must be at most 1, got {self.cooling!r}")

    def optimal_distance(self, n: int) -> float:  # n >= 2: fr_layout places 0 or 1 node itself
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
    captions from different models stay in their own clusters. outputs holds
    at least one output, all valid (the CLI builds it so); a node id that two
    model names give is a DuplicateModelName from add_node.
    """
    graph = EvalGraph()
    graph.add_node(KEYFRAMES_NODE, KEYFRAMES_NODE, "gray", CORE_KEYFRAMES_SIZE)
    graph.add_node(SUMMARY_NODE, SUMMARY_NODE, "gray", CORE_SUMMARY_SIZE)

    for index, (model_name, output) in enumerate(outputs.items()):
        model_id = _sanitize_id(model_name)
        if not model_id:
            raise DuplicateModelName(f"model name {model_name!r} gives an empty node id")
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


def _numpy():
    """numpy, loaded on first use, with OpenBLAS held to one thread unless OPENBLAS_NUM_THREADS is set.

    The layout and the metrics make no BLAS call, and each extra OpenBLAS thread spins while numpy loads.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy

    return numpy


def fr_layout(
    graph: EvalGraph, params: LayoutParams | None = None
) -> dict[str, NodePosition]:
    """Deterministic force-directed layout (Fruchterman & Reingold, 1991).

    Every round applies pairwise repulsion k^2/d and per-edge attraction d^2/k
    (direction ignored), caps each node's displacement at the current
    temperature, then cools. The loop stops before the first round whose
    temperature is below 1e-6 * k, when no node can move visibly any more, or
    after `params.iterations` rounds if that comes first. Initial positions
    are drawn from `random.Random(seed)`, x then y, node by node, whose stream
    Python keeps across versions; numpy then does only IEEE-exact add,
    multiply, divide and sqrt in a fixed order, so identical inputs give
    bit-identical positions whatever the numpy version.
    """
    np = _numpy()

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

    draw = random.Random(p.seed).random
    pos = np.array([[draw() * side, draw() * side] for _ in range(n)])

    # Repulsion works on (n, n) planes, reused every round. They are stored
    # transposed, dx[j, i] = x[i] - x[j], so that summing over axis 0 adds the
    # pair terms of node i in j order, one row at a time: the same sequence of
    # additions a sum over j of an (n, n, 2) array does, so positions are
    # bit-identical to it. The pair term is (dx, dy) * k^2 / d^2, the unit
    # vector times k^2 / d without a square root.
    dx, dy, d2, force = (np.empty((n, n)) for _ in range(4))
    disp = np.empty((n, 2))
    for _ in range(iterations):
        if temperature < COOLED_FRACTION * k:
            break
        np.subtract(pos[None, :, 0], pos[:, None, 0], out=dx)
        np.subtract(pos[None, :, 1], pos[:, None, 1], out=dy)
        np.multiply(dx, dx, out=d2)
        np.multiply(dy, dy, out=force)
        np.add(d2, force, out=d2)
        np.fill_diagonal(d2, 1.0)  # self-term contributes zero via dx = dy = 0
        np.maximum(d2, 1e-18, out=d2)
        np.divide(k * k, d2, out=force)
        for c, plane in enumerate((dx, dy)):
            np.multiply(plane, force, out=plane)
            plane.sum(axis=0, out=disp[:, c])

        if len(eu):
            d = pos[eu] - pos[ev]
            pull = d * (np.sqrt((d**2).sum(axis=1)) / k)[:, None]
            np.subtract.at(disp, eu, pull)
            np.add.at(disp, ev, pull)

        lengths = np.maximum(np.sqrt((disp**2).sum(axis=1)), 1e-12)
        pos = pos + disp * (np.minimum(lengths, temperature) / lengths)[:, None]
        temperature *= p.cooling

    return {
        node_id: NodePosition(node_id, float(pos[i, 0]), float(pos[i, 1]))
        for node_id, i in index.items()
    }


def graph_metrics(
    graph: EvalGraph,
    positions: dict[str, NodePosition],
    center: str = KEYFRAMES_NODE,
) -> GraphMetrics:
    """Node count, layout-space spread, and hop distances from the center.

    Hops are counted by a breadth-first search that takes each edge both
    ways; they are the floats 0.0, 1.0, ... and unreachable nodes have none.
    """
    np = _numpy()

    if center not in graph.nodes:
        raise UnknownCenter(f"unknown center node: {center}")

    ids = list(graph.nodes)
    n = len(ids)
    mean_distance = 0.0
    if n >= 2:
        coords = np.array([[positions[i].x, positions[i].y] for i in ids])
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2))
        # fsum: a correctly rounded sum, whatever blocking numpy's reductions use
        pairs = dist[np.triu_indices(n, k=1)]
        mean_distance = math.fsum(pairs.tolist()) / len(pairs)

    neighbours: dict[str, list[str]] = {nid: [] for nid in graph.nodes}
    for s, t in graph.edges:
        neighbours[s].append(t)
        neighbours[t].append(s)
    hops = {center: 0.0}
    frontier = [center]
    for node in frontier:  # the list grows as it is walked: a FIFO queue
        for nxt in neighbours[node]:
            if nxt not in hops:
                hops[nxt] = hops[node] + 1.0
                frontier.append(nxt)
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
            attrs.append(f'pos="{p.x:.{COORD_DECIMALS}f},{p.y:.{COORD_DECIMALS}f}!"')
        lines.append(f'  "{_dot_escape(node.id)}" [{", ".join(attrs)}];')
    for s, t in graph.edges:
        lines.append(f'  "{_dot_escape(s)}" -> "{_dot_escape(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: EvalGraph, positions: dict[str, NodePosition] | None = None) -> str:
    """Render the graph as {nodes: [...], edges: [...]}, positions rounded as DOT writes them."""
    nodes = []
    for node in graph.nodes.values():
        entry = _plain(node)
        if positions and node.id in positions:
            entry["x"] = round(positions[node.id].x, COORD_DECIMALS)
            entry["y"] = round(positions[node.id].y, COORD_DECIMALS)
        nodes.append(entry)
    edges = [{"source": s, "target": t} for s, t in graph.edges]
    return _pretty_json({"nodes": nodes, "edges": edges})
