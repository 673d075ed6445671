"""Built-in coherent performance functions over graphs, and a benchmark graph generator.

All graph functions treat component n as edge n of the graph; for binary
survival semantics an edge is up iff its component state is >= 1, so the
same functions degenerate gracefully for component models with M > 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "single_od_connectivity",
    "global_connectivity",
    "edge_disjoint_level",
    "k_out_of_n",
    "random_geometric_graph",
    "pick_od_pair",
]

_RGG_MAX_RETRIES = 100

# below this many rows, ``single_od_connectivity``'s batch form runs the
# per-row search on each row. On one core of a 2-vCPU VM one row's search
# takes 5-15 us, the bit-sliced form 40-250 us a call on graphs of 115-294
# edges; they break even at 8-12 rows
_OD_BATCH_MIN_ROWS = 12


@dataclass(frozen=True)
class Graph:
    """Undirected graph; immutable after construction."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_positions: tuple[tuple[float, float], ...] | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n_nodes} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
        if self.node_positions is not None:
            pos = tuple((float(x), float(y)) for x, y in self.node_positions)
            if len(pos) != self.n_nodes:
                raise ValueError("node_positions length must equal n_nodes")
            object.__setattr__(self, "node_positions", pos)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _surviving_components(graph: Graph, x: np.ndarray) -> _UnionFind:
    uf = _UnionFind(graph.n_nodes)
    for i, (u, v) in enumerate(graph.edges):
        if x[i] >= 1:
            uf.union(u, v)
    return uf


def single_od_connectivity(graph: Graph, origin: int, destination: int) -> Callable:
    """Binary connectivity between one origin-destination pair (M_S = 2).

    phi searches one row depth-first; its batch form ``rows`` answers K
    rows at once, bit-sliced over rows.
    """
    if not (0 <= origin < graph.n_nodes and 0 <= destination < graph.n_nodes):
        raise ValueError("origin/destination out of range")
    if origin == destination:
        raise ValueError("origin and destination must differ")
    # (neighbour, edge index) pairs of every node, built once per model
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_nodes)]
    for i, (u, v) in enumerate(graph.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))

    def phi(x: np.ndarray) -> int:
        # depth-first search from the origin over up edges, stopping at the destination
        up = x.tolist()
        seen = [False] * graph.n_nodes
        seen[origin] = True
        stack = [origin]
        while stack:
            for v, i in adj[stack.pop()]:
                if up[i] >= 1 and not seen[v]:
                    if v == destination:
                        return 1
                    seen[v] = True
                    stack.append(v)
        return 0

    # the arcs of every edge in both directions and a loop at every node,
    # sorted by head: node v's arcs form one run, which starts at runs[v].
    # Edge n_edges, always up, carries the loops
    n, e = graph.n_nodes, graph.n_edges
    ends = np.array(graph.edges, dtype=np.intp).reshape(e, 2)
    loops = np.arange(n)
    tails = np.concatenate((ends[:, 0], ends[:, 1], loops))
    heads = np.concatenate((ends[:, 1], ends[:, 0], loops))
    arc_edges = np.concatenate((np.arange(e), np.arange(e), np.full(n, e)))
    arcs = np.argsort(heads, kind="stable")
    tails, arc_edges, runs = tails[arcs], arc_edges[arcs], np.searchsorted(heads[arcs], loops)

    def rows(x: np.ndarray) -> np.ndarray:
        """The batch form: phi of each row of a K x N matrix, bit-sliced over rows.

        Row i is bit i of a uint64 word, 64 rows a word: ``up`` holds each
        arc's edge state in each row and ``reach[v]`` whether the origin
        reaches node v. Each sweep ORs into every node the reach of its
        neighbours over up edges, until a sweep adds nothing.
        """
        k = len(x)
        if k < _OD_BATCH_MIN_ROWS:
            return np.fromiter(map(phi, x), dtype=np.int64, count=k)
        words = -(-k // 64)
        bits = np.zeros((e + 1, 64 * words), dtype=bool)
        bits[e] = True
        bits[:e, :k] = (x >= 1).T
        up = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)[arc_edges]
        reach = np.zeros((n, words), dtype=np.uint64)
        reach[origin] = ~np.uint64(0)
        while True:
            grown = np.bitwise_or.reduceat(reach[tails] & up, runs, axis=0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        return np.unpackbits(reach[destination].view(np.uint8), bitorder="little", count=k).astype(np.int64)

    phi.rows = rows
    return phi


def global_connectivity(graph: Graph) -> Callable:
    """State 1 iff the surviving subgraph connects all nodes (M_S = 2)."""

    def phi(x: np.ndarray) -> int:
        uf = _surviving_components(graph, x)
        root = uf.find(0)
        return 1 if all(uf.find(v) == root for v in range(1, graph.n_nodes)) else 0

    return phi


def _max_flow_unit(adj: list[list[int]], s: int, t: int, cap_limit: int) -> int:
    """Edge-disjoint path count s->t via augmenting BFS, stopping at cap_limit.

    ``adj`` is a mutable adjacency (list of neighbour lists) treated as a
    residual network with unit capacity per undirected edge direction.
    """
    # residual capacities keyed by (u, v)
    cap: dict[tuple[int, int], int] = {}
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            cap[(u, v)] = cap.get((u, v), 0) + 1
    flow = 0
    n = len(adj)
    while flow < cap_limit:
        parent = [-1] * n
        parent[s] = s
        q = deque([s])
        while q and parent[t] == -1:
            u = q.popleft()
            for v in adj[u]:
                if parent[v] == -1 and cap.get((u, v), 0) > 0:
                    parent[v] = u
                    q.append(v)
        if parent[t] == -1:
            break
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] = cap.get((v, u), 0) + 1
            if cap[(v, u)] == 1 and u not in adj[v]:
                adj[v].append(u)
            v = u
        flow += 1
    return flow


def edge_disjoint_level(graph: Graph, max_level: int) -> Callable:
    """Minimum edge-disjoint path count over all node pairs, capped (M_S = max_level + 1).

    The pairwise minimum of unit-capacity max-flows equals the edge
    connectivity of the surviving subgraph, so it suffices to scan flows
    from a single fixed node to all others. Disconnected graphs give 0.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if graph.n_nodes < 2:
        raise ValueError("need at least two nodes")

    def phi(x: np.ndarray) -> int:
        alive = [(u, v) for i, (u, v) in enumerate(graph.edges) if x[i] >= 1]
        level = max_level
        for t in range(1, graph.n_nodes):
            adj: list[list[int]] = [[] for _ in range(graph.n_nodes)]
            for u, v in alive:
                adj[u].append(v)
                adj[v].append(u)
            level = min(level, _max_flow_unit(adj, 0, t, level))
            if level == 0:
                return 0
        return level

    return phi


def k_out_of_n(k: int, n_components: int) -> Callable:
    """Generalized multi-state k-out-of-N:G: the k-th largest component state."""
    if not 1 <= k <= n_components:
        raise ValueError(f"k must lie in [1, {n_components}]")

    def phi(x: np.ndarray) -> int:
        # sorting a short Python list beats np.partition's per-call overhead
        return sorted(x.tolist())[n_components - k]

    def rows(x: np.ndarray) -> np.ndarray:
        """The batch form: phi of each row of a K x N matrix."""
        # a copy, so that the result does not keep the sorted matrix alive
        return np.sort(x, axis=1)[:, n_components - k].copy()

    phi.rows = rows
    return phi


def random_geometric_graph(n_nodes: int, radius: float, seed: int) -> Graph:
    """Nodes uniform in the unit square, edges between pairs within ``radius``.

    Deterministic given the seed. If the result is disconnected the
    placement is retried with a derived seed up to a bounded count, after
    which the largest connected component is returned (recorded in
    metadata).
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    if not 0.0 < radius <= 1.0:
        raise ValueError("radius must lie in (0, 1]")

    for attempt in range(_RGG_MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        pos = rng.random((n_nodes, 2))
        d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
        iu, ju = np.triu_indices(n_nodes, k=1)
        mask = d2[iu, ju] <= radius * radius
        edges = tuple((int(u), int(v)) for u, v in zip(iu[mask], ju[mask]))

        uf = _UnionFind(n_nodes)
        for u, v in edges:
            uf.union(u, v)
        roots = [uf.find(v) for v in range(n_nodes)]
        if len(set(roots)) == 1:
            return Graph(
                n_nodes,
                edges,
                node_positions=tuple(map(tuple, pos.tolist())),
                metadata={"seed": seed, "radius": radius, "attempts": attempt + 1},
            )

    # all retries disconnected: keep the largest component, relabelled
    counts: dict[int, int] = {}
    for r in roots:
        counts[r] = counts.get(r, 0) + 1
    keep_root = max(counts, key=lambda r: (counts[r], -r))
    keep = [v for v in range(n_nodes) if roots[v] == keep_root]
    relabel = {old: new for new, old in enumerate(keep)}
    sub_edges = tuple(
        (relabel[u], relabel[v]) for u, v in edges if u in relabel and v in relabel
    )
    return Graph(
        len(keep),
        sub_edges,
        node_positions=tuple(tuple(pos[v]) for v in keep),
        metadata={
            "seed": seed,
            "radius": radius,
            "attempts": _RGG_MAX_RETRIES,
            "largest_component_of": n_nodes,
        },
    )


def pick_od_pair(graph: Graph) -> tuple[int, int]:
    """Origin = most connected node; destination = BFS-farthest from it.

    Ties broken by lowest node index.
    """
    degree = [0] * graph.n_nodes
    adj: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    origin = max(range(graph.n_nodes), key=lambda v: (degree[v], -v))

    dist = [-1] * graph.n_nodes
    dist[origin] = 0
    q = deque([origin])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                q.append(v)
    reachable_max = max(d for d in dist if d >= 0)
    destination = min(v for v in range(graph.n_nodes) if dist[v] == reachable_max)
    return origin, destination

