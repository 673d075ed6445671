import itertools

import numpy as np
import pytest

from rsr.model import SystemModel, check_coherency
from rsr.oracle import bfs_connected
from rsr.sysfn import (
    Graph,
    edge_disjoint_level,
    global_connectivity,
    k_out_of_n,
    pick_od_pair,
    random_geometric_graph,
    single_od_connectivity,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Graph(2, ((1, 1),))


def test_single_od_path_graph():
    g = Graph(3, ((0, 1), (1, 2)))
    phi = single_od_connectivity(g, 0, 2)
    assert phi(np.array([1, 1])) == 1
    assert phi(np.array([1, 0])) == 0


def test_single_od_triangle_detour(triangle):
    phi = single_od_connectivity(triangle, 0, 1)
    # direct edge down, detour through node 2 alive
    assert phi(np.array([0, 1, 1])) == 1
    assert phi(np.array([0, 0, 0])) == 0


def test_single_od_rejects_bad_nodes(triangle):
    with pytest.raises(ValueError):
        single_od_connectivity(triangle, 0, 0)
    with pytest.raises(ValueError):
        single_od_connectivity(triangle, 0, 9)


def test_global_connectivity_triangle(triangle):
    phi = global_connectivity(triangle)
    assert phi(np.array([1, 1, 0])) == 1
    assert phi(np.array([1, 0, 0])) == 0
    assert phi(np.array([1, 1, 1])) == 1


def test_edge_disjoint_triangle(triangle):
    phi = edge_disjoint_level(triangle, 2)
    assert phi(np.array([1, 1, 1])) == 2
    assert phi(np.array([1, 1, 0])) == 1
    assert phi(np.array([1, 0, 0])) == 0


def test_edge_disjoint_level_one_matches_connectivity():
    # exhaustive agreement on all graphs used: phi >= 1 iff connected
    graphs = [
        Graph(3, ((0, 1), (1, 2), (0, 2))),
        Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
    ]
    for g in graphs:
        level = edge_disjoint_level(g, 1)
        conn = global_connectivity(g)
        for bits in itertools.product((0, 1), repeat=g.n_edges):
            x = np.array(bits)
            assert (level(x) >= 1) == (conn(x) == 1)


def test_k_out_of_n_multistate():
    phi = k_out_of_n(2, 3)
    assert phi(np.array([2, 2, 0])) == 2
    assert phi(np.array([2, 1, 0])) == 1
    # k = N gives the minimum
    phi_n = k_out_of_n(3, 3)
    assert phi_n(np.array([2, 1, 0])) == 0
    assert phi_n(np.array([2, 1, 1])) == 1


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
def test_k_out_of_n_is_the_sorted_order_statistic(dtype):
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 12):
        for m in range(2, 7):
            xs = rng.integers(0, m, size=(40, n)).astype(dtype)
            for k in range(1, n + 1):
                phi = k_out_of_n(k, n)
                for x in xs:
                    s = phi(x)
                    assert type(s) is int
                    assert s == np.sort(x)[n - k]
                # the batch form agrees row by row, on no rows too
                assert phi.rows(xs).tolist() == [phi(x) for x in xs]
                assert phi.rows(xs[:0]).shape == (0,)


def test_k_out_of_n_rejects_bad_k():
    with pytest.raises(ValueError):
        k_out_of_n(0, 3)
    with pytest.raises(ValueError):
        k_out_of_n(4, 3)


def test_builtins_pass_coherency_check():
    g = random_geometric_graph(12, 0.5, seed=3)
    for fn, n_sys in (
        (single_od_connectivity(g, *pick_od_pair(g)), 2),
        (global_connectivity(g), 2),
        (edge_disjoint_level(g, 2), 3),
    ):
        model = SystemModel(g.n_edges, 2, n_sys, fn)
        assert check_coherency(model, trials=10_000, seed=1) == []


def test_single_od_agrees_with_bfs_oracle():
    g = random_geometric_graph(10, 0.55, seed=7)
    o, d = pick_od_pair(g)
    phi = single_od_connectivity(g, o, d)
    rng = np.random.default_rng(0)
    for m in (2, 3):
        for _ in range(300):
            x = rng.integers(0, m, size=g.n_edges)
            alive = [e for i, e in enumerate(g.edges) if x[i] >= 1]
            assert phi(x) == int(bfs_connected(g.n_nodes, alive, o, d))


def test_rgg_deterministic():
    a = random_geometric_graph(20, 0.4, seed=5)
    b = random_geometric_graph(20, 0.4, seed=5)
    assert a.edges == b.edges
    assert a.node_positions == b.node_positions


def test_rgg_rejects_bad_radius():
    with pytest.raises(ValueError):
        random_geometric_graph(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_geometric_graph(5, 1.5, seed=1)


def test_rgg_mean_degree_envelope():
    # radius for mean degree ~8 with 60 nodes: pi r^2 (n-1) ~ 8
    radius = (8 / (np.pi * 59)) ** 0.5
    for seed in range(20):
        g = random_geometric_graph(60, radius, seed=seed)
        assert 100 <= g.n_edges <= 500


def test_pick_od_pair_most_connected_vs_farthest():
    # node 2 has the highest degree; every other node is one hop away,
    # so the distance tie breaks to the lowest index
    g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    origin, dest = pick_od_pair(g)
    assert origin == 2
    assert dest == 0

    # path graph: endpoints tie on degree, lowest index wins; farthest is 3
    p = Graph(4, ((0, 1), (1, 2), (2, 3)))
    origin, dest = pick_od_pair(p)
    assert origin == 1  # degree 2, ties with node 2, lower index
    assert dest == 3
