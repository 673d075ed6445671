import json
import re
import tracemalloc

import numpy as np
import pytest

from rsr.boundary import ReferenceSet, Side
from rsr.files import (
    _SAVE_ROWS,
    FORMAT,
    build_manifest,
    load_graph,
    load_model,
    load_reference_sets,
    save_graph,
    save_reference_sets,
    write_json,
)
from rsr.sysfn import Graph, pick_od_pair, random_geometric_graph
from rsr.workflow import RunConfig


def series_model_doc(n=3, p_fail=0.1):
    return {
        "format": FORMAT,
        "n_components": n,
        "n_component_states": 2,
        "n_system_states": 2,
        "distribution": [[p_fail, 1.0 - p_fail]] * n,
        "system_function": {"name": "k_out_of_n", "k": n},
    }


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    write_json(path, series_model_doc())
    return path


def test_graph_round_trip(tmp_path):
    g = random_geometric_graph(15, 0.45, seed=2)
    path = tmp_path / "g.json"
    save_graph(path, g, manifest=build_manifest("gen-graph"))
    loaded = load_graph(path)
    assert loaded.edges == g.edges
    assert loaded.n_nodes == g.n_nodes
    # json float serialization round-trips exactly
    assert loaded.node_positions == g.node_positions


def test_graph_rejects_missing_format(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n_nodes": 2, "edges": [[0, 1]]}))
    with pytest.raises(ValueError):
        load_graph(path)


def test_load_model_k_out_of_n(model_file):
    model, dist, digest = load_model(model_file)
    assert model.n_components == 3
    assert model.evaluate([1, 1, 1]) == 1
    assert model.evaluate([1, 0, 1]) == 0
    assert dist.probs[0, 0] == 0.1
    assert len(digest) == 64


def _system_hash(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    write_json(path, doc)
    return load_model(path)[2]


def test_model_hash_ignores_presentation(tmp_path):
    # the system hash covers N, M, M_S and the system function: not a
    # manifest, and not the distribution the references are priced under
    doc = series_model_doc()
    digest = _system_hash(tmp_path, doc)
    assert _system_hash(tmp_path, dict(doc, manifest={"timestamp": "2026-01-01"})) == digest
    assert _system_hash(tmp_path, series_model_doc(p_fail=0.2)) == digest
    assert _system_hash(tmp_path, dict(doc, system_function={"name": "k_out_of_n", "k": 2})) != digest


def graph_model_doc(system_function, n=3):
    return {
        "format": FORMAT,
        "n_components": n,
        "n_component_states": 2,
        "n_system_states": 2,
        "distribution": [[0.1, 0.9]] * n,
        "system_function": system_function,
    }


def test_system_hash_covers_the_resolved_system_function(tmp_path):
    # one system, however the file names it, gives one hash
    graph = random_geometric_graph(12, 0.5, seed=1)
    save_graph(tmp_path / "g.json", graph, manifest=build_manifest("gen-graph"))
    n = graph.n_edges
    by_file = {"name": "single_od_connectivity", "graph_file": "g.json"}
    digest = _system_hash(tmp_path, graph_model_doc(by_file, n))
    origin, destination = pick_od_pair(graph)
    bare = {"format": FORMAT, "n_nodes": graph.n_nodes, "edges": [list(e) for e in graph.edges]}
    same = [
        {"name": "single_od_connectivity", "graph": bare},
        {**by_file, "origin": origin, "destination": destination},
        {"name": "single_od_connectivity", "graph": {**bare, "metadata": {"seed": 9}, "positions": [[0.5, 0.5]] * graph.n_nodes}},
    ]
    for spec in same:
        assert _system_hash(tmp_path, graph_model_doc(spec, n)) == digest, spec
    assert _system_hash(tmp_path, dict(graph_model_doc(by_file, n), distribution=[[0.4, 0.6]] * n)) == digest
    # another OD pair, another order of the edges (the components), or
    # another function of the same graph is another system
    other_od = [d for d in range(graph.n_nodes) if d not in (origin, destination)][0]
    reversed_edges = {"name": "single_od_connectivity", "graph": {**bare, "edges": bare["edges"][::-1]}}
    other = [
        {**by_file, "origin": origin, "destination": other_od},
        reversed_edges,
        {"name": "global_connectivity", "graph_file": "g.json"},
    ]
    digests = {_system_hash(tmp_path, graph_model_doc(spec, n)) for spec in other}
    assert len(digests) == len(other) and digest not in digests


def test_load_model_graph_inline(tmp_path):
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    doc = {
        "format": FORMAT,
        "n_components": 3,
        "n_component_states": 2,
        "n_system_states": 2,
        "distribution": [[0.1, 0.9]] * 3,
        "system_function": {
            "name": "global_connectivity",
            "graph": {"format": FORMAT, "n_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        },
    }
    path = tmp_path / "m.json"
    write_json(path, doc)
    model, dist, _ = load_model(path)
    assert model.evaluate([1, 1, 0]) == 1
    assert model.evaluate([0, 0, 1]) == 0
    assert g.n_edges == model.n_components


def test_load_model_graph_file_and_od(tmp_path):
    gpath = tmp_path / "g.json"
    save_graph(gpath, Graph(3, ((0, 1), (1, 2))))
    doc = {
        "format": FORMAT,
        "n_components": 2,
        "n_component_states": 2,
        "n_system_states": 2,
        "distribution": [[0.2, 0.8]] * 2,
        "system_function": {
            "name": "single_od_connectivity",
            "graph_file": "g.json",
            "origin": 0,
            "destination": 2,
        },
    }
    path = tmp_path / "m.json"
    write_json(path, doc)
    model, _, _ = load_model(path)
    assert model.evaluate([1, 1]) == 1
    assert model.evaluate([1, 0]) == 0


def test_load_model_validation_errors(tmp_path):
    bad_states = series_model_doc()
    bad_states["n_system_states"] = 3  # k-out-of-n implies 2 here
    p1 = tmp_path / "a.json"
    write_json(p1, bad_states)
    with pytest.raises(ValueError):
        load_model(p1)

    bad_dist = series_model_doc()
    bad_dist["distribution"] = [[0.1, 0.9]] * 2  # wrong row count
    p2 = tmp_path / "b.json"
    write_json(p2, bad_dist)
    with pytest.raises(ValueError):
        load_model(p2)

    edge_mismatch = {
        "format": FORMAT,
        "n_components": 5,
        "n_component_states": 2,
        "n_system_states": 2,
        "distribution": [[0.1, 0.9]] * 5,
        "system_function": {
            "name": "global_connectivity",
            "graph": {"format": FORMAT, "n_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        },
    }
    p3 = tmp_path / "c.json"
    write_json(p3, edge_mismatch)
    with pytest.raises(ValueError):
        load_model(p3)


def test_load_model_names_the_file_for_a_missing_field(tmp_path):
    doc = series_model_doc()
    del doc["distribution"]
    path = tmp_path / "model.json"
    write_json(path, doc)
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing field 'distribution'")):
        load_model(path)


def test_reference_sets_round_trip(tmp_path):
    lower = ReferenceSet(Side.LOWER, 0, [(0, 1, 1), (1, 1, 0)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1, 1)])
    path = tmp_path / "refs.json"
    save_reference_sets(path, lower, upper, "abc123", manifest=build_manifest("find-refs"))
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["format", "lower", "manifest", "system_hash", "threshold", "upper"]
    assert doc["lower"] == [[0, 1, 1], [1, 1, 0]] and doc["system_hash"] == "abc123"
    got_lower, got_upper = load_reference_sets(path, "abc123")
    assert sorted(got_lower.members) == sorted(lower.members)
    assert got_upper.members == upper.members
    assert got_lower.threshold == 0


def test_saving_reference_sets_is_memory_bounded(tmp_path):
    # about a paper-graph refs file: 3000 references of 294 components. The
    # save holds one block of _SAVE_ROWS vectors as lists and text, 0.8 MiB
    # on Python 3.11; one document dumped with indent=2 peaked at 80 MiB
    k, n = 3000, 294
    upper = ReferenceSet(Side.UPPER, 0, (np.random.default_rng(4).random((k, n)) < 0.9).astype(np.int64))
    lower = ReferenceSet(Side.LOWER, 0, [(0,) * n])
    path = tmp_path / "refs.json"
    tracemalloc.start()
    try:
        save_reference_sets(path, lower, upper, "h")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _SAVE_ROWS * n * 8 + (1 << 18), f"{peak / 2**20:.2f} MiB"
    got_lower, got_upper = load_reference_sets(path, "h")
    assert len(upper) > _SAVE_ROWS
    assert np.array_equal(got_upper.as_array(), upper.as_array())
    assert np.array_equal(got_lower.as_array(), lower.as_array())


def test_reference_sets_hash_guard(tmp_path):
    lower = ReferenceSet(Side.LOWER, 0, [(0, 0)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1)])
    path = tmp_path / "refs.json"
    save_reference_sets(path, lower, upper, "deadbeef")
    with pytest.raises(ValueError, match=re.escape(f"{path}: the reference sets were searched on system deadbeef")):
        load_reference_sets(path, "other-model")
    # the hash is required, and nothing skips the check
    for args, kwargs in (((), {}), ((None,), {}), (("other-model",), {"force": True})):
        with pytest.raises((TypeError, ValueError)):
            load_reference_sets(path, *args, **kwargs)
    # a file without a system hash, as every older file is, is refused too
    doc = json.loads(path.read_text())
    del doc["system_hash"]
    write_json(path, doc)
    with pytest.raises(ValueError, match=re.escape(f"{path}: the reference sets record no system_hash")):
        load_reference_sets(path, "deadbeef")


def test_a_bad_call_is_the_callers_error_not_the_files(model_file, tmp_path):
    # a call that does not fit the signature raises TypeError, not a
    # ValueError blaming the file; a field of the wrong type still does
    with pytest.raises(TypeError):
        load_model(model_file, 3)
    with pytest.raises(TypeError):
        load_model(model_file, force=True)
    path = tmp_path / "refs.json"
    save_reference_sets(path, ReferenceSet(Side.LOWER, 0, [(0, 0)]), ReferenceSet(Side.UPPER, 0, [(1, 1)]), "h")
    with pytest.raises(TypeError):
        load_reference_sets(path, "h", force=True)
    doc = series_model_doc()
    doc["n_components"] = None
    write_json(model_file, doc)
    with pytest.raises(ValueError, match=re.escape(f"{model_file}: malformed document")):
        load_model(model_file)


def test_reference_sets_threshold_guard(tmp_path):
    lower = ReferenceSet(Side.LOWER, 0, [(0, 0)])
    upper = ReferenceSet(Side.UPPER, 1, [(1, 1)])
    with pytest.raises(ValueError):
        save_reference_sets(tmp_path / "x.json", lower, upper, "h")


def test_manifest_contents():
    cfg = RunConfig(n_samples=10, seed=3)
    m = build_manifest("find-refs", config=cfg, m_prime=0)
    assert m["command"] == "find-refs"
    assert m["config"]["n_samples"] == 10
    assert m["m_prime"] == 0
    assert "timestamp" in m and "tool_version" in m
