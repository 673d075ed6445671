"""JSON persistence: models, graphs, reference sets, reports, run manifests.

Every JSON artifact carries the schema tag ``"format": "rsr/1"`` and, for
derived artifacts, a manifest with the producing command and its
configuration. A manifest names the model by two hashes: ``system_hash``
covers N, M, M_S and the resolved system function, everything a
reference depends on, and ``distribution_hash`` the component
distribution that priced the run. A reference-set file records its
``system_hash`` and loads only against a model with the same one, under
any distribution: references are found once and priced again whenever
the component probabilities change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from . import __version__
from .boundary import ReferenceSet, Side
from .model import ComponentDistribution, SystemModel
from .sysfn import (
    Graph,
    edge_disjoint_level,
    global_connectivity,
    k_out_of_n,
    pick_od_pair,
    single_od_connectivity,
)
from .workflow import RunConfig

__all__ = [
    "FORMAT",
    "canonical_json",
    "distribution_hash",
    "load_model",
    "save_graph",
    "load_graph",
    "save_reference_sets",
    "load_reference_sets",
    "build_manifest",
    "write_json",
]

FORMAT = "rsr/1"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_format(doc: Any, path: str | Path) -> None:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"{path}: missing or unsupported format tag (expected {FORMAT!r})")


def _sha256(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def build_manifest(command: str, config: RunConfig | None = None, **extra: Any) -> dict:
    manifest: dict[str, Any] = {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    if config is not None:
        manifest["config"] = asdict(config)
    manifest.update(extra)
    return manifest


# -- graphs -------------------------------------------------------------


def graph_to_dict(graph: Graph) -> dict:
    doc: dict[str, Any] = {
        "format": FORMAT,
        "n_nodes": graph.n_nodes,
        "edges": [list(e) for e in graph.edges],
    }
    if graph.node_positions is not None:
        doc["positions"] = [list(p) for p in graph.node_positions]
    if graph.metadata:
        doc["metadata"] = graph.metadata
    return doc


def graph_from_dict(doc: dict, origin: str | Path = "<dict>") -> Graph:
    _require_format(doc, origin)
    positions = doc.get("positions")
    return Graph(
        n_nodes=int(doc["n_nodes"]),
        edges=tuple((int(u), int(v)) for u, v in doc["edges"]),
        node_positions=tuple((float(x), float(y)) for x, y in positions)
        if positions
        else None,
        metadata=dict(doc.get("metadata", {})),
    )


def save_graph(path: str | Path, graph: Graph, manifest: dict | None = None) -> None:
    doc = graph_to_dict(graph)
    if manifest is not None:
        doc["manifest"] = manifest
    write_json(path, doc)


def load_graph(path: str | Path) -> Graph:
    doc = json.loads(Path(path).read_text())
    return graph_from_dict(doc, path)


# -- models -------------------------------------------------------------

_GRAPH_FUNCTIONS = {"single_od_connectivity", "global_connectivity", "edge_disjoint_level"}


def distribution_hash(dist: ComponentDistribution) -> str:
    """sha256 of the loaded distribution table: the probabilities a run was priced under."""
    return _sha256(dist.probs.tolist())


def _resolve_graph(spec: dict, base_dir: Path) -> Graph:
    if "graph" in spec:
        return graph_from_dict(spec["graph"])
    if "graph_file" in spec:
        return load_graph(base_dir / spec["graph_file"])
    raise ValueError("graph system function needs 'graph' or 'graph_file'")


def _build_performance(
    spec: dict, n_components: int, n_component_states: int, base_dir: Path
) -> tuple[Callable, int, dict]:
    """Returns (performance function, n_system_states, resolved spec) from a tagged-union spec.

    The resolved spec holds exactly what the function depends on: a graph
    by its nodes and edges, whether inline or by file, and the OD pair
    actually used.
    """
    name = spec.get("name")
    resolved: dict[str, Any] = {"name": name}
    if name in _GRAPH_FUNCTIONS:
        graph = _resolve_graph(spec, base_dir)
        if graph.n_edges != n_components:
            raise ValueError(
                f"graph has {graph.n_edges} edges but model declares "
                f"{n_components} components"
            )
        resolved["graph"] = {"n_nodes": graph.n_nodes, "edges": graph.edges}
    if name == "single_od_connectivity":
        if "origin" in spec or "destination" in spec:
            origin, destination = int(spec["origin"]), int(spec["destination"])
        else:
            origin, destination = pick_od_pair(graph)
        resolved.update(origin=origin, destination=destination)
        fn = single_od_connectivity(graph, origin, destination)
        n_sys = 2
    elif name == "global_connectivity":
        fn = global_connectivity(graph)
        n_sys = 2
    elif name == "edge_disjoint_level":
        max_level = resolved["max_level"] = int(spec["max_level"])
        fn = edge_disjoint_level(graph, max_level)
        n_sys = max_level + 1
    elif name == "k_out_of_n":
        k = resolved["k"] = int(spec["k"])
        fn = k_out_of_n(k, n_components)
        n_sys = n_component_states
    else:
        raise ValueError(f"unknown system_function name: {name!r}")
    return fn, n_sys, resolved


def load_model(path: str | Path) -> tuple[SystemModel, ComponentDistribution, str]:
    """Load a model definition file; returns (model, distribution, system hash).

    Every error in the file's content names the file.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    _require_format(doc, path)
    try:
        n = int(doc["n_components"])
        m = int(doc["n_component_states"])
        declared_sys = int(doc["n_system_states"])
        fn, n_sys, resolved = _build_performance(doc["system_function"], n, m, path.parent)
        if n_sys != declared_sys:
            raise ValueError(f"n_system_states={declared_sys} but system function implies {n_sys}")
        dist = ComponentDistribution(doc["distribution"])
        if dist.n_components != n or dist.n_states != m:
            raise ValueError("distribution shape does not match N x M")
        model = SystemModel(
            n_components=n,
            n_component_states=m,
            n_system_states=n_sys,
            performance=fn,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (TypeError, AttributeError) as exc:  # a field of the wrong JSON type: int(None), "text".get
        raise ValueError(f"{path}: malformed document: {exc}") from exc
    digest = _sha256(
        {"n_components": n, "n_component_states": m, "n_system_states": n_sys, "system_function": resolved}
    )
    return model, dist, digest


# -- reference sets -----------------------------------------------------


# the vectors of a saved reference set are encoded this many rows at a time
_SAVE_ROWS = 256
# stands for a set's vectors in the document until they are written
_VECTORS = "\x00vectors"
_encode_row = json.JSONEncoder(separators=(",", ":")).encode


def _write_rows(fh: TextIO, matrix: np.ndarray, indent: int) -> None:
    """Write an R x N matrix as a JSON list at ``indent``, one row a line, a block of rows at a time."""
    if not len(matrix):
        fh.write("[]")
        return
    pad = " " * (indent + 2)
    for start in range(0, len(matrix), _SAVE_ROWS):
        rows = map(_encode_row, matrix[start : start + _SAVE_ROWS].tolist())
        fh.write(("[\n" if start == 0 else ",\n") + pad + (",\n" + pad).join(rows))
    fh.write("\n" + " " * indent + "]")


def save_reference_sets(
    path: str | Path,
    lower: ReferenceSet,
    upper: ReferenceSet,
    system_digest: str,
    manifest: dict | None = None,
) -> None:
    """Write both sets as one document, laid out as ``write_json`` lays it out but one vector a line.

    The document is ``{"format", "threshold", "system_hash", "manifest",
    "lower", "upper"}``, each set a list of its vectors in insertion order.

    ``indent`` would send every vector entry through json's pure-Python
    encoder. Here the C encoder encodes each vector, a block of rows at a
    time, and the text is written as it is made, so the save holds about
    one block's lists and text whatever the sets' size.
    """
    if lower.threshold != upper.threshold:
        raise ValueError("lower and upper sets must share a threshold")
    doc = {
        "format": FORMAT,
        "threshold": lower.threshold,
        "system_hash": system_digest,
        "lower": _VECTORS,
        "upper": _VECTORS,
    }
    if manifest is not None:
        doc["manifest"] = manifest
    # sorted keys put "lower" before "upper": each set's vectors follow its key
    pieces = json.dumps(doc, indent=2, sort_keys=True).split(json.dumps(_VECTORS))
    with open(path, "w") as fh:
        for refs, piece in zip((lower, upper), pieces):
            fh.write(piece)
            line = piece[piece.rfind("\n") + 1 :]
            _write_rows(fh, refs.as_array(), len(line) - len(line.lstrip()))
        fh.write(pieces[-1] + "\n")


def load_reference_sets(
    path: str | Path, expected_system_hash: str
) -> tuple[ReferenceSet, ReferenceSet]:
    """Load the sets of ``path``, refusing a file searched on another system than the one hashed."""
    path = Path(path)
    doc = json.loads(path.read_text())
    _require_format(doc, path)
    found = doc.get("system_hash")
    if found != expected_system_hash:
        searched = (
            "record no system_hash"
            if found is None
            else f"were searched on system {found}, not on this model's {expected_system_hash}"
        )
        raise ValueError(f"{path}: the reference sets {searched}; run find-refs on this model again")
    try:
        threshold = int(doc["threshold"])
        return ReferenceSet(Side.LOWER, threshold, doc["lower"]), ReferenceSet(Side.UPPER, threshold, doc["upper"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed document: {exc}") from exc
