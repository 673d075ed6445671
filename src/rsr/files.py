"""JSON persistence: models, graphs, reference sets, reports, run manifests.

Every JSON artifact carries the schema tag ``"format": "rsr/1"`` and, for
derived artifacts, a manifest with the producing command, configuration,
and a content hash of the model, so reference sets can be re-priced under
new component distributions only when they match the model they were
searched on.
"""

from __future__ import annotations

import functools
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
    "model_hash",
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


def _require_format(doc: dict, path: str | Path) -> None:
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: missing or unsupported format tag (expected {FORMAT!r})")


def _input_errors(load: Callable) -> Callable:
    # a field of the wrong JSON type (int(None), "text".get) is an input error in the file
    @functools.wraps(load)
    def checked(path: str | Path, *args: Any, **kwargs: Any) -> Any:
        try:
            return load(path, *args, **kwargs)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed document: {exc}") from exc

    return checked


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


def model_hash(doc: dict) -> str:
    """Content hash over the model-defining fields only."""
    defining = {
        key: doc[key]
        for key in (
            "n_components",
            "n_component_states",
            "n_system_states",
            "distribution",
            "system_function",
        )
    }
    return hashlib.sha256(canonical_json(defining).encode()).hexdigest()


def _resolve_graph(spec: dict, base_dir: Path) -> Graph:
    if "graph" in spec:
        return graph_from_dict(spec["graph"])
    if "graph_file" in spec:
        return load_graph(base_dir / spec["graph_file"])
    raise ValueError("graph system function needs 'graph' or 'graph_file'")


def _build_performance(
    spec: dict, n_components: int, n_component_states: int, base_dir: Path
) -> tuple[Callable, int]:
    """Returns (performance function, n_system_states) from a tagged-union spec."""
    name = spec.get("name")
    if name == "single_od_connectivity":
        graph = _resolve_graph(spec, base_dir)
        if "origin" in spec or "destination" in spec:
            origin, destination = int(spec["origin"]), int(spec["destination"])
        else:
            origin, destination = pick_od_pair(graph)
        fn = single_od_connectivity(graph, origin, destination)
        n_sys = 2
    elif name == "global_connectivity":
        graph = _resolve_graph(spec, base_dir)
        fn = global_connectivity(graph)
        n_sys = 2
    elif name == "edge_disjoint_level":
        graph = _resolve_graph(spec, base_dir)
        max_level = int(spec["max_level"])
        fn = edge_disjoint_level(graph, max_level)
        n_sys = max_level + 1
    elif name == "k_out_of_n":
        fn = k_out_of_n(int(spec["k"]), n_components)
        n_sys = n_component_states
    else:
        raise ValueError(f"unknown system_function name: {name!r}")
    if name in _GRAPH_FUNCTIONS and graph.n_edges != n_components:
        raise ValueError(
            f"graph has {graph.n_edges} edges but model declares "
            f"{n_components} components"
        )
    return fn, n_sys


@_input_errors
def load_model(path: str | Path) -> tuple[SystemModel, ComponentDistribution, str]:
    """Load a model definition file; returns (model, distribution, model hash)."""
    path = Path(path)
    doc = json.loads(path.read_text())
    _require_format(doc, path)
    n = int(doc["n_components"])
    m = int(doc["n_component_states"])
    declared_sys = int(doc["n_system_states"])
    fn, n_sys = _build_performance(doc["system_function"], n, m, path.parent)
    if n_sys != declared_sys:
        raise ValueError(
            f"{path}: n_system_states={declared_sys} but system function "
            f"implies {n_sys}"
        )
    dist = ComponentDistribution(doc["distribution"])
    if dist.n_components != n or dist.n_states != m:
        raise ValueError(f"{path}: distribution shape does not match N x M")
    model = SystemModel(
        n_components=n,
        n_component_states=m,
        n_system_states=n_sys,
        performance=fn,
    )
    return model, dist, model_hash(doc)


# -- reference sets -----------------------------------------------------


# the vectors of a saved reference set are encoded this many rows at a time
_SAVE_ROWS = 256
# stands for a set's vectors in the document until they are written
_VECTORS = "\x00vectors"
_encode_row = json.JSONEncoder(separators=(",", ":")).encode


def _set_doc(refs: ReferenceSet, model_digest: str, seed: int | None) -> dict:
    """The set's document, with ``_VECTORS`` in place of its vectors."""
    doc: dict[str, Any] = {
        "format": FORMAT,
        "side": refs.side,
        "threshold": refs.threshold,
        "vectors": _VECTORS,
        "model_hash": model_digest,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


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


def reference_set_from_dict(doc: dict, origin: str | Path = "<dict>") -> ReferenceSet:
    _require_format(doc, origin)
    side = doc["side"]
    if side not in (Side.LOWER, Side.UPPER):
        raise ValueError(f"{origin}: invalid side {side!r}")
    return ReferenceSet(side, int(doc["threshold"]), doc["vectors"])


def save_reference_sets(
    path: str | Path,
    lower: ReferenceSet,
    upper: ReferenceSet,
    model_digest: str,
    manifest: dict | None = None,
    seed: int | None = None,
) -> None:
    """Write both sets as one document, laid out as ``write_json`` lays it out but one vector a line.

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
        "model_hash": model_digest,
        "lower": _set_doc(lower, model_digest, seed),
        "upper": _set_doc(upper, model_digest, seed),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    # sorted keys put "lower" before "upper": each set's vectors follow its piece
    pieces = json.dumps(doc, indent=2, sort_keys=True).split(json.dumps(_VECTORS))
    with open(path, "w") as fh:
        for refs, piece in zip((lower, upper), pieces):
            fh.write(piece)
            line = piece[piece.rfind("\n") + 1 :]
            _write_rows(fh, refs.as_array(), len(line) - len(line.lstrip()))
        fh.write(pieces[-1] + "\n")


@_input_errors
def load_reference_sets(
    path: str | Path,
    expected_model_hash: str | None = None,
    force: bool = False,
) -> tuple[ReferenceSet, ReferenceSet]:
    path = Path(path)
    doc = json.loads(path.read_text())
    _require_format(doc, path)
    if (
        expected_model_hash is not None
        and doc.get("model_hash") != expected_model_hash
        and not force
    ):
        raise ValueError(
            f"{path}: reference sets were searched on a different model "
            f"(hash {doc.get('model_hash')!r} != {expected_model_hash!r}); "
            "pass --force to override"
        )
    lower = reference_set_from_dict(doc["lower"], path)
    upper = reference_set_from_dict(doc["upper"], path)
    if lower.side != Side.LOWER or upper.side != Side.UPPER:
        raise ValueError(f"{path}: sides are swapped or invalid")
    if not int(doc["threshold"]) == lower.threshold == upper.threshold:
        raise ValueError(
            f"{path}: thresholds disagree: file {doc['threshold']}, "
            f"lower set {lower.threshold}, upper set {upper.threshold}"
        )
    return lower, upper
