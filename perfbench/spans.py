"""Span tracing around rsr's public entry points, and the per-layer metrics derived from it.

Spans are recorded from outside the package, by wrapping module and class
attributes for the length of one traced command; nothing inside ``rsr``
is timed. A span is a dict with ``id``, ``name``, ``parent`` (the id of
the span open when it started, or ``None``), ``start`` and ``end`` in
seconds, plus counts taken from the call's arguments and result. Spans
stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

# (name, unit, better) of every per-layer metric, in report order. Units
# ending in "_computed" are derived from array shapes, not measured.
PER_LAYER = (
    ("sampling.calls", "count", "lower"),
    ("sampling.rows", "count", "lower"),
    ("sampling.s", "s", "lower"),
    ("sampling.bytes_out", "bytes_computed", "lower"),
    ("sampling.batch_bytes", "bytes_computed", "lower"),
    ("encoding.calls", "count", "lower"),
    ("encoding.s", "s", "lower"),
    ("encoding.bytes_out", "bytes_computed", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("classify.pairs", "pairs_computed", "lower"),
    ("classify.pairs_per_s", "pairs/s", "higher"),
    ("classify.bytes_touched", "bytes_computed", "lower"),
    ("classify.unclassified", "count", "lower"),
    ("boundary.searches", "count", "lower"),
    ("boundary.s", "s", "lower"),
    ("boundary.phi_calls", "count", "lower"),
    ("boundary.phi_per_search", "count", "lower"),
    ("boundary.inserts", "count", "higher"),
    ("boundary.redundant", "count", "lower"),
    ("boundary.useful_ratio", "ratio", "higher"),
    ("boundary.insert_s", "s", "lower"),
    ("model.phi_calls", "count", "lower"),
    ("model.phi_s", "s", "lower"),
    ("workflow.stage1_iterations", "count", "lower"),
    ("workflow.stage1_s", "s", "lower"),
    ("workflow.stage2_s", "s", "lower"),
    ("workflow.stage2_resolved", "count", "lower"),
    ("workflow.refs", "count", "lower"),
    ("workflow.self_s", "s", "lower"),
    ("files.load_s", "s", "lower"),
    ("files.save_s", "s", "lower"),
    ("cli.s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

# Which end-to-end metric each layer should move, and on which workload.
LAYER_TARGETS = {
    "sampling": "wall_s, peak_rss_mb on stage2-rgg and stage1-rgg; little on pmf-kofn",
    "encoding": "wall_s, peak_rss_mb on stage2-rgg",
    "classify": "wall_s on pmf-kofn (mostly) and stage1-rgg",
    "boundary": "phi_calls, wall_s on stage1-rgg and pmf-kofn; zero on stage2-rgg",
    "model": "wall_s on stage1-rgg; negligible on pmf-kofn",
    "workflow": "wall_s on stage1-rgg (iterations) and pmf-kofn (per-threshold passes)",
    "files": "wall_s on every workload",
    "cli": "wall_s on every workload",
}


Span = dict[str, Any]
Attrs = Callable[[Any, tuple, dict], dict]


class Tracer:
    """Records one span per call of each wrapped function.

    Parents are tracked with a stack, so calls must be made from one
    thread (the CLI's default ``--workers 1``).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span: Span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(result, args, kwargs))
            return result

        return traced


def _n_refs(*sets) -> int:
    return sum(len(s) for s in sets if s is not None)


def _classify_attrs(result, args, kwargs) -> dict:
    batch, lower, upper = args[:3]
    # workflow always passes n_states; a packed row is ceil(N*M / 8) bytes
    row_bytes = -(-batch.n_components * kwargs["n_states"] // 8)
    return {
        "rows": batch.n_samples,
        "refs": _n_refs(lower, upper),
        "row_bytes": row_bytes,
        "unclassified": int(result.unclassified_indices.size),
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap rsr's layer entry points; returns a function that restores them."""
    # rsr/__init__ rebinds the name ``rsr.classify`` to the function, so
    # the modules are fetched by their full names
    boundary, classify, cli, files, model, workflow = (
        importlib.import_module(f"rsr.{name}")
        for name in ("boundary", "classify", "cli", "files", "model", "workflow")
    )
    targets = [
        (cli, "main", "cli"),
        (cli, "stage1_find_references", "workflow.stage1"),
        (workflow, "stage1_find_references", "workflow.stage1"),
        (cli, "stage2_evaluate", "workflow.stage2"),
        (workflow, "stage2_evaluate", "workflow.stage2"),
        (cli, "multistate_pmf", "workflow.pmf"),
        (workflow, "sample_batch", "sampling"),
        (workflow, "classify", "classify"),
        (classify, "encode_batch", "encoding"),
        (workflow, "boundary_search", "boundary.search"),
        (boundary.ReferenceSet, "insert", "boundary.insert"),
        (model.SystemModel, "evaluate", "model.evaluate"),
        (files, "load_model", "files.load"),
        (files, "load_reference_sets", "files.load"),
        (files, "save_reference_sets", "files.save"),
        (files, "write_json", "files.save"),
        (cli, "_write_trace", "files.save"),
    ]
    attrs: dict[str, Attrs] = {
        "workflow.stage1": lambda r, a, k: {
            "iterations": r.iterations,
            "refs": _n_refs(r.lower, r.upper),
        },
        "workflow.stage2": lambda r, a, k: {"refs": _n_refs(a[2], a[3])},
        "sampling": lambda r, a, k: {"rows": r.n_samples, "bytes": r.states.nbytes},
        "classify": _classify_attrs,
        "encoding": lambda r, a, k: {"bytes": r.data.nbytes},
        "boundary.insert": lambda r, a, k: {"outcome": r},
    }
    saved = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, attrs.get(name)))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- derivation -----------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[span["id"]]
            if c["end"] > span["start"] and c["start"] < span["end"]
        )
        for span in spans
    }


def _ratio(num: float, den: float) -> float:
    # a layer that did no work reports 0 rather than an undefined ratio
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced command (``trace_overhead_s`` excepted)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    name_of = {s["id"]: s["name"] for s in spans}
    own = self_times(spans)

    def under(name: str, parent: str) -> list[Span]:
        return [s for s in by_name[name] if name_of.get(s["parent"]) == parent]

    def busy(*names: str) -> float:
        return covered((s["start"], s["end"]) for n in names for s in by_name[n])

    def total(name: str, key: str) -> int:
        return sum(s[key] for s in by_name[name])

    sampling = by_name["sampling"]
    classify = by_name["classify"]
    searches = len(by_name["boundary.search"])
    boundary_phi = len(under("model.evaluate", "boundary.search"))
    stage1_inserts = under("boundary.insert", "workflow.stage1")
    inserted = sum(s["outcome"] == "inserted" for s in stage1_inserts)
    classify_self = sum(own[s["id"]] for s in classify)
    pairs = sum(s["rows"] * s["refs"] for s in classify)
    # refs the workflow ends with, summed over thresholds: those found by
    # Stage 1, or for a Stage-2-only command, those it was given
    refs = total("workflow.stage2", "refs") or total("workflow.stage1", "refs")
    return {
        "sampling.calls": len(sampling),
        "sampling.rows": total("sampling", "rows"),
        "sampling.s": busy("sampling"),
        "sampling.bytes_out": total("sampling", "bytes"),
        "sampling.batch_bytes": max((s["bytes"] for s in sampling), default=0),
        "encoding.calls": len(by_name["encoding"]),
        "encoding.s": busy("encoding"),
        "encoding.bytes_out": total("encoding", "bytes"),
        "classify.calls": len(classify),
        "classify.s": busy("classify"),
        "classify.self_s": classify_self,
        "classify.pairs": pairs,
        "classify.pairs_per_s": _ratio(pairs, classify_self),
        "classify.bytes_touched": sum(s["rows"] * s["refs"] * s["row_bytes"] for s in classify),
        "classify.unclassified": total("classify", "unclassified"),
        "boundary.searches": searches,
        "boundary.s": busy("boundary.search"),
        "boundary.phi_calls": boundary_phi,
        "boundary.phi_per_search": _ratio(boundary_phi, searches),
        "boundary.inserts": inserted,
        "boundary.redundant": len(stage1_inserts) - inserted,
        "boundary.useful_ratio": _ratio(inserted, searches),
        "boundary.insert_s": covered((s["start"], s["end"]) for s in stage1_inserts),
        "model.phi_calls": len(by_name["model.evaluate"]),
        "model.phi_s": busy("model.evaluate"),
        "workflow.stage1_iterations": total("workflow.stage1", "iterations"),
        "workflow.stage1_s": busy("workflow.stage1"),
        "workflow.stage2_s": busy("workflow.stage2"),
        "workflow.stage2_resolved": len(under("model.evaluate", "workflow.stage2")),
        "workflow.refs": refs,
        "workflow.self_s": sum(
            own[s["id"]] for n in ("workflow.stage1", "workflow.stage2", "workflow.pmf")
            for s in by_name[n]
        ),
        "files.load_s": busy("files.load"),
        "files.save_s": busy("files.save"),
        "cli.s": busy("cli"),
    }
