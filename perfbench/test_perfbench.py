"""Tests of the benchmark's own reference values and trace arithmetic.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from rsr.model import ComponentDistribution, SystemModel
from rsr.oracle import exact_probabilities
from rsr.sysfn import k_out_of_n
from workloads import WORKLOADS, kofn_exact_pmf


@pytest.mark.parametrize("k", range(1, 7))
def test_kofn_closed_form_matches_enumeration(k):
    row = (0.2, 0.5, 0.3)
    model = SystemModel(6, 3, 3, k_out_of_n(k, 6))
    exact = exact_probabilities(model, ComponentDistribution.iid(6, row))
    enumerated = np.diff(np.concatenate([[0.0], exact.cumulative]))
    np.testing.assert_allclose(kofn_exact_pmf(k, 6, row), enumerated, rtol=0, atol=1e-12)


def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end, **attrs}


def test_self_time_subtracts_union_of_children():
    nested = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),  # overlaps a: together they cover 1..6
        _span(3, "c", 1, 2.0, 3.0),  # grandchild: counts against a only
        _span(4, "d", 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    own = spans.self_times(nested)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == pytest.approx(4.0)
    assert spans.covered([]) == 0.0


def test_layer_metrics_attribute_phi_calls_by_caller():
    trace = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "workflow.stage1", 0, 0.0, 6.0, iterations=2, refs=1),
        _span(2, "boundary.search", 1, 1.0, 2.0),
        _span(3, "model.evaluate", 2, 1.0, 1.5),
        _span(4, "model.evaluate", 2, 1.5, 2.0),
        _span(5, "boundary.insert", 1, 2.0, 2.5, outcome="inserted"),
        _span(6, "workflow.stage2", 0, 6.0, 9.0, refs=1),
        _span(7, "classify", 6, 6.0, 8.0, rows=100, refs=1, row_bytes=4, unclassified=1),
        _span(8, "encoding", 7, 6.0, 6.5, bytes=800),
        _span(9, "model.evaluate", 6, 8.0, 8.5),
    ]
    m = spans.layer_metrics(trace)
    assert m["model.phi_calls"] == 3
    assert m["boundary.phi_calls"] == 2
    assert m["workflow.stage2_resolved"] == 1
    assert m["boundary.useful_ratio"] == 1.0
    assert m["classify.self_s"] == pytest.approx(1.5)
    assert m["classify.pairs"] == 100
    assert m["classify.pairs_per_s"] == pytest.approx(100 / 1.5)
    assert m["classify.bytes_touched"] == 400
    assert m["workflow.refs"] == 1
    assert m["workflow.self_s"] == pytest.approx(6.0 - 1.5 + 3.0 - 2.5)


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
