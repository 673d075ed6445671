"""The benchmark's tracer wraps module attributes of rsr by name.

``perfbench/spans.py`` replaces ``workflow.sample_batch``,
``classify.encode_batch`` and ``stage2_evaluate`` (among others) for the
length of one command. A refactor that renames one of them, moves the
sampling or encoding call off the module attribute, or moves Stage 2's
sets from their place in its arguments, silently empties those layers'
metrics; these tests run a small traced ``rsr evaluate`` and ``rsr
find-refs`` and fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

from rsr import files
from rsr.files import FORMAT, write_json

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODEL = {
    "format": FORMAT,
    "n_components": 3,
    "n_component_states": 2,
    "n_system_states": 2,
    "distribution": [[0.1, 0.9]] * 3,
    "system_function": {"name": "k_out_of_n", "k": 3},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_evaluate_records_sampling_and_encoding(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    write_json(model, MODEL)
    cli, workflow, classify = (importlib.import_module(f"rsr.{m}") for m in ("cli", "workflow", "classify"))
    originals = (workflow.sample_batch, classify.encode_batch)
    refs, report = tmp_path / "refs.json", tmp_path / "report.json"
    assert cli.main(["find-refs", "--model", str(model), "--out-refs", str(refs), "--samples", "500"]) == 0

    lower, upper = files.load_reference_sets(refs, files.load_model(model)[2])
    ref_sets = sum(len(s) > 0 for s in (lower, upper))
    monkeypatch.setattr(classify, "_CHUNK_BYTES", 8 * 3 * 256)  # 256 rows a chunk

    spans = _load_spans()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = cli.main(
            ["evaluate", "--model", str(model), "--refs", str(refs), "--out-report", str(report),
             "--samples", "2000", "--seed", "3"]
        )
    finally:
        restore()
    assert code == 0
    assert (workflow.sample_batch, classify.encode_batch) == originals

    names = [span["name"] for span in tracer.spans]
    assert "sampling" in names
    assert "encoding" in names
    # one sampling and one encoding call per chunk, plus one encoding per non-empty set
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sampling.calls"] == 8
    assert metrics["sampling.rows"] == 2000
    assert metrics["encoding.calls"] == 8 + ref_sets
    # the Stage-2 wrapper sees the one call and reads its sets as args[2:4]
    stage2 = [span for span in tracer.spans if span["name"] == "workflow.stage2"]
    n_refs = len(lower) + len(upper)
    assert n_refs > 0 and [span["refs"] for span in stage2] == [n_refs]


def test_traced_find_refs_draws_the_first_pass_through_sample_batch(tmp_path):
    # Stage 1's first pass regenerates every row of batch 0 in gap-free
    # chunks through workflow.sample_batch, the one sampler the tracer
    # wraps; drawn through sample_rows they would leave sampling.* blind
    model, refs = tmp_path / "model.json", tmp_path / "refs.json"
    write_json(model, MODEL)
    cli = importlib.import_module("rsr.cli")
    spans = _load_spans()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = cli.main(["find-refs", "--model", str(model), "--out-refs", str(refs), "--samples", "500", "--seed", "3"])
    finally:
        restore()
    assert code == 0
    assert spans.layer_metrics(tracer.spans)["sampling.rows"] >= 500
