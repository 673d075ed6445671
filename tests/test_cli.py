import csv
import json
import re

import pytest

from rsr import files
from rsr.boundary import ReferenceSet, Side
from rsr.cli import EXIT_INPUT, TRACE_COLUMNS, main
from rsr.files import FORMAT, write_json


def write_series_model(path, n=3, p_fail=0.1, k=None):
    write_json(
        path,
        {
            "format": FORMAT,
            "n_components": n,
            "n_component_states": 2,
            "n_system_states": 2,
            "distribution": [[p_fail, 1.0 - p_fail]] * n,
            "system_function": {"name": "k_out_of_n", "k": n if k is None else k},
        },
    )
    return path


def write_refs(path, model, lower, upper, threshold=0):
    """A hand-written refs file carrying ``model``'s system hash, so that evaluate reaches its sets."""
    system_hash = files.load_model(model)[2]
    write_json(
        path,
        {"format": FORMAT, "threshold": threshold, "system_hash": system_hash, "lower": lower, "upper": upper},
    )
    return path


@pytest.fixture
def model_file(tmp_path):
    return write_series_model(tmp_path / "model.json")


def run(args):
    return main([str(a) for a in args])


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(model_file):
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "--model", model_file, "--mode", "exact", "--bogus"])
    assert exc.value.code == 2


def test_missing_model_file_is_input_error(tmp_path, capsys):
    code = run(
        ["find-refs", "--model", tmp_path / "nope.json", "--out-refs", tmp_path / "r.json"]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_model_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["oracle", "--model", bad, "--mode", "exact"])
    assert code == 3


def test_gen_graph_writes_file(tmp_path):
    out = tmp_path / "g.json"
    code = run(["gen-graph", "--n-nodes", 12, "--radius", 0.5, "--out", out, "--seed", 3])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == FORMAT
    assert doc["n_nodes"] == 12
    assert doc["manifest"]["command"] == "gen-graph"


def test_find_refs_then_evaluate(tmp_path, model_file):
    refs = tmp_path / "refs.json"
    trace = tmp_path / "trace.csv"
    code = run(
        [
            "find-refs", "--model", model_file, "--out-refs", refs,
            "--out-trace", trace, "--samples", 2000, "--eps-u", 1e-3, "--seed", 5,
        ]
    )
    assert code == 0
    doc = json.loads(refs.read_text())
    assert doc["format"] == FORMAT
    assert sorted(tuple(v) for v in doc["lower"]) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 0),
    ]
    assert doc["upper"] == [[1, 1, 1]]

    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert "searches" in TRACE_COLUMNS
    assert len(rows) >= 2
    assert int(rows[1][0]) == 0  # no references before the first search
    searches = [int(r[TRACE_COLUMNS.index("searches")]) for r in rows[1:]]
    assert searches[0] == 0 and searches == sorted(searches)

    report = tmp_path / "report.json"
    code = run(
        [
            "evaluate", "--model", model_file, "--refs", refs,
            "--out-report", report, "--samples", 5000, "--seed", 5,
        ]
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["p_lower"] + rep["p_upper"] == 1.0
    assert abs(rep["p_lower"] - (1 - 0.729)) < 0.03


def test_evaluate_hash_guard_and_force(tmp_path, model_file, capsys):
    # refs load on their system under any distribution, never on another
    # system, and no flag overrides that
    refs = tmp_path / "refs.json"
    assert run(
        ["find-refs", "--model", model_file, "--out-refs", refs,
         "--samples", 1000, "--eps-u", 1e-2]
    ) == 0
    report = tmp_path / "rep.json"
    other = write_series_model(tmp_path / "other.json", k=2)
    capsys.readouterr()
    code = run(["evaluate", "--model", other, "--refs", refs, "--out-report", report])
    assert code == 3
    assert f"{refs}: the reference sets were searched on system" in capsys.readouterr().err
    assert not report.exists()
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--model", other, "--refs", refs, "--out-report", report, "--force"])
    assert exc.value.code == 2
    repriced = write_series_model(tmp_path / "repriced.json", p_fail=0.3)
    code = run(["evaluate", "--model", repriced, "--refs", refs, "--out-report", report, "--samples", 1000])
    assert code == 0


def test_evaluate_empty_refs_matches_mc_oracle(tmp_path, model_file):
    # seed-matched: evaluation under empty sets equals the crude MC estimate
    refs = write_refs(tmp_path / "refs.json", model_file, [], [])
    report = tmp_path / "rep.json"
    assert run(
        ["evaluate", "--model", model_file, "--refs", refs, "--out-report", report,
         "--samples", 3000, "--seed", 9]
    ) == 0
    mc_out = tmp_path / "mc.json"
    assert run(
        ["oracle", "--model", model_file, "--mode", "mc", "--m-prime", 0,
         "--samples", 3000, "--seed", 9, "--out", mc_out]
    ) == 0
    rep = json.loads(report.read_text())
    mc = json.loads(mc_out.read_text())
    assert rep["p_lower"] == mc["p_lower"]
    assert rep["cov_lower"] == mc["cov"]


@pytest.mark.parametrize("vector", [[0.5, 1.5], [2**70, 1]])
def test_evaluate_rejects_non_integer_refs(tmp_path, capsys, vector):
    # an input error (exit 3): a float is not truncated, an oversized int does not overflow
    model = write_series_model(tmp_path / "model.json", n=2)
    refs = write_refs(tmp_path / "refs.json", model, [vector], [[1, 1]])
    code = run(
        ["evaluate", "--model", model, "--refs", refs, "--out-report", tmp_path / "rep.json",
         "--samples", 1000]
    )
    assert code == 3
    assert f"{refs}: component states must be integers" in capsys.readouterr().err


def test_evaluate_rejects_refs_holding_bools(tmp_path, capsys):
    # JSON true among ints is not taken as state 1
    model = write_series_model(tmp_path / "model.json", n=2)
    refs = write_refs(tmp_path / "refs.json", model, [[0, True]], [[1, 1]])
    assert "true" in refs.read_text()
    code = run(
        ["evaluate", "--model", model, "--refs", refs, "--out-report", tmp_path / "rep.json",
         "--samples", 1000]
    )
    assert code == 3
    assert f"{refs}: component states must be integers, got a bool" in capsys.readouterr().err


def test_evaluate_rejects_refs_of_wrong_length(tmp_path, capsys):
    model = write_series_model(tmp_path / "wide.json", n=115)
    refs = tmp_path / "refs.json"
    assert run(
        ["find-refs", "--model", model, "--out-refs", refs, "--samples", 200,
         "--r-max", 2, "--seed", 3]
    ) == 0
    doc = json.loads(refs.read_text())
    for side in ("lower", "upper"):
        doc[side] = [v[:113] for v in doc[side]]
    write_json(refs, doc)
    capsys.readouterr()
    code = run(
        ["evaluate", "--model", model, "--refs", refs, "--out-report", tmp_path / "rep.json",
         "--samples", 1000, "--seed", 1]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "113" in err and "115" in err


def test_worker_count_below_one_is_input_error(tmp_path, model_file, capsys):
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model_file, "--out-refs", refs, "--samples", 200, "--seed", 3]) == 0
    for workers in (0, -3):
        code = run(
            ["evaluate", "--model", model_file, "--refs", refs, "--out-report", tmp_path / "rep.json",
             "--samples", 200, "--workers", workers]
        )
        assert code == EXIT_INPUT
        assert "n_workers" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()
    assert run(
        ["find-refs", "--model", model_file, "--out-refs", tmp_path / "r0.json", "--workers", 0]
    ) == EXIT_INPUT


def test_oracle_exact(tmp_path, model_file):
    out = tmp_path / "exact.json"
    assert run(["oracle", "--model", model_file, "--mode", "exact", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["cumulative"][0] == pytest.approx(1 - 0.729)
    assert doc["state_count"] == [7, 1]


def test_oracle_mc_rejects_threshold_out_of_range(tmp_path, model_file, capsys):
    out = tmp_path / "mc.json"
    code = run(
        ["oracle", "--model", model_file, "--mode", "mc", "--m-prime", 5,
         "--samples", 100, "--out", out]
    )
    assert code == 3
    assert "threshold must lie in [0, 0]" in capsys.readouterr().err
    assert not out.exists()


def test_pmf_subcommand(tmp_path, monkeypatch):
    loaded = []

    def keep_model(path):
        model, dist, digest = files.load_model(path)
        loaded.append(model)
        return model, dist, digest

    monkeypatch.setattr("rsr.cli._load_model", keep_model)
    model = tmp_path / "m.json"
    write_json(
        model,
        {
            "format": FORMAT,
            "n_components": 3,
            "n_component_states": 3,
            "n_system_states": 3,
            "distribution": [[0.2, 0.3, 0.5]] * 3,
            "system_function": {"name": "k_out_of_n", "k": 2},
        },
    )
    out = tmp_path / "pmf.json"
    assert run(
        ["pmf", "--model", model, "--out", out, "--samples", 5000, "--eps-u", 1e-3,
         "--seed", 2]
    ) == 0
    doc = json.loads(out.read_text())
    assert len(doc["pmf"]) == 3
    assert sum(doc["pmf"]) == pytest.approx(1.0)
    assert len(doc["thresholds"]) == 2
    stage1 = [t["stage1"] for t in doc["thresholds"]]
    for s1 in stage1:
        assert s1["iterations"] >= 1 and s1["terminated_by"] in ("eps_u", "r_max", "cost")
        assert s1["lower_refs"] + s1["upper_refs"] >= 1
    # search and resolution calls are every phi call of the run
    (phi,) = (m.evaluation_count for m in loaded)
    assert sum(s1["search_phi_calls"] for s1 in stage1) + doc["resolution_phi_calls"] == phi
    # each round's two sides of the cost test: its walks' phi calls and
    # the open rows it settled; every row not settled costs one phi call
    rounds = doc["rounds"]
    assert sum(r["search_phi_calls"] for r in rounds) == sum(s1["search_phi_calls"] for s1 in stage1)
    assert doc["manifest"]["config"]["n_samples"] - sum(r["settled"] for r in rounds) == doc["resolution_phi_calls"]


def test_refs_file_holds_the_indented_document_one_vector_a_line(tmp_path):
    # the document is the one write_json writes for the same sets, vector
    # order included; only its text differs, each vector on one line
    graph, model = tmp_path / "g.json", tmp_path / "model.json"
    assert run(["gen-graph", "--n-nodes", 14, "--radius", 0.45, "--out", graph, "--seed", 2]) == 0
    n = files.load_graph(graph).n_edges
    write_json(
        model,
        {
            "format": FORMAT,
            "n_components": n,
            "n_component_states": 2,
            "n_system_states": 2,
            "distribution": [[0.2, 0.8]] * n,
            "system_function": {"name": "single_od_connectivity", "graph_file": "g.json"},
        },
    )
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model, "--out-refs", refs, "--samples", 2000, "--parallel", 8, "--seed", 3]) == 0
    text = refs.read_text()
    doc = json.loads(text)
    lower, upper = files.load_reference_sets(refs, files.load_model(model)[2])
    assert len(lower) > 1 and len(upper) > 1
    sets = {s.side: [list(v) for v in s.members] for s in (lower, upper)}
    indented = tmp_path / "indented.json"
    write_json(
        indented,
        {"format": FORMAT, "threshold": 0, "system_hash": doc["system_hash"], "manifest": doc["manifest"], **sets},
    )
    assert json.loads(indented.read_text()) == doc
    lines = re.findall(r"^ *(\[[0-9,]*\]),?$", text, flags=re.M)
    assert [json.loads(line) for line in lines] == [list(v) for v in lower.members + upper.members]
    assert text.endswith("}\n")


def test_each_manifest_carries_the_commands_peak_after_the_save(tmp_path, model_file, monkeypatch):
    # the manifest's peak is the process's peak once its file is written,
    # and at least the trace's last peak so far
    peak = pytest.importorskip("rsr.workflow")._peak_rss_bytes
    if peak() is None:
        pytest.skip("no peak RSS on this platform")
    after = []

    def then_peak(save):
        return lambda *args, **kwargs: (save(*args, **kwargs), after.append(peak()))

    monkeypatch.setattr(files, "write_json", then_peak(files.write_json))
    monkeypatch.setattr(files, "save_reference_sets", then_peak(files.save_reference_sets))
    refs, trace = tmp_path / "refs.json", tmp_path / "trace.csv"
    commands = {
        refs: ["find-refs", "--out-refs", refs, "--out-trace", trace],
        tmp_path / "report.json": ["evaluate", "--refs", refs, "--out-report", tmp_path / "report.json"],
        tmp_path / "pmf.json": ["pmf", "--out", tmp_path / "pmf.json"],
    }
    for out, command in commands.items():
        assert run([*command, "--model", model_file, "--samples", 1000, "--seed", 3]) == 0
        recorded = json.loads(out.read_text())["manifest"]["peak_rss_bytes"]
        assert isinstance(recorded, int) and recorded == after[-1] > 0
    with open(trace, newline="") as fh:
        last = int(list(csv.DictReader(fh))[-1]["peak_rss_bytes"])
    assert 0 < last <= json.loads(refs.read_text())["manifest"]["peak_rss_bytes"]
    # a save that raises the peak runs again, until it records the peak after it
    readings = iter([5 << 20, 7 << 20, 7 << 20, 7 << 20])
    monkeypatch.setattr("rsr.cli._peak_rss_bytes", lambda: next(readings))
    saves = len(after)
    assert run(["pmf", "--out", tmp_path / "pmf.json", "--model", model_file, "--samples", 1000, "--seed", 3]) == 0
    assert len(after) - saves == 2
    assert json.loads((tmp_path / "pmf.json").read_text())["manifest"]["peak_rss_bytes"] == 7 << 20


def test_determinism_modulo_timestamp(tmp_path, model_file):
    docs = []
    for name in ("a", "b"):
        refs = tmp_path / f"{name}.json"
        assert run(
            ["find-refs", "--model", model_file, "--out-refs", refs,
             "--samples", 1000, "--eps-u", 1e-2, "--seed", 4]
        ) == 0
        doc = json.loads(refs.read_text())
        # when and how much memory: the run's measurements, not its output
        doc["manifest"].pop("timestamp")
        doc["manifest"].pop("peak_rss_bytes")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_seed_env_default(tmp_path, model_file, monkeypatch):
    monkeypatch.setenv("RSR_SEED", "77")
    out = tmp_path / "mc.json"
    assert run(
        ["oracle", "--model", model_file, "--mode", "mc", "--samples", 500, "--out", out]
    ) == 0
    assert json.loads(out.read_text())["seed"] == 77


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_malformed_seed_env_is_usage_error(tmp_path, model_file, monkeypatch, capsys, value):
    monkeypatch.setenv("RSR_SEED", value)
    for args in (
        ["gen-graph", "--n-nodes", 5, "--radius", 0.5, "--out", tmp_path / "g.json"],
        ["oracle", "--model", model_file, "--mode", "mc", "--samples", 50],
    ):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert re.search(r"error: RSR_SEED must be an integer", capsys.readouterr().err)
    # --version and an explicit --seed do not read it
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert run(["oracle", "--model", model_file, "--mode", "mc", "--samples", 50, "--seed", 3]) == 0
    assert not (tmp_path / "g.json").exists()


def test_noncoherent_phi_is_input_error_naming_refs(tmp_path, model_file, noncoherent, monkeypatch, capsys):
    # model files only name coherent functions, so the loaded model is swapped
    model, dist = noncoherent
    monkeypatch.setattr(files, "load_model", lambda path: (model, dist, "h"))
    refs = tmp_path / "refs.json"
    files.save_reference_sets(
        refs, ReferenceSet(Side.LOWER, 0, [(2, 2)]), ReferenceSet(Side.UPPER, 0, [(1, 0)]), "h"
    )
    commands = (
        ["evaluate", "--refs", refs, "--out-report", tmp_path / "rep.json"],
        ["pmf", "--out", tmp_path / "pmf.json", "--parallel", 4],
    )
    for command in commands:
        code = run([*command, "--model", model_file, "--samples", 1000, "--seed", 7])
        captured = capsys.readouterr()
        assert code == 3
        assert re.search(r"sample \d+ \(\d, \d\)", captured.err)
        assert "lower reference (2, 2)" in captured.err
        assert "upper reference (1, 0)" in captured.err
        assert "P(S" not in captured.out and "PMF" not in captured.out


def test_non_finite_distribution_is_input_error(tmp_path, capsys):
    # NaN fails every comparison, so a range check and a row-sum check
    # written as "reject if out of bounds" both let a [NaN, 1] row through
    for bad in (float("nan"), float("inf")):
        model = write_series_model(tmp_path / "model.json")
        doc = json.loads(model.read_text())
        doc["distribution"][1] = [bad, 1.0]
        write_json(model, doc)
        out = tmp_path / "mc.json"
        code = run(["oracle", "--model", model, "--mode", "mc", "--samples", 100, "--out", out])
        assert code == EXIT_INPUT
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def _assert_malformed_input(code, capsys, path):
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert str(path) in err
    assert "runtime failure" not in err


def test_model_with_null_component_count_is_input_error(tmp_path, model_file, capsys):
    doc = json.loads(model_file.read_text())
    doc["n_components"] = None
    write_json(model_file, doc)
    code = run(["oracle", "--model", model_file, "--mode", "exact"])
    _assert_malformed_input(code, capsys, model_file)


def test_model_with_string_system_function_is_input_error(tmp_path, model_file, capsys):
    doc = json.loads(model_file.read_text())
    doc["system_function"] = "k_out_of_n"
    write_json(model_file, doc)
    code = run(["oracle", "--model", model_file, "--mode", "exact"])
    _assert_malformed_input(code, capsys, model_file)


def test_model_whose_graph_has_too_few_edges_is_input_error_naming_the_file(tmp_path, capsys):
    model = write_series_model(tmp_path / "model.json", n=5)
    doc = json.loads(model.read_text())
    graph = {"format": FORMAT, "n_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    doc["system_function"] = {"name": "single_od_connectivity", "graph": graph, "origin": 0, "destination": 2}
    write_json(model, doc)
    code = run(["oracle", "--model", model, "--mode", "exact"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert f"{model}: graph has 3 edges but model declares 5 components" in err


def test_model_with_unknown_system_function_is_input_error_naming_the_file(tmp_path, model_file, capsys):
    doc = json.loads(model_file.read_text())
    doc["system_function"] = {"name": "bogus"}
    write_json(model_file, doc)
    code = run(["oracle", "--model", model_file, "--mode", "exact"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert f"{model_file}: unknown system_function name: 'bogus'" in err


def test_refs_whose_threshold_is_out_of_the_models_range_are_rejected_naming_the_file(tmp_path, model_file, capsys):
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model_file, "--out-refs", refs, "--samples", 200, "--seed", 3]) == 0
    doc = json.loads(refs.read_text())
    doc["threshold"] = 1
    write_json(refs, doc)
    capsys.readouterr()
    code = run(
        ["evaluate", "--model", model_file, "--refs", refs, "--out-report", tmp_path / "rep.json",
         "--samples", 200]
    )
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert f"{refs}: threshold must lie in [0, 0]" in err
    assert not (tmp_path / "rep.json").exists()


def test_refs_with_string_lower_set_is_input_error(tmp_path, model_file, capsys):
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model_file, "--out-refs", refs, "--samples", 200, "--seed", 3]) == 0
    doc = json.loads(refs.read_text())
    doc["lower"] = "oops"
    write_json(refs, doc)
    capsys.readouterr()
    code = run(
        ["evaluate", "--model", model_file, "--refs", refs, "--out-report", tmp_path / "rep.json",
         "--samples", 200]
    )
    _assert_malformed_input(code, capsys, refs)
    assert not (tmp_path / "rep.json").exists()


def _k_out_of_8_refs(tmp_path):
    model = write_series_model(tmp_path / "k4.json", n=8, p_fail=0.2, k=4)
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model, "--out-refs", refs, "--samples", 20000, "--parallel", 8, "--seed", 1]) == 0
    return refs


def test_refs_of_another_system_are_refused_naming_the_file(tmp_path, capsys):
    # 4-out-of-8 refs priced on 6-out-of-8 would read P(S = 0) near 0.01,
    # where the exact value is 0.2031: the upper refs are wrong there, and
    # Stage 2 calls phi only on the rows the refs leave open
    refs = _k_out_of_8_refs(tmp_path)
    six = write_series_model(tmp_path / "k6.json", n=8, p_fail=0.2, k=6)
    capsys.readouterr()
    report = tmp_path / "rep.json"
    code = run(["evaluate", "--model", six, "--refs", refs, "--out-report", report, "--samples", 20000, "--seed", 2])
    assert code == EXIT_INPUT
    assert f"{refs}: the reference sets were searched on system" in capsys.readouterr().err
    assert not report.exists()


def test_refs_repriced_under_a_new_distribution_equal_crude_monte_carlo(tmp_path):
    # the refs hold for their system under any distribution, so priced at
    # p = 0.3 they give the seed-matched crude Monte Carlo estimate exactly
    refs = _k_out_of_8_refs(tmp_path)
    repriced = write_series_model(tmp_path / "k4-p3.json", n=8, p_fail=0.3, k=4)
    report, mc = tmp_path / "rep.json", tmp_path / "mc.json"
    assert run(["evaluate", "--model", repriced, "--refs", refs, "--out-report", report, "--samples", 20000, "--seed", 4]) == 0
    assert run(["oracle", "--model", repriced, "--mode", "mc", "--samples", 20000, "--seed", 4, "--out", mc]) == 0
    rep = json.loads(report.read_text())
    assert rep["unclassified_resolved"] < 20000
    assert rep["p_lower"] == json.loads(mc.read_text())["p_lower"]
    manifest = json.loads(refs.read_text())["manifest"]
    assert rep["manifest"]["system_hash"] == manifest["system_hash"]
    assert rep["manifest"]["distribution_hash"] != manifest["distribution_hash"]


def test_refs_on_a_rewritten_graph_file_are_refused(tmp_path, capsys):
    # the graph file keeps its name but lists its edges, the components, in
    # reverse: the refs no longer hold, and the model file did not change
    graph, model = tmp_path / "graph.json", tmp_path / "model.json"
    assert run(["gen-graph", "--n-nodes", 14, "--radius", 0.45, "--out", graph, "--seed", 2]) == 0
    n = files.load_graph(graph).n_edges
    write_json(
        model,
        {
            "format": FORMAT,
            "n_components": n,
            "n_component_states": 2,
            "n_system_states": 2,
            "distribution": [[0.2, 0.8]] * n,
            "system_function": {"name": "single_od_connectivity", "graph_file": "graph.json"},
        },
    )
    refs = tmp_path / "refs.json"
    assert run(["find-refs", "--model", model, "--out-refs", refs, "--samples", 2000, "--parallel", 8, "--seed", 3]) == 0
    doc = json.loads(graph.read_text())
    doc["edges"] = doc["edges"][::-1]
    write_json(graph, doc)
    capsys.readouterr()
    code = run(["evaluate", "--model", model, "--refs", refs, "--out-report", tmp_path / "rep.json", "--samples", 2000])
    assert code == EXIT_INPUT
    assert f"{refs}: the reference sets were searched on system" in capsys.readouterr().err


def test_refs_of_the_older_layout_are_refused_naming_the_file(tmp_path, model_file, capsys):
    # per-set documents and a hash of the model file: no system_hash to check
    refs = tmp_path / "refs.json"
    write_json(
        refs,
        {
            "format": FORMAT,
            "threshold": 0,
            "model_hash": "0" * 64,
            "lower": {"format": FORMAT, "side": "lower", "threshold": 0, "vectors": [[0, 1, 1]]},
            "upper": {"format": FORMAT, "side": "upper", "threshold": 0, "vectors": [[1, 1, 1]]},
        },
    )
    code = run(["evaluate", "--model", model_file, "--refs", refs, "--out-report", tmp_path / "rep.json"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert f"{refs}: the reference sets record no system_hash; run find-refs" in err


def test_manifests_name_the_system_and_the_distribution(tmp_path, model_file):
    # evaluate records only the settings Stage 2 reads; every output names
    # the model's system hash and the distribution that priced it
    _, dist, system_hash = files.load_model(model_file)
    hashes = {"system_hash": system_hash, "distribution_hash": files.distribution_hash(dist)}
    refs, report, pmf, mc = (tmp_path / f"{name}.json" for name in ("refs", "report", "pmf", "mc"))
    assert run(["find-refs", "--model", model_file, "--out-refs", refs, "--samples", 1000, "--seed", 3]) == 0
    assert run(["evaluate", "--model", model_file, "--refs", refs, "--out-report", report, "--samples", 1000, "--seed", 3]) == 0
    assert run(["pmf", "--model", model_file, "--out", pmf, "--samples", 1000, "--seed", 3]) == 0
    assert run(["oracle", "--model", model_file, "--mode", "mc", "--samples", 1000, "--out", mc]) == 0
    manifests = [json.loads(path.read_text())["manifest"] for path in (refs, report, pmf)]
    for doc in [*manifests, json.loads(mc.read_text())]:
        assert {key: doc[key] for key in hashes} == hashes
    assert json.loads(refs.read_text())["system_hash"] == system_hash
    assert manifests[1]["config"] == {"n_samples": 1000, "seed": 3, "n_workers": 1}
    assert set(manifests[0]["config"]) > {"eps_u", "r_max", "parallel_searches"}
