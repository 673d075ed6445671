import dataclasses
import hashlib
import importlib
import itertools
import math
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest

from conftest import dominance_hits, raw_sample_searches
from rsr import workflow
from rsr.boundary import ReferenceSet, Side, boundary_search
from rsr.classify import InconsistentReferenceSets, _chunk_rows, classify
from rsr.model import ComponentDistribution, SystemModel
from rsr.oracle import crude_monte_carlo, exact_probabilities
from rsr.sampling import sample_batch, sample_rows
from rsr.sysfn import k_out_of_n, pick_od_pair, random_geometric_graph, single_od_connectivity
from rsr.workflow import (
    RunConfig,
    assemble_pmf,
    multistate_pmf,
    stage1_find_references,
    stage2_evaluate,
)

# rsr/__init__ rebinds the name ``rsr.classify`` to the function
classify_module = importlib.import_module("rsr.classify")


def small_config(**kw) -> RunConfig:
    base = dict(n_samples=2000, eps_u=1e-3, r_max=50, seed=7)
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_samples=0)
    with pytest.raises(ValueError):
        RunConfig(eps_u=1.5)
    with pytest.raises(ValueError):
        RunConfig(r_max=0)


@pytest.mark.parametrize("workers", [0, -3])
def test_config_rejects_worker_counts_below_one(workers):
    with pytest.raises(ValueError, match="n_workers"):
        RunConfig(n_workers=workers)


def test_stage1_recovers_series_boundary(series3):
    model, dist = series3
    res = stage1_find_references(model, dist, small_config(), threshold=0)
    assert res.terminated_by == "eps_u"
    assert sorted(res.lower.members) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert res.upper.members == [(1, 1, 1)]
    assert res.trace[-1].p_unclassified <= 1e-3
    assert res.trace[0].reference_count == 0  # first record precedes any search


def test_stage1_trace_monotone_refs(series3):
    model, dist = series3
    res = stage1_find_references(model, dist, small_config(), threshold=0)
    counts = [t.reference_count for t in res.trace]
    assert counts == sorted(counts)
    assert all(t.phi_evaluations >= 0 for t in res.trace)
    # one search a round, counted before the next record
    assert [t.searches for t in res.trace] == list(range(len(res.trace)))
    # plain Python numbers, which the CLI writes to the trace as they are
    for t in res.trace:
        assert {type(v) for v in (t.reference_count, t.phi_evaluations, t.searches)} == {int}
        assert {type(v) for v in (t.p_lower, t.p_upper, t.p_unclassified)} == {float}


def test_stage1_r_max_termination(series3):
    model, dist = series3
    res = stage1_find_references(model, dist, small_config(r_max=1), threshold=0)
    assert res.terminated_by == "r_max"
    assert len(res.lower) + len(res.upper) >= 1


def test_stage1_threshold_validation(series3):
    model, dist = series3
    with pytest.raises(ValueError):
        stage1_find_references(model, dist, small_config(), threshold=1)


def test_stage1_keeps_only_the_rows_its_threshold_leaves_open(monkeypatch):
    # 3-out-of-6, M = 3, at m' = 1 alone, at the CLI's defaults: a lower
    # reference at m' = 1 narrows a row's bracket to 0 <= S <= 1, which
    # settles it at m' = 1 though the bracket is not closed. Each pass
    # classifies only the rows the record before it leaves open; keeping
    # every row with lo < hi, the run ended with no row open but 6,835
    # settled rows (34% of the batch) kept and classified again
    model = SystemModel(6, 3, 3, k_out_of_n(3, 6))
    dist = ComponentDistribution.iid(6, [0.2, 0.3, 0.5])
    cfg = RunConfig(n_samples=20_000, seed=3)
    passes = []

    def counting(rows, n_rows, *args, **kwargs):
        passes.append(n_rows)
        return verdicts(rows, n_rows, *args, **kwargs)

    verdicts = workflow.verdicts
    monkeypatch.setattr(workflow, "verdicts", counting)
    s1 = stage1_find_references(model, dist, cfg, 1)
    open_rows = [round(t.p_unclassified * cfg.n_samples) for t in s1.trace]
    assert s1.terminated_by == "eps_u" and open_rows[-1] == 0
    assert passes == open_rows[:-1] and len(passes) > 2


def test_stage2_partitions_exactly(series3):
    model, dist = series3
    s1 = stage1_find_references(model, dist, small_config(), threshold=0)
    rep = stage2_evaluate(model, dist, s1.lower, s1.upper, small_config(), threshold=0)
    assert rep.p_lower + rep.p_upper == 1.0
    exact = 1.0 - 0.729
    sigma = rep.cov_lower * rep.p_lower
    assert abs(rep.p_lower - exact) < 4 * sigma


def test_stage2_empty_sets_match_crude_mc(series3):
    # with no references every sample is resolved by direct evaluation,
    # which must agree bit-for-bit with the plain Monte Carlo oracle
    model, dist = series3
    cfg = small_config()
    rep = stage2_evaluate(model, dist, None, None, cfg, threshold=0)
    p_mc, cov_mc = crude_monte_carlo(model, dist, cfg.n_samples, cfg.seed, threshold=0)
    assert rep.p_lower == p_mc
    assert rep.cov_lower == cov_mc
    assert rep.unclassified_resolved == cfg.n_samples


def test_stage2_rejects_mismatched_sets(series3):
    model, dist = series3
    model3 = SystemModel(3, 2, 3, lambda x: min(2, int(x.sum())))
    s1 = stage1_find_references(model3, dist, small_config(), threshold=1)
    with pytest.raises(ValueError):
        stage2_evaluate(model, dist, s1.lower, s1.upper, small_config(), threshold=0)


def test_stage2_uses_generation_zero(series3):
    # stage 2 estimates do not depend on how many stage-1 rounds ran
    model, dist = series3
    a = stage1_find_references(model, dist, small_config(), threshold=0)
    b = stage1_find_references(model, dist, small_config(r_max=2), threshold=0)
    ra = stage2_evaluate(model, dist, a.lower, a.upper, small_config(), threshold=0)
    rb = stage2_evaluate(model, dist, b.lower, b.upper, small_config(), threshold=0)
    assert ra.p_lower == rb.p_lower


def test_assemble_pmf_plain():
    pmf, adj = assemble_pmf([0.2, 0.7])
    assert np.allclose(pmf, [0.2, 0.5, 0.3])
    assert adj == 0.0


def test_assemble_pmf_clamps_noise():
    pmf, adj = assemble_pmf([0.3, 0.2999])
    assert np.all(pmf >= 0)
    assert pmf.sum() == pytest.approx(1.0)
    assert adj == pytest.approx(0.0001, abs=1e-12)


def test_assemble_pmf_rejects_out_of_range():
    with pytest.raises(ValueError):
        assemble_pmf([2.0, -3.0])
    with pytest.raises(ValueError):
        assemble_pmf([-0.1])


def test_multistate_pmf_matches_enumeration():
    model = SystemModel(3, 3, 3, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.2, 0.3, 0.5])
    cfg = RunConfig(n_samples=40_000, eps_u=1e-3, r_max=200, seed=11)
    report = multistate_pmf(model, dist, cfg)
    stage1_phi = sum(s1.trace[-1].phi_evaluations for s1 in report.stage1_results)
    stage2_phi = model.evaluation_count - stage1_phi
    assert stage2_phi <= sum(r.unclassified_resolved for r in report.stage2_reports)
    exact = exact_probabilities(model, dist)
    exact_pmf = np.diff(np.concatenate([[0.0], exact.cumulative]))
    assert report.pmf.shape == (3,)
    assert report.pmf.sum() == pytest.approx(1.0)
    assert np.all(np.abs(report.pmf - exact_pmf) < 0.01)
    assert len(report.stage2_reports) == 2
    # every Stage-2 sample is resolved exactly: the chain is phi's frequency
    batch = sample_batch(dist, cfg.n_samples, cfg.seed, generation_index=0)
    system = np.array([model.evaluate(x) for x in batch.states])
    for m_prime in range(2):
        assert report.cumulative_lower[m_prime] == np.count_nonzero(system <= m_prime) / cfg.n_samples


def test_noncoherent_phi_raises_naming_sample_and_refs(noncoherent):
    model, dist = noncoherent
    # the boundary searches from (2, 0) and (1, 0) give refs that overlap
    # wherever x0 >= 1; without the check p_lower came out 1.0, not 2/3
    lower = ReferenceSet(Side.LOWER, 0, [boundary_search(model, (2, 0), 0)[0]])
    upper = ReferenceSet(Side.UPPER, 0, [boundary_search(model, (1, 0), 0)[0]])
    assert (lower.members, upper.members) == ([(2, 2)], [(1, 0)])
    cfg = small_config()
    states = sample_batch(dist, cfg.n_samples, cfg.seed).states
    first = int(np.flatnonzero(states[:, 0] >= 1)[0])
    with pytest.raises(InconsistentReferenceSets) as exc:
        stage2_evaluate(model, dist, lower, upper, cfg, threshold=0)
    message = str(exc.value)
    assert f"sample {first} {tuple(int(v) for v in states[first])}" in message
    assert "lower reference (2, 2)" in message
    assert "upper reference (1, 0)" in message

    # four searches in the first round find both refs at once; pmf runs on
    # the same batch, so the sample it names is that batch's row
    with pytest.raises(InconsistentReferenceSets, match=r"sample \d+ \(\d, \d\)") as exc:
        multistate_pmf(model, dist, small_config(parallel_searches=4))
    assert "lower reference (2, 2)" in str(exc.value)
    assert "upper reference (1, 0)" in str(exc.value)
    index, vector = re.match(r"sample (\d+) (\(\d, \d\))", str(exc.value)).groups()
    assert vector == str(tuple(int(v) for v in states[int(index)]))


def test_stage2_names_the_lowest_index_sample_whose_phi_leaves_its_bracket(monkeypatch):
    # pmf's own Stage 2 checks phi against each row's bracket, which a
    # reference at another threshold may have narrowed. phi = max(x) but 2 at
    # (1, 0): the lower reference (1, 1) at m' = 1 says S <= 1 there, while
    # (0, 0) at m' = 0 leaves the row open, so it ends the rounds in the
    # bracket 0 <= S <= 1 and phi leaves it on several rows of the one chunk.
    # phi reads the open rows' states regenerated, or decoded from the words
    # kept of them, alike
    model = SystemModel(2, 3, 3, lambda x: 2 if (int(x[0]), int(x[1])) == (1, 0) else int(max(x)))
    dist = ComponentDistribution.iid(2, [0.45, 0.45, 0.1])
    cfg = small_config(n_samples=200, r_max=1, seed=1)
    planted = np.array([(0, 0), (1, 1)])

    def plant(model, starts, targets, priors):
        # every walk ends on its threshold's planted lower reference
        return planted[targets], np.ones(len(starts), dtype=bool), np.ones(len(starts), dtype=np.int64)

    monkeypatch.setattr(workflow, "boundary_searches", plant)
    states = sample_batch(dist, cfg.n_samples, cfg.seed).states
    bad = np.flatnonzero((states[:, 0] == 1) & (states[:, 1] == 0))
    assert bad.size >= 2 and bad[0] > 0 and _chunk_rows(2) >= cfg.n_samples
    for keep in (0, math.inf):
        monkeypatch.setattr(workflow, "_KEEP_BYTES", keep)
        with pytest.raises(
            InconsistentReferenceSets,
            match=rf"^sample {bad[0]} \(1, 0\): lower reference \(1, 1\) says S <= 1, phi says S = 2;",
        ):
            multistate_pmf(model, dist, cfg)


def test_stage2_resolves_open_rows_through_the_batch_form_a_block_at_a_time(monkeypatch):
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * 64)  # 64 rows a chunk
    inner = k_out_of_n(3, 6)
    blocks = []

    def phi(x):
        raise AssertionError("Stage 2 called the per-row phi")

    def rows(x):
        blocks.append((x.dtype, len(x)))
        return inner.rows(x)

    phi.rows = rows
    model = SystemModel(6, 2, 2, phi)
    dist = ComponentDistribution.iid(6, [0.3, 0.7])
    cfg = small_config(n_samples=1000, seed=3)
    # k = 3 of 6: two working components give S = 0, three give S = 1
    lower = ReferenceSet(Side.LOWER, 0, [(1, 1, 0, 0, 0, 0)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1, 1, 0, 0, 0)])
    report = stage2_evaluate(model, dist, lower, upper, cfg, 0)
    n_open = report.unclassified_resolved
    assert model.evaluation_count == n_open > 3 * 64
    # one int64 call per chunk that holds open rows, on exactly those rows
    batch = sample_batch(dist, cfg.n_samples, cfg.seed)
    open_rows = classify(batch, lower, upper, n_states=2).unclassified_indices
    per_chunk = np.bincount(open_rows // 64, minlength=-(-cfg.n_samples // 64))
    assert blocks == [(np.dtype(np.int64), int(n)) for n in per_chunk if n]
    assert all(n <= 64 for _, n in blocks) and sum(n for _, n in blocks) == n_open
    assert report.p_lower == crude_monte_carlo(SystemModel(6, 2, 2, inner), dist, cfg.n_samples, cfg.seed, 0)[0]


def test_stage2_settles_each_chunk_alike_at_any_chunk_size_and_worker_count(monkeypatch):
    # Stage 2 resolves each chunk's open rows as the chunk arrives: the
    # reports, the phi calls and the sample a fault is named by do not depend
    # on the chunk size or the worker count
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    cfg = RunConfig(n_samples=200, eps_u=1e-2, r_max=6, parallel_searches=2, seed=7)
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in multistate_pmf(model, dist, cfg).stage1_results]
    # a planted fault: the upper reference (0, 0, 0) lies under the lower
    # reference (0, 3, 3), so the two cross wherever component 0 is down
    crossed = ReferenceSet(Side.LOWER, 1, [(0, 3, 3)]), ReferenceSet(Side.UPPER, 1, [(0, 0, 0)])
    first = int(np.flatnonzero(sample_batch(dist, cfg.n_samples, cfg.seed).states[:, 0] == 0)[0])
    assert first >= 7  # past the first chunk of 7 rows
    runs = []
    for chunk, workers in itertools.product((1, 7, cfg.n_samples), (1, 3)):
        monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 3 * chunk)
        run_cfg = dataclasses.replace(cfg, n_workers=workers)
        before = model.evaluation_count
        reports = [stage2_evaluate(model, dist, lower, upper, run_cfg, t) for t, lower, upper in sets]
        calls = model.evaluation_count - before
        with pytest.raises(InconsistentReferenceSets) as exc:
            stage2_evaluate(model, dist, *crossed, run_cfg, 1)
        runs.append((reports, calls, str(exc.value)))
    assert all(run == runs[0] for run in runs)
    reports, calls, message = runs[0]
    assert calls > 0 and any(r.unclassified_resolved for r in reports)
    assert summary(reports) == whole_batch_stage2(model, dist, cfg, sets)
    assert re.match(
        rf"sample {first} \(0, \d, \d\): lower reference \(0, 3, 3\) says S <= 1, upper reference \(0, 0, 0\) says S >= 2;",
        message,
    )


def test_boundary_search_disabled_inserts_raw_samples(series3, monkeypatch):
    model, dist = series3
    monkeypatch.setattr(workflow, "boundary_searches", raw_sample_searches)
    res = stage1_find_references(model, dist, small_config(r_max=30), threshold=0)
    # raw samples still form valid reference sets on their own sides
    for vec in res.lower.members:
        assert model.evaluate(np.array(vec)) == 0
    for vec in res.upper.members:
        assert model.evaluate(np.array(vec)) == 1


def test_batch_paths_build_no_reference_state(monkeypatch, series3):
    # references go from the walks' matrix to the sets as rows, in one
    # insert_many a set, never one insert each
    def refuse(self, vector):
        raise AssertionError("a reference was inserted alone")

    monkeypatch.setattr(ReferenceSet, "insert", refuse)
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    report = multistate_pmf(model, dist, RunConfig(n_samples=2000, eps_u=1e-2, r_max=40, parallel_searches=4, seed=5))
    assert all(len(s1.lower) and len(s1.upper) for s1 in report.stage1_results)
    model, dist = series3
    monkeypatch.setattr(workflow, "boundary_searches", raw_sample_searches)
    raw = stage1_find_references(model, dist, small_config(r_max=30), threshold=0)
    assert len(raw.lower) and len(raw.upper)


def test_reference_sets_are_side_consistent(series3):
    model, dist = series3
    res = stage1_find_references(model, dist, small_config(), threshold=0)
    assert isinstance(res.lower, ReferenceSet) and res.lower.side == Side.LOWER
    assert isinstance(res.upper, ReferenceSet) and res.upper.side == Side.UPPER


@pytest.fixture(scope="module")
def rgg():
    """Two-terminal connectivity on RGG(30, 0.35, seed 0): N = 115 edges, edge failure 0.05."""
    graph = random_geometric_graph(30, 0.35, seed=0)
    model = SystemModel(graph.n_edges, 2, 2, single_od_connectivity(graph, *pick_od_pair(graph)))
    return model, ComponentDistribution.iid(graph.n_edges, [0.05, 0.95])


@pytest.fixture(scope="module")
def rgg_refs(rgg):
    model, dist = rgg
    cfg = RunConfig(n_samples=10_000, eps_u=3e-3, parallel_searches=32, seed=0)
    s1 = stage1_find_references(model, dist, cfg, 0)
    return s1.lower, s1.upper


def whole_batch_stage1(model, dist, cfg, threshold, spent):
    """Stage 1's rounds at one threshold by whole-batch classify and one walk at a time: the reference for the streamed rounds.

    Each round classifies the whole of batch 0 in one ``classify`` call,
    then walks and inserts from each pick one at a time. ``spent`` gives
    each round's walks' phi calls, which set the next round's width; the
    lockstep walks' shared probes and priors set them, never the
    references. Returns the sets and (p_lower, p_upper, p_unclassified,
    searches) a round.
    """
    lower, upper = ReferenceSet(Side.LOWER, threshold), ReferenceSet(Side.UPPER, threshold)
    batch = sample_batch(dist, cfg.n_samples, cfg.seed, generation_index=0)
    trace, n_open, searches = [], [], 0
    for round_ in itertools.count():
        res = classify(batch, lower, upper, n_states=model.n_component_states)
        trace.append((res.p_lower, res.p_upper, res.p_unclassified, searches))
        n_open.append(res.unclassified_indices.size)
        if res.p_unclassified <= cfg.eps_u or len(lower) + len(upper) >= cfg.r_max:
            return lower, upper, trace
        if not round_:
            moves = model.n_components * (model.n_component_states - 1)
            width = min(cfg.parallel_searches, max(1, cfg.n_samples // (10 * moves)))
        elif n_open[-2] - n_open[-1] > spent[round_ - 1]:
            width = min(cfg.parallel_searches, 2 * width)
        else:
            width = max(1, width // 2)
        rng = np.random.default_rng([cfg.seed, round_])
        picks = rng.choice(res.unclassified_indices, size=min(width, n_open[-1]), replace=False)
        searches += len(picks)
        for idx in picks:
            vector, side = boundary_search(model, batch.states[idx], threshold)
            (lower if side == Side.LOWER else upper).insert(vector)


def whole_batch_stage2(model, dist, cfg, sets):
    """(m', p_lower, p_upper, unclassified) per set from classify on the whole batch plus phi on its open rows."""
    h = cfg.n_samples
    batch = sample_batch(dist, h, cfg.seed, generation_index=0)
    out = []
    for threshold, lower, upper in sets:
        res = classify(batch, lower, upper, n_states=model.n_component_states)
        resolved = sum(model.evaluate(batch.states[i]) <= threshold for i in res.unclassified_indices)
        n_low = res.lower_indices.size + int(resolved)
        out.append((threshold, n_low / h, (h - n_low) / h, res.unclassified_indices.size))
    return out


def summary(reports):
    return [(r.threshold, r.p_lower, r.p_upper, r.unclassified_resolved) for r in reports]


@pytest.mark.parametrize("workers", [1, 3])
def test_streamed_stages_equal_whole_batch(rgg, workers):
    # two full chunks and a ragged one
    model, dist = rgg
    h = 2 * _chunk_rows(model.n_components) + 13
    cfg = RunConfig(n_samples=h, eps_u=1e-3, parallel_searches=16, seed=5, n_workers=workers)
    s1 = stage1_find_references(model, dist, cfg, 0)
    spent = np.diff([t.phi_evaluations for t in s1.trace]).tolist()
    lower, upper, trace = whole_batch_stage1(model, dist, cfg, 0, spent)
    assert (s1.lower.members, s1.upper.members) == (lower.members, upper.members)
    assert [(t.p_lower, t.p_upper, t.p_unclassified, t.searches) for t in s1.trace] == trace
    assert s1.iterations == len(trace) > 2
    report = stage2_evaluate(model, dist, s1.lower, s1.upper, cfg, 0)
    assert summary([report]) == whole_batch_stage2(model, dist, cfg, [(0, s1.lower, s1.upper)])
    assert 0 < report.unclassified_resolved < h


def test_stage1_priors_cut_search_calls_not_references(rgg, monkeypatch):
    # the benchmark's stage1-rgg run at its first input (H = 10k, eps_u = 1e-4,
    # at most 32 walks a round, seed 1000). The priors Stage 1 reads from its
    # sets size the walks' gallops: dropped, the same sets and trace come from
    # 1,632 search phi calls, against 1,539 with them. The rounds on batch 0
    # stop once it is covered (on fresh batches each iteration, the counts
    # were 2,514 and 2,408)
    model, dist = rgg
    cfg = RunConfig(n_samples=10_000, eps_u=1e-4, parallel_searches=32, seed=1000)
    sized = stage1_find_references(model, dist, cfg, 0)
    searches = workflow.boundary_searches
    monkeypatch.setattr(workflow, "boundary_searches", lambda m, starts, targets, priors: searches(m, starts, targets))
    plain = stage1_find_references(model, dist, cfg, 0)
    assert (sized.lower.members, sized.upper.members) == (plain.lower.members, plain.upper.members)
    assert [dataclasses.replace(t, phi_evaluations=0) for t in untimed(sized.trace)] == [
        dataclasses.replace(t, phi_evaluations=0) for t in untimed(plain.trace)
    ]
    assert (sized.search_phi_calls, plain.search_phi_calls) == (1539, 1632)


def whole_batch_brackets(model, dist, cfg, sets):
    """Batch 0's states and the bracket lo <= S <= hi the sets put on each row, from classify on the whole batch."""
    batch = sample_batch(dist, cfg.n_samples, cfg.seed, generation_index=0)
    lo = np.zeros(cfg.n_samples, dtype=np.int64)
    hi = np.full(cfg.n_samples, model.n_system_states - 1, dtype=np.int64)
    for threshold, lower, upper in sets:
        res = classify(batch, lower, upper, n_states=model.n_component_states)
        hi[res.lower_indices] = np.minimum(hi[res.lower_indices], threshold)
        lo[res.upper_indices] = np.maximum(lo[res.upper_indices], threshold + 1)
    return batch.states, lo, hi


def test_streamed_pmf_equals_whole_batch(monkeypatch):
    # the rounds keep each open row's bracket across small chunks; the whole
    # batch classified once against the final sets gives the same books
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 3 * 64)
    h = 2 * 64 + 13
    cfg = RunConfig(n_samples=h, eps_u=1e-2, r_max=100, parallel_searches=2, seed=4)
    report = multistate_pmf(model, dist, cfg)
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in report.stage1_results]
    whole = whole_batch_stage2(model, dist, cfg, sets)
    assert [r[:3] for r in summary(report.stage2_reports)] == [r[:3] for r in whole]
    _, lo, hi = whole_batch_brackets(model, dist, cfg, sets)
    assert [r.unclassified_resolved for r in report.stage2_reports] == [
        int(np.count_nonzero((lo <= t) & (t < hi))) for t in range(3)
    ]
    assert report.resolution_phi_calls == np.count_nonzero(lo < hi) > 0
    # every threshold ran to the last round, whose records the final sets give
    rounds = max(s1.iterations for s1 in report.stage1_results)
    for t, s1 in enumerate(report.stage1_results):
        if s1.iterations == rounds:
            n_low, n_up = np.count_nonzero(hi <= t), np.count_nonzero(lo > t)
            assert (s1.trace[-1].p_lower, s1.trace[-1].p_upper, s1.trace[-1].p_unclassified) == (
                n_low / h, n_up / h, (h - n_low - n_up) / h
            )


def test_pmf_regenerates_only_the_open_rows_of_batch_zero(rgg, monkeypatch):
    # pmf draws no whole batch, only rows of batch 0 a chunk at a time: the
    # first pass draws every row, a gap-free run the block sampler draws, the
    # walks their starts, and each later pass and the end the open rows whose
    # words were not kept. A pass keeps the words of the first open rows it
    # leaves, as many as fit in the budget: none at 0, so each round
    # regenerates every open row, and all of them at no bound, so each row
    # is drawn at most once, plus the walks' starts. On a binary model a row
    # is open exactly when its one threshold leaves it open, so the trace
    # counts the open rows. At edge failure 0.3 the rounds stop on cost with
    # rows left open
    model, _ = rgg
    dist = ComponentDistribution.iid(model.n_components, [0.3, 0.7])
    cfg = RunConfig(n_samples=5000, eps_u=1e-4, parallel_searches=16, seed=1000)
    drawn = []
    contiguous = []

    def counting_rows(dist, seed, generation, indices):
        drawn.append((seed, generation, np.array(indices)))
        return sample_rows(dist, seed, generation, indices)

    def counting_batch(dist, n_samples, seed, generation_index=0, start=0):
        drawn.append((seed, generation_index, np.arange(start, start + n_samples)))
        contiguous.append(drawn[-1][2])
        return sample_batch(dist, n_samples, seed, generation_index, start=start)

    monkeypatch.setattr(workflow, "sample_rows", counting_rows)
    monkeypatch.setattr(workflow, "sample_batch", counting_batch)
    for keep in (0, workflow._KEEP_BYTES, math.inf):
        monkeypatch.setattr(workflow, "_KEEP_BYTES", keep)
        drawn.clear()
        contiguous.clear()
        report = multistate_pmf(model, dist, cfg)
        (s1,) = report.stage1_results
        open_rows = [round(t.p_unclassified * cfg.n_samples) for t in s1.trace]
        # coverage only grows, so a settled row stays settled
        assert open_rows == sorted(open_rows, reverse=True) and open_rows[0] == cfg.n_samples
        assert report.resolution_phi_calls == open_rows[-1] > 0
        assert {(seed, generation) for seed, generation, _ in drawn} == {(cfg.seed, 0)}
        # the first pass's rows come in order from the block sampler
        assert np.array_equal(np.concatenate(contiguous)[: cfg.n_samples], np.arange(cfg.n_samples))
        rows = np.concatenate([indices for *_, indices in drawn])
        # the rows whose words the budget holds: a row is two words at N = 115, M = 2
        kept = min(cfg.n_samples, keep * cfg.n_samples // 16)
        assert rows.size == cfg.n_samples + sum(max(0, n - kept) for n in open_rows[1:]) + s1.trace[-1].searches
        if keep == 0:
            assert rows.size == sum(open_rows[:-1]) + s1.trace[-1].searches + open_rows[-1]
        if keep == math.inf:
            assert np.unique(rows).size == cfg.n_samples
            assert rows.size == cfg.n_samples + s1.trace[-1].searches
        else:
            # some rows are regenerated
            assert rows.size > cfg.n_samples + s1.trace[-1].searches
        assert max(indices.size for *_, indices in drawn) <= _chunk_rows(model.n_components)


def test_pmf_stops_once_its_walks_cost_more_than_they_settle(rgg):
    # each record after the first follows one round of walks, so the trace
    # holds both sides of the cost test: the walks' phi calls of each round
    # and the open rows its references settled, here the only open rows
    model, _ = rgg
    dist = ComponentDistribution.iid(model.n_components, [0.3, 0.7])
    h = 5000
    cfg = RunConfig(n_samples=h, eps_u=1e-4, parallel_searches=16, seed=1000)
    before = model.evaluation_count
    report = multistate_pmf(model, dist, cfg)
    (s1,) = report.stage1_results
    assert s1.terminated_by == "cost"
    assert {type(v) for t in s1.trace for v in (t.p_lower, t.p_upper, t.p_unclassified)} == {float}
    spent = np.diff([t.phi_evaluations for t in s1.trace])
    settled = -np.diff([round(t.p_unclassified * h) for t in s1.trace])
    assert report.rounds == tuple(zip(spent.tolist(), settled.tolist()))
    # from the first round on, the test weighs the last rounds, at most a window
    window = workflow._COST_WINDOW
    last = [slice(max(0, r - window), r) for r in range(s1.iterations)]
    over = [r > 0 and spent[w].sum() > settled[w].sum() for r, w in enumerate(last)]
    # the rounds end at the first record where the test holds
    assert over[-1] and not any(over[:-1])
    # rounds that paid came before the stop
    assert s1.iterations > 2
    # one call a row left open: the stop weighs what the rounds save
    assert s1.search_phi_calls + report.resolution_phi_calls == model.evaluation_count - before


def test_pmf_stops_after_a_first_round_that_costs_more_than_it_settles():
    # the pmf benchmark's inputs: 3-out-of-12, M = 5. A walk makes at most
    # N(M-1) = 48 moves, so the first round's walks, sized to cost about a
    # tenth of the batch, are 5000 // (10 * 4 thresholds * 48) = 2 a
    # threshold, under the cap of 32. That round costs more phi calls than
    # the open rows it settles, so pmf stops there rather than wait for a
    # full window of such rounds
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    dist = ComponentDistribution.iid(12, [0.4, 0.3, 0.15, 0.1, 0.05])
    cfg = RunConfig(n_samples=5000, eps_u=2e-4, parallel_searches=32, seed=1000)
    report = multistate_pmf(model, dist, cfg)
    assert [len(s1.trace) for s1 in report.stage1_results] == [2] * 4
    assert [s1.trace[-1].searches for s1 in report.stage1_results] == [2] * 4
    assert {s1.terminated_by for s1 in report.stage1_results} == {"cost"}
    ((spent, settled),) = report.rounds
    assert spent == sum(s1.search_phi_calls for s1 in report.stage1_results)
    assert spent > settled == cfg.n_samples - report.resolution_phi_calls
    assert spent + report.resolution_phi_calls == model.evaluation_count
    # the waste bound on criterion 4's random systems, at the same cap: the
    # first round's walks cost at most a tenth of the batch
    from conftest import random_distribution, random_monotone_model

    rng = np.random.default_rng(2026)
    h = 2000
    firsts = set()
    for case in range(50):
        n, m, m_s = int(rng.integers(3, 11)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        model = random_monotone_model(rng, n, m, m_s)
        dist = random_distribution(rng, n, m)
        cfg = RunConfig(n_samples=h, eps_u=1e-3, r_max=500, parallel_searches=32, seed=case)
        report = multistate_pmf(model, dist, cfg)
        if report.rounds:
            assert report.rounds[0][0] <= h / 10
            width = min(32, max(1, h // (10 * (m_s - 1) * n * (m - 1))))
            # a threshold walks from fewer rows only when fewer are open
            assert max(s1.trace[1].searches for s1 in report.stage1_results) == width
            firsts.add(width)
    assert len(firsts) > 3


@pytest.mark.parametrize("workers", [1, 3])
def test_pass_allocates_one_kernel_scratch_per_worker(monkeypatch, workers):
    # the two thresholds of 3-out-of-6, M = 3, each set non-empty, on a
    # batch of five chunks: every chunk and set reuses its worker's scratch.
    # Here pmf's rounds pay until eps_u, so every set takes references
    model = SystemModel(6, 3, 3, k_out_of_n(3, 6))
    dist = ComponentDistribution.iid(6, [0.2, 0.3, 0.5])
    cfg = RunConfig(n_samples=2000, eps_u=1e-3, parallel_searches=16, seed=3, n_workers=workers)
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in multistate_pmf(model, dist, cfg).stage1_results]
    assert all(len(s) for _, low, up in sets for s in (low, up))
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * 400)  # 400 rows a chunk
    allocated = []

    def counting_scratch(size, n_words):
        allocated.append(size)
        return kernel_scratch(size, n_words)

    kernel_scratch = classify_module._kernel_scratch
    monkeypatch.setattr(classify_module, "_kernel_scratch", counting_scratch)
    # threads switch often, so two workers holding one scratch would clash
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        chunks = list(workflow._stream(model, dist, cfg, sets))
    finally:
        sys.setswitchinterval(interval)
    assert len(chunks) == 5
    assert 1 <= len(allocated) <= workers
    states = sample_batch(dist, cfg.n_samples, cfg.seed, 0).states
    for j, (_, low, up) in enumerate(sets):
        for k, (ref_set, side) in enumerate(((low, Side.LOWER), (up, Side.UPPER))):
            expected = dominance_hits(states, ref_set.as_array(), side)
            assert np.array_equal(np.concatenate([hits[j][k] for *_, hits in chunks]), expected)


def untimed(trace):
    return [dataclasses.replace(t, elapsed_seconds=0.0, peak_rss_bytes=None) for t in trace]


def test_pmf_equals_crude_monte_carlo_on_random_systems():
    # criterion 4's random coherent systems with M_S >= 3, each at two seeds.
    # Every estimate is phi's frequency on batch 0 whatever references the
    # rounds find, so it equals the seed-matched crude Monte Carlo run exactly
    from conftest import random_distribution, random_monotone_model

    rng = np.random.default_rng(2026)
    stops = set()
    checked = 0
    for case in range(50):
        n, m, m_s = int(rng.integers(3, 11)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        model = random_monotone_model(rng, n, m, m_s)
        dist = random_distribution(rng, n, m)
        if m_s < 3:
            continue
        for seed in (case, 1000 + case):
            cfg = RunConfig(n_samples=2000, eps_u=1e-3, r_max=500, parallel_searches=2, seed=seed)
            before = model.evaluation_count
            report = multistate_pmf(model, dist, cfg)
            search = sum(s1.search_phi_calls for s1 in report.stage1_results)
            assert search + report.resolution_phi_calls == model.evaluation_count - before
            for t in range(m_s - 1):
                assert report.cumulative_lower[t] == crude_monte_carlo(model, dist, cfg.n_samples, seed, t)[0]
            for t, s1 in enumerate(report.stage1_results):
                assert all(model.evaluate(v) <= t for v in s1.lower.members)
                assert all(model.evaluate(v) > t for v in s1.upper.members)
                stops.add(s1.terminated_by)
            checked += 1
    assert checked >= 20
    assert stops == {"eps_u", "cost"}


def test_pmf_rounds_equal_at_any_chunk_size_and_worker_count(monkeypatch, rgg):
    # criterion 6 for pmf: the references, rounds, traces, estimates and phi
    # calls do not depend on the chunk size, the worker count, or whether a
    # pass classifies kept words or regenerated rows. Each round moves the
    # open rows' indices, and any kept words, forward in place while workers
    # read those of later chunks; threads switch often, so a worker reading
    # one already written over would change the rows it classifies
    from conftest import random_distribution, random_monotone_model

    # 3-out-of-6, M = 3, whose rounds pay until eps_u, so they are several,
    # and the binary rgg model at edge failure 0.3, whose rounds stop on cost
    rgg_model, _ = rgg
    rng = np.random.default_rng(7)
    cases = [
        (
            rgg_model,
            ComponentDistribution.iid(rgg_model.n_components, [0.3, 0.7]),
            RunConfig(n_samples=2000, eps_u=1e-4, parallel_searches=16, seed=1000),
        ),
        (
            SystemModel(6, 3, 3, k_out_of_n(3, 6)),
            ComponentDistribution.iid(6, [0.2, 0.3, 0.5]),
            RunConfig(n_samples=2000, eps_u=2e-4, parallel_searches=8, seed=3),
        ),
        (
            random_monotone_model(rng, 8, 3, 3),
            random_distribution(rng, 8, 3),
            RunConfig(n_samples=2000, eps_u=1e-3, parallel_searches=2, seed=5),
        ),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs_of = [pmf_runs(monkeypatch, *case) for case in cases]
    finally:
        sys.setswitchinterval(interval)
    for runs in runs_of:
        assert all(run == runs[0] for run in runs)
        # several rounds: the longest trace
        assert max(len(trace) for *_, trace in runs[0][-1]) > 2


def pmf_runs(monkeypatch, model, dist, cfg):
    """pmf's outputs and phi calls at chunks of 7, 300 and H rows, on 1 and 3 workers, with no words kept and with every pass's kept."""
    runs = []
    for chunk, workers, keep in itertools.product((7, 300, cfg.n_samples), (1, 3), (0, math.inf)):
        monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * model.n_components * chunk)
        monkeypatch.setattr(workflow, "_KEEP_BYTES", keep)
        before = model.evaluation_count
        report = multistate_pmf(model, dist, dataclasses.replace(cfg, n_workers=workers))
        runs.append(
            (
                report.pmf.tolist(),
                report.cumulative_lower.tolist(),
                summary(report.stage2_reports),
                report.resolution_phi_calls,
                report.rounds,
                model.evaluation_count - before,
                [
                    (s1.lower.members, s1.upper.members, s1.redundant_searches, s1.terminated_by, untimed(s1.trace))
                    for s1 in report.stage1_results
                ],
            )
        )
    return runs


def test_pmf_counts_every_phi_call():
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    cfg = RunConfig(n_samples=2000, eps_u=1e-2, r_max=4, parallel_searches=2, seed=5)
    report = multistate_pmf(model, dist, cfg)
    search = sum(s1.search_phi_calls for s1 in report.stage1_results)
    assert search > 0 and report.resolution_phi_calls > 0
    assert search + report.resolution_phi_calls == model.evaluation_count


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 1 << 20


def test_stage2_memory_bounded_in_batch_size(rgg, rgg_refs):
    # the whole 400k x 115 batch would be 44 MiB of uint8 states alone. The
    # peak is 3.07 MiB at 100k and at 400k rows: one chunk's 1 MiB of states,
    # which at M = 2 are their own thermometer bits, one 1 MiB block of raw
    # draws and the hit kernel's 1 MiB of scratch, which lives for the whole
    # pass, plus the chunk's packed words and its open rows. The ceiling
    # leaves 0.23 MiB of margin, less than the 1 MiB that holding the
    # previous chunk's states, a second block of draws or a thermometer cube
    # copy of a chunk would add. Each chunk's open rows are resolved as it
    # arrives, so the peak does not grow with H
    model, dist = rgg
    lower, upper = rgg_refs
    peaks = {
        h: traced_peak(lambda: stage2_evaluate(model, dist, lower, upper, RunConfig(n_samples=h, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 3.3 * MiB
    assert peaks[400_000] - peaks[100_000] <= 16 * 1024


def test_stage1_iteration_memory_bounded_in_batch_size(rgg):
    # eps_u = 1 stops after the first record, whose rows are all open; the
    # sets are empty, so the pass draws nothing. The peak is 0.97 MiB at 100k
    # and 3.82 MiB at 400k: the open rows' index and narrow brackets and the
    # kept words within workflow._KEEP_BYTES, 10 bytes a sample between them
    # (measured). What does not grow with H stays under 3.5 MiB, the ceiling
    # of the fresh-batch loop, which kept one byte a sample
    model, dist = rgg
    peaks = {
        h: traced_peak(lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=1.0, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] - 12 * 400_000 < 3.5 * MiB
    assert peaks[400_000] - peaks[100_000] <= 12 * 300_000


def test_stage1_streamed_iteration_memory_bounded_in_batch_size(rgg):
    # The first record's sets are empty, so its pass draws nothing; one
    # search then makes r_max = 1, and the run stops after streaming the open
    # rows of batch 0 through a one-reference set. The peak is 3.19 MiB at
    # 100k and 6.05 MiB at 400k: one chunk's temporaries as in Stage 2, with a
    # kernel scratch sized to a one-reference set, plus the 10 bytes a sample
    # the rounds keep (measured). Less 12 bytes a sample that leaves 1.47 MiB
    # at 400k, under a ceiling with 0.23 MiB of margin
    model, dist = rgg
    peaks = {
        h: traced_peak(
            lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=0.0, r_max=1, seed=1), 0)
        )
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] - 12 * 400_000 < 1.7 * MiB
    assert peaks[400_000] - peaks[100_000] <= 12 * 300_000


def test_stage1_first_pass_peaks_as_stage2_does(rgg, rgg_refs):
    # Stage 1's first pass classifies every row of batch 0, a gap-free run a
    # chunk at a time, which the block sampler draws as Stage 2's stream
    # does. So past the 10 bytes a sample the rounds keep, its peak is at
    # most Stage 2's: 2.23 against 3.07 MiB at 100k (measured). Drawn by
    # sample_rows' scattered-row plan, whose unique, run plan and gather
    # copy of each chunk cost about 1.3 MiB, it read 3.53 MiB
    model, dist = rgg
    lower, upper = rgg_refs
    h = 100_000
    stage1 = traced_peak(
        lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=0.0, r_max=1, seed=1), 0)
    )
    stage2 = traced_peak(lambda: stage2_evaluate(model, dist, lower, upper, RunConfig(n_samples=h, seed=1), 0))
    assert stage1 - 10 * h <= stage2 + 0.25 * MiB


@pytest.mark.parametrize(
    "settings",
    [
        dict(eps_u=1.0),  # every threshold stops at once: phi resolves every row
        dict(eps_u=0.0, r_max=1),  # every threshold searches from a fully open batch, which is classified again
    ],
)
def test_pmf_stage1_memory_bounded_in_batch_size(settings):
    # pmf, and find-refs at m' = 1, on 10-out-of-40, M = 3: Stage 1's rounds
    # alike. Between rounds they keep each open row's index and narrow
    # bracket, 6 bytes, and regenerate rows a chunk at a time; they keep
    # the packed words, 16 bytes a row here, of as many open rows as fit in
    # workflow._KEEP_BYTES = 4 bytes a sample, so the peak grows 10 bytes a
    # sample (measured). The brackets are counted a chunk at a time: cast
    # to intp whole, they added a transient 8 bytes a sample. The batch's
    # H x N uint8 states would grow the peak 40 bytes a sample
    model = SystemModel(40, 3, 3, k_out_of_n(10, 40))
    dist = ComponentDistribution.iid(40, [0.5, 0.3, 0.2])
    for run in (lambda cfg: multistate_pmf(model, dist, cfg), lambda cfg: stage1_find_references(model, dist, cfg, 1)):
        peaks = {h: traced_peak(lambda: run(RunConfig(n_samples=h, seed=1, **settings))) for h in (100_000, 400_000)}
        assert peaks[400_000] - peaks[100_000] <= 12 * 300_000


def test_warm_pmf_stays_under_a_minor_fault_ceiling():
    # A pass reuses one kernel scratch per worker, so a warm pmf on the
    # 3-out-of-12 benchmark model faults in few fresh pages: about 0-1.4k
    # measured, against 9.5-10.7k when each kernel call allocated its own
    if not sys.platform.startswith("linux"):
        pytest.skip("minor-fault counts are read on Linux")
    resource = pytest.importorskip("resource")
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    dist = ComponentDistribution.iid(12, [0.4, 0.3, 0.15, 0.1, 0.05])
    cfg = RunConfig(n_samples=5000, eps_u=2e-4, parallel_searches=32, seed=1000)
    multistate_pmf(model, dist, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    multistate_pmf(model, dist, cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 4000


@pytest.mark.parametrize(("platform", "scale"), [("linux", 1024), ("darwin", 1), ("freebsd14", 1024)])
def test_peak_rss_is_read_in_bytes_on_each_platform(monkeypatch, platform, scale):
    # macOS reports ru_maxrss in bytes, Linux and the BSDs in kilobytes
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=5000))
    assert workflow._peak_rss_bytes() == 5000 * scale


def test_stages_count_every_phi_call_in_range():
    from conftest import PhiProbe, random_distribution, random_monotone_model

    rng = np.random.default_rng(21)
    model = random_monotone_model(rng, 6, 3, 3)
    dist = random_distribution(rng, 6, 3)
    probe = PhiProbe(model)
    # a small r_max leaves Stage 2 open samples to resolve
    cfg = RunConfig(n_samples=2000, eps_u=1e-3, r_max=3, parallel_searches=2, seed=2)
    stage1_find_references(model, dist, cfg, 1)
    assert probe.calls == model.evaluation_count > 0
    # sampled states are narrow; every path that hands them to phi widens them
    int64 = {np.dtype(np.int64)}
    assert probe.dtypes == int64  # the boundary walk
    before = model.evaluation_count
    report = multistate_pmf(model, dist, cfg)
    stage1_calls = sum(s1.trace[-1].phi_evaluations for s1 in report.stage1_results)
    assert model.evaluation_count - before > stage1_calls  # Stage 2 resolved some rows
    assert probe.calls == model.evaluation_count
    assert probe.dtypes == int64  # the walk and Stage-2 resolution
    probe.dtypes.clear()
    crude_monte_carlo(model, dist, 200, 2, 1)
    assert probe.dtypes == int64
    assert probe.calls == model.evaluation_count
    assert probe.bad == []


def _sha256(ref_set):
    return hashlib.sha256(ref_set.as_array().astype(np.int64).tobytes()).hexdigest()


def test_known_references_frozen(rgg):
    # each set's members, in order, and the Stage-2 estimates of a small
    # fixed binary run and a small fixed multi-state run, bit for bit. Both
    # runs' references are those of Stage 1's rounds on batch 0; no row of
    # the binary run's batch has S = 0, so its lower set stays empty
    model, dist = rgg
    cfg = RunConfig(n_samples=2000, parallel_searches=8, seed=1)
    s1 = stage1_find_references(model, dist, cfg, 0)
    report = stage2_evaluate(model, dist, s1.lower, s1.upper, cfg, 0)
    assert (len(s1.lower), len(s1.upper)) == (0, 14)
    assert (_sha256(s1.lower), _sha256(s1.upper), report.p_lower, report.p_upper) == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2e3235311a8c16e09a8044ddc1cd5d0c0f9f422b68c3b159e19d4530d09ebbf7",
        0.0,
        1.0,
    )
    model = SystemModel(6, 3, 3, k_out_of_n(3, 6))
    dist = ComponentDistribution.iid(6, [0.2, 0.3, 0.5])
    pmf = multistate_pmf(model, dist, cfg)
    got = [
        (_sha256(s1.lower), _sha256(s1.upper), r.p_lower, r.p_upper)
        for s1, r in zip(pmf.stage1_results, pmf.stage2_reports, strict=True)
    ]
    assert got == [
        (
            "31bb57d1075066cb9e802ae868d9c50dc9cd9e2d0322efb5033502c9b2c04e70",
            "d357d5a8a8108f104fc71fff90d2048598d8593342e164723f638db68cf8481a",
            0.0125,
            0.9875,
        ),
        (
            "e0a2e2a2103c34fde5ae493f60611bdd7d91c0961d2bba00fe4fd8a7dace502e",
            "72c80b42f5791cae3e19e7a10a112d524e05eb431915dc9b2cb95f3459957e41",
            0.35,
            0.65,
        ),
    ]
