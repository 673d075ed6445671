import dataclasses
import hashlib
import importlib
import itertools
import sys
import tracemalloc
import types

import numpy as np
import pytest

from conftest import dominance_hits, raw_sample_searches
from rsr import workflow
from rsr.boundary import ReferenceSet, Side, boundary_search
from rsr.classify import InconsistentReferenceSets, classify
from rsr.encoding import encode_batch
from rsr.model import ComponentDistribution, SystemModel
from rsr.oracle import crude_monte_carlo, exact_probabilities
from rsr.sampling import sample_batch
from rsr.sysfn import k_out_of_n, pick_od_pair, random_geometric_graph, single_od_connectivity
from rsr.workflow import (
    RunConfig,
    _chunk_rows,
    _stage1,
    _stage2,
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
    # one search per iteration, counted before the next record
    assert [t.searches for t in res.trace] == list(range(len(res.trace)))


def test_stage1_r_max_termination(series3):
    model, dist = series3
    res = stage1_find_references(model, dist, small_config(r_max=1), threshold=0)
    assert res.terminated_by == "r_max"
    assert len(res.lower) + len(res.upper) >= 1


def test_stage1_threshold_validation(series3):
    model, dist = series3
    with pytest.raises(ValueError):
        stage1_find_references(model, dist, small_config(), threshold=1)


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
    # stage 2 estimates do not depend on how many stage-1 iterations ran
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

    # four searches per iteration find both refs at once
    with pytest.raises(InconsistentReferenceSets, match=r"sample \d+ \(\d, \d\)") as exc:
        multistate_pmf(model, dist, small_config(parallel_searches=4))
    assert "lower reference (2, 2)" in str(exc.value)
    assert "upper reference (1, 0)" in str(exc.value)


def test_stage2_rejects_sets_that_contradict_across_thresholds():
    model = SystemModel(2, 3, 3, lambda x: int(max(x)))
    dist = ComponentDistribution.iid(2, [0.2, 0.3, 0.5])
    cfg = small_config(n_samples=200)
    everything_low = ReferenceSet(Side.LOWER, 0, [(2, 2)])
    everything_high = ReferenceSet(Side.UPPER, 1, [(0, 0)])
    # S <= 0 and S >= 2 on every sample: the brackets cross
    with pytest.raises(InconsistentReferenceSets, match=r"sample 0 .*\(2, 2\) says S <= 0.*\(0, 0\) says S >= 2"):
        _stage2(model, dist, cfg, [(0, everything_low, None), (1, None, everything_high)])
    # S <= 1 everywhere, but m'=0 leaves samples open and phi gives 2 on some
    with pytest.raises(InconsistentReferenceSets, match=r"\(2, 2\) says S <= 1, phi says S = 2"):
        _stage2(model, dist, cfg, [(0, None, None), (1, ReferenceSet(Side.LOWER, 1, [(2, 2)]), None)])


def test_stage2_names_the_lowest_index_sample_whose_phi_leaves_its_bracket():
    # every sample is bracketed 0 <= S <= 1, and phi = max(x) leaves the
    # bracket on every sample holding a 2, several of them in the one block
    model = SystemModel(2, 3, 3, lambda x: int(max(x)))
    dist = ComponentDistribution.iid(2, [0.45, 0.45, 0.1])
    cfg = small_config(n_samples=200)
    system = sample_batch(dist, cfg.n_samples, cfg.seed).states.max(axis=1)
    bad = np.flatnonzero(system == 2)
    assert bad.size >= 2 and bad[0] > 0 and _chunk_rows(2) >= cfg.n_samples
    with pytest.raises(InconsistentReferenceSets, match=rf"^sample {bad[0]} \(\d, \d\): .*phi says S = 2;"):
        _stage2(model, dist, cfg, [(0, None, None), (1, ReferenceSet(Side.LOWER, 1, [(2, 2)]), None)])


def test_stage2_resolves_open_rows_through_the_batch_form_a_block_at_a_time(monkeypatch):
    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 6 * 64)  # 64 rows a chunk and a block
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
    assert blocks == [(np.dtype(np.int64), min(64, n_open - s)) for s in range(0, n_open, 64)]
    assert report.p_lower == crude_monte_carlo(SystemModel(6, 2, 2, inner), dist, cfg.n_samples, cfg.seed, 0)[0]


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


def whole_batch_stage1(model, dist, cfg, threshold):
    """Stage 1 as one classify call on each whole batch: the reference for the streamed loop."""
    lower, upper = ReferenceSet(Side.LOWER, threshold), ReferenceSet(Side.UPPER, threshold)
    trace = []
    for iteration in itertools.count():
        batch = sample_batch(dist, cfg.n_samples, cfg.seed, generation_index=iteration)
        res = classify(batch, lower, upper, n_states=model.n_component_states)
        trace.append((res.p_lower, res.p_upper, res.p_unclassified))
        if res.p_unclassified <= cfg.eps_u or len(lower) + len(upper) >= cfg.r_max:
            return lower, upper, trace
        rng = np.random.default_rng([cfg.seed, iteration])
        n_pick = min(cfg.parallel_searches, res.unclassified_indices.size)
        for idx in rng.choice(res.unclassified_indices, size=n_pick, replace=False):
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
    lower, upper, trace = whole_batch_stage1(model, dist, cfg, 0)
    assert (s1.lower.members, s1.upper.members) == (lower.members, upper.members)
    assert [(t.p_lower, t.p_upper, t.p_unclassified) for t in s1.trace] == trace
    assert s1.iterations == len(trace) > 1
    report = stage2_evaluate(model, dist, s1.lower, s1.upper, cfg, 0)
    assert summary([report]) == whole_batch_stage2(model, dist, cfg, [(0, s1.lower, s1.upper)])
    assert 0 < report.unclassified_resolved < h


def test_stage1_priors_cut_search_calls_not_references(rgg, monkeypatch):
    # the benchmark's stage1-rgg run at its first input (H = 10k, eps_u = 1e-4,
    # 32 searches an iteration, seed 1000). The priors Stage 1 reads from its
    # sets size the walks' gallops: dropped, the same sets and trace come from
    # 2,950 search phi calls, against 2,548 with them
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
    assert sized.search_phi_calls <= 0.9 * plain.search_phi_calls, (sized.search_phi_calls, plain.search_phi_calls)


def test_streamed_pmf_equals_whole_batch(monkeypatch):
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 3 * 64)
    h = 2 * 64 + 13
    cfg = RunConfig(n_samples=h, eps_u=1e-2, r_max=100, parallel_searches=2, seed=4)
    report = multistate_pmf(model, dist, cfg)
    for threshold, s1 in enumerate(report.stage1_results):
        lower, upper, trace = whole_batch_stage1(model, dist, cfg, threshold)
        assert (s1.lower.members, s1.upper.members) == (lower.members, upper.members)
        assert [(t.p_lower, t.p_upper, t.p_unclassified) for t in s1.trace] == trace
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in report.stage1_results]
    assert summary(report.stage2_reports) == whole_batch_stage2(model, dist, cfg, sets)


def test_stage2_encodes_each_chunk_once_for_all_thresholds(monkeypatch):
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 3 * 64)  # 64 rows a chunk
    cfg = RunConfig(n_samples=1000, eps_u=1e-2, r_max=100, parallel_searches=4, seed=3)
    encoded = []
    in_stage2 = False

    def counting_encode(states, n_states):
        if in_stage2:
            encoded.append(len(states))
        return encode_batch(states, n_states)

    def counted_stage2(*args):
        nonlocal in_stage2
        in_stage2 = True
        try:
            return _stage2(*args)
        finally:
            in_stage2 = False

    monkeypatch.setattr(classify_module, "encode_batch", counting_encode)
    monkeypatch.setattr(workflow, "_stage2", counted_stage2)
    report = multistate_pmf(model, dist, cfg)
    assert len(report.stage2_reports) == 3
    # the stage call encodes each non-empty reference set once, in
    # threshold order, before its first chunk
    set_rows = [len(s) for s1 in report.stage1_results for s in (s1.lower, s1.upper) if len(s)]
    assert encoded[: len(set_rows)] == set_rows
    sample_rows = encoded[len(set_rows) :]
    assert len(sample_rows) == -(-cfg.n_samples // 64)
    assert sum(sample_rows) == cfg.n_samples


def test_pmf_stage1_samples_each_chunk_once_for_all_thresholds(monkeypatch):
    model = SystemModel(3, 4, 4, k_out_of_n(2, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 3 * 64)  # 64 rows a chunk
    cfg = RunConfig(n_samples=1000, eps_u=1e-2, r_max=100, parallel_searches=1, seed=3)
    drawn = []
    in_stage2 = False

    def counting_sample_batch(dist, n, seed, generation, start):
        if not in_stage2:
            drawn.append((generation, n))
        return sample_batch(dist, n, seed, generation, start=start)

    def uncounted_stage2(*args):
        nonlocal in_stage2
        in_stage2 = True
        try:
            return _stage2(*args)
        finally:
            in_stage2 = False

    monkeypatch.setattr(workflow, "sample_batch", counting_sample_batch)
    monkeypatch.setattr(workflow, "_stage2", uncounted_stage2)
    results = multistate_pmf(model, dist, cfg).stage1_results
    iterations = [s1.iterations for s1 in results]
    assert len(set(iterations)) > 1  # thresholds stop at different iterations
    # generation 0 is not drawn: its sets are empty, so every row is open
    assert all((s1.trace[0].p_lower, s1.trace[0].p_upper, s1.trace[0].p_unclassified) == (0, 0, 1) for s1 in results)
    # every chunk of every later iteration is drawn once, whichever thresholds still run
    n_chunks = -(-cfg.n_samples // 64)
    assert len(drawn) == n_chunks * (max(iterations) - 1)
    for generation in range(max(iterations)):
        assert sum(n for g, n in drawn if g == generation) == (generation > 0) * cfg.n_samples


@pytest.mark.parametrize("workers", [1, 3])
def test_pass_allocates_one_kernel_scratch_per_worker(monkeypatch, workers):
    # the four thresholds of 3-out-of-12, M = 5, each set non-empty, on a
    # batch of five chunks: every chunk and set reuses its worker's scratch
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    dist = ComponentDistribution.iid(12, [0.4, 0.3, 0.15, 0.1, 0.05])
    cfg = RunConfig(n_samples=2000, eps_u=1e-3, parallel_searches=8, seed=3, n_workers=workers)
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in _stage1(model, dist, cfg, range(4))]
    assert all(len(s) for _, low, up in sets for s in (low, up))
    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 12 * 400)  # 400 rows a chunk
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
        chunks = list(workflow._stream(model, dist, cfg, 9, sets))
    finally:
        sys.setswitchinterval(interval)
    assert len(chunks) == 5
    assert 1 <= len(allocated) <= workers
    states = sample_batch(dist, cfg.n_samples, cfg.seed, 9).states
    for j, (_, low, up) in enumerate(sets):
        for k, (ref_set, side) in enumerate(((low, Side.LOWER), (up, Side.UPPER))):
            expected = dominance_hits(states, ref_set.as_array(), side)
            assert np.array_equal(np.concatenate([hits[j][k] for *_, hits in chunks]), expected)


def untimed(trace):
    return [dataclasses.replace(t, elapsed_seconds=0.0, peak_rss_bytes=None) for t in trace]


@pytest.mark.parametrize("workers", [1, 3])
def test_pmf_stage1_equals_one_threshold_runs(monkeypatch, workers):
    # criterion 4's random coherent systems, those with M_S >= 3
    from conftest import random_distribution, random_monotone_model

    monkeypatch.setattr(workflow, "_CHUNK_BYTES", 8 * 300)  # 100 rows a chunk or fewer
    rng = np.random.default_rng(2026)
    staggered = 0
    for case in range(12):
        n, m, m_s = int(rng.integers(3, 11)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        model = random_monotone_model(rng, n, m, m_s)
        dist = random_distribution(rng, n, m)
        if m_s < 3:
            continue
        cfg = RunConfig(n_samples=2000, eps_u=1e-3, r_max=500, parallel_searches=2, seed=case, n_workers=workers)
        report = multistate_pmf(model, dist, cfg)
        for threshold, s1 in enumerate(report.stage1_results):
            alone = stage1_find_references(model, dist, cfg, threshold)
            assert (s1.lower.members, s1.upper.members) == (alone.lower.members, alone.upper.members)
            assert (s1.iterations, s1.redundant_searches, s1.terminated_by) == (
                alone.iterations, alone.redundant_searches, alone.terminated_by
            )
            assert untimed(s1.trace) == untimed(alone.trace)
        staggered += len({s1.iterations for s1 in report.stage1_results}) > 1
    assert staggered >= 2


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
    # peak is 3.40 MiB at 400k rows (3.31 MiB at 100k): one chunk's 1 MiB of
    # states, one 1 MiB block of raw draws and the hit kernel's 1 MiB of
    # scratch, which lives for the whole pass, plus the chunk's packed words
    # and the open rows. The ceiling leaves 0.1 MiB of margin, less than the
    # 1 MiB that holding the previous chunk's states, a second block of draws
    # or the one-hot cube of a chunk at M = 2 would add
    model, dist = rgg
    lower, upper = rgg_refs
    peaks = {
        h: traced_peak(lambda: stage2_evaluate(model, dist, lower, upper, RunConfig(n_samples=h, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 3.5 * MiB
    assert peaks[400_000] - peaks[100_000] <= 24 * 300_000


def test_stage1_iteration_memory_bounded_in_batch_size(rgg):
    # eps_u = 1 stops after one iteration, whose samples are all unclassified.
    # The peak is 2.7 MiB, one chunk's temporaries as in Stage 2 plus a bit
    # per sample; the ceiling leaves 0.8 MiB of margin
    model, dist = rgg
    peaks = {
        h: traced_peak(lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=1.0, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 3.5 * MiB
    assert peaks[400_000] - peaks[100_000] <= 24 * 300_000


def test_stage1_streamed_iteration_memory_bounded_in_batch_size(rgg):
    # The first iteration's sets are empty, so it draws nothing; one search
    # then makes r_max = 1, and the run stops after streaming the second
    # batch. The peak is 2.8 MiB at 400k, one chunk's temporaries as in
    # Stage 2, with a kernel scratch sized to a one-reference set, plus a bit
    # per sample
    model, dist = rgg
    peaks = {
        h: traced_peak(
            lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=0.0, r_max=1, seed=1), 0)
        )
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 3.5 * MiB
    assert peaks[400_000] - peaks[100_000] <= 24 * 300_000


@pytest.mark.parametrize(
    "settings",
    [
        dict(eps_u=1.0),  # every threshold stops after its first classification
        dict(eps_u=0.0, r_max=1),  # every threshold searches from a fully open first batch
    ],
)
def test_pmf_stage1_memory_bounded_in_batch_size(settings):
    # the Stage-1 core for all four thresholds of 3-out-of-12, M = 5; an
    # int64 index array kept per running threshold would grow 32 bytes a sample
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    dist = ComponentDistribution.iid(12, [0.4, 0.3, 0.15, 0.1, 0.05])
    peaks = {
        h: traced_peak(lambda: _stage1(model, dist, RunConfig(n_samples=h, seed=1, **settings), range(4)))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] - peaks[100_000] <= 16 * 300_000


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
    # fixed binary run and a small fixed multi-state run, bit for bit
    model, dist = rgg
    cfg = RunConfig(n_samples=2000, parallel_searches=8, seed=1)
    s1 = stage1_find_references(model, dist, cfg, 0)
    report = stage2_evaluate(model, dist, s1.lower, s1.upper, cfg, 0)
    assert (len(s1.lower), len(s1.upper)) == (1, 25)
    assert (_sha256(s1.lower), _sha256(s1.upper), report.p_lower, report.p_upper) == (
        "e238cd6efda4637fb67d59af017a935ad886be91db12bf6c022ee388ba8d67dd",
        "f151acfa8492655ef3074038da314a11dcbe9327fb6f95064b5dad2306a8356e",
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
            "d4e14b3805f2a9429ce735ebca92c4040da29e8f47967374145edc7c0a1afbed",
            "446fec4790737ebee9d34ecc5fb8fc4733c3e5f5a9dbe6441d8d7c6d9025bdcf",
            0.0125,
            0.9875,
        ),
        (
            "0ed6625e984217bd0f304b8c0b8ead59e99c52d2dfa3c3f68fe6245e91fafebb",
            "c38dfa0135bf338db50f2049b1fca6b1c060cc033c448ac57abd740d966f10f2",
            0.35,
            0.65,
        ),
    ]
