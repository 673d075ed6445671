import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

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
    lower = ReferenceSet(Side.LOWER, 0, [boundary_search(model, (2, 0), 0).vector])
    upper = ReferenceSet(Side.UPPER, 0, [boundary_search(model, (1, 0), 0).vector])
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


def test_boundary_search_disabled_inserts_raw_samples(series3):
    model, dist = series3
    cfg = small_config(boundary_search_enabled=False, r_max=30)
    res = stage1_find_references(model, dist, cfg, threshold=0)
    # raw samples still form valid reference sets on their own sides
    for vec in res.lower.members:
        assert model.evaluate(np.array(vec)) == 0
    for vec in res.upper.members:
        assert model.evaluate(np.array(vec)) == 1


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
            candidate = boundary_search(model, batch.states[idx], threshold)
            (lower if candidate.side == Side.LOWER else upper).insert(candidate)


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

    def counting_encode(states, n_states, kind):
        if in_stage2:
            encoded.append((kind, len(states)))
        return encode_batch(states, n_states, kind)

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
    sample_rows = [rows for kind, rows in encoded if kind == "sample"]
    assert len(sample_rows) == -(-cfg.n_samples // 64)
    assert sum(sample_rows) == cfg.n_samples
    # and each non-empty reference set once per stage call
    n_sets = sum(len(s) > 0 for s1 in report.stage1_results for s in (s1.lower, s1.upper))
    assert len(encoded) - len(sample_rows) == n_sets


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 1 << 20


def test_stage2_memory_bounded_in_batch_size(rgg, rgg_refs):
    # the whole 400k x 115 batch would be 351 MiB of int64 states alone
    model, dist = rgg
    lower, upper = rgg_refs
    peaks = {
        h: traced_peak(lambda: stage2_evaluate(model, dist, lower, upper, RunConfig(n_samples=h, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 40 * MiB
    assert peaks[400_000] - peaks[100_000] <= 24 * 300_000


def test_stage1_iteration_memory_bounded_in_batch_size(rgg):
    # eps_u = 1 stops after one iteration, whose samples are all unclassified
    model, dist = rgg
    peaks = {
        h: traced_peak(lambda: stage1_find_references(model, dist, RunConfig(n_samples=h, eps_u=1.0, seed=1), 0))
        for h in (100_000, 400_000)
    }
    assert peaks[400_000] < 40 * MiB
    assert peaks[400_000] - peaks[100_000] <= 24 * 300_000
