import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsr.boundary import _BLOCK_BYTES, ReferenceSet, ReferenceState, Side, boundary_search, boundary_searches
from rsr.model import SystemModel
from rsr.oracle import dominates
from rsr.sysfn import k_out_of_n, pick_od_pair, random_geometric_graph, single_od_connectivity


def test_worked_lower_trajectory(fig_space_model):
    ref = boundary_search(fig_space_model, (2, 0), 0)
    assert ref.side == Side.LOWER
    assert ref.vector == (3, 1)
    assert fig_space_model.evaluation_count <= 2 * 4 + 1


def test_worked_upper_trajectory(fig_space_model):
    ref = boundary_search(fig_space_model, (4, 4), 0)
    assert ref.side == Side.UPPER
    assert ref.vector == (1, 4)


def test_fixed_point_when_already_on_boundary(fig_space_model):
    ref = boundary_search(fig_space_model, (3, 1), 0)
    assert ref.vector == (3, 1)
    ref_up = boundary_search(fig_space_model, (1, 4), 0)
    assert ref_up.vector == (1, 4)


def test_invalid_threshold_rejected(fig_space_model):
    with pytest.raises(ValueError):
        boundary_search(fig_space_model, (0, 0), 1)
    with pytest.raises(ValueError):
        boundary_search(fig_space_model, (0, 0), -1)


@given(st.integers(0, 2**31), st.integers(2, 6), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_boundary_maximality_and_budget(seed, n, m):
    from conftest import random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, 2)
    x0 = rng.integers(0, m, size=n)
    model.reset_evaluation_count()
    ref = boundary_search(model, x0, 0)
    evals = model.evaluation_count
    assert evals <= n * (m - 1) + 1

    x = np.array(ref.vector)
    s = model.evaluate(x)
    if ref.side == Side.LOWER:
        assert s <= 0
        for i in range(n):
            if x[i] < m - 1:
                probe = x.copy()
                probe[i] += 1
                assert model.evaluate(probe) > 0
        assert dominates(x0, x)  # search only ascends
    else:
        assert s >= 1
        for i in range(n):
            if x[i] > 0:
                probe = x.copy()
                probe[i] -= 1
                assert model.evaluate(probe) <= 0
        assert dominates(x, x0)  # search only descends


def _linear_search(model, x0, threshold):
    """Reference walk: one move per evaluation, components in index order."""
    x = np.array(x0, dtype=np.int64)
    if model.evaluate(x) <= threshold:
        side, step, limit = Side.LOWER, 1, model.n_component_states - 1
    else:
        side, step, limit = Side.UPPER, -1, 0
    for n in range(model.n_components):
        while x[n] != limit:
            x[n] += step
            s = model.evaluate(x)
            if (s > threshold) if side == Side.LOWER else (s <= threshold):
                x[n] -= step
                break
    return ReferenceState(tuple(int(v) for v in x), side, threshold)


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 5), st.integers(2, 4))
@settings(max_examples=150, deadline=None)
def test_search_matches_linear_walk(seed, n, m, m_s):
    from conftest import random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, m_s)
    threshold = int(rng.integers(0, m_s - 1))
    starts = [rng.integers(0, m, size=n), np.zeros(n, dtype=np.int64), np.full(n, m - 1)]
    for x0 in starts:
        expected = _linear_search(model, x0, threshold)
        model.reset_evaluation_count()
        assert boundary_search(model, x0, threshold) == expected
        assert model.evaluation_count <= n * (m - 1) + 1
        # a reference is a fixed point of the walk
        assert boundary_search(model, expected.vector, threshold) == expected


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 5), st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_search_counts_every_phi_call_in_range(seed, n, m, m_s):
    from conftest import PhiProbe, random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, m_s)
    probe = PhiProbe(model)
    threshold = int(rng.integers(0, m_s - 1))
    dtype = (np.int8, np.uint8, np.int64)[int(rng.integers(3))]
    for x0 in (rng.integers(0, m, size=n), np.zeros(n), np.full(n, m - 1)):
        boundary_search(model, x0.astype(dtype), threshold)
    assert probe.calls == model.evaluation_count > 0
    assert probe.dtypes == {np.dtype(np.int64)}
    assert probe.bad == []


def test_search_rejects_a_bad_start_before_any_phi_call(fig_space_model):
    for x0 in ((0, -1), (0, 5), (1, 2, 3), (0.0, 1.0)):
        with pytest.raises(ValueError):
            boundary_search(fig_space_model, x0, 0)
    assert fig_space_model.evaluation_count == 0


def test_search_gallops_on_graph_connectivity():
    g = random_geometric_graph(30, 0.35, 0)
    model = SystemModel(g.n_edges, 2, 2, single_od_connectivity(g, *pick_od_pair(g)))
    rng = np.random.default_rng(0)
    linear_calls = calls = 0
    for _ in range(20):
        x0 = (rng.random(g.n_edges) >= 0.05).astype(np.int64)
        model.reset_evaluation_count()
        expected = _linear_search(model, x0, 0)
        linear_calls += model.evaluation_count
        model.reset_evaluation_count()
        assert boundary_search(model, x0, 0) == expected
        calls += model.evaluation_count
    assert calls < linear_calls / 2, f"{calls} phi calls against {linear_calls} one move at a time"


def test_search_determinism(fig_space_model):
    a = boundary_search(fig_space_model, (2, 0), 0)
    b = boundary_search(fig_space_model, (2, 0), 0)
    assert a == b


def test_insert_nondominated_examples():
    s = ReferenceSet(Side.LOWER, 0, [(1, 2)])
    assert s.insert(ReferenceState((3, 1), Side.LOWER, 0)) == "inserted"
    assert sorted(s.members) == [(1, 2), (3, 1)]

    s2 = ReferenceSet(Side.LOWER, 0, [(3, 1)])
    assert s2.insert(ReferenceState((2, 1), Side.LOWER, 0)) == "redundant"
    assert s2.members == [(3, 1)]

    s3 = ReferenceSet(Side.LOWER, 0, [(2, 0), (0, 2)])
    assert s3.insert(ReferenceState((2, 2), Side.LOWER, 0)) == "inserted"
    assert s3.members == [(2, 2)]


def test_insert_duplicate_is_redundant():
    s = ReferenceSet(Side.UPPER, 0, [(1, 1)])
    assert s.insert(ReferenceState((1, 1), Side.UPPER, 0)) == "redundant"


def test_insert_rejects_mismatches():
    s = ReferenceSet(Side.LOWER, 0)
    with pytest.raises(ValueError):
        s.insert(ReferenceState((0, 0), Side.UPPER, 0))
    with pytest.raises(ValueError):
        s.insert(ReferenceState((0, 0), Side.LOWER, 1))
    with pytest.raises(ValueError, match="3 components, set members have 2"):
        ReferenceSet(Side.LOWER, 0, [(0, 1), (1, 0, 0)])


def test_as_array_is_read_only_matrix():
    refs = ReferenceSet(Side.UPPER, 0).as_array()
    assert refs.shape[0] == 0
    assert refs.dtype == np.int64
    refs = ReferenceSet(Side.UPPER, 0, [(1, 2), (2, 0)]).as_array()
    assert refs.tolist() == [[1, 2], [2, 0]]
    assert not refs.flags.writeable


def test_checked_reference_state():
    model = SystemModel(3, 2, 2, k_out_of_n(3, 3))
    ReferenceState.checked(model, (1, 1, 0), Side.LOWER, 0)
    with pytest.raises(ValueError):
        ReferenceState.checked(model, (1, 1, 1), Side.LOWER, 0)
    ReferenceState.checked(model, (1, 1, 1), Side.UPPER, 0)
    with pytest.raises(ValueError):
        ReferenceState.checked(model, (0, 1, 1), Side.UPPER, 0)


class _QuadraticScanSet:
    """Reference oracle for non-dominance maintenance: filter the full history."""

    def __init__(self, side):
        self.side = side
        self.history = []

    def insert(self, vec):
        self.history.append(vec)

    def members(self):
        def redundant(a, b):
            if a == b:
                return False
            if self.side == Side.LOWER:
                return dominates(a, b)
            return dominates(b, a)

        hist = set(self.history)
        return sorted(
            a for a in hist if not any(redundant(a, b) for b in hist if b != a)
        )


@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_nondominance_matches_quadratic_oracle(seed, n, m):
    rng = np.random.default_rng(seed)
    for side in (Side.LOWER, Side.UPPER):
        fast = ReferenceSet(side, 0)
        slow = _QuadraticScanSet(side)
        for _ in range(20):
            vec = tuple(int(v) for v in rng.integers(0, m, size=n))
            fast.insert(ReferenceState(vec, side, 0))
            slow.insert(vec)
        assert sorted(fast.members) == slow.members()
        # survivors keep their first-insertion order
        kept = set(slow.members())
        assert fast.members == [v for v in dict.fromkeys(slow.history) if v in kept]


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 5), st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_lockstep_searches_equal_one_search_each(seed, n, m, m_s):
    from conftest import PhiProbe, random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, m_s)
    thresholds = [int(t) for t in rng.integers(0, m_s - 1, size=8)]
    starts = [rng.integers(0, m, size=n) for _ in range(4)] + [np.zeros(n, dtype=np.int64), np.full(n, m - 1)]
    # two starts already on the boundary: references of their own thresholds
    starts += [np.array(_linear_search(model, x0, t).vector) for x0, t in zip(starts[:2], thresholds[6:])]
    expected, counts = [], []
    for x0, t in zip(starts, thresholds):
        expected.append(_linear_search(model, x0, t))
        before = model.evaluation_count
        assert boundary_search(model, x0, t) == expected[-1]
        counts.append(model.evaluation_count - before)

    probe = PhiProbe(model)
    before = model.evaluation_count
    refs, calls = boundary_searches(model, [x0.astype(np.uint8) for x0 in starts], thresholds)
    assert refs == expected
    assert calls == counts
    assert model.evaluation_count - before == sum(calls) == probe.calls
    assert probe.dtypes == {np.dtype(np.int64)}
    assert probe.bad == []


def test_lockstep_searches_use_the_batch_form_of_phi():
    # k-out-of-n has a batch form; the same walks through a per-row phi agree
    rng = np.random.default_rng(2)
    batch = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    per_row = SystemModel(12, 5, 5, lambda x: batch.performance(x))
    starts = rng.integers(0, 5, size=(40, 12))
    thresholds = [int(t) for t in rng.integers(0, 4, size=40)]
    refs, calls = boundary_searches(batch, starts, thresholds)
    assert (refs, calls) == boundary_searches(per_row, starts, thresholds)
    assert batch.evaluation_count == per_row.evaluation_count == sum(calls)
    assert boundary_searches(batch, [], []) == ([], [])


def _one_at_a_time(side, members, candidates):
    """Reference insertion, one candidate at a time: a candidate some member
    covers is redundant; any other evicts the members it covers and goes last."""

    def covers(r, x):
        return all(a <= b if side == Side.LOWER else a >= b for a, b in zip(x, r))

    members, outcomes = list(members), []
    for x in candidates:
        if any(covers(r, x) for r in members):
            outcomes.append("redundant")
        else:
            members = [r for r in members if not covers(x, r)] + [x]
            outcomes.append("inserted")
    return members, outcomes


@st.composite
def _set_and_candidates(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    # vectors drawn from a small pool repeat, and candidates meet members
    pool = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * n), min_size=1, max_size=8))
    picks = st.lists(st.sampled_from(pool), max_size=12)
    return draw(st.sampled_from([Side.LOWER, Side.UPPER])), draw(picks), draw(picks)


@given(_set_and_candidates())
# (0, 1) is covered only by the earlier (1, 1), which the later (2, 2) evicts
@example((Side.LOWER, [], [(1, 1), (0, 1), (2, 2), (0, 1)]))
@example((Side.UPPER, [(1, 1), (2, 0)], [(1, 1), (2, 2), (0, 0), (1, 1), (3, 0)]))
@settings(max_examples=300, deadline=None)
def test_insert_many_equals_inserting_one_at_a_time(case):
    side, members, candidates = case
    start, _ = _one_at_a_time(side, [], members)
    refs = ReferenceSet(side, 0, members)
    assert refs.members == start
    want, outcomes = _one_at_a_time(side, start, candidates)
    assert refs.insert_many([ReferenceState(x, side, 0) for x in candidates]) == outcomes
    assert refs.members == want


def test_loading_a_large_set_is_memory_bounded():
    # about a paper-graph refs file: 3000 references of 294 components, a
    # tenth of them copies of others with some components lowered, so
    # covered on the lower side
    rng = np.random.default_rng(4)
    k, n = 3000, 294
    vectors = (rng.random((k, n)) < 0.9).astype(np.int64)
    lowered = vectors[rng.integers(0, k, size=k // 10)] * (rng.random((k // 10, n)) < 0.95)
    vectors[rng.permutation(k)[: k // 10]] = lowered
    members = vectors.tolist()
    tracemalloc.start()
    try:
        loaded = ReferenceSet(Side.LOWER, 0, members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three K x N copies (the candidates' tuples, their matrix, the member
    # matrix) and a few comparison blocks, not a K x K x N comparison
    assert peak <= 3.5 * k * n * 8 + 4 * _BLOCK_BYTES, f"{peak / 2**20:.1f} MiB"
    one_at_a_time = ReferenceSet(Side.LOWER, 0)
    for x in members:
        one_at_a_time.insert(ReferenceState(x, Side.LOWER, 0))
    assert loaded.members == one_at_a_time.members
    assert 0 < len(loaded) < k
