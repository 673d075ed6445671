import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsr.boundary import _BLOCK_BYTES, ReferenceSet, Side, boundary_search, boundary_searches
from rsr.model import SystemModel
from rsr.oracle import dominates
from rsr.sysfn import k_out_of_n, pick_od_pair, random_geometric_graph, single_od_connectivity
from rsr.workflow import _rejection_rate

from conftest import single_step_walk


def test_worked_lower_trajectory(fig_space_model):
    assert boundary_search(fig_space_model, (2, 0), 0) == ((3, 1), Side.LOWER)
    assert fig_space_model.evaluation_count <= 2 * 4 + 1


def test_worked_upper_trajectory(fig_space_model):
    assert boundary_search(fig_space_model, (4, 4), 0) == ((1, 4), Side.UPPER)


def test_fixed_point_when_already_on_boundary(fig_space_model):
    assert boundary_search(fig_space_model, (3, 1), 0)[0] == (3, 1)
    assert boundary_search(fig_space_model, (1, 4), 0)[0] == (1, 4)


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
    vector, side = boundary_search(model, x0, 0)
    evals = model.evaluation_count
    assert evals <= n * (m - 1) + 1

    x = np.array(vector)
    s = model.evaluate(x)
    if side == Side.LOWER:
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


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 5), st.integers(2, 4))
@settings(max_examples=150, deadline=None)
def test_search_matches_linear_walk(seed, n, m, m_s):
    from conftest import random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, m_s)
    threshold = int(rng.integers(0, m_s - 1))
    starts = [rng.integers(0, m, size=n), np.zeros(n, dtype=np.int64), np.full(n, m - 1)]
    for x0 in starts:
        expected = single_step_walk(model, x0, threshold)
        model.reset_evaluation_count()
        assert boundary_search(model, x0, threshold) == expected
        assert model.evaluation_count <= n * (m - 1) + 1
        # a reference is a fixed point of the walk
        assert boundary_search(model, expected[0], threshold) == expected


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
        expected = single_step_walk(model, x0, 0)
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
    assert s.insert((3, 1)) == "inserted"
    assert sorted(s.members) == [(1, 2), (3, 1)]

    s2 = ReferenceSet(Side.LOWER, 0, [(3, 1)])
    assert s2.insert((2, 1)) == "redundant"
    assert s2.members == [(3, 1)]

    s3 = ReferenceSet(Side.LOWER, 0, [(2, 0), (0, 2)])
    assert s3.insert((2, 2)) == "inserted"
    assert s3.members == [(2, 2)]


def test_insert_duplicate_is_redundant():
    s = ReferenceSet(Side.UPPER, 0, [(1, 1)])
    assert s.insert((1, 1)) == "redundant"


def test_insert_rejects_mismatches():
    with pytest.raises(ValueError, match="side must be"):
        ReferenceSet("middle", 0)
    s = ReferenceSet(Side.LOWER, 0, [(0, 1)])
    with pytest.raises(ValueError, match="3 components, set members have 2"):
        s.insert((1, 0, 0))
    with pytest.raises(ValueError, match="K x N matrix"):
        s.insert([(1, 0), (0, 1)])
    assert s.members == [(0, 1)]
    with pytest.raises(ValueError, match="3 components, set members have 2"):
        ReferenceSet(Side.LOWER, 0, [(0, 1), (1, 0, 0)])


@pytest.mark.parametrize("vector", [(0.5, 1.5), (2**70, 1), (True, False), ("0", "1")])
def test_non_integer_vectors_are_rejected(vector):
    # a float is not truncated, and an int past 64 bits is an input error, not an overflow
    with pytest.raises(ValueError, match="component states must be integers, got dtype"):
        ReferenceSet(Side.LOWER, 0, [vector])
    refs = ReferenceSet(Side.LOWER, 0)
    with pytest.raises(ValueError, match="component states must be integers, got dtype"):
        refs.insert(vector)
    assert len(refs) == 0


def test_bools_among_ints_and_unsigned_past_int64_are_rejected():
    # numpy would promote [0, True] to (0, 1) and wrap 2**64 - 1 to -1
    for vector in ((0, True), [1, np.False_]):
        with pytest.raises(ValueError, match="got a bool"):
            ReferenceSet(Side.LOWER, 0, [vector])
        with pytest.raises(ValueError, match="got a bool"):
            ReferenceSet(Side.LOWER, 0).insert(vector)
    with pytest.raises(ValueError, match="does not fit int64"):
        ReferenceSet(Side.LOWER, 0, [[2**64 - 1, 2**63]])
    refs = ReferenceSet(Side.UPPER, 0, [(1, 2)])
    before = refs.as_array()
    with pytest.raises(ValueError, match="does not fit int64"):
        refs.insert_many(np.array([[0, 0], [2**63, 1]], dtype=np.uint64))
    assert refs.as_array() is before
    assert refs.insert_many(np.array([[1, 1]], dtype=np.uint64)) == ["inserted"]


def test_insert_many_of_no_rows_leaves_the_set_unchanged():
    for members in ([], [(1, 2), (2, 0)]):
        refs = ReferenceSet(Side.UPPER, 0, members)
        before = refs.as_array()
        assert refs.insert_many(np.empty((0, 2), dtype=np.int64)) == []
        assert refs.as_array() is before


def test_as_array_is_read_only_matrix():
    refs = ReferenceSet(Side.UPPER, 0).as_array()
    assert refs.shape[0] == 0
    assert refs.dtype == np.uint8
    refs = ReferenceSet(Side.UPPER, 0, [(1, 2), (2, 0)]).as_array()
    assert refs.tolist() == [[1, 2], [2, 0]]
    assert not refs.flags.writeable
    # np.min_scalar_type of the extremes: one byte for states 0-255, two
    # once a member holds 300, signed when an entry is negative
    wide = ReferenceSet(Side.LOWER, 0, np.array([(255, 0), (0, 255)], dtype=np.int64))
    assert wide.as_array().dtype == np.uint8
    assert wide.insert((300, 1)) == "inserted"
    assert wide.as_array().tolist() == [[0, 255], [300, 1]]
    assert wide.as_array().dtype == np.uint16
    assert not wide.as_array().flags.writeable
    signed = ReferenceSet(Side.UPPER, 0, [(1, 2), (-1, 5)])
    assert signed.as_array().tolist() == [[1, 2], [-1, 5]]
    assert signed.as_array().dtype.kind == "i"


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
            fast.insert(vec)
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
    starts += [np.array(single_step_walk(model, x0, t)[0]) for x0, t in zip(starts[:2], thresholds[6:])]
    expected, counts = [], []
    for x0, t in zip(starts, thresholds):
        expected.append(single_step_walk(model, x0, t))
        before = model.evaluation_count
        assert boundary_search(model, x0, t) == expected[-1]
        counts.append(model.evaluation_count - before)

    probe = PhiProbe(model)
    before = model.evaluation_count
    ends, lower, calls = boundary_searches(model, [x0.astype(np.uint8) for x0 in starts], thresholds)
    assert [(tuple(end), Side.LOWER if low else Side.UPPER) for end, low in zip(ends.tolist(), lower)] == expected
    assert ends.dtype == calls.dtype == np.int64
    # a walk pays only for the vectors no walk before it asked for: at most its solo calls
    assert all(c <= solo for c, solo in zip(calls.tolist(), counts, strict=True))
    assert model.evaluation_count - before == calls.sum() == probe.calls
    assert probe.dtypes == {np.dtype(np.int64)}
    assert probe.bad == []


def test_lockstep_searches_use_the_batch_form_of_phi():
    # k-out-of-n has a batch form; the same walks through a per-row phi agree
    rng = np.random.default_rng(2)
    batch = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    per_row = SystemModel(12, 5, 5, lambda x: batch.performance(x))
    starts = rng.integers(0, 5, size=(40, 12))
    thresholds = [int(t) for t in rng.integers(0, 4, size=40)]
    ends, lower, calls = boundary_searches(batch, starts, thresholds)
    for got, want in zip((ends, lower, calls), boundary_searches(per_row, starts, thresholds), strict=True):
        assert np.array_equal(got, want)
    assert batch.evaluation_count == per_row.evaluation_count == calls.sum()
    assert [a.shape for a in boundary_searches(batch, [], [])] == [(0, 12), (0,), (0,)]


def _solo_calls(model, starts, thresholds, priors=None):
    """Each start's reference, phi calls and evaluated vectors, in order, when it walks alone."""
    phi, refs, probes = model.performance, [], []

    def recording(x):
        probes[-1].append(tuple(x.tolist()))
        return phi(x)

    model.performance = recording
    try:
        for x0, t in zip(starts, thresholds, strict=True):
            probes.append([])
            before = model.evaluation_count
            (end,), (lower,), _ = boundary_searches(model, [x0], [t], priors)
            refs.append((tuple(end.tolist()), Side.LOWER if lower else Side.UPPER))
            assert model.evaluation_count - before == len(probes[-1])
    finally:
        model.performance = phi
    return refs, np.array([len(p) for p in probes]), probes


def _lockstep(model, starts, thresholds, priors=None):
    ends, lower, calls = boundary_searches(model, starts, thresholds, priors)
    return [(tuple(end), Side.LOWER if low else Side.UPPER) for end, low in zip(ends.tolist(), lower)], calls


def _assert_each_vector_paid_once(calls, thresholds, probes):
    """Lockstep walks of one threshold pay one call for each distinct vector their solo walks
    evaluate, and none pays more than alone."""
    thresholds = np.asarray(thresholds)
    for t in set(thresholds.tolist()):
        walks = np.flatnonzero(thresholds == t)
        assert calls[walks].sum() == len(set().union(*(probes[i] for i in walks)))
    assert (calls <= [len(p) for p in probes]).all()


def test_duplicate_starts_share_one_walk():
    # copies of one start ask for the same vectors in the same rounds, so
    # the first copy pays for every vector and the others for none
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    starts = [np.ones(12, dtype=np.int64)] * 3 + [np.full(12, 3)] * 2
    thresholds = [1, 1, 1, 2, 2]
    refs, solo, probes = _solo_calls(model, starts, thresholds)
    before = model.evaluation_count
    got, calls = _lockstep(model, starts, thresholds)
    assert got == refs
    assert refs[0] == refs[1] == refs[2] and refs[3] == refs[4]
    assert model.evaluation_count - before == calls.sum() < sum(solo)
    assert calls[0] == solo[0] and calls[3] == solo[3]
    assert all(c < s for c, s in zip(calls[[1, 2, 4]], solo[[1, 2, 4]]))
    assert calls[[1, 2, 4]].tolist() == [0, 0, 0]
    _assert_each_vector_paid_once(calls, thresholds, probes)


def test_two_thresholds_walking_from_one_start_each_pay_for_it():
    # the start itself, and any vector both walks probe, is evaluated once
    # a threshold, so each threshold pays what it pays alone
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    starts = [np.ones(12, dtype=np.int64)] * 4
    thresholds = [1, 2, 1, 2]
    refs, solo, probes = _solo_calls(model, starts, thresholds)
    assert probes[0][0] == probes[1][0] == (1,) * 12
    before = model.evaluation_count
    got, calls = _lockstep(model, starts, thresholds)
    assert got == refs
    assert calls.tolist() == [solo[0], solo[1], 0, 0]
    assert model.evaluation_count - before == solo[0] + solo[1]
    _assert_each_vector_paid_once(calls, thresholds, probes)


def test_walks_meet_on_graph_connectivity():
    # walks from nearby starts probe many of the same vectors, and each of
    # them is evaluated once
    g = random_geometric_graph(30, 0.35, 0)
    model = SystemModel(g.n_edges, 2, 2, single_od_connectivity(g, *pick_od_pair(g)))
    rng = np.random.default_rng(0)
    starts = (rng.random((32, g.n_edges)) >= 0.05).astype(np.int64)
    refs, solo, probes = _solo_calls(model, starts, [0] * 32)
    got, calls = _lockstep(model, starts, [0] * 32)
    assert got == refs
    assert (calls <= solo).all()
    assert calls.sum() < sum(solo), f"{calls.sum()} phi calls in lockstep against {sum(solo)} alone"
    _assert_each_vector_paid_once(calls, [0] * 32, probes)


def test_lockstep_memory_is_the_distinct_vectors_in_narrow_keys():
    # one call's peak traced memory on the paper's graph (294 edges): the
    # state of each distinct vector it evaluated, kept under a key of N + 1
    # bytes (M = 2: a byte a state and one for the threshold) and about 150
    # bytes of Python objects, plus a few K x N int64 matrices of one
    # round. On Python 3.11 with numpy 2.4 it reads 1.1 MiB against a bound
    # of 1.7 MiB for 2,702 vectors; keys of int64 rows, 8 (N + 1) bytes,
    # read 6.7 MiB
    g = random_geometric_graph(119, 0.12, seed=3)
    model = SystemModel(g.n_edges, 2, 2, single_od_connectivity(g, *pick_od_pair(g)))
    k, n = 32, g.n_edges
    starts = (np.random.default_rng(0).random((k, n)) >= 0.05).astype(np.int64)
    tracemalloc.start()
    try:
        _, _, calls = boundary_searches(model, starts, [0] * k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= calls.sum() * (n + 1 + 150) + 8 * k * n * 8, f"{peak / 2**20:.2f} MiB"


def test_priors_size_only_the_calls_on_the_papers_graph():
    # the 32 walks of the memory test above, with no prior and with the
    # prior Stage 1 would read from their own references. Each walk ends at
    # its single-step reference either way; lockstep, the walks made 2,754
    # calls before they took priors, 2,702 with no prior since they size
    # their gallops from their own rejections, and with the prior 2,685
    g = random_geometric_graph(119, 0.12, seed=3)
    model = SystemModel(g.n_edges, 2, 2, single_od_connectivity(g, *pick_od_pair(g)))
    starts = (np.random.default_rng(0).random((32, g.n_edges)) >= 0.05).astype(np.int64)
    expected = [single_step_walk(model, x0, 0) for x0 in starts]
    got, plain = _lockstep(model, starts, [0] * 32)
    assert got == expected
    sets = [ReferenceSet(side, 0, [end for end, s in got if s == side]) for side in (Side.LOWER, Side.UPPER)]
    priors = {(0, ref_set.side): _rejection_rate(ref_set, 2) for ref_set in sets if len(ref_set)}
    got, sized = _lockstep(model, starts, [0] * 32, priors)
    assert got == expected
    assert plain.sum() <= 2702
    assert sized.sum() < plain.sum(), f"{sized.sum()} phi calls with the prior against {plain.sum()} without"


def _capacity(x):
    """4 x 3 series-parallel capacity: 4 stages in series, each 3 parallel components, capped at 6."""
    return int(min(6, x.reshape(4, 3).sum(axis=1).min()))


def _cut(values, cuts):
    """The system state: the number of ``cuts`` that ``values(x)`` reaches."""
    cuts = np.asarray(cuts)
    return lambda x: int(np.searchsorted(cuts, int(values(x)), side="right"))


@pytest.mark.parametrize(
    "model, committed",
    [
        (SystemModel(12, 5, 5, k_out_of_n(3, 12)), 65747),
        (SystemModel(12, 5, 4, _cut(lambda x: np.tile([1, 2, 3], 4) @ x, (24, 48, 72))), 62871),
        (SystemModel(12, 5, 4, _cut(np.sum, (12, 24, 36))), 62381),
        (SystemModel(12, 4, 7, _capacity), 100263),
    ],
    ids=["3-out-of-12", "weighted sum", "plain sum", "series-parallel capacity"],
)
def test_multi_state_walks_cost_no_more_calls(model, committed):
    # each threshold walks 40 batches of 32 lockstep walks from uniform
    # default_rng(0) starts, each batch given the priors Stage 1 would read
    # from the references of the batches before it. ``committed`` is the
    # count before walks took priors: no prior may make a multi-state walk
    # dearer, since there a rejection skips the rest of its component
    m = model.n_component_states
    rng = np.random.default_rng(0)
    total = 0
    for t in range(model.n_system_states - 1):
        sets = [ReferenceSet(Side.LOWER, t), ReferenceSet(Side.UPPER, t)]
        for _ in range(40):
            priors = {(t, ref_set.side): _rejection_rate(ref_set, m) for ref_set in sets if len(ref_set)}
            ends, lower, calls = boundary_searches(model, rng.integers(0, m, size=(32, 12)), [t] * 32, priors)
            total += int(calls.sum())
            sets[0].insert_many(ends[lower])
            sets[1].insert_many(ends[~lower])
    assert total <= committed


def test_priors_outside_zero_to_one_are_rejected_before_any_phi_call(fig_space_model):
    for rate in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="not a rate in"):
            boundary_searches(fig_space_model, [(2, 0)], [0], {(0, Side.LOWER): rate})
    assert fig_space_model.evaluation_count == 0


def _draw_priors(rng, n_thresholds):
    """Priors for most (threshold, side) keys: 0, a tiny rate, 1 or a uniform draw. The other keys get none."""
    keys = [(t, side) for t in range(n_thresholds) for side in (Side.LOWER, Side.UPPER)]
    values = (0.0, 1e-12, 1.0, float(rng.random()))
    return {key: values[rng.integers(len(values))] for key in keys if rng.random() < 0.8}


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 5), st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_walks_that_meet_match_the_linear_walk(seed, n, m, m_s):
    from conftest import random_monotone_model

    rng = np.random.default_rng(seed)
    model = random_monotone_model(rng, n, m, m_s)
    # starts and thresholds drawn from small pools repeat, so walks probe
    # vectors that other walks of their threshold probe too
    pool = [rng.integers(0, m, size=n), np.zeros(n, dtype=np.int64), np.full(n, m - 1)]
    starts = [pool[i] for i in rng.integers(0, len(pool), size=12)]
    thresholds = [int(t) for t in rng.integers(0, m_s - 1, size=12)]
    expected = [single_step_walk(model, x0, t) for x0, t in zip(starts, thresholds)]
    # priors size the gallops: they move the calls, never a reference or the budget
    for priors in (None, _draw_priors(rng, m_s - 1)):
        _, _, probes = _solo_calls(model, starts, thresholds, priors)
        before = model.evaluation_count
        got, calls = _lockstep(model, starts, thresholds, priors)
        assert got == expected
        assert model.evaluation_count - before == calls.sum()
        assert (calls <= n * (m - 1) + 1).all()
        _assert_each_vector_paid_once(calls, thresholds, probes)


def _thresholded_sum(rng, n, m, m_s):
    """A coherent system whose state counts the random cut points that sum(x) reaches."""
    cuts = np.sort(rng.integers(1, n * (m - 1) + 1, size=m_s - 1))
    return SystemModel(n, m, m_s, lambda x: int(np.searchsorted(cuts, sum(x.tolist()), side="right")))


def _weighted(weights, cut):
    """A coherent binary system: state 1 once the weighted sum of the component states reaches ``cut``."""
    return lambda x: int(sum(w * v for w, v in zip(weights, x.tolist())) >= cut)


def _settles_off_the_certificate(rng):
    """A weighted sum and a start whose walk keeps a joint probe's certificate until a component settles off it.

    From the start, the first component (weight w0) settles at 1 with
    slack s left, and the joint probe, each later component at 1 or its
    start, is accepted. Then a unit-weight component settles above 1, by
    (a) an accepted move, or (b) a level probe bisected to s after a heavy
    component that starts at x > s is rejected at once and raises the
    level to x. The next unit-weight component's move to 1, which the
    certificate would grant, then crosses the cut. Components of random
    weight pinned at their limit sit in between, and half the systems are
    mirrored, so that the walk is an upper one. Returns the model and the
    start.
    """
    # s < M - 1: a component that reached its limit would start a gallop,
    # which takes no move a certificate grants
    if rng.random() < 0.5:  # (a)
        m = int(rng.integers(4, 7))
        s = int(rng.integers(2, m - 1))
        weights, start = [int(rng.integers(s + 1, s + 4)), 1, 1], [0, 0, 0]
        cut = weights[0] + s + 1
    else:  # (b): the second component settles at 1, under the certificate
        m = int(rng.integers(5, 7))
        s = int(rng.integers(2, m - 2))
        x = int(rng.integers(s + 1, m - 1))
        w1, w2 = (int(w) for w in rng.integers(s + 1, s + 4, size=2))
        weights, start = [int(rng.integers(w1 + s + 1, w1 + s + 4)), w1, w2, 1, 1], [0, 0, x, 0, 0]
        cut = weights[0] + w1 + w2 * x + s + 1
    for _ in range(int(rng.integers(0, 3))):
        i, w = int(rng.integers(0, len(weights) + 1)), int(rng.integers(0, 4))
        weights.insert(i, w)
        start.insert(i, m - 1)
        cut += w * (m - 1)
    phi = _weighted(weights, cut)
    if rng.random() < 0.5:
        return SystemModel(len(weights), m, 2, phi), np.array(start)
    mirrored = SystemModel(len(weights), m, 2, lambda x: 1 - phi(m - 1 - x))
    return mirrored, m - 1 - np.array(start)


@given(
    st.integers(0, 2**31),
    st.sampled_from(["random", "k-out-of-n", "thresholded sum", "settles off the certificate"]),
    st.integers(1, 8),
    st.integers(2, 6),
)
@settings(max_examples=200, deadline=None)
def test_walks_match_the_single_step_specification(seed, family, n, m):
    from conftest import random_monotone_model

    rng = np.random.default_rng(seed)
    planted = []
    if family == "k-out-of-n":
        model = SystemModel(n, m, m, k_out_of_n(int(rng.integers(1, n + 1)), n))
    elif family == "random":
        model = random_monotone_model(rng, n, m, int(rng.integers(2, 5)))
    elif family == "thresholded sum":
        model = _thresholded_sum(rng, n, m, int(rng.integers(2, 5)))
    else:
        model, start = _settles_off_the_certificate(rng)
        n, m, planted = model.n_components, model.n_component_states, [start]
    # starts drawn from a small pool repeat, so walks of one threshold
    # probe the same vectors
    pool = planted + [rng.integers(0, m, size=n) for _ in range(4 - len(planted))]
    pool += [np.zeros(n, dtype=np.int64), np.full(n, m - 1)]
    starts = [pool[i] for i in rng.integers(0, len(pool), size=12)]
    thresholds = [int(t) for t in rng.integers(0, model.n_system_states - 1, size=12)]
    expected = [single_step_walk(model, x0, t) for x0, t in zip(starts, thresholds)]
    for priors in (None, _draw_priors(rng, model.n_system_states - 1)):
        refs, solo, probes = _solo_calls(model, starts, thresholds, priors)
        got, calls = _lockstep(model, starts, thresholds, priors)
        assert got == refs == expected
        assert max(solo) <= n * (m - 1) + 1
        assert (calls <= solo).all()
        _assert_each_vector_paid_once(calls, thresholds, probes)


@given(st.integers(0, 2**31), st.sampled_from(["two-terminal", "weighted sum"]), st.integers(6, 24))
@settings(max_examples=100, deadline=None)
def test_binary_walks_without_priors_gallop_from_their_own_rejections(seed, family, size):
    # with no prior, a binary walk sizes each gallop after a rejection from
    # its own count of rejections per accepted move; widths move only the calls
    rng = np.random.default_rng(seed)
    if family == "two-terminal":
        g = random_geometric_graph(size, 0.45, seed)
        origin, destination = rng.choice(g.n_nodes, size=2, replace=False)
        model = SystemModel(g.n_edges, 2, 2, single_od_connectivity(g, int(origin), int(destination)))
    else:
        weights = rng.integers(1, 5, size=size).tolist()
        model = SystemModel(size, 2, 2, _weighted(weights, int(rng.integers(1, sum(weights) + 1))))
    n = model.n_components
    starts = (rng.random((16, n)) < rng.random()).astype(np.int64)
    expected = [single_step_walk(model, x0, 0) for x0 in starts]
    # a binary walk rejects each move it could make and does not: a lower
    # walk's components that stay at 0, an upper walk's that stay at 1
    rejections = [
        int(np.count_nonzero((x0 == ref) & (x0 == (0 if side == Side.LOWER else 1))))
        for x0, (ref, side) in zip(starts, expected)
    ]
    assume(max(rejections) >= 3)
    got, calls = _lockstep(model, starts, [0] * len(starts))
    assert got == expected
    assert (calls <= n + 1).all()


def test_lower_walks_probe_each_component_to_the_last_settled_level():
    # 3-out-of-12 with M = 5 at m' = 3: a lower walk raises components to
    # 4 until two are there, and every later one is rejected at 4 and
    # settles at 3. One joint probe raises every later component to 3 at
    # once; accepted, it grants each of them its moves up to 3, so each
    # costs only its rejected move, where single moves cost up to four
    model = SystemModel(12, 5, 5, k_out_of_n(3, 12))
    starts = np.random.default_rng(0).choice(5, size=(400, 12), p=[0.4, 0.3, 0.15, 0.1, 0.05])
    refs, solo, _ = _solo_calls(model, starts, [3] * 400)
    got, calls = _lockstep(model, starts, [3] * 400)
    assert got == refs
    lower = np.array([side == Side.LOWER for _, side in got])
    # one level at a time a lower walk averaged 35.5 calls, alone or in
    # lockstep; with a level probe for each component, 20.2 in lockstep and
    # 25.0 alone; with the joint probe, 14.58 and 17.92
    assert calls[lower].mean() <= 14.6, f"{calls[lower].mean():.2f} calls a lower walk in lockstep"
    assert np.array(solo)[lower].mean() <= 17.93, f"{np.array(solo)[lower].mean():.2f} calls a lower walk alone"


def _walked(phi, n, m, m_s, x0, threshold):
    """The vectors one walk evaluates, in order, after checking its reference against the single-step walk."""
    evaluated = []

    def recording(x):
        evaluated.append(tuple(x.tolist()))
        return phi(x)

    (end,), (lower,), (calls,) = boundary_searches(SystemModel(n, m, m_s, recording), [x0], [threshold])
    spec = single_step_walk(SystemModel(n, m, m_s, phi), x0, threshold)
    assert (tuple(end.tolist()), Side.LOWER if lower else Side.UPPER) == spec
    assert calls == len(evaluated) <= n * (m - 1) + 1
    return evaluated


def test_an_accepted_joint_probe_grants_the_later_components_their_moves():
    # 2-out-of-5 with M = 4 at m' = 1: component 1 is rejected at 2 and
    # settles at 1, and the joint probe (3, 1, 1, 1, 1) is accepted, so
    # components 2-4 take their move to 1 with no call and pay only their
    # rejected move to 2: 10 calls, where single moves take 12
    assert _walked(k_out_of_n(2, 5), 5, 4, 4, (0,) * 5, 1) == [
        (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (3, 0, 0, 0, 0),
        (3, 1, 0, 0, 0), (3, 2, 0, 0, 0),
        (3, 1, 1, 1, 1),
        (3, 1, 2, 0, 0), (3, 1, 1, 2, 0), (3, 1, 1, 1, 2),
    ]


def test_a_component_that_settles_off_the_certificate_voids_it():
    # 3 x0 + x1 + x2 >= 6, M = 4, at m' = 0: component 0 settles at 1, and
    # the joint probe (1, 1, 1), of weight 5, is accepted. Component 1
    # takes its move to 1 free, but its next move is accepted too, so it
    # settles at 2, above the certificate; kept, the certificate would
    # take component 2 to 1 free, into (1, 2, 1) of weight 6, across m'.
    # Void, component 2 is probed to the new level 2 and bisected: 8
    # calls, as before the joint probe, against 7 single moves
    assert _walked(_weighted((3, 1, 1), 6), 3, 4, 2, (0, 0, 0), 0) == [
        (0, 0, 0), (1, 0, 0), (2, 0, 0),
        (1, 1, 1),
        (1, 2, 0), (1, 3, 0),
        (1, 2, 2), (1, 2, 1),
    ]
    # 6 x0 + 3 x1 + 3 x2 + x3 + x4 >= 21, M = 5, at m' = 0: component 0
    # settles at 1, and the joint probe (1, 1, 3, 1, 1), of weight 20, is
    # accepted. Component 2 starts at 3 and settles there, which raises
    # the level to 3 under the certificate. Component 3 takes its move to
    # 1 free; its probe to 3 crosses m', and bisection settles it at 2,
    # above the certificate, which would otherwise take component 4 to 1
    # free, into (1, 1, 3, 2, 1) of weight 21: 10 calls, as single moves
    assert _walked(_weighted((6, 3, 3, 1, 1), 21), 5, 5, 2, (0, 0, 3, 0, 0), 0) == [
        (0, 0, 3, 0, 0), (1, 0, 3, 0, 0), (2, 0, 3, 0, 0),
        (1, 1, 3, 1, 1),
        (1, 2, 3, 0, 0), (1, 1, 4, 0, 0),
        (1, 1, 3, 3, 0), (1, 1, 3, 2, 0),
        (1, 1, 3, 2, 2), (1, 1, 3, 2, 1),
    ]


def test_a_refused_joint_probe_leaves_the_walk_as_it_was():
    # 2 x0 + x1 + x2 >= 3, M = 3, at m' = 0 from (1, 0, 0): component 0 is
    # rejected at 2 and settles at 1, and the joint probe (1, 1, 1) crosses
    # m'. The walk then probes as it would have without it, the single
    # moves' 4 calls and the refused probe's one
    assert _walked(_weighted((2, 1, 1), 3), 3, 3, 2, (1, 0, 0), 0) == [
        (1, 0, 0), (2, 0, 0),
        (1, 1, 1),
        (1, 1, 0), (1, 0, 1),
    ]


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
    n = len(members[0]) if members else len(candidates[0]) if candidates else 0
    assert refs.insert_many(np.array(candidates, dtype=np.int64).reshape(len(candidates), n)) == outcomes
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
    # the candidates' K x N int64 matrix, a byte an entry for their
    # component-major copy and one for the member matrix, and a few
    # comparison blocks, not a K x K x N comparison (1.37 x K x N x 8 bytes
    # measured, 1.92 x when the members were stored as int64)
    assert peak <= k * n * (8 + 2) + 4 * _BLOCK_BYTES, f"{peak / 2**20:.1f} MiB"
    # one byte an entry: states 0 and 1 fit uint8
    assert loaded.as_array().nbytes == len(loaded) * n
    one_at_a_time = ReferenceSet(Side.LOWER, 0)
    for x in members:
        one_at_a_time.insert(x)
    assert loaded.members == one_at_a_time.members
    assert 0 < len(loaded) < k
