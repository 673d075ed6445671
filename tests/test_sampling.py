import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsr import sampling
from rsr.model import ComponentDistribution
from rsr.sampling import sample_batch, sample_rows, uniform_field

MiB = 1 << 20


def test_degenerate_distribution_all_ones():
    dist = ComponentDistribution.iid(4, [0.0, 1.0])
    batch = sample_batch(dist, 50, seed=1)
    assert np.all(batch.states == 1)


def test_degenerate_distribution_all_zeros():
    dist = ComponentDistribution.iid(4, [1.0, 0.0])
    batch = sample_batch(dist, 50, seed=1)
    assert np.all(batch.states == 0)


def test_marginal_frequency_binomial_bound():
    dist = ComponentDistribution.iid(1, [0.1, 0.9])
    batch = sample_batch(dist, 1_000_000, seed=42)
    freq = float(np.mean(batch.states == 0))
    assert abs(freq - 0.1) < 0.001  # ~3 sigma


def test_determinism():
    dist = ComponentDistribution.iid(5, [0.3, 0.3, 0.4])
    a = sample_batch(dist, 1000, seed=9, generation_index=2)
    b = sample_batch(dist, 1000, seed=9, generation_index=2)
    assert np.array_equal(a.states, b.states)


def test_generation_index_changes_batch():
    dist = ComponentDistribution.iid(5, [0.5, 0.5])
    a = sample_batch(dist, 1000, seed=9, generation_index=0)
    b = sample_batch(dist, 1000, seed=9, generation_index=1)
    assert not np.array_equal(a.states, b.states)


def test_chunked_generation_matches_full():
    dist = ComponentDistribution.iid(3, [0.2, 0.5, 0.3])
    full = sample_batch(dist, 100, seed=4, generation_index=1)
    part = sample_batch(dist, 40, seed=4, generation_index=1, start=37)
    assert np.array_equal(full.states[37:77], part.states)


@pytest.mark.parametrize("m", [2, 6, 256, 257])
def test_states_are_the_narrowest_dtype_that_holds_m_minus_1(m):
    dist = ComponentDistribution.iid(3, np.full(m, 1.0 / m))
    states = sample_batch(dist, 2000, seed=5).states
    assert states.dtype == np.min_scalar_type(m - 1) == (np.uint8 if m <= 256 else np.uint16)
    assert sample_rows(dist, 5, 0, [3, 1999]).dtype == states.dtype
    # the top state is drawn, so at M = 257 a value above 255 is too
    assert states.max() == m - 1
    expected = np.searchsorted(np.cumsum(dist.probs[0]), uniform_field(5, 0, 0, 2000, 3), side="right")
    assert np.array_equal(states, np.minimum(expected, m - 1))


@given(seed=st.integers(0, 2**32), n=st.integers(1, 9), m=st.integers(1, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_sample_rows_match_full_batch(seed, n, m, data):
    dist = ComponentDistribution.iid(n, np.full(m, 1.0 / m))
    full = sample_batch(dist, 60, seed, generation_index=3).states
    indices = data.draw(st.lists(st.integers(0, 59), max_size=8))
    rows = sample_rows(dist, seed, 3, indices)
    assert rows.dtype == full.dtype == np.min_scalar_type(m - 1)
    assert np.array_equal(rows, full[indices].reshape(len(indices), n))


@pytest.mark.parametrize("n", [1, 3, 115])
@pytest.mark.parametrize("m", [1, 2, 257])
def test_sample_rows_walk_skips_and_advances_to_every_row(n, m):
    # the rows' gaps, in draws, on both sides of the cut between drawing a
    # gap and advancing over it, plus one far past it
    below, above = sampling._ADVANCE_DRAWS // n, sampling._ADVANCE_DRAWS // n + 1
    assert below * n <= sampling._ADVANCE_DRAWS < above * n
    rows = [0, 1, 2, 3]  # adjacent rows; at N = 1 one 4-draw Philox block, at N = 3 rows 0 and 1 share one
    for gap in (below, above, 3 * above, below):
        rows.append(rows[-1] + 1 + gap)
    h = rows[-1] + 7
    rows.append(h - 1)
    rng = np.random.default_rng(n * m)
    dist = ComponentDistribution.iid(n, rng.dirichlet(np.ones(m)))
    full = sample_batch(dist, h, seed=11, generation_index=5).states
    # unsorted, and every third row asked for twice
    indices = rng.permutation(rows + rows[::3])
    states = sample_rows(dist, 11, 5, indices)
    assert states.dtype == full.dtype
    assert np.array_equal(states, full[indices])


@given(
    seed=st.integers(0, 2**32),
    gen=st.integers(0, 100),
    start=st.integers(0, 50),
    count=st.integers(1, 30),
    n=st.integers(1, 9),
)
@settings(max_examples=50, deadline=None)
def test_uniform_field_slice_property(seed, gen, start, count, n):
    full = uniform_field(seed, gen, 0, start + count, n)
    part = uniform_field(seed, gen, start, count, n)
    assert np.array_equal(full[start:], part)


def test_rejects_zero_samples():
    dist = ComponentDistribution.iid(2, [0.5, 0.5])
    with pytest.raises(ValueError):
        sample_batch(dist, 0, seed=1)


def test_known_stream_frozen():
    # regression pin: the stream layout is part of the stable contract
    u = uniform_field(123, 0, 0, 2, 3)
    again = uniform_field(123, 0, 0, 2, 3)
    assert np.array_equal(u, again)
    assert u.shape == (2, 3)
    assert np.all((u >= 0) & (u < 1))
    # literal values, so a changed Philox key, flat index or float
    # conversion fails here; floats print and parse back bit-exactly
    assert u.tolist() == [
        [0.5170052385149787, 0.18380038030745394, 0.2128372644551676],
        [0.20996920348350878, 0.3628162495103908, 0.10630955649437224],
    ]
    binary = ComponentDistribution.iid(4, [0.3, 0.7])
    assert sample_batch(binary, 3, seed=123, generation_index=2, start=5).states.tolist() == [
        [1, 1, 0, 1],
        [1, 1, 0, 0],
        [1, 1, 0, 1],
    ]
    # a row of its own per component, so a component swap shows too
    five = ComponentDistribution(
        np.array([[0.4, 0.3, 0.15, 0.1, 0.05], [0.2, 0.2, 0.2, 0.2, 0.2], [0.05, 0.1, 0.15, 0.3, 0.4]])
    )
    assert sample_batch(five, 4, seed=123, generation_index=1, start=1001).states.tolist() == [
        [0, 4, 2],
        [0, 2, 2],
        [2, 3, 4],
        [2, 1, 3],
    ]
    # scattered rows, one repeated and one far enough to advance the counter
    assert sample_rows(five, 123, 7, [0, 9, 1000, 250_000, 9]).tolist() == [
        [0, 4, 4],
        [3, 1, 1],
        [0, 0, 0],
        [1, 1, 3],
        [3, 1, 1],
    ]


@given(seed=st.integers(0, 2**32), n=st.integers(1, 5), m=st.integers(2, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_cdf_matches_searchsorted(seed, n, m, data):
    h = 40
    u = uniform_field(seed, 0, 0, h, n)
    rows = []
    for comp in range(n):
        # CDF cut points taken from the draws themselves, so draws land
        # exactly on a boundary; draws are multiples of 2**-53, so the
        # cumsum of the row gives the cuts back exactly. Repeated cuts, 0
        # and 1 give zero-probability states.
        column = [float(v) for v in u[:, comp]]
        cut = st.one_of(st.sampled_from((0.0, 1.0)), st.sampled_from(column))
        cuts = [data.draw(st.sampled_from(column))] + data.draw(
            st.lists(cut, min_size=m - 2, max_size=m - 2)
        )
        rows.append(np.diff([0.0, *sorted(cuts), 1.0]))
    dist = ComponentDistribution(np.array(rows))
    cum = np.cumsum(dist.probs, axis=1)
    assert all(np.isin(cum[comp], u[:, comp]).any() for comp in range(n))

    # reference: the per-component searchsorted this sampler replaced
    expected = np.empty((h, n), dtype=np.int64)
    for comp in range(n):
        expected[:, comp] = np.searchsorted(cum[comp], u[:, comp], side="right")
    np.clip(expected, 0, m - 1, out=expected)
    states = sample_batch(dist, h, seed).states
    assert states.dtype == np.min_scalar_type(m - 1)
    assert np.array_equal(states, expected)


def test_one_chunk_holds_its_states_plus_one_draw_block():
    # a streamed chunk at N = 115 is 9118 rows, 8.4 MB of raw draws; they
    # come a 1 MiB block at a time, so the states and one block coexist
    dist = ComponentDistribution.iid(115, [0.05, 0.95])
    tracemalloc.start()
    try:
        states = sample_batch(dist, 9118, seed=1).states
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.nbytes == 9118 * 115
    assert peak <= states.nbytes + 2 * MiB


@pytest.mark.parametrize("m", [2, 5, 257])
def test_slices_across_draw_blocks_match_one_whole_batch_draw(monkeypatch, m):
    n = 115
    dist = ComponentDistribution.iid(n, np.random.default_rng(m).dirichlet(np.ones(m)))
    block = sampling._DRAW_BYTES // (8 * n)
    total = 4 * block + 7
    expected = np.searchsorted(np.cumsum(dist.probs[0]), uniform_field(6, 2, 0, total, n), side="right")
    np.minimum(expected, m - 1, out=expected)
    with monkeypatch.context() as patch:
        # a block as large as the batch: all of its raw output in one draw
        patch.setattr(sampling, "_DRAW_BYTES", 8 * n * total)
        whole = sample_batch(dist, total, seed=6, generation_index=2).states
    assert np.array_equal(whole, expected)
    # row 1 starts at flat index 115, three past a Philox block of four
    for start, count in [(0, total), (1, 3 * block + 5), (block - 3, 2 * block + 10), (2 * block + 1, block + 6)]:
        part = sample_batch(dist, count, seed=6, generation_index=2, start=start).states
        assert part.dtype == whole.dtype == np.min_scalar_type(m - 1)
        assert np.array_equal(part, whole[start : start + count])


@pytest.mark.parametrize("n", [3, 115])
def test_sample_rows_fill_across_draw_blocks(monkeypatch, n):
    # blocks of five rows: dense, sparse and repeated rows span many runs and
    # buffer fills, and still give the rows of one whole-batch draw
    dist = ComponentDistribution.iid(n, [0.2, 0.3, 0.5])
    full = sample_batch(dist, 400, seed=4, generation_index=1).states
    monkeypatch.setattr(sampling, "_DRAW_BYTES", 8 * n * 5)
    rng = np.random.default_rng(n)
    dense, sparse, repeated = np.arange(400), np.arange(3, 400, 7), rng.integers(0, 400, size=300)
    for indices in (dense, sparse, repeated, np.array([399, 0, 5, 6, 7, 200])):
        assert np.array_equal(sample_rows(dist, 4, 1, indices), full[indices])


def test_sample_rows_holds_its_states_plus_two_draw_blocks():
    # N = 115: a gap-free run of five draw blocks goes through the one
    # buffer as scattered rows do, so with or without it the call holds
    # the distinct rows' states, their gather into the output and two
    # blocks (the buffer and one run's draws). Slack: the index bookkeeping
    # (np.unique's rows and inverse, each row's run and place in it, and
    # the run plan as Python lists) measured 104 bytes an index on the
    # mixed input; 128 are allowed
    n = 115
    dist = ComponentDistribution.iid(n, [0.05, 0.95])
    block = sampling._DRAW_BYTES // (8 * n)
    rng = np.random.default_rng(0)
    run = np.arange(3 * block + 1, 8 * block + 1)
    scattered = rng.choice(10**6, 2 * block, replace=False) + 10 * block
    mixed = rng.permutation(np.r_[scattered[:block], run, scattered[:300], run[::97]])
    for indices in (mixed, scattered):
        tracemalloc.start()
        try:
            states = sample_rows(dist, 1, 0, indices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = len(np.unique(indices)) * n
        assert peak <= states.nbytes + distinct + 2 * sampling._DRAW_BYTES + 128 * len(indices)
    where = np.flatnonzero(np.isin(mixed, run))
    expected = sample_batch(dist, len(run), seed=1, start=int(run[0])).states
    assert np.array_equal(sample_rows(dist, 1, 0, mixed)[where], expected[mixed[where] - run[0]])


def test_binary_states_are_one_exact_compare():
    # at M = 2 a state is the one compare raw >= cut << 11, and the columns
    # whose cut is 2**53 (P(state 0) = 1) are forced to 0. P(state 0) of 0
    # and 1, one 2**-53 from either end, a few in between, random ones and
    # ones taken from the draws themselves, so some draws land exactly on a
    # cut; 2 * 8192 + 5 rows at N = 16 cross two draw blocks
    n, h = 16, 2 * 8192 + 5
    u = uniform_field(11, 3, 0, h, n)
    rng = np.random.default_rng(11)
    p0 = np.r_[[0.0, 2.0**-53, 0.05, 0.5, 1.0 - 2.0**-53, 1.0], rng.random(6), u[rng.integers(0, h, 4), np.arange(12, n)]]
    dist = ComponentDistribution(np.column_stack([p0, 1.0 - p0]))
    cum = np.cumsum(dist.probs, axis=1)
    expected = np.empty((h, n), dtype=np.int64)
    for comp in range(n):
        expected[:, comp] = np.searchsorted(cum[comp], u[:, comp], side="right")
    np.minimum(expected, 1, out=expected)
    assert (expected[:, 12:] == 0).any() and (expected[:, 12:] == 1).any()
    states = sample_batch(dist, h, seed=11, generation_index=3).states
    assert states.dtype == np.uint8
    assert np.array_equal(states, expected)
    assert not states[:, 5].any() and states[:, 0].all()
    part = sample_batch(dist, 8192 + 3, seed=11, generation_index=3, start=8191).states
    assert np.array_equal(part, expected[8191 : 2 * 8192 + 2])
    indices = np.r_[rng.integers(0, h, 200), np.arange(100, 700)]
    assert np.array_equal(sample_rows(dist, 11, 3, indices), expected[indices])
    # raw draws on each shifted cut, one below it and at both ends: u is
    # (raw >> 11) * 2**-53, the float route the compare stands for
    shifted = sampling._cuts(dist)[0] << np.uint64(11)
    raw = np.stack([shifted, shifted - np.uint64(1), np.zeros(n, np.uint64), np.full(n, 2**64 - 1, np.uint64)])
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    edge = np.minimum([np.searchsorted(cum[comp], u[:, comp], side="right") for comp in range(n)], 1).T
    out = np.empty(raw.shape, dtype=np.uint8)
    sampling._states(sampling._cuts(dist), raw, out)
    assert np.array_equal(out, edge)
