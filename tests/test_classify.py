import importlib
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HITS_CHUNK_ROWS, _hits_for, dominance_hits

from rsr.boundary import ReferenceSet, Side
from rsr.classify import (
    _BLOCK_BYTES,
    InconsistentReferenceSets,
    _levels_apart,
    _pack_references,
    classify,
    cov,
    verdicts,
)
from rsr.encoding import encode_batch
from rsr.model import ComponentDistribution
from rsr.oracle import dominates, one_hot, one_hot_violations
from rsr.sampling import SampleBatch, sample_batch

# rsr/__init__ rebinds the name ``rsr.classify`` to the function
classify_module = importlib.import_module("rsr.classify")


def _pair_hits(samples, refs, side, m):
    """H x R matrix of the thermometer kernel's verdict on each sample and reference, one reference a call."""
    encoded = encode_batch(np.atleast_2d(samples), m)
    refs = np.atleast_2d(refs)
    columns = [_hits_for(encoded, refs[j : j + 1], side) for j in range(len(refs))]
    return np.stack(columns, axis=1)


def test_worked_violation_entries():
    # the paper's violation counts, and the kernel's verdicts on the same pairs
    def violations(x, r, side):
        return one_hot_violations(one_hot(x, 5, "sample"), one_hot(r, 5, side))

    # sample (4,4) dominates upper ref (1,4): zero violations
    assert violations((4, 4), (1, 4), Side.UPPER) == 0
    # sample (3,0) vs lower ref (1,2): one violating position
    assert violations((3, 0), (1, 2), Side.LOWER) == 1
    # self dominance
    assert violations((2, 3), (2, 3), Side.LOWER) == 0
    assert violations((2, 3), (2, 3), Side.UPPER) == 0
    assert _pair_hits([4, 4], [1, 4], Side.UPPER, 5)[0, 0]
    assert not _pair_hits([3, 0], [1, 2], Side.LOWER, 5)[0, 0]
    assert _pair_hits([2, 3], [2, 3], Side.LOWER, 5)[0, 0]
    assert _pair_hits([2, 3], [2, 3], Side.UPPER, 5)[0, 0]


@given(st.integers(0, 2**31), st.integers(1, 8), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_dominance_equivalence_property(seed, n, m):
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, m, size=(20, n))
    refs = rng.integers(0, m, size=(6, n))
    for side in (Side.LOWER, Side.UPPER):
        hits = _pair_hits(samples, refs, side, m)
        for i, x in enumerate(samples.tolist()):
            for j, r in enumerate(refs.tolist()):
                inside = one_hot_violations(one_hot(x, m, "sample"), one_hot(r, m, side)) == 0
                assert inside == (dominates(x, r) if side == Side.LOWER else dominates(r, x))
                assert hits[i, j] == inside


# rows of N(M-1) = 0, 42, 32, 52, 64 and 86 bits, then of 1, 63, 64, 65, 128
# and 129: the last six pad a row at every position around a 64-bit word edge
@pytest.mark.parametrize(
    "n, m",
    [(1, 1), (21, 3), (32, 2), (13, 5), (64, 2), (43, 3), (1, 2), (21, 4), (32, 3), (13, 6), (64, 3), (43, 4)],
)
def test_word_hits_match_unpacked_counts(n, m):
    rng = np.random.default_rng(n * m)
    h = 60
    states = rng.integers(0, m, size=(h, n))
    # refs near samples, a few components moved by one, so hits and misses mix
    refs = states[rng.integers(0, h, size=12)] + rng.integers(-1, 2, size=(12, n)) * (
        rng.random((12, n)) < 0.1
    )
    refs = np.clip(refs, 0, m - 1)
    samples = encode_batch(states, m)
    for side in (Side.LOWER, Side.UPPER):
        expected = dominance_hits(states, refs, side)
        for chunk in (1, 7, h):
            for workers in (1, 4):
                assert np.array_equal(_hits_for(samples, refs, side, chunk, workers), expected)


@pytest.mark.parametrize("n, m", [(64, 2), (70, 2), (32, 3), (33, 3), (16, 5), (17, 5), (1, 257), (3, 257)])
def test_thermometer_verdicts_match_one_hot_hits(n, m):
    # verdicts packs N(M-1) thermometer bits a row: 64 or 128 bits exactly, or
    # a partial last word (at M = 257 a row is always whole words)
    rng = np.random.default_rng(n * m)
    h = 300
    refs = rng.integers(0, m, size=(12, n))
    # samples near refs, a few components moved by one, so hits and misses mix
    states = refs[rng.integers(0, 12, size=h)] + rng.integers(-1, 2, size=(h, n)) * (rng.random((h, n)) < 2 / n)
    states = np.clip(states, 0, m - 1).astype(np.min_scalar_type(m - 1))
    for j, side in enumerate((Side.LOWER, Side.UPPER)):
        ref_set = ReferenceSet(side, 0, refs.tolist())
        sets = [(0, ref_set, None)] if side == Side.LOWER else [(0, None, ref_set)]
        expected = dominance_hits(states, refs, side)
        assert 0 < expected.sum() < h
        chunks = verdicts(lambda start, stop: states[start:stop], h, 97, sets, (n, m, 2), 1)
        # hits[0] is the one set's (lower, upper) pair of masks
        assert np.array_equal(np.concatenate([hits[0][j] for *_, hits in chunks]), expected)


def _sum_cut_sets(rng, n, m, n_refs):
    """Sets at m' = 0, 1, 2 that no sample can cross: a reference is upper at
    m' exactly when its state sum reaches cut[m'], and the cuts increase, so no
    u <= l within a set and no upper u at m' under a lower l at a smaller m'."""
    top = n * (m - 1)
    cuts = [top // 4, top // 2, 3 * top // 4]
    sets = []
    for t, cut in enumerate(cuts):
        # a spread of state sums: each reference draws its states around its own level
        refs = rng.binomial(m - 1, rng.random((8 * n_refs, 1)), size=(8 * n_refs, n))
        low = [r for r in refs.tolist() if sum(r) < cut][:n_refs]
        up = [r for r in refs.tolist() if sum(r) >= cut][:n_refs]
        sets.append((t, ReferenceSet(Side.LOWER, t, low), ReferenceSet(Side.UPPER, t, up)))
    return sets


@pytest.mark.parametrize("n, m", [(12, 5), (70, 2), (33, 3)])
def test_early_exit_kernel_matches_full_hits(monkeypatch, n, m):
    # blocks of one or two references on chunks of 97 rows: many blocks, and
    # rows decided early, so the kernel regathers its open rows and the upper
    # passes skip rows their lower pass hit
    rng = np.random.default_rng(n * m)
    sets = _sum_cut_sets(rng, n, m, 24)
    # each row a little under a random lower reference or over an upper one
    refs = [(r, -1) for _, low, _ in sets for r in low.as_array()] + [(r, 1) for *_, up in sets for r in up.as_array()]
    states = np.array([r + step * (rng.random(n) < 0.1) for r, step in (refs[i] for i in rng.integers(0, len(refs), 600))])
    states = np.clip(states, 0, m - 1).astype(np.uint8)
    expected = [
        (dominance_hits(states, low.as_array(), Side.LOWER), dominance_hits(states, up.as_array(), Side.UPPER))
        for _, low, up in sets
    ]
    assert all(0 < mask.sum() < len(states) for pair in expected for mask in pair)
    monkeypatch.setattr(importlib.import_module("rsr.classify"), "_BLOCK_BYTES", 97 * 16 * 2)
    chunks = list(verdicts(lambda start, stop: states[start:stop], len(states), 97, sets, (n, m, 4), 1))
    for j, (want_low, want_up) in enumerate(expected):
        assert np.array_equal(np.concatenate([hits[j][0] for *_, hits in chunks]), want_low)
        assert np.array_equal(np.concatenate([hits[j][1] for *_, hits in chunks]), want_up)


@pytest.mark.parametrize("workers", [1, 3])
def test_crossing_sets_raise_on_the_first_crossed_sample(monkeypatch, workers):
    # one upper reference lies under a lower one (u <= l). At one threshold
    # the upper pass must test the rows the lower pass hit; with the lower
    # set at m' = 0 and the upper at m' = 1 they say S <= 0 and S >= 2. Either
    # way the first row between them raises, whatever the number of workers
    rng = np.random.default_rng(8)
    n, m = 6, 3
    states = rng.integers(0, m, size=(500, n)).astype(np.uint8)
    lows = [(2, 2, 2, 1, 1, 0), (1, 0, 2, 2, 1, 1)]
    ups = [(2, 2, 2, 2, 2, 2), (1, 1, 1, 0, 0, 0)]
    both = dominance_hits(states, np.array(lows), Side.LOWER) & dominance_hits(states, np.array(ups), Side.UPPER)
    first = int(np.flatnonzero(both)[0])
    assert first > 0
    monkeypatch.setattr(importlib.import_module("rsr.classify"), "_BLOCK_BYTES", 64)
    for t_low, t_up in ((0, 0), (0, 1)):
        lower, upper = ReferenceSet(Side.LOWER, t_low, lows), ReferenceSet(Side.UPPER, t_up, ups)
        sets = [(0, lower, upper)] if t_low == t_up else [(t_low, lower, None), (t_up, None, upper)]
        message = str(InconsistentReferenceSets.on_bracket(sets, first, states[first], t_up + 1, t_low))
        with pytest.raises(InconsistentReferenceSets, match=re.escape(message)):
            for _ in verdicts(lambda start, stop: states[start:stop], len(states), 50, sets, (n, m, t_up + 2), workers):
                pass


@pytest.mark.parametrize("workers", [1, 3])
def test_crossed_row_is_named_by_its_sample_index(workers):
    # a source of scattered rows, every third sample, names a crossed row by
    # the sample it was drawn from, not by its place among the rows
    rng = np.random.default_rng(8)
    n, m = 6, 3
    states = rng.integers(0, m, size=(300, n)).astype(np.uint8)
    lower = ReferenceSet(Side.LOWER, 0, [(2, 2, 2, 1, 1, 0), (1, 0, 2, 2, 1, 1)])
    upper = ReferenceSet(Side.UPPER, 0, [(2, 2, 2, 2, 2, 2), (1, 1, 1, 0, 0, 0)])
    sets = [(0, lower, upper)]
    index = np.arange(1, len(states), 3)
    rows = states[index]
    both = dominance_hits(rows, lower.as_array(), Side.LOWER) & dominance_hits(rows, upper.as_array(), Side.UPPER)
    place = int(np.flatnonzero(both)[0])
    sample = int(index[place])
    assert place >= 5  # past the first chunk of 5 rows
    message = str(InconsistentReferenceSets.on_bracket(sets, sample, states[sample], 1, 0))
    with pytest.raises(InconsistentReferenceSets, match=re.escape(message)):
        for _ in verdicts(lambda start, stop: rows[start:stop], len(index), 5, sets, (n, m, 2), workers, index):
            pass


def test_set_kernel_check_runs_once_a_pass_before_the_first_chunk(monkeypatch):
    # sets whose level counts do not separate, as on the RGG workloads, so
    # only the kernel rules out u <= l: it tests each set pair once a pass,
    # with the lower references as the samples, before any chunk is drawn
    # S = max(min(x0, x1), min(x2, x3)) with M = 3: S <= t when each path has
    # a component at t or under, S > t when one path has both above t
    n, m = 4, 3
    sets = [
        (
            t,
            ReferenceSet(Side.LOWER, t, [(t, 2, t, 2), (t, 2, 2, t), (2, t, t, 2), (2, t, 2, t)]),
            ReferenceSet(Side.UPPER, t, [(t + 1, t + 1, 0, 0), (0, 0, t + 1, t + 1)]),
        )
        for t in (0, 1)
    ]
    assert not any(_levels_apart(low.as_array(), up.as_array(), m) for _, low, up in sets)
    lower_rows = [np.ascontiguousarray(_pack_references(low, Side.LOWER, n, m).T) for _, low, _ in sets]
    states = np.random.default_rng(5).integers(0, m, size=(300, n))
    module = importlib.import_module("rsr.classify")
    kernel, events = module.word_hits, []

    def spy(sample_words, *args):
        checked = [j for j, rows in enumerate(lower_rows) if np.array_equal(sample_words, rows)]
        events.append(("check", *checked) if checked else "chunk")
        return kernel(sample_words, *args)

    def rows(start, stop):
        events.append("rows")
        return states[start:stop]

    monkeypatch.setattr(module, "word_hits", spy)
    for workers in (1, 3):
        events.clear()
        for _ in verdicts(rows, len(states), 50, sets, (n, m, 3), workers):
            pass
        checks = [("check", j) for j in range(len(sets))]
        assert events[: len(sets)] == checks
        assert [e for e in events if e[0] == "check"] == checks
        assert events.count("rows") == 6 and "chunk" in events


def test_verdicts_encode_each_chunk_once_for_all_sets(monkeypatch):
    # each non-empty reference set is encoded once, in set order, before the
    # first chunk is drawn; then each chunk is encoded once for every set
    n, m = 4, 3
    # S = max(min(x0, x1), min(x2, x3)), as above
    sets = [
        (0, ReferenceSet(Side.LOWER, 0, [(0, 2, 0, 2), (0, 2, 2, 0), (2, 0, 0, 2)]), ReferenceSet(Side.UPPER, 0)),
        (1, ReferenceSet(Side.LOWER, 1, [(1, 2, 1, 2), (2, 1, 2, 1)]), ReferenceSet(Side.UPPER, 1, [(2, 2, 0, 0)])),
    ]
    states = np.random.default_rng(5).integers(0, m, size=(310, n))
    encoded = []

    def counting_encode(states, n_states):
        encoded.append(len(states))
        return encode_batch(states, n_states)

    monkeypatch.setattr(importlib.import_module("rsr.classify"), "encode_batch", counting_encode)
    for workers in (1, 3):
        encoded.clear()
        chunks = list(verdicts(lambda start, stop: states[start:stop], len(states), 50, sets, (n, m, 3), workers))
        assert encoded[:3] == [3, 2, 1]
        assert sorted(encoded[3:]) == [10] + [50] * 6 == sorted(len(c[1]) for c in chunks)


@pytest.mark.parametrize("n_workers", [0, -1])
def test_classify_rejects_workers_below_one(n_workers):
    # unchecked, a worker count below 1 silently runs one thread
    batch = SampleBatch(states=np.zeros((5, 2), dtype=np.int64))
    lower = ReferenceSet(Side.LOWER, 0, [(1, 1)])
    with pytest.raises(ValueError, match=re.escape(f"n_workers must be >= 1, got {n_workers}")):
        classify(batch, lower, None, n_workers=n_workers, n_states=2)


@pytest.mark.parametrize("n_refs", [49, 196])
def test_hit_kernel_memory_bounded_in_ref_count(n_refs):
    # the kernel's temporaries stay under _BLOCK_BYTES whatever the ref
    # count; the rest is per chunk: one word-major copy of the chunk's rows
    # plus per-sample masks
    rng = np.random.default_rng(3)
    samples = encode_batch(rng.integers(0, 2, size=(65536, 262), dtype=np.int8), 2)
    row_bytes = samples.packed.shape[1] * samples.packed.itemsize
    refs = rng.integers(0, 2, size=(n_refs, 262))
    tracemalloc.start()
    try:
        _hits_for(samples, refs, Side.LOWER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _BLOCK_BYTES + HITS_CHUNK_ROWS * (row_bytes + 16)


def test_chunk_invariance(monkeypatch):
    rng = np.random.default_rng(11)
    dist = ComponentDistribution.iid(6, [0.3, 0.3, 0.4])
    batch = sample_batch(dist, 101, seed=5)
    lower = ReferenceSet(Side.LOWER, 0, [(1, 0, 2, 0, 1, 0)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1, 1, 1, 1, 1), (2, 0, 0, 2, 0, 0)])
    h = batch.n_samples
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * h)  # the whole batch in one chunk
    baseline = classify(batch, lower, upper, n_states=3)
    for chunk in (1, 7, h + 13):
        monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * chunk)
        res = classify(batch, lower, upper, n_states=3)
        assert np.array_equal(res.lower_indices, baseline.lower_indices)
        assert np.array_equal(res.upper_indices, baseline.upper_indices)
        assert np.array_equal(res.unclassified_indices, baseline.unclassified_indices)


def test_worker_invariance(monkeypatch):
    dist = ComponentDistribution.iid(5, [0.2, 0.8])
    batch = sample_batch(dist, 500, seed=8)
    lower = ReferenceSet(Side.LOWER, 0, [(0, 1, 1, 0, 1)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1, 0, 1, 1)])
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 5 * 64)  # 64 rows a chunk
    a = classify(batch, lower, upper, n_workers=1, n_states=2)
    b = classify(batch, lower, upper, n_workers=4, n_states=2)
    assert np.array_equal(a.lower_indices, b.lower_indices)
    assert np.array_equal(a.upper_indices, b.upper_indices)


def test_classification_counts_example():
    # partition (3, 4, 3) over H=10 must give (0.3, 0.4, 0.3) exactly
    states = np.array(
        [[0, 0]] * 3  # below the lower reference
        + [[4, 4]] * 4  # above an upper reference
        + [[2, 2]] * 3  # unclassified
    )
    batch = SampleBatch(states=states)
    lower = ReferenceSet(Side.LOWER, 0, [(1, 2)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 4), (4, 0)])
    res = classify(batch, lower, upper, n_states=5)
    assert (res.lower_indices.size, res.upper_indices.size, res.unclassified_indices.size) == (3, 4, 3)
    assert res.p_lower == 0.3
    assert res.p_upper == 0.4
    assert res.p_unclassified == 0.3


def test_empty_sets_all_unclassified():
    dist = ComponentDistribution.iid(3, [0.5, 0.5])
    batch = sample_batch(dist, 20, seed=2)
    res = classify(batch, None, None, n_states=2)
    assert res.p_unclassified == 1.0
    assert res.lower_indices.size == 0


def test_universal_lower_reference():
    dist = ComponentDistribution.iid(3, [0.5, 0.5])
    batch = sample_batch(dist, 20, seed=2)
    lower = ReferenceSet(Side.LOWER, 0, [(1, 1, 1)])
    res = classify(batch, lower, None, n_states=2)
    assert res.p_lower == 1.0


def test_threshold_mismatch_rejected():
    dist = ComponentDistribution.iid(2, [0.5, 0.5])
    batch = sample_batch(dist, 5, seed=1)
    lower = ReferenceSet(Side.LOWER, 0, [(0, 0)])
    upper = ReferenceSet(Side.UPPER, 1, [(1, 1)])
    with pytest.raises(ValueError):
        classify(batch, lower, upper, n_states=2)


def test_reference_width_must_match_samples():
    # 115 x 2 and 113 x 2 bits both pack into 29 bytes, so nothing else catches it
    batch = SampleBatch(states=np.ones((4, 115), dtype=np.int64))
    lower = ReferenceSet(Side.LOWER, 0, [(1,) * 113])
    with pytest.raises(ValueError, match="113 components, samples have 115"):
        classify(batch, lower, None, n_states=2)


def test_lower_precedence_and_strict_mode():
    # deliberately inconsistent sets so one sample matches both sides:
    # no side takes precedence, the overlap always raises
    states = np.array([[1, 1]])
    batch = SampleBatch(states=states)
    lower = ReferenceSet(Side.LOWER, 0, [(1, 1)])
    upper = ReferenceSet(Side.UPPER, 0, [(1, 1)])
    with pytest.raises(InconsistentReferenceSets) as exc:
        classify(batch, lower, upper, n_states=2)
    message = str(exc.value)
    assert "sample 0 (1, 1)" in message
    assert "lower reference (1, 1)" in message
    assert "upper reference (1, 1)" in message


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_partition_of_unity_and_monotone_coverage(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(2, 4))
    dist = ComponentDistribution.iid(n, np.full(m, 1.0 / m))
    batch = sample_batch(dist, 64, seed=seed & 0xFFFF)
    lower = ReferenceSet(Side.LOWER, 0)
    upper = ReferenceSet(Side.UPPER, 0)
    # a reference is upper iff its state sum is at least s0: a sample under
    # lower l and over upper u would give s0 <= sum(u) <= sum(l) < s0
    s0 = int(rng.integers(0, n * (m - 1) + 2))
    covered_before = 0
    for _ in range(4):
        res = classify(batch, lower, upper, n_states=m)
        total = (
            res.lower_indices.size + res.upper_indices.size + res.unclassified_indices.size
        )
        assert total == batch.n_samples
        assert (
            Fraction(res.lower_indices.size, total)
            + Fraction(res.upper_indices.size, total)
            + Fraction(res.unclassified_indices.size, total)
            == 1
        )
        covered = res.lower_indices.size + res.upper_indices.size
        assert covered >= covered_before  # adding references never loses coverage
        covered_before = covered
        # grow one of the sets with a random reference
        vec = tuple(int(v) for v in rng.integers(0, m, size=n))
        side = Side.UPPER if sum(vec) >= s0 else Side.LOWER
        target = lower if side == Side.LOWER else upper
        target.insert(vec)


def test_cov_values():
    assert cov(1.0, 100) == 0.0
    assert cov(0.5, 100) == pytest.approx(0.1)
    assert cov(0.01, 1_000_000) == pytest.approx(0.0099498743710662, rel=1e-12)
    assert cov(0.0, 100) is None
    with pytest.raises(ValueError):
        cov(1.5, 100)
    with pytest.raises(ValueError):
        cov(0.5, 0)


def test_classify_memory_per_sample_bounded():
    # classify() streams its batch a chunk at a time: what grows with H is
    # a one-byte verdict per sample and the index arrays it returns, not an
    # encoding of the whole batch
    rng = np.random.default_rng(5)
    states = rng.integers(0, 2, size=(400_000, 262), dtype=np.int8)
    lower = ReferenceSet(Side.LOWER, 0, rng.integers(0, 2, size=(49, 262)).tolist())
    assert len(lower) == 49
    peaks = {}
    for h in (100_000, 400_000):
        batch = SampleBatch(states=states[:h])
        tracemalloc.start()
        try:
            res = classify(batch, lower, None, n_states=2)
            _, peaks[h] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.lower_indices.size + res.unclassified_indices.size == h
    per_sample = (peaks[400_000] - peaks[100_000]) / 300_000
    assert per_sample <= 24, f"{per_sample:.1f} bytes per extra sample"


@pytest.mark.parametrize("m_prime", [-1, 0, 3])
def test_classify_verdicts_do_not_depend_on_threshold(m_prime, monkeypatch):
    # the sets' m' only labels them; the index sets come from dominance alone
    batch = SampleBatch(states=np.array([[0, 0], [1, 1], [0, 1]]))
    res = classify(batch, ReferenceSet(Side.LOWER, m_prime, [(0, 0)]), None, n_states=2)
    assert res.lower_indices.tolist() == [0]
    assert res.upper_indices.tolist() == []
    assert res.unclassified_indices.tolist() == [1, 2]

    dist = ComponentDistribution.iid(6, [0.3, 0.3, 0.4])
    batch = sample_batch(dist, 301, seed=4)
    lower_refs, upper_refs = [(1, 0, 2, 0, 1, 0)], [(1, 1, 1, 1, 1, 1), (2, 0, 0, 2, 0, 0)]
    base = classify(
        batch, ReferenceSet(Side.LOWER, 0, lower_refs), ReferenceSet(Side.UPPER, 0, upper_refs), n_states=3
    )
    monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * 37)  # 37 rows a chunk
    res = classify(
        batch,
        ReferenceSet(Side.LOWER, m_prime, lower_refs),
        ReferenceSet(Side.UPPER, m_prime, upper_refs),
        n_states=3,
    )
    for got, want in zip(
        (res.lower_indices, res.upper_indices, res.unclassified_indices),
        (base.lower_indices, base.upper_indices, base.unclassified_indices),
    ):
        assert np.array_equal(got, want)
    assert base.lower_indices.size and base.upper_indices.size and base.unclassified_indices.size

    # an overlap is reported with the sets' own m'
    one = SampleBatch(states=np.array([[0, 0], [1, 1]]))
    with pytest.raises(InconsistentReferenceSets) as exc:
        classify(
            one,
            ReferenceSet(Side.LOWER, m_prime, [(1, 1)]),
            ReferenceSet(Side.UPPER, m_prime, [(1, 1)]),
            n_states=2,
        )
    message = str(exc.value)
    assert "sample 1 (1, 1)" in message
    assert f"says S <= {m_prime}," in message
    assert f"says S >= {m_prime + 1};" in message


def test_classify_empty_batch():
    batch = SampleBatch(states=np.zeros((0, 3), dtype=np.int64))
    res = classify(batch, ReferenceSet(Side.LOWER, 0, [(1, 1, 1)]), None, n_states=2)
    assert (res.lower_indices.size, res.upper_indices.size, res.unclassified_indices.size) == (0, 0, 0)


@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_level_count_certificate_never_fires_on_crossing_sets(seed, n, m):
    rng = np.random.default_rng(seed)
    lower = rng.integers(0, m, size=(int(rng.integers(1, 6)), n))
    upper = rng.integers(0, m, size=(int(rng.integers(1, 6)), n))
    if rng.random() < 0.5:  # plant some u <= l
        upper[0] = rng.integers(0, lower[0] + 1)
    if _levels_apart(lower, upper, m):
        assert not any(dominates(u, l) for l in lower.tolist() for u in upper.tolist())


def _planted_k_out_of_n(n, m, k, threshold):
    """The maximal lower and minimal upper references of k-out-of-n at ``threshold``, in closed form.

    S <= m' exactly when fewer than k components exceed m': a maximal lower
    state sets k - 1 components to M-1 and the rest to m', a minimal upper
    one sets k components to m'+1 and the rest to 0.
    """
    lower, upper = [], []
    for top in itertools.combinations(range(n), k - 1):
        lower.append([m - 1 if i in top else threshold for i in range(n)])
    for top in itertools.combinations(range(n), k):
        upper.append([threshold + 1 if i in top else 0 for i in range(n)])
    return ReferenceSet(Side.LOWER, threshold, lower), ReferenceSet(Side.UPPER, threshold, upper)


@pytest.mark.parametrize("n, m, k, threshold", [(6, 2, 3, 0), (5, 3, 2, 0), (5, 3, 2, 1), (7, 4, 4, 2)])
def test_level_counts_spare_the_kernel_check_on_k_out_of_n(monkeypatch, n, m, k, threshold):
    # k-out-of-n's upper refs exceed m' in k components, its lower refs in
    # k - 1, so the cut at m' rules out u <= l without the kernel
    lower, upper = _planted_k_out_of_n(n, m, k, threshold)
    lower_rows = np.ascontiguousarray(_pack_references(lower, Side.LOWER, n, m).T)
    module = importlib.import_module("rsr.classify")
    kernel, samples = module.word_hits, []

    def spy(sample_words, *args):
        samples.append(sample_words)
        return kernel(sample_words, *args)

    monkeypatch.setattr(module, "word_hits", spy)
    states = np.random.default_rng(3).integers(0, m, size=(300, n))
    result = classify(SampleBatch(states), lower, upper, n_states=m)
    assert samples and not any(np.array_equal(words, lower_rows) for words in samples)
    system = np.sort(states, axis=1)[:, n - k]
    assert np.array_equal(result.lower_indices, np.flatnonzero(system <= threshold))
    assert np.array_equal(result.upper_indices, np.flatnonzero(system > threshold))
