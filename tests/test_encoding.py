import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsr.boundary import ReferenceSet, Side
from rsr.classify import _pack_references
from rsr.encoding import (
    EncodedBatch,
    encode_batch,
    encode_lower_ref,
    encode_sample,
    encode_upper_ref,
)


def test_lower_ref_worked_example():
    assert np.array_equal(
        encode_lower_ref((1, 2), 5),
        np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]]),
    )


def test_upper_ref_worked_examples():
    assert np.array_equal(
        encode_upper_ref((1, 4), 5),
        np.array([[0, 1, 1, 1, 1], [0, 0, 0, 0, 1]]),
    )
    assert np.array_equal(
        encode_upper_ref((4, 0), 5),
        np.array([[0, 0, 0, 0, 1], [1, 1, 1, 1, 1]]),
    )


def test_sample_worked_examples():
    assert np.array_equal(
        encode_sample((3, 0), 5),
        np.array([[0, 0, 0, 1, 0], [1, 0, 0, 0, 0]]),
    )
    assert np.array_equal(
        encode_sample((4, 4), 5),
        np.array([[0, 0, 0, 0, 1], [0, 0, 0, 0, 1]]),
    )


def test_single_state_edge_cases():
    assert np.array_equal(encode_sample((0, 0, 0), 1), np.ones((3, 1)))
    assert np.array_equal(encode_lower_ref((4, 4), 5), np.ones((2, 5)))
    assert np.array_equal(encode_upper_ref((0, 0), 5), np.ones((2, 5)))
    assert np.array_equal(
        encode_lower_ref((0, 0), 5)[:, 0], np.ones(2)
    )
    assert encode_lower_ref((0, 0), 5)[:, 1:].sum() == 0


def test_state_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_sample((5,), 5)
    with pytest.raises(ValueError):
        encode_lower_ref((-1,), 5)


def test_encode_batch_matches_per_item():
    states = np.array([[3, 0], [4, 4], [1, 2]])
    batch = encode_batch(states, 5, "sample")
    for i, row in enumerate(states):
        assert np.array_equal(batch.data[i].reshape(2, 5), encode_sample(row, 5))


@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_and_row_sums(n, m, seed):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, m, size=(4, n))

    samples = encode_batch(states, m, "sample")
    rows = samples.data.reshape(4, n, m)
    assert np.all(rows.sum(axis=2) == 1)

    lower = encode_batch(states, m, "lower_ref")
    assert np.all(lower.data.reshape(4, n, m).sum(axis=2) == states + 1)

    upper = encode_batch(states, m, "upper_ref")
    assert np.all(upper.data.reshape(4, n, m).sum(axis=2) == m - states)


@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_complement_identity(n, m, seed):
    # each one-hot row scores exactly one hit split between r and its complement
    rng = np.random.default_rng(seed)
    h = encode_batch(rng.integers(0, m, size=(1, n)), m, "sample").data[0]
    r = encode_batch(rng.integers(0, m, size=(1, n)), m, "lower_ref").data[0]
    assert h @ (1 - r) == n - h @ r


def test_packed_complement_pad_bits_zero():
    # N*M = 9, 63, 64, 65, 129 bits: padding at every position around a word
    # edge; a set pad bit in a sample row would turn a true hit into a miss
    for n, m in [(3, 3), (21, 3), (32, 2), (13, 5), (43, 3)]:
        states = np.random.default_rng(n * m).integers(0, m, size=(5, n))
        n_words = -(-n * m // 64)
        for kind in ("sample", "lower_ref", "upper_ref"):
            batch = encode_batch(states, m, kind)
            for words, bits in (
                (batch.packed, batch.data),
                (batch.packed_complement, 1 - batch.data),
            ):
                assert words.dtype == np.uint64
                assert words.shape == (5, n_words)
                unpacked = np.unpackbits(words.view(np.uint8), axis=1)
                assert np.array_equal(unpacked[:, : n * m], bits)
                assert not unpacked[:, n * m :].any()


def _packed_refs(states, side, m):
    """A set of ``states``'s non-dominated rows, its members and ``_pack_references``'s words for it."""
    refs = ReferenceSet(side, 0, states)
    return refs.as_array(), _pack_references(refs, side, states.shape[1], m)


def test_thermometer_bits():
    # T(x) sets bit (n, k) for x_n > k, k = 0..M-2; a lower reference's region
    # is T(l) and an upper reference's is NOT T(u), so the classification
    # route packs their complements: NOT T(l) and T(u)
    states = np.random.default_rng(4).integers(0, 5, size=(30, 7))
    therm = encode_batch(states, 5, "thermometer").data.reshape(30, 7, 4)
    assert np.array_equal(therm, states[:, :, None] > np.arange(4))
    assert np.array_equal(therm.sum(axis=2), states)
    for side, flip in ((Side.LOWER, 1), (Side.UPPER, 0)):
        members, words = _packed_refs(states, side, 5)
        bits = np.unpackbits(words.view(np.uint8), axis=1)
        assert np.array_equal(bits[:, :28], flip ^ (members[:, :, None] > np.arange(4)).reshape(len(members), 28))
        assert not bits[:, 28:].any()
    assert encode_batch(states[:, :1] % 2, 2, "thermometer").data.tolist() == (states[:, :1] % 2).tolist()


def test_thermometer_pad_bits_zero():
    # N(M-1) = 9, 63, 64, 65, 129 bits. A chunk meets the upper references as
    # NOT T(x), whose pad bits are ones, so the words it is ANDed with (the
    # complement of an upper reference's region, T(u)) must have zero pad
    # bits, and so must the lower complement NOT T(l) and T(x) itself
    for n, m in [(9, 2), (21, 4), (32, 3), (13, 6), (43, 4)]:
        states = np.random.default_rng(n * m).integers(0, m, size=(5, n))
        n_bits, n_words = n * (m - 1), -(-n * (m - 1) // 64)
        samples = encode_batch(states, m, "thermometer")
        lower, lower_words = _packed_refs(states, Side.LOWER, m)
        upper, upper_words = _packed_refs(states, Side.UPPER, m)
        for words, bits in (
            (samples.packed, samples.data),
            (lower_words, 1 - encode_batch(lower, m, "thermometer").data),
            (upper_words, encode_batch(upper, m, "thermometer").data),
        ):
            assert words.dtype == np.uint64
            assert words.shape == (len(bits), n_words)
            unpacked = np.unpackbits(words.view(np.uint8), axis=1)
            assert np.array_equal(unpacked[:, :n_bits], bits)
            assert not unpacked[:, n_bits:].any()
        # the upper words are T(u)
        assert np.array_equal(upper_words, encode_batch(upper, m, "thermometer").packed)


def test_int8_states_encode_without_widening():
    # criterion 9 classifies int8 states; an int64 copy of them would be
    # 4x the one-hot output at M = 2
    states = np.random.default_rng(0).integers(0, 2, size=(20_000, 262), dtype=np.int8)
    tracemalloc.start()
    try:
        batch = encode_batch(states, 2, "sample")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * batch.data.nbytes
    assert np.array_equal(batch.data, encode_batch(states.astype(np.int64), 2, "sample").data)
