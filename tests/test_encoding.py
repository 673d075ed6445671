import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsr.boundary import ReferenceSet, Side
from rsr.classify import _pack_references
from rsr.encoding import EncodedBatch, decode_packed, encode_batch
from rsr.oracle import one_hot


def _therm(x, m):
    """T(x) as an N x (M-1) matrix."""
    return encode_batch(np.array([x]), m).data.reshape(len(x), m - 1)


def test_lower_ref_worked_example():
    # a lower reference's region is T(l), the paper's prefix-of-ones matrix
    # without its first column, which is all ones; verdicts packs NOT T(l)
    assert np.array_equal(_therm((1, 2), 5), [[1, 0, 0, 0], [1, 1, 0, 0]])
    assert np.array_equal(_therm((1, 2), 5), np.array(one_hot((1, 2), 5, "lower"))[:, 1:])
    _, words = _packed_refs(np.array([[1, 2]]), Side.LOWER, 5)
    assert np.unpackbits(words.view(np.uint8))[:8].tolist() == [0, 1, 1, 1, 0, 0, 1, 1]


def test_upper_ref_worked_examples():
    # an upper reference's region is NOT T(u), the paper's suffix-of-ones
    # matrix without its last column, which is all ones; verdicts packs T(u)
    for u, therm in (((1, 4), [[1, 0, 0, 0], [1, 1, 1, 1]]), ((4, 0), [[1, 1, 1, 1], [0, 0, 0, 0]])):
        assert np.array_equal(_therm(u, 5), therm)
        assert np.array_equal(1 - _therm(u, 5), np.array(one_hot(u, 5, "upper"))[:, :-1])
        _, words = _packed_refs(np.array([u]), Side.UPPER, 5)
        assert np.unpackbits(words.view(np.uint8))[:8].tolist() == sum(therm, [])


def test_sample_worked_examples():
    # T(x) column k is the paper's one-hot row summed over the states above k
    for x, therm in (((3, 0), [[1, 1, 1, 0], [0, 0, 0, 0]]), ((4, 4), [[1, 1, 1, 1], [1, 1, 1, 1]])):
        assert np.array_equal(_therm(x, 5), therm)
        assert np.array_equal(_therm(x, 5), [[sum(row[k + 1 :]) for k in range(4)] for row in one_hot(x, 5, "sample")])


def test_single_state_edge_cases():
    # M = 1: no cut, so a row has no bits and packs to one zero word, and
    # every reference's region holds every sample
    batch = encode_batch(np.zeros((2, 3), dtype=np.int64), 1)
    assert batch.data.shape == (2, 0)
    assert batch.packed.tolist() == batch.packed_complement.tolist() == [[0], [0]]
    # the top lower reference and the bottom upper one cover every sample:
    # NOT T(l) and T(u) are all zero
    assert not encode_batch(np.array([[4, 4]]), 5).packed_complement.any()
    assert not encode_batch(np.array([[0, 0]]), 5).packed.any()


def test_state_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_batch(np.array([[5]]), 5)
    with pytest.raises(ValueError):
        encode_batch(np.array([[-1]]), 5)
    with pytest.raises(ValueError):
        EncodedBatch(np.zeros((1, 3), dtype=np.uint8), 2, 3)


@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_and_row_sums(n, m, seed):
    # each component's bits are a prefix of ones as long as its state, so
    # the state comes back as the row sum
    rng = np.random.default_rng(seed)
    states = rng.integers(0, m, size=(4, n))
    rows = encode_batch(states, m).data.reshape(4, n, m - 1)
    assert np.array_equal(rows.sum(axis=2), states)
    assert np.all(np.diff(rows.astype(np.int8), axis=2) <= 0)


# (N, M): one word, a row that ends on a word boundary, N = 33 at M = 3
# whose 66 bits cross one (component 31's second bit is word 1's first),
# and rows of several words at M = 2, 3 and 5
@pytest.mark.parametrize(("n", "m"), [(5, 2), (64, 2), (33, 3), (294, 2), (40, 3), (12, 5), (17, 5)])
def test_packed_words_decode_to_their_states(n, m):
    # pmf keeps open rows as packed words and hands phi the states they decode to
    rng = np.random.default_rng(n * m)
    states = rng.integers(0, m, size=(50, n)).astype(np.uint8)
    states[0], states[1] = 0, m - 1
    packed = encode_batch(states, m).packed
    assert packed.shape == (50, max(1, -(-n * (m - 1) // 64)))
    decoded = decode_packed(packed, n, m)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, states)
    # rows taken from a word-major copy, as pmf keeps them, decode alike
    assert np.array_equal(decode_packed(np.ascontiguousarray(packed.T)[:, 7:20].T, n, m), states[7:20])


@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_complement_identity(n, m, seed):
    # T(x) AND NOT T(l) has one bit per level x_n exceeds l_n, and
    # NOT T(x) AND T(u) one per level u_n exceeds x_n: zero exactly when
    # x <= l, or x >= u
    rng = np.random.default_rng(seed)
    x, r = rng.integers(0, m, size=(2, n))
    h, t = encode_batch(np.array([x, r]), m).data
    assert h @ (1 - t) == np.maximum(x - r, 0).sum()
    assert (1 - h) @ t == np.maximum(r - x, 0).sum()


def _packed_refs(states, side, m):
    """A set of ``states``'s non-dominated rows, its members and ``_pack_references``'s words for it."""
    refs = ReferenceSet(side, 0, states)
    return refs.as_array(), _pack_references(refs, side, states.shape[1], m)


def test_thermometer_bits():
    # T(x) sets bit (n, k) for x_n > k, k = 0..M-2; a lower reference's region
    # is T(l) and an upper reference's is NOT T(u), so the classification
    # route packs their complements: NOT T(l) and T(u)
    states = np.random.default_rng(4).integers(0, 5, size=(30, 7))
    therm = encode_batch(states, 5).data.reshape(30, 7, 4)
    assert np.array_equal(therm, states[:, :, None] > np.arange(4))
    assert np.array_equal(therm.sum(axis=2), states)
    for side, flip in ((Side.LOWER, 1), (Side.UPPER, 0)):
        members, words = _packed_refs(states, side, 5)
        bits = np.unpackbits(words.view(np.uint8), axis=1)
        assert np.array_equal(bits[:, :28], flip ^ (members[:, :, None] > np.arange(4)).reshape(len(members), 28))
        assert not bits[:, 28:].any()
    assert encode_batch(states[:, :1] % 2, 2).data.tolist() == (states[:, :1] % 2).tolist()


def test_thermometer_pad_bits_zero():
    # N(M-1) = 9, 63, 64, 65, 129 bits. A chunk meets the upper references as
    # NOT T(x), whose pad bits are ones, so the words it is ANDed with (the
    # complement of an upper reference's region, T(u)) must have zero pad
    # bits, and so must the lower complement NOT T(l) and T(x) itself
    for n, m in [(9, 2), (21, 4), (32, 3), (13, 6), (43, 4)]:
        states = np.random.default_rng(n * m).integers(0, m, size=(5, n))
        n_bits, n_words = n * (m - 1), -(-n * (m - 1) // 64)
        samples = encode_batch(states, m)
        lower, lower_words = _packed_refs(states, Side.LOWER, m)
        upper, upper_words = _packed_refs(states, Side.UPPER, m)
        for words, bits in (
            (samples.packed, samples.data),
            (lower_words, 1 - encode_batch(lower, m).data),
            (upper_words, encode_batch(upper, m).data),
        ):
            assert words.dtype == np.uint64
            assert words.shape == (len(bits), n_words)
            unpacked = np.unpackbits(words.view(np.uint8), axis=1)
            assert np.array_equal(unpacked[:, :n_bits], bits)
            assert not unpacked[:, n_bits:].any()
        # the upper words are T(u)
        assert np.array_equal(upper_words, encode_batch(upper, m).packed)


def test_int8_states_encode_without_widening():
    # criterion 9 classifies int8 states; an int64 copy of them would be
    # 8x the thermometer output at M = 2
    states = np.random.default_rng(0).integers(0, 2, size=(20_000, 262), dtype=np.int8)
    tracemalloc.start()
    try:
        batch = encode_batch(states, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * batch.data.nbytes
    assert np.array_equal(batch.data, encode_batch(states.astype(np.int64), 2).data)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 115])
def test_binary_encoding_is_the_states_themselves(n):
    # at M = 2 the one-hot matrix's state-1 column is the thermometer bit,
    # [x_n > 0], so uint8 states are handed back as the encoding with no
    # cube copy, and any integer states pack to the words of that cube
    states = np.random.default_rng(n).integers(0, 2, size=(70, n), dtype=np.uint8)
    batch = encode_batch(states, 2)
    assert np.shares_memory(batch.data, states) and batch.data.dtype == np.uint8
    one_hot_column = np.array([[row[1] for row in one_hot(x, 2, "sample")] for x in states.tolist()])
    assert np.array_equal(batch.data, one_hot_column)
    cube = (states > 0).astype(np.uint8)
    bits = np.unpackbits(batch.packed.view(np.uint8), axis=1)
    assert np.array_equal(bits[:, :n], cube) and not bits[:, n:].any()
    complement = np.unpackbits(batch.packed_complement.view(np.uint8), axis=1)
    assert np.array_equal(complement[:, :n], 1 - cube) and not complement[:, n:].any()
    assert np.array_equal(decode_packed(batch.packed, n, 2), states)
    for dtype in (np.int8, np.int64, np.uint16):
        wide = encode_batch(states.astype(dtype), 2)
        assert wide.data.dtype == np.uint8 and not np.shares_memory(wide.data, states)
        assert np.array_equal(wide.packed, batch.packed)
