"""Thermometer encoding of component-state vectors, flattened and word-packed.

A vector of N components with M states each encodes as an N x (M-1)
matrix T(x), row n = component n and one column per cut k = 0..M-2: bit
(n, k) is [x_n > k], for a sample and a reference alike. So x <= l
exactly when T(x) AND NOT T(l) is zero, and x >= u exactly when
NOT T(x) AND T(u) is zero: one encoding of a sample serves both sides, a
lower reference's region is T(l) and an upper one's is NOT T(u).

A batch flattens each matrix row-major into a length-N(M-1) row. At M = 2
that row is the state vector itself, so ``encode_batch`` hands uint8
states back as the flattened rows without a copy. The
flattened rows are also bit-packed into zero-padded 64-bit words, the
layout the classification kernel ANDs word by word, and ``decode_packed``
turns packed rows back into states. Encodings are derived
data and never serialized; reference-set files persist raw vectors
instead. The paper's one-hot N x M matrices are in ``oracle``, as ground
truth for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import check_states

__all__ = ["EncodedBatch", "decode_packed", "encode_batch"]


def _n_words(width: int) -> int:
    """The 64-bit words a packed row of ``width`` bits takes: ceil(width / 64), at least one."""
    return max(1, -(-width // 64))


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack K x W 0/1 rows into K x ``_n_words(W)`` uint64 words, pad bits zero."""
    k, width = bits.shape
    out = np.zeros((k, _n_words(width) * 8), dtype=np.uint8)
    out[:, : -(-width // 8)] = np.packbits(bits, axis=1)
    return out.view(np.uint64)


@dataclass(frozen=True)
class EncodedBatch:
    """Flattened thermometer matrices for a batch of samples or reference states.

    ``data`` has one row per item, each the row-major flattening of the
    item's N x (M-1) matrix. The word-packed forms are built lazily and
    cached; samples and references share the bit order, so that order
    never matters to a bitwise comparison of the two.
    """

    data: np.ndarray  # K x (N*(M-1)) uint8; at M = 2 it may be the encoded states themselves
    n_components: int
    n_states: int

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != self.n_components * (self.n_states - 1):
            raise ValueError("data must be K x (N*(M-1))")

    def __len__(self) -> int:
        return self.data.shape[0]

    @cached_property
    def packed(self) -> np.ndarray:
        """Rows packed into 64-bit words, zero padded."""
        return _pack_words(self.data)

    @cached_property
    def packed_complement(self) -> np.ndarray:
        """Word-packed elementwise complement; pad bits stay zero."""
        return _pack_words(1 - self.data)


def encode_batch(states: np.ndarray, n_states: int) -> EncodedBatch:
    """Encode a K x N state matrix straight to flattened form, one cut at a time.

    At M = 2 the states are their own thermometer bits: uint8 states are
    handed back as ``data`` with no copy, so ``data`` may share memory with
    ``states``, and other integer states are cast to uint8 once.
    """
    arr = check_states(states, n_states)
    if arr.ndim != 2:
        raise ValueError("states must be a K x N matrix")
    k, n = arr.shape
    if n_states == 2:
        return EncodedBatch(arr.astype(np.uint8, copy=False), n, n_states)
    cube = np.empty((k, n, n_states - 1), dtype=np.uint8)
    for c in range(n_states - 1):
        np.greater(arr, c, out=cube[:, :, c])
    return EncodedBatch(cube.reshape(k, n * (n_states - 1)), n, n_states)


def decode_packed(packed: np.ndarray, n_components: int, n_states: int) -> np.ndarray:
    """The K x N states of K word-packed thermometer rows, as ``EncodedBatch.packed`` holds them.

    A component's state is the count of its set bits, and at M = 2 the bit
    itself. States come as the sampler makes them: uint8, uint16 for M > 256.
    """
    width = n_components * (n_states - 1)
    bits = np.unpackbits(np.ascontiguousarray(packed).view(np.uint8), axis=1, count=width)
    if n_states == 2:
        return bits
    dtype = np.min_scalar_type(n_states - 1)
    return bits.reshape(len(bits), n_components, n_states - 1).sum(axis=2, dtype=dtype)
