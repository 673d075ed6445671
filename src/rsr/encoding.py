"""Binary encodings of component-state vectors and flattened batch forms.

Every kind encodes a vector as an N x C matrix, row n = component n, and
one rule table, ``_RULES``, sets entry (n, c) by comparing column c with
the vector's value x_n. Two layouts share that table.

The paper's one-hot layout has C = M columns, one per state m:

* sample: one-hot, 1 iff m == x_n;
* lower reference: prefix of ones, 1 iff m <= x_n;
* upper reference: suffix of ones, 1 iff m >= x_n.

The thermometer layout has C = M - 1 columns, one per cut k = 0..M-2, and
is what the classification route packs. Its one kind, thermometer, sets
bit (n, k) of T(x) to [x_n > k], for a sample and a reference alike. So
x <= l exactly when T(x) AND NOT T(l) is zero, and x >= u exactly when
NOT T(x) AND T(u) is zero: one encoding of a sample serves both sides, a
lower reference's region is T(l) and an upper one's is NOT T(u).

In the one-hot layout a reference's kind encodes its region, and a sample
word is in it exactly when the AND with the word-packed complement is zero.

``encode_batch`` is the one encoder; the per-item encoders are its
one-row one-hot calls. A batch flattens each N x C matrix row-major into
a length-NC row. The flattened rows are also bit-packed into zero-padded
64-bit words, the layout the classification kernel ANDs word by word; the
unpacked rows are kept as the differential-testing path. Encodings are
derived data and never serialized; reference-set files persist raw
vectors instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import check_states

__all__ = [
    "EncodedBatch",
    "encode_sample",
    "encode_lower_ref",
    "encode_upper_ref",
    "encode_batch",
]

# entry (n, c) of each kind's encoding is _RULES[kind](c, x_n)
_RULES = {
    "sample": np.equal,
    "lower_ref": np.less_equal,
    "upper_ref": np.greater_equal,
    "thermometer": np.less,
}
KINDS = tuple(_RULES)


def _columns(kind: str, n_states: int) -> int:
    """Columns a component takes in ``kind``'s layout."""
    return n_states - 1 if kind == "thermometer" else n_states


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack K x W 0/1 rows into K x max(1, ceil(W / 64)) uint64 words, pad bits zero."""
    k, width = bits.shape
    out = np.zeros((k, max(1, -(-width // 64)) * 8), dtype=np.uint8)
    out[:, : -(-width // 8)] = np.packbits(bits, axis=1)
    return out.view(np.uint64)


def _encode_one(x: Sequence[int] | np.ndarray, n_states: int, kind: str) -> np.ndarray:
    row = np.asarray(x)
    return encode_batch(row[None], n_states, kind).data.reshape(row.size, n_states)


def encode_sample(x: Sequence[int] | np.ndarray, n_states: int) -> np.ndarray:
    """One-hot N x M matrix of a sampled vector."""
    return _encode_one(x, n_states, "sample")


def encode_lower_ref(x: Sequence[int] | np.ndarray, n_states: int) -> np.ndarray:
    """Prefix-of-ones N x M matrix of a lower reference state."""
    return _encode_one(x, n_states, "lower_ref")


def encode_upper_ref(x: Sequence[int] | np.ndarray, n_states: int) -> np.ndarray:
    """Suffix-of-ones N x M matrix of an upper reference state."""
    return _encode_one(x, n_states, "upper_ref")


@dataclass(frozen=True)
class EncodedBatch:
    """Flattened binary matrices for a batch of samples or reference states.

    ``data`` has one row per item, each the row-major flattening of the
    item's N x C matrix. The word-packed forms are built lazily and cached;
    samples and references of one layout share its bit order, so that
    order never matters to a bitwise comparison of the two.
    """

    data: np.ndarray  # K x (N*C) uint8
    kind: str
    n_components: int
    n_states: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.data.ndim != 2 or self.data.shape[1] != self.n_components * _columns(self.kind, self.n_states):
            raise ValueError("data must be K x (N*C), C the kind's columns per component")

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


def encode_batch(states: np.ndarray, n_states: int, kind: str) -> EncodedBatch:
    """Encode a K x N state matrix straight to flattened form, one column at a time."""
    arr = check_states(states, n_states)
    if arr.ndim != 2:
        raise ValueError("states must be a K x N matrix")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    k, n = arr.shape
    columns = _columns(kind, n_states)
    cube = np.empty((k, n, columns), dtype=np.uint8)
    for c in range(columns):
        _RULES[kind](c, arr, out=cube[:, :, c])
    return EncodedBatch(cube.reshape(k, n * columns), kind, n, n_states)
