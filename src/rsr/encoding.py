"""Binary N x M encodings of component-state vectors and flattened batch forms.

Three encodings share one layout (row n = component n, column m = state m)
and one rule table, ``_RULES``, that sets entry (n, m) by comparing state m
with the vector's value x_n:

* sample: one-hot, 1 iff m == x_n;
* lower reference: prefix of ones, 1 iff m <= x_n;
* upper reference: suffix of ones, 1 iff m >= x_n.

``encode_batch`` is the one encoder; the per-item encoders are its
one-row calls. A batch flattens each N x M matrix row-major into a
length-NM row. The flattened rows are also bit-packed into
ceil(NM / 64) zero-padded 64-bit words, the layout the classification
kernel ANDs word by word; the unpacked rows are kept as the
differential-testing path. Encodings are derived data and never
serialized; reference-set files persist raw vectors instead.
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

# entry (n, m) of each kind's encoding is _RULES[kind](m, x_n)
_RULES = {
    "sample": np.equal,
    "lower_ref": np.less_equal,
    "upper_ref": np.greater_equal,
}
KINDS = tuple(_RULES)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack K x W 0/1 rows into K x ceil(W / 64) uint64 words, pad bits zero."""
    k, width = bits.shape
    out = np.zeros((k, -(-width // 64) * 8), dtype=np.uint8)
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
    item's N x M matrix. The word-packed forms are built lazily and cached;
    samples and references share one layout, so its byte order never
    matters to a bitwise comparison of the two.
    """

    data: np.ndarray  # K x (N*M) uint8
    kind: str
    n_components: int
    n_states: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.data.ndim != 2 or self.data.shape[1] != self.n_components * self.n_states:
            raise ValueError("data must be K x (N*M)")

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
    """Encode a K x N state matrix straight to flattened form, one state column at a time."""
    arr = check_states(states, n_states)
    if arr.ndim != 2:
        raise ValueError("states must be a K x N matrix")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    k, n = arr.shape
    cube = np.empty((k, n, n_states), dtype=np.uint8)
    for m in range(n_states):
        _RULES[kind](m, arr, out=cube[:, :, m])
    return EncodedBatch(cube.reshape(k, n * n_states), kind, n, n_states)
