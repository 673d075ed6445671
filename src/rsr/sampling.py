"""Reproducible Monte Carlo batches of component-state vectors.

Sampling uses a counter-based (Philox) stream keyed by
(seed, generation_index) and indexed by (sample, component), so sample i,
component n is the same number regardless of evaluation order or how the
batch is chunked. ``sample_batch`` draws a contiguous slice of a batch and
``sample_rows`` any scattered rows of it. There is no global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ComponentDistribution

__all__ = ["SampleBatch", "sample_batch", "sample_rows", "uniform_field"]

_INV_2_53 = float(2.0**-53)


@dataclass(frozen=True)
class SampleBatch:
    """H component-state vectors plus the keys that regenerate them."""

    states: np.ndarray  # H x N int8/int64 matrix
    seed: int
    generation_index: int

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def n_components(self) -> int:
        return self.states.shape[1]


def _philox(seed: int, generation_index: int) -> np.random.Philox:
    mask = (1 << 64) - 1
    key = np.array([seed & mask, generation_index & mask], dtype=np.uint64)
    return np.random.Philox(key=key)


def _draws(bg: np.random.Philox, first: int, total: int) -> np.ndarray:
    """``total`` raw draws from flat index ``first`` of a fresh stream."""
    # Philox advances in blocks of four 64-bit outputs; align and discard.
    aligned_blocks, lead = divmod(first, 4)
    bg.advance(aligned_blocks)
    return bg.random_raw(lead + total)[lead:]


def _states(dist: ComponentDistribution, raw: np.ndarray) -> np.ndarray:
    """Inverse CDF of K x N raw draws; the int64 states reuse the draws' buffer.

    The state is #{k < M-1 : cum[k] <= u} with u = (raw >> 11) * 2**-53;
    leaving out cum[M-1] caps it at M-1. With j = raw >> 11 an integer,
    u >= c holds exactly when j >= ceil(c * 2**53), and scaling by a power
    of two is exact, so the comparison runs on integers with no float copy
    of the draws and gives the float comparison's states bit for bit.
    """
    raw >>= np.uint64(11)
    cuts = np.ascontiguousarray(np.ceil(np.cumsum(dist.probs, axis=1) * 2.0**53).astype(np.uint64).T)
    # counted in the narrowest dtype that holds M-1, then widened in place
    counts = np.zeros(raw.shape, dtype=np.min_scalar_type(dist.n_states - 1))
    for k in range(dist.n_states - 1):
        counts += raw >= cuts[k]
    states = raw.view(np.int64)
    states[...] = counts
    return states


def uniform_field(
    seed: int,
    generation_index: int,
    start: int,
    count: int,
    n_components: int,
) -> np.ndarray:
    """Uniform(0,1) values for samples [start, start+count), all components.

    Element (i, n) depends only on (seed, generation_index, start+i, n):
    the stream is positioned at flat index (start+i)*N + n, so chunked
    generation reproduces any slice of the full batch bit-exactly.
    """
    raw = _draws(_philox(seed, generation_index), start * n_components, count * n_components)
    # in place, so only the raw draws and their float64 cast coexist
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= _INV_2_53
    return u.reshape(count, n_components)


def sample_batch(
    dist: ComponentDistribution,
    n_samples: int,
    seed: int,
    generation_index: int = 0,
    start: int = 0,
) -> SampleBatch:
    """Draw component-state vectors by inverse CDF on the counter-based stream.

    ``start`` offsets into the batch's sample index space, so workers can
    produce disjoint slices of one logical batch independently.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = dist.n_components
    raw = _draws(_philox(seed, generation_index), start * n, n_samples * n)
    return SampleBatch(
        states=_states(dist, raw.reshape(n_samples, n)), seed=seed, generation_index=generation_index
    )


def sample_rows(
    dist: ComponentDistribution,
    seed: int,
    generation_index: int,
    indices: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """States of the samples at ``indices`` of one batch; row k is row ``indices[k]``.

    One generator is reset and repositioned for each row, which costs a
    small fraction of a one-row ``sample_batch`` call.
    """
    n = dist.n_components
    bg = _philox(seed, generation_index)
    origin = bg.state
    raw = np.empty((len(indices), n), dtype=np.uint64)
    for k, i in enumerate(indices):
        bg.state = origin
        raw[k] = _draws(bg, int(i) * n, n)
    return _states(dist, raw)
