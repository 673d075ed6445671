"""Reproducible Monte Carlo batches of component-state vectors.

Sampling uses a counter-based (Philox) stream keyed by
(seed, generation_index) and indexed by (sample, component), so sample i,
component n is the same number regardless of evaluation order or how the
batch is chunked. There is no global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ComponentDistribution

__all__ = ["SampleBatch", "sample_batch", "uniform_field"]

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
    first = start * n_components
    total = count * n_components
    # Philox advances in blocks of four 64-bit outputs; align and discard.
    aligned_blocks, lead = divmod(first, 4)
    bg = _philox(seed, generation_index)
    bg.advance(aligned_blocks)
    raw = bg.random_raw(lead + total)[lead:]
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
    n, m = dist.n_components, dist.n_states
    u = uniform_field(seed, generation_index, start, n_samples, n)
    cum = np.cumsum(dist.probs, axis=1)
    # state = #{k < M-1 : cum[k] <= u}; leaving out cum[M-1] caps it at M-1
    states = np.zeros((n_samples, n), dtype=np.int64)
    for k in range(m - 1):
        states += u >= cum[:, k]
    return SampleBatch(states=states, seed=seed, generation_index=generation_index)
