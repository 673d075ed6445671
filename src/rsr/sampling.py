"""Reproducible Monte Carlo batches of component-state vectors.

Sampling uses a counter-based (Philox) stream keyed by
(seed, generation_index) and indexed by (sample, component), so sample i,
component n is the same number regardless of evaluation order or how the
batch is chunked. ``sample_batch`` draws a contiguous slice of a batch and
``sample_rows`` any scattered rows of it, as uint8 states (N bytes a row;
uint16 for M > 256). There is no global RNG state.

``sample_batch`` fills its state matrix a block of rows at a time: it draws
at most ``_DRAW_BYTES`` of raw output, turns it into states in place and
draws the next block from the same generator, so a slice of any size
needs its states plus one cache-sized block of draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ComponentDistribution

__all__ = ["SampleBatch", "sample_batch", "sample_rows", "uniform_field"]

_INV_2_53 = float(2.0**-53)

# most raw 64-bit draws ``sample_batch`` holds at once: a block and the
# states it makes stay in a core's cache
_DRAW_BYTES = 1 << 20

# a gap of more draws than this ``sample_rows`` skips with one ``advance``
# (about 2.5 us) rather than drawing it (about 6-9 ns a draw)
_ADVANCE_DRAWS = 400


@dataclass(frozen=True)
class SampleBatch:
    """H component-state vectors plus the keys that regenerate them."""

    states: np.ndarray  # H x N uint8 matrix, uint16 for M > 256
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


def _seek(bg: np.random.Philox, first: int) -> np.random.Philox:
    """Position a fresh stream at flat index ``first``."""
    # Philox advances in blocks of four 64-bit outputs; align and discard.
    aligned_blocks, lead = divmod(first, 4)
    bg.advance(aligned_blocks)
    bg.random_raw(lead)
    return bg


def _cuts(dist: ComponentDistribution) -> np.ndarray:
    """M x N integer cuts: a state exceeds k exactly when raw >> 11 >= cuts[k]; the last row is never read."""
    return np.ascontiguousarray(np.ceil(np.cumsum(dist.probs, axis=1) * 2.0**53).astype(np.uint64).T)


def _states(cuts: np.ndarray, raw: np.ndarray, out: np.ndarray) -> None:
    """Inverse CDF of K x N raw draws into ``out``, a K x N unsigned integer matrix; ``raw`` is overwritten.

    The state is #{k < M-1 : cum[k] <= u} with u = (raw >> 11) * 2**-53;
    leaving out cum[M-1] caps it at M-1. With j = raw >> 11 an integer,
    u >= c holds exactly when j >= ceil(c * 2**53), and scaling by a power
    of two is exact, so the comparison runs on integers with no float copy
    of the draws and gives the float comparison's states bit for bit.
    """
    raw >>= np.uint64(11)
    if len(cuts) == 1:  # M = 1
        out.fill(0)
        return
    # the first cut's compare writes the counts: no bool temporary, no add pass
    np.greater_equal(raw, cuts[0], out=out, casting="unsafe")
    for cut in cuts[1:-1]:
        out += raw >= cut


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
    raw = _seek(_philox(seed, generation_index), start * n_components).random_raw(count * n_components)
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
    produce disjoint slices of one logical batch independently. The raw
    draws come ``_DRAW_BYTES`` at a time from one generator, so the peak
    is the states plus one block, whatever ``n_samples``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = dist.n_components
    cuts = _cuts(dist)
    states = np.empty((n_samples, n), dtype=np.min_scalar_type(dist.n_states - 1))
    bg = _seek(_philox(seed, generation_index), start * n)
    block = max(1, _DRAW_BYTES // (8 * n))
    for r0 in range(0, n_samples, block):
        r1 = min(r0 + block, n_samples)
        _states(cuts, bg.random_raw((r1 - r0) * n).reshape(r1 - r0, n), states[r0:r1])
    return SampleBatch(states=states, seed=seed, generation_index=generation_index)


def sample_rows(
    dist: ComponentDistribution,
    seed: int,
    generation_index: int,
    indices: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """States of the samples at ``indices`` of one batch; row k is row ``indices[k]``.

    One generator walks forward once through the distinct rows in
    ascending order. It reaches each row by drawing the gap before it
    with the row in one call, or, past ``_ADVANCE_DRAWS``, by advancing
    its counter to the row's block of four draws. A repeated row is
    drawn once and copied.
    """
    n = dist.n_components
    rows, inverse = np.unique(np.asarray(indices, dtype=np.int64).reshape(-1), return_inverse=True)
    raw = np.empty((len(rows), n), dtype=np.uint64)
    bg = _philox(seed, generation_index)
    pos = 0  # flat index of the stream's next draw; ceil(pos / 4) blocks are spent
    for k, first in enumerate(rows.tolist()):
        first *= n
        lead = first - pos
        if lead > _ADVANCE_DRAWS:
            blocks, lead = divmod(first, 4)
            bg.advance(blocks + (-pos // 4))
        raw[k] = bg.random_raw(lead + n)[lead:]
        pos = first + n
    states = np.empty(raw.shape, dtype=np.min_scalar_type(dist.n_states - 1))
    _states(_cuts(dist), raw, states)
    return states[inverse]
