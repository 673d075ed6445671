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
    ascending order, a run of rows at a time. A run spans at most one
    block of ``_DRAW_BYTES`` of draws and is drawn in one call, the gaps
    between its rows with it; the generator reaches it by drawing the gap
    before it in the same call, or, past ``_ADVANCE_DRAWS``, by advancing
    its counter to the run's block of four draws. A dense set of rows
    costs a few calls a block, a scattered one a call a row. A long run
    with no gap is turned into states as it is drawn; the rows of the
    others gather in a buffer of at most one block, turned into states
    whenever it fills, so the call holds the states plus about two
    blocks. A repeated row is drawn once and copied.
    """
    n = dist.n_components
    rows, inverse = np.unique(np.asarray(indices, dtype=np.int64).reshape(-1), return_inverse=True)
    cuts = _cuts(dist)
    states = np.empty((len(rows), n), dtype=np.min_scalar_type(dist.n_states - 1))
    if not len(rows):
        return states
    block = max(1, _DRAW_BYTES // (8 * n))
    # a stretch of rows starts at the first row and after each gap too long
    # to draw; a run is the rows of one block-long piece of a stretch
    stretch = np.r_[True, (np.diff(rows) - 1) * n > _ADVANCE_DRAWS]
    origin = np.repeat(rows[stretch], np.diff(np.r_[np.flatnonzero(stretch), len(rows)]))
    piece = (rows - origin) // block
    starts = np.flatnonzero(np.r_[True, (np.diff(origin) != 0) | (np.diff(piece) != 0)])
    ends = np.r_[starts[1:], len(rows)]
    first, last = rows[starts], rows[ends - 1]
    # each run's plan: the stream's next draw is at the end of the run before;
    # a run past a long gap advances to its block of four draws, of which
    # ceil(pos / 4) are spent, and then draws its lead into that block
    pos = np.r_[0, (last[:-1] + 1) * n]
    lead = first * n - pos
    jump = lead > _ADVANCE_DRAWS
    advance = np.where(jump, first * n // 4 + (-pos // 4), 0)
    lead[jump] = first[jump] * n % 4
    offset = rows - np.repeat(first, ends - starts)  # a row's place in its run
    span = (last + 1 - first) * n
    dense = (ends - starts) * n == span  # runs with no gap
    # a gapless run of more draws than a call's overhead costs (about
    # _ADVANCE_DRAWS) becomes states as it is drawn; shorter ones wait in the buffer
    direct = dense & (span > _ADVANCE_DRAWS)
    buffer = np.empty((min(block, int((ends - starts)[~direct].sum())), n), dtype=np.uint64)
    done = 0  # rows before ``done`` are states; rows done..a wait in the buffer
    bg = _philox(seed, generation_index)
    plan = zip(*(v.tolist() for v in (starts, ends, advance, lead, span, dense, direct)))
    for a, b, skip, lead_k, span_k, dense_k, direct_k in plan:
        if a > done and (direct_k or b - done > len(buffer)):
            _states(cuts, buffer[: a - done], states[done:a])
            done = a
        if skip:
            bg.advance(skip)
        raw = bg.random_raw(lead_k + span_k)[lead_k:].reshape(-1, n)
        if direct_k:
            _states(cuts, raw, states[a:b])
            done = b
        elif dense_k:
            buffer[a - done : b - done] = raw
        else:
            np.take(raw, offset[a:b], axis=0, out=buffer[a - done : b - done], mode="clip")
    _states(cuts, buffer[: len(rows) - done], states[done:])
    return states[inverse]
