"""Batched reference-state sample classification and probability estimation.

Sample h lies in reference r's dominated region exactly when the AND of
its thermometer row (``encoding``) with the complement of r's region row
is zero. The tests run on rows packed into 64-bit words: a sample is hit
when, for some reference, every word of the AND is zero.

``verdicts`` is the one classification route: it packs a chunk of rows
at a time, tests it against every threshold's sets and brackets each
row's system state S. A chunk is encoded once, M-1 bits a component: its
words T(x) test the lower sets and their complement the upper, and at
M = 2 a row packs to N bits. A set's references are encoded the same way,
as T(r), and packed as NOT T(l) for a lower set and T(u) for an upper
one. ``word_hits`` is the kernel; a row leaves it once a block of
references hits it. A ``verdicts`` call gives each worker thread one
kernel scratch for all its chunks and sets, so a call does not allocate
per kernel call. Both workflow stages run ``verdicts`` over the
sampler's rows, ``multistate_pmf`` also over the packed words it keeps
of open rows, and ``classify`` over slices of its batch at one
threshold. With a coherent phi and side-consistent reference sets no
bracket is crossed; ``verdicts`` raises ``InconsistentReferenceSets`` on
the first that is. A set's upper pass skips the rows its lower pass hit
only when no upper reference lies under a lower one, so that no row can
be hit by both and the first crossed bracket is found as if both passes
ran in full. ``verdicts`` checks each set for such a pair once, before
the first chunk: the members' level counts rule most out, and the kernel
the rest.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

# _BLOCK_BYTES bounds one worker's chunk x ref-block temporaries
from .boundary import _BLOCK_BYTES, ReferenceSet, Side
from .encoding import decode_packed, encode_batch
from .sampling import SampleBatch

__all__ = [
    "ClassificationResult",
    "InconsistentReferenceSets",
    "classify",
    "verdicts",
    "cov",
]

# the one chunk size of both stages and classify(): 2^20 / N rows, whose
# raw 64-bit draws, or the int64 copy of them Stage 2 hands to phi, take
# this many bytes and whose uint8 states take an eighth. The sampler draws
# in 1 MiB blocks, so no array of this size is allocated. Results do not
# depend on it; tests shrink it to make small chunks
_CHUNK_BYTES = 8 << 20


def _chunk_rows(n_components: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * n_components))


# a threshold m' with its lower and upper reference sets
ThresholdSets = tuple[int, ReferenceSet | None, ReferenceSet | None]


class InconsistentReferenceSets(ValueError):
    """phi is not coherent, or a reference lies on the wrong side of its threshold."""

    @classmethod
    def on_bracket(
        cls, sets: list[ThresholdSets], index: int, x: np.ndarray, lo: int, hi: int, phi: int | None = None
    ) -> InconsistentReferenceSets:
        """Name sample ``index``, its vector ``x``, the references that set its bracket lo <= S <= hi, and phi."""
        # a lower match at t sets hi = t, an upper match lo = t + 1
        lower = next((low for t, low, _ in sets if t == hi), None)
        upper = next((up for t, _, up in sets if t == lo - 1), None)
        claims = []
        if lower is not None:
            claims.append(f"lower reference {lower.first_match(x)} says S <= {lower.threshold}")
        if upper is not None:
            claims.append(f"upper reference {upper.first_match(x)} says S >= {upper.threshold + 1}")
        if phi is not None:
            claims.append(f"phi says S = {phi}")
        return cls(
            f"sample {index} {tuple(int(v) for v in x)}: {', '.join(claims)}; "
            "phi is not coherent or a reference is on the wrong side of its threshold"
        )


def _pack_references(
    refs: ReferenceSet | None, side: str, n_components: int, n_states: int
) -> np.ndarray | None:
    """Word-packed complement rows of a set's references in the thermometer layout; None for an absent or empty set.

    That is NOT T(l) for a lower set and T(u) for an upper one, pad bits
    zero: an upper set's rows meet a chunk's NOT T(x), whose pad bits are one.

    A set on the wrong side, or a non-empty set whose vectors do not have
    ``n_components`` components, raises ValueError.
    """
    if refs is None:
        return None
    if refs.side != side:
        raise ValueError(f"{side}_set must have side '{side}'")
    if len(refs) == 0:
        return None
    vectors = refs.as_array()
    if vectors.shape[1] != n_components:
        raise ValueError(
            f"{side} references have {vectors.shape[1]} components, "
            f"samples have {n_components}"
        )
    encoded = encode_batch(vectors, n_states)
    return encoded.packed_complement if side == Side.LOWER else encoded.packed


def _levels_apart(lower: np.ndarray, upper: np.ndarray, n_states: int) -> bool:
    """Whether level counts alone show that no upper reference lies under a lower one.

    ``lower`` and ``upper`` are the sets' R x N member matrices. With
    c_k(v) = #{n : v_n > k}, u <= l implies c_k(u) <= c_k(l) at every cut
    k, so some cut with min c_k(u) > max c_k(l) certifies that no u <= l.
    """
    for k in range(n_states - 1):
        if np.count_nonzero(upper > k, axis=1).min() > np.count_nonzero(lower > k, axis=1).max():
            return True
    return False


def _scratch_size(n_refs: int, n_cols: int) -> int:
    """Entries enough for every ``word_hits`` block of ``n_refs`` references on at most ``n_cols`` columns.

    A block on k columns takes min(n_refs, max(1, B // 16k)) * k entries,
    B being ``_BLOCK_BYTES``: at most B / 16 while 16k <= B, else k.
    """
    return min(n_refs * n_cols, max(_BLOCK_BYTES // 16, n_cols))


def _word_major(states: np.ndarray, n_states: int) -> np.ndarray:
    """The thermometer words of K state rows, word-major: entry (w, k) is word w of row k, the layout ``word_hits`` takes."""
    return np.ascontiguousarray(encode_batch(states, n_states).packed.T)


def _kernel_scratch(size: int, n_words: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``word_hits``'s OR accumulator of ``size`` entries, and its AND temporary when a row spans more than one word."""
    return np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64) if n_words > 1 else None


def word_hits(
    sample_words: np.ndarray,
    rbar_words: np.ndarray | None,
    scratch: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> np.ndarray:
    """Hit mask of word-major samples: some reference leaves every word of the AND zero.

    Rows a reference block hits leave the test: once a quarter of the
    rows tested have been hit, the open ones are gathered into a compact
    copy, and later blocks, sized to the rows left, test that alone.
    ``scratch`` is a ``_kernel_scratch`` of at least ``_scratch_size``
    entries for these references and columns, which the call overwrites;
    without one, the call allocates its own.
    """
    n_words, n_chunk = sample_words.shape
    hit = np.zeros(n_chunk, dtype=bool)
    if rbar_words is None or n_chunk == 0:
        return hit
    n_refs = rbar_words.shape[0]
    # entries of the OR accumulator and of the AND temporary, 8 bytes each
    size = min(n_refs, max(1, _BLOCK_BYTES // (16 * n_chunk))) * n_chunk
    acc, tmp = _kernel_scratch(size, n_words) if scratch is None else scratch
    words, rows = sample_words, None  # rows[c]: the row of column c of a gathered copy
    open_ = np.ones(n_chunk, dtype=bool)  # columns of words no block has hit
    r0 = 0
    while r0 < n_refs:
        n_cols = words.shape[1]
        rbar = rbar_words[r0 : r0 + size // n_cols]
        r0 += len(rbar)
        a = acc[: len(rbar) * n_cols].reshape(len(rbar), n_cols)
        np.bitwise_and(rbar[:, :1], words[0], out=a)
        for w in range(1, n_words):
            t = tmp[: a.size].reshape(a.shape)
            np.bitwise_and(rbar[:, w : w + 1], words[w], out=t)
            a |= t
        open_ &= a.min(axis=0) != 0
        n_open = np.count_nonzero(open_)
        if r0 < n_refs and 4 * n_open > 3 * n_cols:
            continue
        if rows is None:
            hit = ~open_
        else:
            hit[rows[~open_]] = True
        if r0 == n_refs or n_open == 0:
            break
        keep = np.flatnonzero(open_)
        words = words[:, keep]
        rows = keep if rows is None else rows[keep]
        open_ = np.ones(n_open, dtype=bool)
    return hit


def ordered_map(fn: Callable[[Any], Any], items: Iterable, n_workers: int) -> Iterator:
    """``fn`` over ``items``, results in item order.

    With ``n_workers > 1`` the calls run on that many threads, and at most
    ``n_workers + 1`` calls are running or waiting to be read at a time,
    so memory stays bounded by the worker count.
    """
    if n_workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending: deque[Future] = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > n_workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def verdicts(
    rows: Callable[[int, int], np.ndarray],
    n_rows: int,
    chunk_rows: int,
    sets: list[ThresholdSets],
    shape: tuple[int, int, int],
    n_workers: int,
    index: np.ndarray | None = None,
    packed: bool = False,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
    """Classify rows ``0..n_rows-1`` of ``rows(start, stop)``, ``chunk_rows`` at a time.

    ``shape`` is (N, M, M_S). Chunks run on ``n_workers`` threads and come
    back in index order as ``(start, states, lo, hi, hits)``: the bracket
    lo <= S <= hi the sets put on each row's system state, and per set the
    rows its lower and its upper references hit, as two boolean masks.
    Reading the chunk that holds the first crossed bracket raises
    ``InconsistentReferenceSets``, so no row is hit by both sides of a set.
    The error names row k as sample ``index[k]``, or as sample k when
    ``index`` is None.

    ``rows`` gives a chunk's states, which each chunk packs once. With
    ``packed`` it gives the chunk's thermometer words instead, word-major
    as ``_word_major`` lays them out, and the chunk is neither drawn nor
    encoded again: it comes back as those words, and the error decodes
    its row's states from them.

    Before the first chunk is drawn, each set is checked once for an upper
    reference under a lower one. The pass then allocates ``word_hits``'s
    scratch once per worker thread, sized to its largest block, and reuses
    it for every chunk and set; it is dropped when the pass ends.
    """
    n, m, n_system_states = shape
    refs = [(t, _pack_references(low, Side.LOWER, n, m), _pack_references(up, Side.UPPER, n, m)) for t, low, up in sets]
    # A row both sides hit would lie over some u and under some l, so u <= l.
    # With no such pair the upper pass may skip the rows the lower pass hit.
    # Level counts rule such pairs out without the kernel; failing that,
    # u <= l exactly when NOT T(l) AND T(u) is zero, the upper test with l
    # as the sample, on a scratch of its own that is freed here
    disjoint = [
        lower is None
        or upper is None
        or _levels_apart(low.as_array(), up.as_array(), m)
        or not word_hits(np.ascontiguousarray(lower.T), upper).any()
        for (_, low, up), (_, lower, upper) in zip(sets, refs)
    ]
    rbars = [r for _, lower, upper in refs for r in (lower, upper) if r is not None]
    # the largest kernel block tests a full chunk against the largest set
    size = max((_scratch_size(len(r), min(chunk_rows, n_rows)) for r in rbars), default=0)
    n_words = rbars[0].shape[1] if rbars else 1
    # the scratches no kernel call is using; list pop and append are atomic,
    # so a thread never takes one another thread holds
    spare: list[tuple[np.ndarray, np.ndarray | None]] = []

    def scratch() -> tuple[np.ndarray, np.ndarray | None]:
        try:
            return spare.pop()
        except IndexError:
            return _kernel_scratch(size, n_words)

    def work(start: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        chunk = rows(start, min(start + chunk_rows, n_rows))
        # T(x) meets the lower sets, NOT T(x) the upper
        words = chunk if packed else _word_major(chunk, m)
        n_chunk = words.shape[1]
        lo = np.zeros(n_chunk, dtype=np.int64)
        hi = np.full(n_chunk, n_system_states - 1, dtype=np.int64)
        hits = []
        kernel = scratch()
        for (t, lower, upper), apart in zip(refs, disjoint):
            low = word_hits(words, lower, kernel)
            up = np.zeros(n_chunk, dtype=bool)
            if upper is not None and apart and low.any():
                # NOT T(x) of the rows the lower pass left open, and only those
                flipped = words[:, ~low]
                np.invert(flipped, out=flipped)
                up[~low] = word_hits(flipped, upper, kernel)
                del flipped
            elif upper is not None:
                up = word_hits(~words, upper, kernel)
            np.minimum(hi, t, out=hi, where=low)
            np.maximum(lo, t + 1, out=lo, where=up)
            hits.append((low, up))
        spare.append(kernel)
        crossed = np.flatnonzero(lo > hi)
        if crossed.size:
            i = int(crossed[0])
            sample = start + i if index is None else int(index[start + i])
            x = decode_packed(words[:, i : i + 1].T, n, m)[0] if packed else chunk[i]
            raise InconsistentReferenceSets.on_bracket(sets, sample, x, lo[i], hi[i])
        return start, chunk, lo, hi, hits

    return ordered_map(work, range(0, n_rows, chunk_rows), n_workers)


@dataclass(frozen=True)
class ClassificationResult:
    """Partition of sample indices plus probability estimates.

    The three index sets are pairwise disjoint and cover 0..H-1, so the
    probability estimates partition unity at the level of integer counts.
    """

    lower_indices: np.ndarray
    upper_indices: np.ndarray
    unclassified_indices: np.ndarray
    n_samples: int

    @property
    def p_lower(self) -> float:
        return self.lower_indices.size / self.n_samples

    @property
    def p_upper(self) -> float:
        return self.upper_indices.size / self.n_samples

    @property
    def p_unclassified(self) -> float:
        return self.unclassified_indices.size / self.n_samples


def classify(
    batch: SampleBatch,
    lower_set: ReferenceSet | None,
    upper_set: ReferenceSet | None,
    n_workers: int = 1,
    *,
    n_states: int,
) -> ClassificationResult:
    """Partition a sample batch against lower and upper reference sets.

    A sample is lower-classified if it lies under some lower reference
    componentwise, upper-classified if it lies over some upper reference,
    and unclassified otherwise. ``n_states`` is the component state count M
    used to encode samples and references. A sample matched by both sides
    raises ``InconsistentReferenceSets``, naming the first such sample and
    the first lower and upper reference it matches. A non-empty set whose
    vectors do not have N components, or an ``n_workers`` below 1, raises
    ValueError.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if lower_set is not None and upper_set is not None:
        if lower_set.threshold != upper_set.threshold:
            raise ValueError(
                f"threshold mismatch: lower m'={lower_set.threshold}, "
                f"upper m'={upper_set.threshold}"
            )
    # run at m' = 0 with two system states, whatever the sets' own m':
    # lo + hi is then 0 for a lower hit, 2 for an upper hit, 1 for neither
    verdict = np.empty(batch.n_samples, dtype=np.int8)
    for start, _, lo, hi, _ in verdicts(
        lambda start, stop: batch.states[start:stop], batch.n_samples, _chunk_rows(batch.n_components),
        [(0, lower_set, upper_set)], (batch.n_components, n_states, 2), n_workers,
    ):
        verdict[start : start + lo.size] = lo + hi
    return ClassificationResult(
        lower_indices=np.flatnonzero(verdict == 0),
        upper_indices=np.flatnonzero(verdict == 2),
        unclassified_indices=np.flatnonzero(verdict == 1),
        n_samples=batch.n_samples,
    )


def cov(p_hat: float, n_samples: int) -> float | None:
    """Coefficient of variation of a Monte Carlo frequency; None when p=0.

    The value is sqrt((1 - p) / (H * p)). At p = 0 no samples were
    classified and the relative error is undefined rather than numeric.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("p_hat must lie in [0, 1]")
    if p_hat == 0.0:
        return None
    return math.sqrt((1.0 - p_hat) / (n_samples * p_hat))
