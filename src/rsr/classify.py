"""Batched reference-state sample classification and probability estimation.

Sample h lies in reference r's dominated region exactly when the AND of
its flattened one-hot row with the complement of r's flattened row is
zero. ``classify`` tests that on rows packed into 64-bit words: a sample
is hit when, for some reference, every word of the AND is zero.
``violation_counts`` keeps the full H x R matrix of how many component
positions violate each region, as popcount-of-AND on the same packed
words (the default) or as a plain integer matrix product (the
differential-testing path).

``classify`` is the whole-batch entry point. Streamed callers use the
packed-words one: ``pack_references`` once per set, then per chunk of
samples ``pack_samples`` once and ``word_hits`` once per set.

With a coherent phi and side-consistent reference sets no sample lies in
both a lower and an upper region; ``classify`` raises
``InconsistentReferenceSets`` on any sample that does.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .boundary import ReferenceSet, Side
from .encoding import EncodedBatch, encode_batch
from .sampling import SampleBatch

__all__ = [
    "ClassificationResult",
    "InconsistentReferenceSets",
    "violation_counts",
    "classify",
    "pack_samples",
    "pack_references",
    "word_hits",
    "cov",
]

DEFAULT_CHUNK_SIZE = 65536

# bound on one worker's chunk x ref-block temporaries; small enough that
# the hit kernel's AND and OR passes stay in a core's cache
_BLOCK_BYTES = 1 << 20


class InconsistentReferenceSets(ValueError):
    """phi is not coherent, or a reference lies on the wrong side of its threshold."""

    @classmethod
    def on_sample(
        cls, index: int, x: np.ndarray, lower: ReferenceSet | None, upper: ReferenceSet | None, phi: int | None = None
    ) -> InconsistentReferenceSets:
        """Name sample ``index``, its vector ``x``, the first member of each given set that matches it, and phi."""
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


def _violation_block_packed(sample_packed: np.ndarray, rbar_packed: np.ndarray) -> np.ndarray:
    anded = sample_packed[:, None, :] & rbar_packed[None, :, :]
    return np.bitwise_count(anded).sum(axis=2, dtype=np.int32)


def _violation_block_unpacked(sample_rows: np.ndarray, ref_rows: np.ndarray) -> np.ndarray:
    rbar = (1 - ref_rows).astype(np.int32)
    return sample_rows.astype(np.int32) @ rbar.T


def _ref_block_size(n_refs: int, chunk: int, bytes_per_pair: int) -> int:
    block = max(1, _BLOCK_BYTES // max(1, chunk * bytes_per_pair))
    return min(n_refs, block)


def violation_counts(
    samples: EncodedBatch,
    refs: EncodedBatch,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    method: str = "packed",
) -> np.ndarray:
    """Full H x R violation matrix, computed in sample chunks.

    The result is independent of ``chunk_size``. Counts fit int32 since
    the maximum violation per pair is N.
    """
    if samples.kind != "sample":
        raise ValueError("samples batch must have kind='sample'")
    if refs.kind not in ("lower_ref", "upper_ref"):
        raise ValueError("refs batch must have kind 'lower_ref' or 'upper_ref'")
    if (samples.n_components, samples.n_states) != (refs.n_components, refs.n_states):
        raise ValueError("samples and refs must share N and M")
    if len(refs) == 0:
        raise ValueError("refs batch is empty")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if method not in ("packed", "unpacked"):
        raise ValueError("method must be 'packed' or 'unpacked'")

    h = len(samples)
    out = np.empty((h, len(refs)), dtype=np.int32)
    for start in range(0, h, chunk_size):
        stop = min(start + chunk_size, h)
        if method == "packed":
            sp = samples.packed[start:stop]
            rbp = refs.packed_complement
            block = _ref_block_size(len(refs), stop - start, sp.shape[1] * sp.itemsize)
            for r0 in range(0, len(refs), block):
                r1 = min(r0 + block, len(refs))
                out[start:stop, r0:r1] = _violation_block_packed(sp, rbp[r0:r1])
        else:
            out[start:stop] = _violation_block_unpacked(
                samples.data[start:stop], refs.data
            )
    return out


def pack_samples(states: np.ndarray, n_states: int) -> np.ndarray:
    """One-hot rows of a K x N state matrix packed into 64-bit words, word-major.

    Entry (w, k) is word w of sample k, the layout ``word_hits`` takes.
    """
    return np.ascontiguousarray(encode_batch(states, n_states, "sample").packed.T)


def pack_references(
    refs: ReferenceSet | None, side: str, n_components: int, n_states: int
) -> np.ndarray | None:
    """Word-packed complement rows of a set's references; None for an absent or empty set.

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
    return encode_batch(vectors, n_states, f"{side}_ref").packed_complement


def word_hits(sample_words: np.ndarray, rbar_words: np.ndarray | None) -> np.ndarray:
    """Hit mask of word-major samples: some reference leaves every word of the AND zero."""
    n_words, n_chunk = sample_words.shape
    hit = np.zeros(n_chunk, dtype=bool)
    if rbar_words is None:
        return hit
    n_refs = rbar_words.shape[0]
    # the OR accumulator and the AND temporary, 8 bytes per pair each
    block = _ref_block_size(n_refs, n_chunk, 16)
    acc = np.empty((block, n_chunk), dtype=np.uint64)
    tmp = np.empty_like(acc)
    for r0 in range(0, n_refs, block):
        rbar = rbar_words[r0 : r0 + block]
        a, t = acc[: len(rbar)], tmp[: len(rbar)]
        np.bitwise_and(rbar[:, :1], sample_words[0], out=a)
        for w in range(1, n_words):
            np.bitwise_and(rbar[:, w : w + 1], sample_words[w], out=t)
            a |= t
        hit |= a.min(axis=0) == 0
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


def _chunked_hits(
    packed: np.ndarray, rbar_words: np.ndarray | None, chunk_size: int, n_workers: int
) -> np.ndarray:
    """Hit mask of row-major packed samples, tested ``chunk_size`` rows at a time."""
    h = packed.shape[0]

    def work(start: int) -> np.ndarray:
        return word_hits(np.ascontiguousarray(packed[start : start + chunk_size].T), rbar_words)

    return np.concatenate(list(ordered_map(work, range(0, h, chunk_size), n_workers)))


def _hits_for(
    samples_enc: EncodedBatch,
    ref_states: np.ndarray | None,
    kind: str,
    chunk_size: int,
    n_workers: int,
) -> np.ndarray:
    rbar = None
    if ref_states is not None and ref_states.shape[0]:
        rbar = encode_batch(ref_states, samples_enc.n_states, kind).packed_complement
    return _chunked_hits(samples_enc.packed, rbar, chunk_size, n_workers)


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
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_workers: int = 1,
    *,
    n_states: int,
) -> ClassificationResult:
    """Partition a sample batch against lower and upper reference sets.

    A sample is lower-classified if any lower reference gives zero
    violations, upper-classified if any upper reference does, and
    unclassified otherwise. ``n_states`` is the component state count M
    used to encode samples and references. A sample matched by both sides
    raises ``InconsistentReferenceSets``, naming the first such sample and
    the first lower and upper reference it matches. A non-empty set whose
    vectors do not have N components raises ValueError.
    """
    if lower_set is not None and upper_set is not None:
        if lower_set.threshold != upper_set.threshold:
            raise ValueError(
                f"threshold mismatch: lower m'={lower_set.threshold}, "
                f"upper m'={upper_set.threshold}"
            )
    rbars = [
        pack_references(refs, side, batch.n_components, n_states)
        for side, refs in ((Side.LOWER, lower_set), (Side.UPPER, upper_set))
    ]
    packed = encode_batch(batch.states, n_states, "sample").packed
    lower_hit, upper_hit = (_chunked_hits(packed, rbar, chunk_size, n_workers) for rbar in rbars)

    both = np.flatnonzero(lower_hit & upper_hit)
    if both.size:
        idx = int(both[0])
        raise InconsistentReferenceSets.on_sample(idx, batch.states[idx], lower_set, upper_set)

    return ClassificationResult(
        lower_indices=np.flatnonzero(lower_hit),
        upper_indices=np.flatnonzero(upper_hit),
        unclassified_indices=np.flatnonzero(~(lower_hit | upper_hit)),
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
