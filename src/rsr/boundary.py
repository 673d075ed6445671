"""Componentwise boundary searches and non-dominated reference-set maintenance.

A lower reference state r gives system state <= m', so it covers every
x <= r componentwise; an upper one gives state >= m'+1 and covers every
x >= r. A set stores its non-dominated members as one R x N int64 matrix
in insertion order; one coverage rule, ``_inside``, finds redundant
candidates (covered by a member or an earlier candidate) and the members
an insert evicts, for a whole batch of candidates at once.

Searches run in lockstep: ``boundary_searches`` steps every walk one
phi call at a time and evaluates the vectors of all live walks in one
call to the model's counted core ``SystemModel._phi_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Sequence

import numpy as np

from .model import SystemModel, validate_vector

__all__ = ["Side", "ReferenceState", "ReferenceSet", "boundary_search", "boundary_searches"]

# bound on the comparison temporaries of one block of a kernel: reference-set
# coverage here, the hit kernel's AND and OR passes in classify. Small
# enough that a block stays in a core's cache
_BLOCK_BYTES = 1 << 20


class Side:
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ReferenceState:
    vector: tuple[int, ...]
    side: str
    threshold: int

    def __post_init__(self) -> None:
        if self.side not in (Side.LOWER, Side.UPPER):
            raise ValueError(f"side must be '{Side.LOWER}' or '{Side.UPPER}'")
        object.__setattr__(self, "vector", tuple(map(int, self.vector)))

    @classmethod
    def checked(
        cls, model: SystemModel, vector: Sequence[int], side: str, threshold: int
    ) -> "ReferenceState":
        """Construct after verifying the side condition against the model."""
        s = model.evaluate(vector)
        if side == Side.LOWER and s > threshold:
            raise ValueError(f"lower reference has system state {s} > m'={threshold}")
        if side == Side.UPPER and s <= threshold:
            raise ValueError(f"upper reference has system state {s} <= m'={threshold}")
        return cls(tuple(vector), side, threshold)


def _inside(side: str, x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Componentwise x <= r (lower) or x >= r (upper), broadcast."""
    return x <= refs if side == Side.LOWER else x >= refs


def _component_major(*matrices: np.ndarray) -> list[np.ndarray]:
    """N x K copies of K x N state matrices, in the narrowest integer dtype that holds every entry."""
    ends = [v for m in matrices if m.size for v in (m.min(), m.max())]
    dtype = np.result_type(*map(np.min_scalar_type, ends))
    return [np.ascontiguousarray(m.T, dtype=dtype) for m in matrices]


def _covered(side: str, x: np.ndarray, refs: np.ndarray, among: int = 0) -> np.ndarray:
    """Whether some column of ``refs`` covers each column of ``x``; both are component-major, N x K and N x R.

    With ``among`` set, ``refs`` is ``x`` itself and only the columns before
    column i (``among`` = -1) or after it (+1) count for column i. Columns
    of ``x`` are compared a block at a time, so the comparison's temporary
    takes about ``_BLOCK_BYTES`` whatever K and R; component-major, the AND
    over components runs along whole rows.
    """
    k, r = x.shape[1], refs.shape[1]
    covered = np.empty(k, dtype=bool)
    step = max(1, _BLOCK_BYTES // max(1, refs.size))
    for i0 in range(0, k, step):
        i1 = min(i0 + step, k)
        j0, j1 = (0, i1) if among < 0 else (i0 + 1, r) if among > 0 else (0, r)
        rel = np.logical_and.reduce(_inside(side, x[:, i0:i1, None], refs[:, None, j0:j1]), axis=0)
        if among:
            i, j = np.arange(i0, i1)[:, None], np.arange(j0, j1)
            rel &= j < i if among < 0 else j > i
        covered[i0:i1] = rel.any(axis=1)
    return covered


class ReferenceSet:
    """Non-dominated set of reference vectors for one side and threshold."""

    def __init__(
        self,
        side: str,
        threshold: int,
        members: Iterable[Sequence[int]] = (),
    ) -> None:
        if side not in (Side.LOWER, Side.UPPER):
            raise ValueError(f"side must be '{Side.LOWER}' or '{Side.UPPER}'")
        self.side = side
        self.threshold = int(threshold)
        self._matrix = np.empty((0, 0), dtype=np.int64)  # the first insert sets N
        self._matrix.flags.writeable = False
        self.insert_many([ReferenceState(m, side, threshold) for m in members])

    @property
    def members(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self._matrix.tolist()]

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def as_array(self) -> np.ndarray:
        """The read-only R x N member matrix, rows in insertion order."""
        return self._matrix

    def first_match(self, x: np.ndarray) -> tuple[int, ...]:
        """The earliest-inserted member whose region contains ``x``."""
        row = np.flatnonzero(_inside(self.side, x, self._matrix).all(axis=1))[0]
        return tuple(self._matrix[row].tolist())

    def insert(self, candidate: ReferenceState) -> str:
        """Insert keeping non-dominance; returns 'inserted' or 'redundant'.

        A redundant candidate leaves the set unchanged; an inserted one
        drops every member it makes redundant and goes last. The final set
        is independent of insertion order (up to set equality). This is
        the one-candidate call of ``insert_many``.
        """
        (outcome,) = self.insert_many([candidate])
        return outcome

    def insert_many(self, candidates: Sequence[ReferenceState]) -> list[str]:
        """Insert candidates in order; the set and outcomes equal those of one ``insert`` each.

        By transitivity of coverage, a candidate is redundant iff a member
        or an earlier candidate covers it (an earlier one that the set no
        longer holds was dropped by a later one covering it, or covered on
        arrival). A member is evicted iff an inserted candidate covers it,
        and an inserted candidate stays unless a later inserted one covers
        it. Survivors keep their order and inserted candidates go last, in
        order. Every candidate is checked before the set changes.
        """
        n = self._matrix.shape[1] if len(self) else len(candidates[0].vector) if candidates else 0
        for candidate in candidates:
            if candidate.side != self.side:
                raise ValueError(f"candidate side {candidate.side!r} != set side {self.side!r}")
            if candidate.threshold != self.threshold:
                raise ValueError(
                    f"candidate threshold {candidate.threshold} != set threshold {self.threshold}"
                )
            if len(candidate.vector) != n:
                raise ValueError(
                    f"candidate has {len(candidate.vector)} components, set members have {n}"
                )
        if not candidates:
            return []
        vectors = np.array([c.vector for c in candidates], dtype=np.int64)
        rows = self._matrix.reshape(len(self), n)
        new, members = _component_major(vectors, rows)
        redundant = _covered(self.side, new, members) | _covered(self.side, new, new, among=-1)
        added = np.flatnonzero(~redundant)
        if not added.size:
            return ["redundant"] * len(candidates)
        new = new[:, added]
        kept = np.flatnonzero(~_covered(self.side, members, new))
        stays = added[~_covered(self.side, new, new, among=1)]
        del new, members
        # taken straight into the new matrix: mode="clip" (the indices are
        # in range) spares take the whole-output buffer of mode="raise"
        matrix = np.empty((kept.size + stays.size, n), dtype=np.int64)
        np.take(rows, kept, axis=0, out=matrix[: kept.size], mode="clip")
        np.take(vectors, stays, axis=0, out=matrix[kept.size :], mode="clip")
        matrix.flags.writeable = False
        self._matrix = matrix
        return ["redundant" if r else "inserted" for r in redundant.tolist()]


def _shift(x: np.ndarray, moves: list[int], step: int, a: int, b: int) -> None:
    """Turn the state after moves[:a] into the state after moves[:b]."""
    sign = step if a < b else -step
    for n in moves[min(a, b) : max(a, b)]:
        x[n] += sign


def _walk(x: np.ndarray, threshold: int, n_states: int) -> Generator[np.ndarray, int, ReferenceState]:
    """The galloping walk from ``x`` to the boundary of m' = ``threshold``.

    Yields each vector to evaluate, is sent its system state, and returns
    the reference. ``x`` is an int64 vector of states in [0, ``n_states``-1]
    that the walk moves in place; each yielded vector is ``x`` itself, left
    unchanged until the walk is sent its state.

    The walk's moves are unit steps of one component state, ordered by
    component index and, within a component, towards its limit: up to
    M-1 on the lower side (initial system state <= m'), down to 0 on the
    upper side. A move is rejected when it pushes the system state across
    m'; the walk keeps the state before it and skips the rest of that
    component. Monotonicity makes each rejection permanent, so the result
    is componentwise maximal (lower) or minimal (upper).

    One evaluation probes the next L moves at once. An accepted probe
    takes them all; a rejected one is bisected for its first rejected
    move, which by monotonicity is the move a walk of single steps would
    reject, so the reference is the same. L stays 1 until two components
    in a row reach their limit without a rejection, then doubles on each
    accepted probe, and falls back to 1 after a rejection.

    It costs at most N*(M-1)+1 evaluations. ``spare`` counts the
    calls left in that budget beyond one per remaining move: an accepted
    L-move probe adds L-1, and since bisecting a rejected one costs
    ceil(log2 L) further calls, an L-move probe runs only while
    spare >= ceil(log2 L).
    """
    if (yield x) <= threshold:
        side, step, room = Side.LOWER, 1, n_states - 1 - x
    else:
        side, step, room = Side.UPPER, -1, x
    lower = side == Side.LOWER

    # the component of each move, read before any move changes x
    moves = np.arange(x.size).repeat(room).tolist()
    end = len(moves)
    spare = x.size * (n_states - 1) - end

    p, width, run = 0, 1, 0  # moves[:p] are settled: taken, or skipped after a rejection
    while p < end:
        if width == 1:
            x[moves[p]] += step
        else:
            width = min(width, end - p)
            if (width - 1).bit_length() > spare:  # ceil(log2 width) > spare
                width = 1 << spare
            for n in moves[p : p + width]:
                x[n] += step
        q = p + width
        if ((yield x) <= threshold) == lower:
            if q == end or moves[q] != moves[q - 1]:  # a component reached its limit
                run += 1
            if run >= 2:
                width *= 2
        else:
            # bisect: moves[:lo] are accepted, moves[:hi] cross m', x is after moves[:q]
            lo, hi = p, q
            while hi - lo > 1:
                mid = (lo + hi) // 2
                _shift(x, moves, step, q, mid)
                q = mid
                spare -= 1
                if ((yield x) <= threshold) == lower:
                    lo = mid
                else:
                    hi = mid
            _shift(x, moves, step, q, lo)
            # moves[lo] is rejected: skip the rest of its component
            q = lo + 1
            while q < end and moves[q] == moves[lo]:
                q += 1
            width, run = 1, 0
        spare += q - p - 1  # q - p moves settled for one probe call
        p = q
    return ReferenceState(tuple(x.tolist()), side, threshold)


def boundary_searches(
    model: SystemModel, starts: Sequence[Sequence[int]], thresholds: Sequence[int]
) -> tuple[list[ReferenceState], list[int]]:
    """Walk each start to the system-state boundary of its threshold, all walks in lockstep.

    Returns the references and each walk's phi calls, both in start
    order. A round gathers the next vector of every live walk into one
    K x N matrix and evaluates it with one call to the model's counted
    core ``_phi_rows``, which counts K calls. Each walk is ``_walk``'s
    galloping walk; its reference and phi calls do not depend on the
    other walks.

    Every threshold and start is validated before the first phi call.
    Every vector evaluated after that is a start moved by unit steps
    within [0, M-1], so it goes to the counted, range-checked core
    without ``SystemModel.evaluate``'s validation; every call still counts.
    """
    for threshold in set(thresholds):
        model.check_threshold(threshold)
    n, m = model.n_components, model.n_component_states
    # row i is walk i's vector, an int64 copy of start i that the walk moves
    # in place, so stepping never wraps a narrow input dtype
    x = np.empty((len(starts), n), dtype=np.int64)
    for i, x0 in enumerate(starts):
        x[i] = validate_vector(x0, n, m)
    walks = [_walk(row, threshold, m) for row, threshold in zip(x, thresholds, strict=True)]
    for walk in walks:
        next(walk)
    refs: list[ReferenceState] = [None] * len(walks)  # type: ignore[list-item]
    calls = [0] * len(walks)
    live = list(range(len(walks)))
    while live:
        states = model._phi_rows(x[live])
        waiting = []
        for i, state in zip(live, states.tolist()):
            calls[i] += 1
            try:
                walks[i].send(state)
                waiting.append(i)
            except StopIteration as done:
                refs[i] = done.value
        live = waiting
    return refs, calls


def boundary_search(model: SystemModel, x0: Sequence[int], threshold: int) -> ReferenceState:
    """Walk one vector to the system-state boundary: the one-start call of ``boundary_searches``."""
    (ref,), _ = boundary_searches(model, [x0], [threshold])
    return ref
