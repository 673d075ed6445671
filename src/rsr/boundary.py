"""Componentwise boundary search and non-dominated reference-set maintenance.

A lower reference state r gives system state <= m', so it covers every
x <= r componentwise; an upper one gives state >= m'+1 and covers every
x >= r. A set stores its non-dominated members as one R x N int64 matrix
in insertion order; one coverage rule, ``_covers``, finds a redundant
candidate (covered by a member) and the members an insert evicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import SystemModel, validate_vector

__all__ = ["Side", "ReferenceState", "ReferenceSet", "boundary_search"]


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


def _covers(side: str, x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Whether ``x`` <= r (lower) or ``x`` >= r (upper), broadcast over all but the last axis."""
    inside = x <= refs if side == Side.LOWER else x >= refs
    return inside.all(axis=-1)


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
        for m in members:
            self.insert(ReferenceState(tuple(m), side, threshold))

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
        row = np.flatnonzero(_covers(self.side, x, self._matrix))[0]
        return tuple(self._matrix[row].tolist())

    def insert(self, candidate: ReferenceState) -> str:
        """Insert keeping non-dominance; returns 'inserted' or 'redundant'.

        A redundant candidate leaves the set unchanged; an inserted one
        drops every member it makes redundant and goes last. The final set
        is independent of insertion order (up to set equality).
        """
        if candidate.side != self.side:
            raise ValueError(f"candidate side {candidate.side!r} != set side {self.side!r}")
        if candidate.threshold != self.threshold:
            raise ValueError(
                f"candidate threshold {candidate.threshold} != set threshold {self.threshold}"
            )
        vec = np.array(candidate.vector, dtype=np.int64)
        if len(self) and self._matrix.shape[1] != vec.size:
            raise ValueError(
                f"candidate has {vec.size} components, set members have {self._matrix.shape[1]}"
            )
        members = self._matrix.reshape(len(self), vec.size)
        if _covers(self.side, vec, members).any():
            return "redundant"
        self._matrix = np.concatenate([members[~_covers(self.side, members, vec)], vec[None, :]])
        self._matrix.flags.writeable = False
        return "inserted"


def boundary_search(
    model: SystemModel, x0: Sequence[int], threshold: int
) -> ReferenceState:
    """Walk a vector to the system-state boundary, galloping over runs of accepted moves.

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

    Costs at most N*(M-1)+1 evaluations. ``spare`` counts the calls left
    in that budget beyond one per remaining move: an accepted L-move
    probe adds L-1, and since bisecting a rejected one costs ceil(log2 L)
    further calls, an L-move probe runs only while spare >= ceil(log2 L).

    ``x0`` is validated once. Every vector evaluated after that, the
    first included, is x0 moved by unit steps within [0, M-1], so each
    call goes to the model's counted, range-checked core ``_phi`` and
    skips ``SystemModel.evaluate``'s validation; every call still counts.
    """
    model.check_threshold(threshold)
    # an int64 copy, so stepping never wraps a narrow input dtype
    x = validate_vector(x0, model.n_components, model.n_component_states).astype(np.int64)
    phi = model._phi
    if phi(x) <= threshold:
        side, step, room = Side.LOWER, 1, model.n_component_states - 1 - x
    else:
        side, step, room = Side.UPPER, -1, x
    lower = side == Side.LOWER

    def accepted() -> bool:
        return (phi(x) <= threshold) == lower

    # the component of each move, read before any move changes x
    moves = np.arange(model.n_components).repeat(room).tolist()
    end = len(moves)
    spare = model.n_components * (model.n_component_states - 1) - end

    def shift(a: int, b: int) -> None:
        """Turn the state after moves[:a] into the state after moves[:b]."""
        sign = step if a < b else -step
        for n in moves[min(a, b) : max(a, b)]:
            x[n] += sign

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
        if accepted():
            if q == end or moves[q] != moves[q - 1]:  # a component reached its limit
                run += 1
            if run >= 2:
                width *= 2
        else:
            # bisect: moves[:lo] are accepted, moves[:hi] cross m', x is after moves[:q]
            lo, hi = p, q
            while hi - lo > 1:
                mid = (lo + hi) // 2
                shift(q, mid)
                q = mid
                spare -= 1
                if accepted():
                    lo = mid
                else:
                    hi = mid
            shift(q, lo)
            # moves[lo] is rejected: skip the rest of its component
            q = lo + 1
            while q < end and moves[q] == moves[lo]:
                q += 1
            width, run = 1, 0
        spare += q - p - 1  # q - p moves settled for one probe call
        p = q
    return ReferenceState(tuple(x.tolist()), side, threshold)
