"""Componentwise boundary searches and non-dominated reference-set maintenance.

A lower reference state r gives system state <= m', so it covers every
x <= r componentwise; an upper one gives state >= m'+1 and covers every
x >= r. A set stores its non-dominated members once, as one N x R
component-major matrix in a narrow integer dtype (uint8 for states
0-255), and a reference is a row of its R x N transposed view, in insertion
order. One coverage rule, ``_inside``, finds redundant candidates
(covered by a member or an earlier candidate) and the members an insert
evicts, for a whole K x N matrix of candidates at once.

Searches run in lockstep: ``boundary_searches`` steps every walk one
phi call at a time, moving its own row of one K x N matrix to its
reference. A round evaluates the distinct vectors that no walk of the
same threshold has yet asked for in one call to ``SystemModel._phi_rows``,
the model's one counted core; a vector asked for again takes the state
remembered for the call.
"""

from __future__ import annotations

from itertools import chain
from typing import Generator, Iterable, Mapping, Sequence

import numpy as np

from .model import SystemModel, check_integers, check_states

__all__ = ["Side", "ReferenceSet", "boundary_search", "boundary_searches"]

# bound on the comparison temporaries of one block of a kernel: reference-set
# coverage here, the hit kernel's AND and OR passes in classify. Small
# enough that a block stays in a core's cache
_BLOCK_BYTES = 1 << 20

# the weight, in rejections, of the prior in a walk's rejection rate, and the
# least prior it takes, so that an empty count stays finite
_PRIOR_REJECTIONS = 4
_PRIOR_FLOOR = 1e-3


def _reject_bools(values: Iterable) -> None:
    """Raise if a bool is among ``values``: numpy takes one among ints for 0 or 1, and
    ``check_integers`` sees only the dtype numpy infers."""
    if not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError("component states must be integers, got a bool")


class Side:
    LOWER = "lower"
    UPPER = "upper"


def _inside(side: str, x: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Componentwise x <= r (lower) or x >= r (upper), broadcast."""
    return x <= refs if side == Side.LOWER else x >= refs


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


def _as_rows(members: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """``members`` as one array, naming the first row of another length and refusing a bool among ints."""
    try:
        vectors = np.array(members)
    except ValueError:  # rows of several lengths: name the first that differs
        n = len(members[0])
        for v in members:
            if len(v) != n:
                raise ValueError(f"candidate has {len(v)} components, set members have {n}") from None
        raise
    if vectors.dtype.kind in "iu" and not isinstance(members, np.ndarray):
        _reject_bools(chain.from_iterable(members))
    return vectors


class ReferenceSet:
    """Non-dominated set of reference vectors for one side and threshold, taking ``members`` as one matrix.

    The set keeps its members once, as the N x R component-major matrix
    that coverage compares, in the integer dtype ``np.min_scalar_type``
    gives for the extremes of the members and of the latest insert's
    candidates: uint8 for states 0-255. A reference is a row of
    ``as_array()``.
    """

    def __init__(
        self,
        side: str,
        threshold: int,
        members: Sequence[Sequence[int]] | np.ndarray = (),
    ) -> None:
        if side not in (Side.LOWER, Side.UPPER):
            raise ValueError(f"side must be '{Side.LOWER}' or '{Side.UPPER}'")
        self.side = side
        self.threshold = int(threshold)
        # the R x N transposed view of the stored N x R matrix; the first insert sets N
        self._rows = np.empty((0, 0), dtype=np.uint8)
        self._rows.flags.writeable = False
        vectors = _as_rows(members)
        if vectors.size:
            self.insert_many(vectors)

    @property
    def members(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.as_array().tolist()]

    def __len__(self) -> int:
        return self._rows.shape[0]

    def as_array(self) -> np.ndarray:
        """The read-only R x N member matrix, rows in insertion order: a transposed view of the stored matrix."""
        return self._rows

    def first_match(self, x: np.ndarray) -> tuple[int, ...]:
        """The earliest-inserted member whose region contains ``x``."""
        row = np.flatnonzero(_inside(self.side, x, self._rows).all(axis=1))[0]
        return tuple(self._rows[row].tolist())

    def insert(self, vector: Sequence[int] | np.ndarray) -> str:
        """Insert keeping non-dominance; returns 'inserted' or 'redundant'.

        A redundant vector leaves the set unchanged; an inserted one drops
        every member it makes redundant and goes last. The final set is
        independent of insertion order (up to set equality). This is the
        one-row call of ``insert_many``.
        """
        (outcome,) = self.insert_many(_as_rows([vector]))
        return outcome

    def insert_many(self, vectors: np.ndarray) -> list[str]:
        """Insert the rows of a K x N integer matrix in order; the set and outcomes equal those of one ``insert`` each.

        By transitivity of coverage, a candidate is redundant iff a member
        or an earlier candidate covers it (an earlier one that the set no
        longer holds was dropped by a later one covering it, or covered on
        arrival). A member is evicted iff an inserted candidate covers it,
        and an inserted candidate stays unless a later inserted one covers
        it. Survivors keep their order and inserted candidates go last, in
        order. The matrix is checked before the set changes.
        """
        vectors = check_integers(vectors)
        if vectors.dtype == np.uint64 and vectors.size and vectors.max() > np.iinfo(np.int64).max:
            raise ValueError(f"component state {vectors.max()} does not fit int64")
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValueError(f"candidates must form a K x N matrix, got shape {vectors.shape}")
        if not len(vectors):
            return []
        members = self._rows.T
        n = members.shape[0] if len(self) else vectors.shape[1]
        if vectors.shape[1] != n:
            raise ValueError(f"candidate has {vectors.shape[1]} components, set members have {n}")
        ends = [v for m in (vectors, members) if m.size for v in (m.min(), m.max())]
        dtype = np.result_type(*map(np.min_scalar_type, ends))
        new = np.ascontiguousarray(vectors.T, dtype=dtype)
        members = members.reshape(n, len(self)).astype(dtype, copy=False)
        redundant = _covered(self.side, new, members) | _covered(self.side, new, new, among=-1)
        added = np.flatnonzero(~redundant)
        if not added.size:
            return ["redundant"] * len(vectors)
        inserted = new[:, added]
        kept = np.flatnonzero(~_covered(self.side, members, inserted))
        stays = added[~_covered(self.side, inserted, inserted, among=1)]
        del inserted
        # mode="clip" (the indices are in range) lets take write a contiguous
        # ``out`` in place; a slice of columns goes through one buffer
        columns = np.empty((n, kept.size + stays.size), dtype=dtype)
        np.take(members, kept, axis=1, out=columns[:, : kept.size], mode="clip")
        np.take(new, stays, axis=1, out=columns[:, kept.size :], mode="clip")
        columns.flags.writeable = False
        self._rows = columns.T
        return ["redundant" if r else "inserted" for r in redundant.tolist()]


def _shift(x: np.ndarray, moves: list[int], step: int, a: int, b: int) -> None:
    """Turn the state after moves[:a] into the state after moves[:b]."""
    sign = step if a < b else -step
    for n in moves[min(a, b) : max(a, b)]:
        x[n] += sign


def _gap(left: int, rate: float) -> int:
    """Hwang's group size for ``left`` moves expected to hold d = max(1, ``left`` * ``rate``) rejections:
    2**floor(log2((left - d + 1) / d)), and at least 1."""
    d = max(1.0, left * rate)
    return 1 << max(0, int((left - d + 1) / d).bit_length() - 1)


def _walk(
    x: np.ndarray, threshold: int, n_states: int, priors: tuple[float | None, float | None] = (None, None)
) -> Generator[np.ndarray, int, bool]:
    """The galloping walk from ``x`` to the boundary of m' = ``threshold``.

    Yields each vector to evaluate, is sent its system state, and returns
    whether it walked the lower side. ``x`` is an int64 vector of states
    in [0, ``n_states``-1] that the walk moves in place to the reference;
    each yielded vector is ``x`` itself, unchanged until it is sent a state.

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
    reject. So whatever the widths, the reference is the one the single
    steps reach; the widths set only the number of calls. They follow
    three rules. The walk gallops, an exponential search restarted after
    each rejection: once a component has reached its limit since the
    last rejection, L doubles on each accepted probe.

    The gallop starts at the gap the walk expects when its components
    are binary (M = 2, so a move is a whole component) and it has a
    rate: a prior for its side, or a rejection of its own. The probe
    after the one that starts the gallop then takes max(2L,
    2**floor(log2((n - d + 1) / d))) moves, Hwang's generalized binary
    splitting group for n moves left that hold d = max(1, n * rate)
    rejections. ``rate`` is the walk's own count, r rejections in a
    accepted moves: r / a with no prior, and with one shrunk toward it,
    (r + 4) / (a + 4 / prior), the prior floored at 1e-3. Both counts
    are kept as the walk goes, so the rule costs O(1) a restart.
    ``priors`` holds the lower side's prior and the upper side's, or
    None; Stage 1 reads each from its reference set, as the share of
    member entries short of the walk's limit, which is the rate at which
    finished walks were rejected. The probe that starts the gallop stays
    one move, so a rejection right after a rejection, common on graphs
    where two edges in series are both needed, still costs one call.
    With more states a rejection skips the rest of its component, so
    rejections fall one per component and bunch past the first, which a
    rate per move does not see: on k-out-of-n and on sums the expected
    gap measured more calls, and there the gallop starts at 2L. A walk
    with no prior starts at 2L too until its first rejection gives it a
    rate of its own.

    A walk that is not galloping and reaches a new component c probes
    all of c's moves up to ``level``, the state the last rejected
    component settled at, in one evaluation: L = max(1, (level - x[c]) *
    step), which never spills into the next component. Components past a rejection tend to settle
    where it did: on a k-out-of-n system each settles at the state of
    the k-th largest. Every other probe of a walk that is not galloping
    is one move.

    Before that level probe, the walk may first evaluate one joint probe
    y: ``x`` with every component from c on moved to ``level`` wherever it
    falls short of it. It does so when some component past c moves and
    no certificate holds (below). A refused y changes nothing but the
    call count, so the probe pays only where the components past a
    rejection settle at its level.
    An accepted y is a certificate: while every component from c up to
    e-1 has settled at exactly y's value, the state that takes component
    e's moves up to y[e] lies inside y (<= y on the lower side, >= y on
    the upper), so monotonicity accepts each of those moves and the walk
    takes them with no call, then probes e's next move by the rules above.
    Since y[e] is e's state or ``level``, whichever is nearer the limit,
    the certificate is kept as that level alone. A component settles at
    y's value exactly when no move past what the certificate granted it
    is accepted, so the first such move voids the certificate: an O(1)
    test, made only on a probe's verdict. The moves a certificate grants
    never reach a limit, since ``level`` lies short of it. At M = 2 no
    component is ever short of ``level``, so no joint probe is made. A
    joint probe is written into ``x`` for its call and undone once its
    state is sent.

    It costs at most N*(M-1)+1 evaluations. ``spare`` counts the calls
    left in that budget beyond one per remaining move: an accepted L-move
    probe adds L-1, moves a certificate grants add one each, and a joint
    probe, which settles no move, takes one. Since bisecting a rejected
    L-move probe costs ceil(log2 L) further calls, an L-move probe of
    any rule runs only while spare >= ceil(log2 L), and is cut to
    2**spare moves otherwise; a joint probe runs only while spare >= 1.
    So neither the budget nor the reference depends on the priors.
    """
    lower = (yield x) <= threshold
    binary = n_states == 2
    prior = (priors[0] if lower else priors[1]) if binary else None
    if prior is not None:
        prior = max(prior, _PRIOR_FLOOR)
    step, room = (1, n_states - 1 - x) if lower else (-1, x)
    toward = np.maximum if lower else np.minimum  # of a state and ``level``, the one nearer the limit

    # the component of each move, read before any move changes x
    moves = np.arange(x.size).repeat(room).tolist()
    end = len(moves)
    spare = x.size * (n_states - 1) - end

    p, width, gallop = 0, 1, False  # moves[:p] are settled: taken, or skipped after a rejection
    # the state the last rejected component settled at; before the first
    # rejection the end of the range away from the limit, so a level probe
    # is one move
    level = 0 if lower else n_states - 1
    # the level of the last accepted joint probe while it certifies, None
    # once a move past what it grants is accepted
    cert = None
    rejections = 0
    while p < end:
        c = moves[p]
        if not gallop and (p == 0 or c != moves[p - 1]):
            xc = int(x[c])
            if (
                cert is None
                and (level - xc) * step > 0
                and spare
                and any((level - v) * step > 0 for v in x[c + 1 :].tolist())
            ):
                # the joint probe: components c on moved to ``level``
                tail = x[c:].copy()
                toward(tail, level, out=x[c:])
                spare -= 1
                if ((yield x) <= threshold) == lower:
                    cert = level
                x[c:] = tail
            if cert is not None and (cert - xc) * step > 0:
                # the moves up to the certificate's level need no call:
                # their state lies inside the accepted joint probe
                taken = (cert - xc) * step
                x[c] = xc = cert
                spare += taken
                p += taken
            # a new component: take its moves up to ``level`` in one probe
            width = max(1, (level - xc) * step)
        if width == 1:
            x[c] += step
        else:
            width = min(width, end - p)
            if (width - 1).bit_length() > spare:  # ceil(log2 width) > spare
                width = 1 << spare
            for n in moves[p : p + width]:
                x[n] += step
        q = p + width
        if ((yield x) <= threshold) == lower:
            # the component moved past its value in the joint probe
            cert = None
            # gallop once a component has reached its limit since the last rejection
            starting = not gallop and (q == end or moves[q] != moves[q - 1])
            gallop = gallop or starting
            width = width * 2 if gallop else 1
            if starting and binary and q < end and (prior is not None or rejections):
                # at M = 2, q - rejections of the moves before q were accepted
                accepted = q - rejections
                if prior is None:
                    rate = rejections / accepted
                else:
                    rate = (rejections + _PRIOR_REJECTIONS) / (accepted + _PRIOR_REJECTIONS / prior)
                width = max(width, _gap(end - q, rate))
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
            if lo > p:  # the component settles past its value in the joint probe
                cert = None
            level = int(x[moves[lo]])
            rejections += 1
            # moves[lo] is rejected: skip the rest of its component
            q = lo + 1
            while q < end and moves[q] == moves[lo]:
                q += 1
            gallop = False
        spare += q - p - 1  # q - p moves settled for one probe call
        p = q
    return lower


def boundary_searches(
    model: SystemModel,
    starts: Sequence[Sequence[int]],
    thresholds: Sequence[int],
    priors: Mapping[tuple[int, str], float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk each start to the system-state boundary of its threshold, all walks in lockstep.

    Returns ``(ends, lower, calls)`` in start order: the K x N int64
    references, the mask of lower-side walks and the phi calls charged to
    each walk. Each walk is ``_walk``'s galloping walk, and a round sends
    every live walk the system state of its next vector. ``priors`` maps
    (threshold, side) to the rejection rate in [0, 1] that the walks of
    that threshold and side expect; it sets only the calls, never the
    references.

    The call remembers the state of each (threshold, vector) it has
    evaluated. A round evaluates only the distinct vectors not yet
    remembered for their threshold, as one matrix, with one call to the
    model's counted core ``_phi_rows``, which counts one call a row; each
    row is charged to the first walk, in start order, that asked for it.
    So a walk's reference is the one it reaches alone, from at most as
    many calls, and a threshold's calls are the distinct vectors its walks
    evaluate alone: two thresholds that probe one vector each pay for it.

    Every threshold and start is validated before the first phi call.
    Every vector evaluated after that is a start moved by unit steps
    within [0, M-1], so it goes to the counted, range-checked core
    without ``SystemModel.evaluate``'s validation; every call still counts.
    """
    for threshold in set(thresholds):
        model.check_threshold(threshold)
    priors = priors or {}
    for key, rate in priors.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"prior {rate!r} for {key} is not a rate in [0, 1]")
    n, m = model.n_components, model.n_component_states
    # row i is walk i's vector, an int64 copy of start i that the walk moves
    # in place, so stepping never wraps a narrow input dtype
    x = np.array(check_states(starts, m) if len(starts) else np.empty((0, n)), dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"component-state vector has length {x.shape[1:]}, expected ({n},)")
    walks = [
        _walk(row, t, m, (priors.get((t, Side.LOWER)), priors.get((t, Side.UPPER))))
        for row, t in zip(x, thresholds, strict=True)
    ]
    for walk in walks:
        next(walk)
    # a probe's key: its states and threshold, narrow, as one byte string
    narrow = np.min_scalar_type(max(m - 1, model.n_system_states - 2))
    key = np.dtype((np.void, (n + 1) * narrow.itemsize))
    targets = np.array(thresholds, dtype=np.int64).reshape(-1, 1)
    known: dict[bytes, int] = {}  # the system state of each key evaluated in this call
    lower = np.zeros(len(walks), dtype=bool)
    calls = [0] * len(walks)
    live = list(range(len(walks)))
    while live:
        # every walk's key, finished walks' too: cheaper than gathering the live rows
        keys = np.concatenate((x, targets), axis=1, dtype=narrow, casting="unsafe").view(key).ravel().tolist()
        first: dict[bytes, int] = {}  # each new key's first asker
        for i in live:
            if keys[i] not in known:
                first.setdefault(keys[i], i)
        if first:
            payers = list(first.values())
            known.update(zip(first, model._phi_rows(x[payers]).tolist()))
            for i in payers:
                calls[i] += 1
        waiting = []
        for i in live:
            try:
                walks[i].send(known[keys[i]])
                waiting.append(i)
            except StopIteration as done:
                lower[i] = done.value
        live = waiting
    return x, lower, np.array(calls, dtype=np.int64)


def boundary_search(model: SystemModel, x0: Sequence[int], threshold: int) -> tuple[tuple[int, ...], str]:
    """Walk one vector to the system-state boundary: the one-start call of ``boundary_searches``.

    Returns the reference as a tuple of states and the side it lies on.
    """
    (end,), (lower,), _ = boundary_searches(model, [x0], [threshold])
    return tuple(end.tolist()), Side.LOWER if lower else Side.UPPER
