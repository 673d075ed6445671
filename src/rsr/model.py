"""System abstraction: component-state vectors, performance functions, distributions.

A component-state vector assigns each of N components one of M discrete
states (0 = worst). The system performance function maps such a vector to
one of ``n_system_states`` system states and is assumed coherent, i.e.
componentwise monotone. Coherency is a modelling premise here; it can be
spot-checked with :func:`check_coherency` but not proven (exhaustive
verification costs M**N evaluations).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ComponentDistribution",
    "SystemModel",
    "check_coherency",
    "check_states",
    "validate_vector",
]

PerformanceFn = Callable[[np.ndarray], int]

_ROW_SUM_TOL = 1e-12

# the unsigned dtype of the same width and byte order as each integer dtype
_UNSIGNED = {
    np.dtype(f"{order}{kind}{width}"): np.dtype(f"{order}u{width}")
    for order in "<>" for kind in "iu" for width in (1, 2, 4, 8)
}


class _EvalCounter:
    """Thread-safe counter of performance-function calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._count += n

    @property
    def count(self) -> int:
        return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


def check_states(states: Sequence[int] | np.ndarray, n_states: int) -> np.ndarray:
    """Return ``states`` as an integer array whose entries all lie in [0, n_states - 1].

    An integer array is returned as given, without a copy; non-integer
    input raises ValueError. One ``max`` over an unsigned view of the same
    width checks both ends: a negative entry wraps to 2**(bits-1) or more,
    and every valid signed entry lies below 2**(bits-1).
    """
    arr = np.asarray(states)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"component states must be integers, got dtype {arr.dtype}")
    limit = n_states if arr.dtype.kind == "u" else min(n_states, 1 << (8 * arr.itemsize - 1))
    if arr.size and arr.view(_UNSIGNED[arr.dtype]).max() >= limit:
        raise ValueError(f"component states must lie in [0, {n_states - 1}]")
    return arr


def validate_vector(x: Sequence[int] | np.ndarray, n_components: int, n_states: int) -> np.ndarray:
    """Check that ``x`` is one length-N vector of states in [0, n_states - 1]."""
    arr = check_states(x, n_states)
    if arr.ndim != 1 or arr.shape[0] != n_components:
        raise ValueError(
            f"component-state vector has length {arr.shape}, expected ({n_components},)"
        )
    return arr


@dataclass
class SystemModel:
    """A coherent multi-state system of N components.

    ``performance`` must be a deterministic total function from a length-N
    integer vector to a system state in ``[0, n_system_states - 1]``, and
    safe to call concurrently (pure over immutable data). Evaluations are
    counted because performance-function calls are the cost metric of the
    whole method. It may carry a batch form, an attribute ``rows`` mapping
    a K x N matrix to its K states, which ``_phi_rows`` then calls once in
    place of K calls; each row still counts as one evaluation.
    """

    n_components: int
    n_component_states: int
    n_system_states: int
    performance: PerformanceFn
    _evals: _EvalCounter = field(default_factory=_EvalCounter, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be positive")
        if self.n_component_states < 2:
            raise ValueError("n_component_states must be >= 2")
        if self.n_system_states < 2:
            raise ValueError("n_system_states must be >= 2")

    def evaluate(self, x: Sequence[int] | np.ndarray) -> int:
        """Validate ``x`` as one length-N vector of states in [0, M-1], then evaluate phi on it.

        Every call is counted and its result range-checked by ``_phi``,
        the counted core that this entry shares with Stage-2 resolution,
        whose vectors are in range by construction; the boundary walks use
        its batch form ``_phi_rows``.
        """
        return self._phi(validate_vector(x, self.n_components, self.n_component_states))

    def _phi(self, x: np.ndarray) -> int:
        """Count one call, run phi on ``x`` and check its result lies in [0, M_S-1].

        ``x`` is not checked: the caller guarantees a length-N integer
        vector of states in [0, M-1], as ``evaluate`` does by validating it.
        """
        self._evals.add()
        s = int(self.performance(x))
        if not 0 <= s < self.n_system_states:
            raise self._out_of_range(s)
        return s

    def _phi_rows(self, x: np.ndarray) -> np.ndarray:
        """Count one call a row of the K x N matrix ``x``, run phi on every row and check each state.

        ``x`` is not checked, as for ``_phi``. A performance function's
        batch form ``rows`` (the built-in ``k_out_of_n`` has one) is called
        once; any other performance function is called on each row in
        order. A state outside [0, M_S-1] raises ``_phi``'s error, naming
        the first such state.
        """
        self._evals.add(len(x))
        rows = getattr(self.performance, "rows", None)
        if rows is not None:
            states = np.asarray(rows(x), dtype=np.int64)
        else:
            states = np.fromiter((int(self.performance(row)) for row in x), dtype=np.int64, count=len(x))
        bad = np.flatnonzero((states < 0) | (states >= self.n_system_states))
        if bad.size:
            raise self._out_of_range(int(states[bad[0]]))
        return states

    def _out_of_range(self, s: int) -> ValueError:
        return ValueError(f"performance returned {s}, outside [0, {self.n_system_states - 1}]")

    def check_threshold(self, threshold: int) -> None:
        """Raise ValueError unless m' lies in [0, n_system_states - 2]."""
        if not 0 <= threshold <= self.n_system_states - 2:
            raise ValueError(
                f"threshold must lie in [0, {self.n_system_states - 2}]"
            )

    @property
    def evaluation_count(self) -> int:
        return self._evals.count

    def reset_evaluation_count(self) -> None:
        self._evals.reset()


@dataclass(frozen=True)
class ComponentDistribution:
    """Independent categorical distributions, one row per component.

    Row n gives P(X_n = m) for m = 0..M-1. Rows must sum to 1 within
    1e-12. Dependent models would slot in behind the same sampling
    interface but only the independent case is implemented.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2:
            raise ValueError("probs must be an N x M table")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("probabilities must be finite and lie in [0, 1]")
        row_sums = probs.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(f"row {bad} sums to {row_sums[bad]!r}, expected 1")

    @property
    def n_components(self) -> int:
        return self.probs.shape[0]

    @property
    def n_states(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def iid(cls, n_components: int, state_probs: Sequence[float]) -> "ComponentDistribution":
        """All components share the same categorical row."""
        row = np.asarray(state_probs, dtype=np.float64)
        return cls(np.tile(row, (n_components, 1)))


def check_coherency(
    model: SystemModel, trials: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Randomized spot check of componentwise monotonicity.

    Draws ``trials`` ordered pairs x1 <= x2 (x2 uniform, x1 obtained by
    degrading a random subset of components) and returns every pair with
    performance(x1) > performance(x2). An empty list means no violation
    was found, not a proof of coherency.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n, m = model.n_components, model.n_component_states
    violations: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(trials):
        x2 = rng.integers(0, m, size=n)
        degrade = rng.random(n) < 0.5
        x1 = x2.copy()
        # degraded entries drop uniformly to a state in [0, x2[i]]
        x1[degrade] = rng.integers(0, x2[degrade] + 1)
        if model.evaluate(x1) > model.evaluate(x2):
            violations.append((x1, x2))
    return violations
