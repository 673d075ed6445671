"""Independent ground-truth engines: enumeration, scalar dominance, crude Monte Carlo.

Everything here is deliberately written with plain scalar loops and shares
no code with the encoding or classification kernels, so the two routes
can be tested against each other. Single-threaded by design.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import cov
from .model import ComponentDistribution, SystemModel
from .sampling import sample_batch

__all__ = [
    "ExactResult",
    "exact_probabilities",
    "dominates",
    "crude_monte_carlo",
    "bfs_connected",
]

MAX_ENUM_VECTORS = 1 << 24


@dataclass(frozen=True)
class ExactResult:
    """Exact cumulative probabilities P(S <= m') and per-state vector counts."""

    cumulative: np.ndarray  # length M_S, non-decreasing, ends at 1
    state_count: np.ndarray  # length M_S, sums to M**N


def _guard_enum(n_components: int, n_states: int) -> None:
    if n_states**n_components > MAX_ENUM_VECTORS:
        raise ValueError(
            f"{n_states}**{n_components} vectors exceed the enumeration guard "
            f"of {MAX_ENUM_VECTORS}"
        )


def exact_probabilities(model: SystemModel, dist: ComponentDistribution) -> ExactResult:
    """Enumerate all M**N vectors and accumulate probability per system state."""
    n, m = model.n_components, model.n_component_states
    _guard_enum(n, m)
    mass = [0.0] * model.n_system_states
    counts = [0] * model.n_system_states
    for x in itertools.product(range(m), repeat=n):
        p = 1.0
        for comp in range(n):
            p *= dist.probs[comp, x[comp]]
        s = model.evaluate(x)
        mass[s] += p
        counts[s] += 1
    cumulative = np.cumsum(mass)
    return ExactResult(cumulative=cumulative, state_count=np.array(counts))


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise partial order: a <= b in every position."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def crude_monte_carlo(
    model: SystemModel,
    dist: ComponentDistribution,
    n_samples: int,
    seed: int,
    threshold: int,
) -> tuple[float, float | None]:
    """Plain Monte Carlo estimate of P(S <= m') with its coefficient of variation.

    Uses the same counter-based stream discipline as the sampling module
    (generation index 0), so it is seed-matched with the evaluation stage
    run under empty reference sets. A threshold outside [0, M_S - 2]
    raises ValueError.
    """
    model.check_threshold(threshold)
    batch = sample_batch(dist, n_samples, seed, generation_index=0)
    hits = 0
    for row in batch.states:
        if model.evaluate(row) <= threshold:
            hits += 1
    p_hat = hits / n_samples
    return p_hat, cov(p_hat, n_samples)


def bfs_connected(
    n_nodes: int, edges: Sequence[tuple[int, int]], source: int, target: int
) -> bool:
    """Breadth-first reachability check, independent of the sysfn implementation."""
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n_nodes
    seen[source] = True
    q = deque([source])
    while q:
        u = q.popleft()
        if u == target:
            return True
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                q.append(v)
    return seen[target]
