"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from rsr.boundary import Side
from rsr.classify import ordered_map, word_hits
from rsr.encoding import EncodedBatch, encode_batch
from rsr.model import ComponentDistribution, SystemModel
from rsr.sysfn import Graph, k_out_of_n


def fig_space_phi(x) -> int:
    """The two-component, five-state monotone function used in worked examples.

    State 1 iff x dominates (1,4), (4,0), or (3,2); a monotone completion
    consistent with one lower and two upper reference states at (1,2),
    (1,4), (4,0).
    """
    return int(
        (x[0] >= 1 and x[1] >= 4) or (x[0] >= 4) or (x[0] >= 3 and x[1] >= 2)
    )


@pytest.fixture
def fig_space_model() -> SystemModel:
    return SystemModel(2, 5, 2, fig_space_phi)


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def series3() -> tuple[SystemModel, ComponentDistribution]:
    model = SystemModel(3, 2, 2, k_out_of_n(3, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.9])
    return model, dist


@pytest.fixture
def parallel3() -> tuple[SystemModel, ComponentDistribution]:
    model = SystemModel(3, 2, 2, k_out_of_n(1, 3))
    dist = ComponentDistribution.iid(3, [0.1, 0.9])
    return model, dist


@pytest.fixture
def noncoherent() -> tuple[SystemModel, ComponentDistribution]:
    """phi(x) = [x0 == 1]: raising x0 from 1 to 2 lowers the system state."""
    model = SystemModel(2, 3, 2, lambda x: int(x[0] == 1))
    dist = ComponentDistribution.iid(2, [1 / 3, 1 / 3, 1 / 3])
    return model, dist


def random_upper_cones(rng: np.random.Generator, n: int, m: int, count: int) -> list[tuple[int, ...]]:
    """Random vectors kept as-is; redundancy is fine for building test systems."""
    return [tuple(int(v) for v in rng.integers(0, m, size=n)) for v in range(count)]


def random_monotone_model(
    rng: np.random.Generator, n: int, m: int, m_s: int
) -> SystemModel:
    """A random coherent system: a sum of indicator functions of upper cones.

    Each level contributes 1 when the vector dominates any of its anchor
    vectors; a sum of monotone indicators is monotone, so the result is
    coherent by construction for any anchors.
    """
    levels = []
    for _ in range(m_s - 1):
        count = int(rng.integers(1, 4))
        anchors = [rng.integers(0, m, size=n) for _ in range(count)]
        levels.append([tuple(int(v) for v in a) for a in anchors])

    def phi(x) -> int:
        s = 0
        for anchors in levels:
            if any(all(x[i] >= a[i] for i in range(n)) for a in anchors):
                s += 1
        return s

    return SystemModel(n, m, m_s, phi)


def raw_sample_searches(model: SystemModel, starts, targets, priors):
    """A stand-in for ``boundary_searches`` that walks nowhere: each start is its own reference, one phi call each."""
    return starts, model._phi_rows(starts) <= np.asarray(targets), np.ones(len(starts), dtype=np.int64)


def single_step_walk(model: SystemModel, x0, threshold: int) -> tuple[tuple[int, ...], str]:
    """The specification of the boundary walk, one unit move per evaluation: (reference, side).

    Moves go in component order, each component towards its limit: up to
    M-1 on the lower side (system state of ``x0`` <= m'), down to 0 on the
    upper side. A move that pushes the system state across m' is undone
    and the rest of its component skipped.
    """
    x = np.array(x0, dtype=np.int64)
    if model.evaluate(x) <= threshold:
        side, step, limit = Side.LOWER, 1, model.n_component_states - 1
    else:
        side, step, limit = Side.UPPER, -1, 0
    for n in range(model.n_components):
        while x[n] != limit:
            x[n] += step
            if (model.evaluate(x) <= threshold) != (side == Side.LOWER):
                x[n] -= step
                break
    return tuple(x.tolist()), side


def random_distribution(rng: np.random.Generator, n: int, m: int) -> ComponentDistribution:
    raw = rng.random((n, m)) + 0.05
    return ComponentDistribution(raw / raw.sum(axis=1, keepdims=True))


class PhiProbe:
    """Wraps a model's performance function: counts calls, records input dtypes, keeps inputs outside [0, M-1].

    The probe checks inputs itself, with no help from ``rsr.model``, so it
    sees every vector that reaches phi by any path.
    """

    def __init__(self, model: SystemModel) -> None:
        self.calls = 0
        self.bad: list[np.ndarray] = []
        self.dtypes: set[np.dtype] = set()
        inner, n, m = model.performance, model.n_components, model.n_component_states

        def phi(x) -> int:
            self.calls += 1
            arr = np.array(x)
            self.dtypes.add(arr.dtype)
            if arr.dtype.kind not in "iu" or arr.shape != (n,) or arr.min() < 0 or arr.max() >= m:
                self.bad.append(arr)
            return inner(x)

        model.performance = phi


# _hits_for's rows a call by default: the kernel-memory bound and the
# timed kernel of criterion 9 are stated at this chunk size
HITS_CHUNK_ROWS = 65536


def _hits_for(
    samples: EncodedBatch,
    ref_states: np.ndarray | None,
    side: str,
    chunk_size: int = HITS_CHUNK_ROWS,
    n_workers: int = 1,
) -> np.ndarray:
    """Hit mask of encoded samples against raw reference rows on ``side``, ``chunk_size`` rows at a time.

    Runs the thermometer kernel on plain slices of the samples, apart from
    ``classify.verdicts``'s sets, packing and brackets: a lower reference
    meets T(x) as NOT T(l), an upper one meets NOT T(x) as T(u). The
    samples come encoded, so that a caller can time or trace the kernel
    without their encoding.
    """
    rbar = None
    if ref_states is not None and ref_states.shape[0]:
        refs = encode_batch(ref_states, samples.n_states)
        rbar = refs.packed_complement if side == Side.LOWER else refs.packed
    packed = samples.packed

    def work(start: int) -> np.ndarray:
        # word-major, and a view of ``packed`` when a row is one word, so
        # the upper side inverts a copy
        words = np.ascontiguousarray(packed[start : start + chunk_size].T)
        return word_hits(words if side == Side.LOWER else ~words, rbar)

    return np.concatenate(list(ordered_map(work, range(0, len(samples), chunk_size), n_workers)))


def dominance_hits(states: np.ndarray, ref_states: np.ndarray, side: str) -> np.ndarray:
    """Rows of ``states`` that some reference row bounds on ``side``: x <= l for a lower set, x >= u for an upper one.

    Plain broadcast componentwise comparisons of the raw states, with no
    encoding and no kernel: the expected value of the kernel's hit masks.
    """
    x, r = np.asarray(states)[:, None, :], np.asarray(ref_states)[None, :, :]
    inside = x <= r if side == Side.LOWER else x >= r
    return inside.all(axis=2).any(axis=1)
