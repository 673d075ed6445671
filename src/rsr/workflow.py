"""Two-stage workflow: reference discovery (Stage 1) and probability evaluation (Stage 2).

Stage 1 alternates sample classification with componentwise boundary
searches seeded from unclassified samples, until the unclassified
probability estimate falls below ``eps_u`` or the reference count reaches
``r_max``. Note that ``eps_u`` is checked on each iteration's fresh
sample batch: it is a sample-estimate threshold, not a certified bound.

Stage 2 classifies one batch against the sets of every requested
threshold, bracketing each sample's system state S: a lower match at m'
gives S <= m', an upper match S >= m'+1. One performance-function call
settles each sample the bracket leaves open. A crossed bracket, or phi
outside one, means phi is not coherent and raises.

Both stages stream their batch: ``_stream`` draws a chunk of rows from
the counter-based sampler, packs it into 64-bit words once and tests it
against every set, and the whole batch is never held. Memory is about
one chunk's temporaries per worker plus a few bytes per sample: Stage 1
keeps the unclassified indices and regenerates the rows it searches
from by index; Stage 2 keeps per-threshold counts and the open rows,
whose phi calls it makes anyway. The crude Monte Carlo oracle
(``oracle.crude_monte_carlo``) stays whole-batch on purpose, as an
independent check of this path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .boundary import ReferenceSet, ReferenceState, Side, boundary_search
# classify is not called here; it stays importable as workflow.classify
# because perfbench/spans.py wraps that name
from .classify import InconsistentReferenceSets, classify, cov, ordered_map  # noqa: F401
from .classify import pack_references, pack_samples, word_hits
from .model import ComponentDistribution, SystemModel
from .sampling import sample_batch, sample_rows

__all__ = [
    "RunConfig",
    "TraceRecord",
    "Stage1Result",
    "Stage2Report",
    "PmfReport",
    "stage1_find_references",
    "stage2_evaluate",
    "multistate_pmf",
    "assemble_pmf",
]

# Stage 2 always draws generation index 0 so that, with empty reference
# sets, it is seed-matched bit-for-bit with the crude Monte Carlo oracle.
_STAGE2_GENERATION = 0

# bytes of int64 states in one streamed chunk; sampling, packing and the
# chunk the caller still holds take about twice this per worker
_CHUNK_BYTES = 8 << 20

# a threshold m' with its lower and upper reference sets
ThresholdSets = tuple[int, ReferenceSet | None, ReferenceSet | None]


def _peak_rss_bytes() -> int | None:
    try:
        import resource
    except ImportError:  # not available on Windows
        return None
    # ru_maxrss is the peak, in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass(frozen=True)
class RunConfig:
    """Settings of both stages; defaults follow the method's suggested values.

    The CLI takes its defaults from these fields. The chunk size is not a
    setting: results do not depend on it, so both stages size their
    chunks from a fixed byte budget.
    """

    n_samples: int = 1_000_000
    eps_u: float = 1e-5
    r_max: int = 10_000
    seed: int = 0
    parallel_searches: int = 1
    n_workers: int = 1
    boundary_search_enabled: bool = True  # False inserts raw samples (diagnostic)

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 <= self.eps_u <= 1.0:
            raise ValueError("eps_u must lie in [0, 1]")
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.parallel_searches < 1:
            raise ValueError("parallel_searches must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration measurements of a Stage-1 run."""

    reference_count: int
    elapsed_seconds: float
    phi_evaluations: int
    searches: int  # searches made so far; phi_evaluations / searches is phi calls per search
    p_lower: float
    p_upper: float
    p_unclassified: float
    peak_rss_bytes: int | None = None


@dataclass
class Stage1Result:
    lower: ReferenceSet
    upper: ReferenceSet
    trace: list[TraceRecord]
    iterations: int
    redundant_searches: int
    terminated_by: str  # 'eps_u' or 'r_max'


@dataclass(frozen=True)
class Stage2Report:
    """Final estimates of P(S <= m') and P(S >= m'+1); they sum to one exactly."""

    p_lower: float
    p_upper: float
    cov_lower: float | None
    cov_upper: float | None
    n_samples: int
    unclassified_resolved: int
    threshold: int
    seed: int


def stage1_find_references(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    threshold: int,
) -> Stage1Result:
    """Discover boundary reference sets for one threshold.

    Each iteration streams a fresh batch (keyed by its iteration index)
    through classification and, if not yet converged, runs boundary
    searches from up to ``parallel_searches`` randomly selected
    unclassified samples, regenerated by index.
    Redundant (dominated) search results do not count toward ``r_max``.
    """
    model.check_threshold(threshold)
    lower = ReferenceSet(Side.LOWER, threshold)
    upper = ReferenceSet(Side.UPPER, threshold)
    trace: list[TraceRecord] = []
    redundant = 0
    searches = 0
    phi_start = model.evaluation_count
    t_start = time.perf_counter()
    terminated_by = "r_max"

    h = config.n_samples
    iteration = 0
    while True:
        n_lower = n_upper = 0
        unclassified = []
        for start, _, lo, hi, _ in _stream(model, dist, config, iteration, [(threshold, lower, upper)]):
            n_lower += int(np.count_nonzero(hi <= threshold))
            n_upper += int(np.count_nonzero(lo > threshold))
            unclassified.append(start + np.flatnonzero((lo <= threshold) & (threshold < hi)))
        open_indices = np.concatenate(unclassified)
        trace.append(
            TraceRecord(
                reference_count=len(lower) + len(upper),
                elapsed_seconds=time.perf_counter() - t_start,
                phi_evaluations=model.evaluation_count - phi_start,
                searches=searches,
                p_lower=n_lower / h,
                p_upper=n_upper / h,
                p_unclassified=open_indices.size / h,
                peak_rss_bytes=_peak_rss_bytes(),
            )
        )
        if open_indices.size / h <= config.eps_u:
            terminated_by = "eps_u"
            break
        if len(lower) + len(upper) >= config.r_max:
            break

        rng = np.random.default_rng([config.seed, iteration])
        n_pick = min(config.parallel_searches, open_indices.size)
        picks = rng.choice(open_indices, size=n_pick, replace=False)
        searches += n_pick
        # the counter-based stream regenerates the picked rows alone
        for x0 in sample_rows(dist, config.seed, iteration, picks):
            if config.boundary_search_enabled:
                candidate = boundary_search(model, x0, threshold)
            else:
                s = model.evaluate(x0)
                side = Side.LOWER if s <= threshold else Side.UPPER
                candidate = ReferenceState(tuple(int(v) for v in x0), side, threshold)
            target = lower if candidate.side == Side.LOWER else upper
            if target.insert(candidate) == "redundant":
                redundant += 1
        iteration += 1

    return Stage1Result(
        lower=lower,
        upper=upper,
        trace=trace,
        iterations=iteration + 1,
        redundant_searches=redundant,
        terminated_by=terminated_by,
    )


def _chunk_rows(n_components: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * n_components))


def _conflict(
    sets: list[ThresholdSets], index: int, x: np.ndarray, lo: int, hi: int, phi: int | None = None
) -> InconsistentReferenceSets:
    # a bracket is set by a lower match at hi and an upper match at lo-1
    lower = next((low for t, low, _ in sets if t == hi), None)
    upper = next((up for t, _, up in sets if t == lo - 1), None)
    return InconsistentReferenceSets.on_sample(index, x, lower, upper, phi)


def _stream(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    generation: int,
    sets: list[ThresholdSets],
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]]:
    """Sample, encode and classify one batch chunk by chunk, yielding chunks in index order.

    Each chunk's rows are drawn from the counter-based stream, packed into
    64-bit words once and tested against every set's references, which are
    packed once per call. Yields ``(start, states, lo, hi, unclassified)``:
    the chunk's first sample index, its states, the bracket lo <= S <= hi
    the sets put on each row's system state, and per set the number of
    rows that neither of its references hits. The first crossed bracket
    in index order raises ``InconsistentReferenceSets``.
    """
    n, m = dist.n_components, model.n_component_states
    packed = [
        (t, pack_references(lower, Side.LOWER, n, m), pack_references(upper, Side.UPPER, n, m))
        for t, lower, upper in sets
    ]
    h, rows = config.n_samples, _chunk_rows(n)

    def work(start: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]:
        states = sample_batch(dist, min(rows, h - start), config.seed, generation, start=start).states
        words = pack_samples(states, m)
        lo = np.zeros(len(states), dtype=np.int64)
        hi = np.full(len(states), model.n_system_states - 1, dtype=np.int64)
        unclassified = []
        for t, lower, upper in packed:
            low, up = word_hits(words, lower), word_hits(words, upper)
            np.minimum(hi, t, out=hi, where=low)
            np.maximum(lo, t + 1, out=lo, where=up)
            unclassified.append(len(states) - int(np.count_nonzero(low | up)))
        return start, states, lo, hi, unclassified

    for start, states, lo, hi, unclassified in ordered_map(work, range(0, h, rows), config.n_workers):
        crossed = np.flatnonzero(lo > hi)
        if crossed.size:
            i = int(crossed[0])
            raise _conflict(sets, start + i, states[i], lo[i], hi[i])
        yield start, states, lo, hi, unclassified


def _stage2(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    sets: list[ThresholdSets],
) -> list[Stage2Report]:
    """Stage 2 on one shared batch; one report per (threshold, lower, upper), thresholds distinct."""
    for threshold, lower, upper in sets:
        model.check_threshold(threshold)
        for ref_set in (lower, upper):
            if ref_set is not None and ref_set.threshold != threshold:
                raise ValueError(f"reference set threshold {ref_set.threshold} != requested m'={threshold}")
    h = config.n_samples
    thresholds = np.array([t for t, _, _ in sets])
    n_low = np.zeros(len(sets), dtype=np.int64)
    unclassified = np.zeros(len(sets), dtype=np.int64)
    # rows whose bracket leaves some threshold open, kept to the end so that
    # every bracket is checked before the first phi call
    open_rows = []
    compact = np.min_scalar_type(model.n_component_states - 1)
    for start, states, lo, hi, n_unclassified in _stream(model, dist, config, _STAGE2_GENERATION, sets):
        unclassified += n_unclassified
        undecided = ((lo[:, None] <= thresholds) & (thresholds < hi[:, None])).any(axis=1)
        n_low += (hi[~undecided, None] <= thresholds).sum(axis=0)
        rows = np.flatnonzero(undecided)
        open_rows.append((start + rows, states[rows].astype(compact), lo[rows], hi[rows]))
    indices, states, lo, hi = (np.concatenate(parts) for parts in zip(*open_rows))
    for k in range(indices.size):
        x = states[k].astype(np.int64)
        state = model.evaluate(x)
        if not lo[k] <= state <= hi[k]:
            raise _conflict(sets, int(indices[k]), x, lo[k], hi[k], state)
        hi[k] = state
    # for every requested m', S <= m' now holds exactly where hi <= m'
    n_low += (hi[:, None] <= thresholds).sum(axis=0)

    reports = []
    for threshold, low, n_unclassified in zip(thresholds.tolist(), n_low.tolist(), unclassified.tolist()):
        p_low, p_up = low / h, (h - low) / h
        reports.append(
            Stage2Report(
                p_lower=p_low,
                p_upper=p_up,
                cov_lower=cov(p_low, h),
                cov_upper=cov(p_up, h),
                n_samples=h,
                unclassified_resolved=n_unclassified,
                threshold=threshold,
                seed=config.seed,
            )
        )
    return reports


def stage2_evaluate(
    model: SystemModel,
    dist: ComponentDistribution,
    lower: ReferenceSet | None,
    upper: ReferenceSet | None,
    config: RunConfig,
    threshold: int,
) -> Stage2Report:
    """Estimate P(S <= m') and P(S >= m'+1) from one classified batch.

    Unclassified samples are resolved by evaluating the performance
    function directly, so the two probabilities partition the batch.
    Raises ``InconsistentReferenceSets`` if a sample matches both sets.
    """
    (report,) = _stage2(model, dist, config, [(threshold, lower, upper)])
    return report


@dataclass(frozen=True)
class PmfReport:
    pmf: np.ndarray  # length M_S, sums to 1
    cumulative_lower: np.ndarray  # P(S <= m') for m' = 0..M_S-2
    stage2_reports: tuple[Stage2Report, ...]
    stage1_results: tuple[Stage1Result, ...]


def assemble_pmf(cumulative: np.ndarray | list[float]) -> tuple[np.ndarray, float]:
    """Turn cumulative P(S <= m'), m' = 0..M_S-2, into a PMF over M_S states.

    Tiny negative mass from sampling noise is clamped to zero and the
    result renormalized; the total absolute adjustment is returned.
    """
    cum = np.asarray(cumulative, dtype=np.float64)
    if cum.size and (cum.min() < 0.0 or cum.max() > 1.0):
        raise ValueError("cumulative probabilities must lie in [0, 1]")
    ext = np.concatenate([[0.0], cum, [1.0]])
    pmf = np.diff(ext)
    clipped = np.clip(pmf, 0.0, None)
    adjustment = float(np.abs(clipped - pmf).sum())
    return clipped / clipped.sum(), adjustment


def multistate_pmf(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
) -> PmfReport:
    """Run Stage 1 for every threshold, then one Stage 2 for all, and compose the PMF.

    Stage 2 resolves each sample's system state once, on one batch, so the
    chain P(S <= m') is monotone exactly and the PMF needs no clamping.
    """
    stage1_results = tuple(
        stage1_find_references(model, dist, config, threshold)
        for threshold in range(model.n_system_states - 1)
    )
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in stage1_results]
    reports = _stage2(model, dist, config, sets)
    cum = np.array([r.p_lower for r in reports])
    pmf, _ = assemble_pmf(cum)
    return PmfReport(
        pmf=pmf,
        cumulative_lower=cum,
        stage2_reports=tuple(reports),
        stage1_results=stage1_results,
    )
