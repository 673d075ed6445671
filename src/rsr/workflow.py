"""Two-stage workflow: reference discovery (Stage 1) and probability evaluation (Stage 2).

Stage 1 alternates sample classification with componentwise boundary
searches seeded from unclassified samples, until the unclassified
probability estimate falls below ``eps_u`` or the reference count reaches
``r_max``. Note that ``eps_u`` is checked on each iteration's fresh
sample batch: it is a sample-estimate threshold, not a certified bound.
Each iteration works in batches: the searches of every pick walk in
lockstep, one phi call a round for all of them
(``boundary.boundary_searches``), and each reference set then takes the
iteration's candidates in one ``ReferenceSet.insert_many``. Walks never
read the sets, so the sets, outcomes and phi counts are those of one
search and one insert at a time.
For several thresholds (``multistate_pmf``) Stage 1 runs them in lockstep:
iteration i streams its batch once, classified against every threshold
still running, and then each of those thresholds tests its own stop and
picks its own searches, which walk with the others'. Each threshold's
references and search phi calls are those it would find alone, but a
sample whose bracket references of two thresholds cross raises already in
Stage 1.

Stage 2 classifies one batch against the sets of every requested
threshold, bracketing each sample's system state S: a lower match at m'
gives S <= m', an upper match S >= m'+1. One performance-function call
settles each sample the bracket leaves open. A crossed bracket, or phi
outside one, means phi is not coherent and raises.

Both stages stream their batch through the one classification route,
``classify.verdicts``, with ``_stream`` as its row source: each chunk is
drawn from the counter-based sampler, so the whole batch is never held,
and its states stay N bytes a row (M <= 256). The sampler fills a chunk
from 1 MiB blocks of raw draws and ``verdicts`` packs it once, in the
thermometer layout, for both sides of every set, so a chunk's
temporaries are about its states plus 1 MiB. Memory is about one chunk's
temporaries per worker plus a few bytes per sample: Stage 1 keeps one bit
per sample and running threshold for the unclassified rows, builds one
threshold's index array at a time, and regenerates the rows it searches
from by index; Stage 2 keeps per-threshold counts and the open rows, whose
phi calls it makes anyway. The crude Monte Carlo oracle
(``oracle.crude_monte_carlo``) stays whole-batch on purpose, as an
independent check of this path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# boundary_search is not called here; it stays importable as
# workflow.boundary_search because perfbench/spans.py wraps that name
from .boundary import ReferenceSet, ReferenceState, Side, boundary_search, boundary_searches  # noqa: F401
# classify is not called here; it stays importable as workflow.classify
# because perfbench/spans.py wraps that name
from .classify import InconsistentReferenceSets, ThresholdSets, classify, cov, verdicts  # noqa: F401
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

# a streamed chunk holds the rows whose raw 64-bit draws take this many
# bytes, so its uint8 states take an eighth. The sampler draws those rows
# in 1 MiB blocks, so no array of this size is allocated; results do not
# depend on it, and tests shrink it to make small chunks
_CHUNK_BYTES = 8 << 20


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
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration measurements of one threshold's Stage-1 run.

    ``elapsed_seconds`` counts from the start of the Stage-1 call, and
    ``peak_rss_bytes`` is the process's peak so far: thresholds that
    ``multistate_pmf`` runs in lockstep share that clock and that peak.
    Every other field is the threshold's own.
    """

    reference_count: int
    elapsed_seconds: float
    phi_evaluations: int  # phi calls of this threshold's own searches so far
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

    @property
    def search_phi_calls(self) -> int:
        """phi calls of this threshold's boundary searches; the last record follows the last search."""
        return self.trace[-1].phi_evaluations


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
    This is the one-threshold call of the Stage-1 core that
    ``multistate_pmf`` runs for all thresholds in lockstep.
    """
    (result,) = _stage1(model, dist, config, [threshold])
    return result


def _stage1(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    thresholds: Sequence[int],
) -> list[Stage1Result]:
    """Stage 1 for every threshold in lockstep: iteration i classifies batch i once for all.

    A threshold's stop tests, picks, searches and inserts read only its
    own hit masks and sets, so each result equals a one-threshold run.
    The searches of all thresholds walk together, and each set takes its
    iteration's candidates, in pick order, in one insert.
    """
    for threshold in thresholds:
        model.check_threshold(threshold)
    results = [
        Stage1Result(ReferenceSet(Side.LOWER, t), ReferenceSet(Side.UPPER, t), [], 0, 0, "r_max")
        for t in thresholds
    ]
    searches = [0] * len(results)
    phi_calls = [0] * len(results)
    t_start = time.perf_counter()
    h = config.n_samples
    live = list(range(len(results)))
    iteration = 0
    while live:
        sets = [(thresholds[k], results[k].lower, results[k].upper) for k in live]
        n_lower = np.zeros(len(live), dtype=np.int64)
        n_upper = np.zeros(len(live), dtype=np.int64)
        # bit j % 8 of open_bits[j // 8, row]: neither side of live[j] hits the row
        open_bits = np.empty((-(-len(live) // 8), h), dtype=np.uint8)
        for start, states, lo, hi, hits in _stream(model, dist, config, iteration, sets):
            low, up = (np.array(side) for side in zip(*hits))
            n_lower += np.count_nonzero(low, axis=1)
            n_upper += np.count_nonzero(up, axis=1)
            open_bits[:, start : start + len(states)] = np.packbits(~(low | up), axis=0, bitorder="little")
            # dropped before the next chunk is drawn, so one chunk is alive at a time
            del states, lo, hi, hits, low, up
        # verdicts raises on a row both sides of a set hit, so the counts partition h
        n_open = h - n_lower - n_upper

        still_live = []
        # (k, the rows k searches from) of every threshold that searches this iteration
        picked = []
        for j, (k, low_count, up_count, open_count) in enumerate(
            zip(live, n_lower.tolist(), n_upper.tolist(), n_open.tolist())
        ):
            result = results[k]
            result.trace.append(
                TraceRecord(
                    reference_count=len(result.lower) + len(result.upper),
                    elapsed_seconds=time.perf_counter() - t_start,
                    phi_evaluations=phi_calls[k],
                    searches=searches[k],
                    p_lower=low_count / h,
                    p_upper=up_count / h,
                    p_unclassified=open_count / h,
                    peak_rss_bytes=_peak_rss_bytes(),
                )
            )
            result.iterations = iteration + 1
            if open_count / h <= config.eps_u:
                result.terminated_by = "eps_u"
                continue
            if len(result.lower) + len(result.upper) >= config.r_max:
                continue
            still_live.append(k)

            open_indices = np.flatnonzero(open_bits[j >> 3] & (1 << (j & 7)))
            rng = np.random.default_rng([config.seed, iteration])
            n_pick = min(config.parallel_searches, open_count)
            picks = rng.choice(open_indices, size=n_pick, replace=False)
            del open_indices
            searches[k] += n_pick
            # the counter-based stream regenerates the picked rows alone
            picked.append((k, sample_rows(dist, config.seed, iteration, picks)))
        # freed before the searches and the next iteration allocate their own
        del open_bits
        if not still_live:
            break

        owners = [k for k, rows in picked for _ in rows]
        starts = np.concatenate([rows for _, rows in picked])
        if config.boundary_search_enabled:
            # every pick of every threshold walks in lockstep, one phi call a round
            candidates, calls = boundary_searches(model, starts, [thresholds[k] for k in owners])
        else:
            states = model._phi_rows(starts.astype(np.int64))
            candidates = [
                ReferenceState(tuple(x0.tolist()), Side.LOWER if s <= thresholds[k] else Side.UPPER, thresholds[k])
                for k, x0, s in zip(owners, starts, states.tolist())
            ]
            calls = [1] * len(owners)
        # walks never read the sets, so each set takes its iteration's
        # candidates, in pick order, in one insert
        for k in still_live:
            result = results[k]
            phi_calls[k] += sum(c for owner, c in zip(owners, calls) if owner == k)
            for target in (result.lower, result.upper):
                batch = [c for owner, c in zip(owners, candidates) if owner == k and c.side == target.side]
                result.redundant_searches += target.insert_many(batch).count("redundant")
        # dropped before the next iteration streams its batch
        del picked, starts, candidates, calls, batch
        live = still_live
        iteration += 1
    return results


def _chunk_rows(n_components: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * n_components))


def _stream(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    generation: int,
    sets: list[ThresholdSets],
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]]:
    """``classify.verdicts`` over one batch that the counter-based sampler draws chunk by chunk."""
    n = dist.n_components
    return verdicts(
        lambda start, stop: sample_batch(dist, stop - start, config.seed, generation, start=start).states,
        config.n_samples, _chunk_rows(n), sets,
        (n, model.n_component_states, model.n_system_states), config.n_workers,
    )


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
    for start, states, lo, hi, hits in _stream(model, dist, config, _STAGE2_GENERATION, sets):
        unclassified += [len(states) - np.count_nonzero(low | up) for low, up in hits]
        undecided = ((lo[:, None] <= thresholds) & (thresholds < hi[:, None])).any(axis=1)
        n_low += (hi[~undecided, None] <= thresholds).sum(axis=0)
        rows = np.flatnonzero(undecided)
        open_rows.append((start + rows, states[rows], lo[rows], hi[rows]))
        # dropped before the next chunk is drawn, so one chunk is alive at a time
        del states, lo, hi, hits, undecided
    indices, states, lo, hi = (np.concatenate(parts) for parts in zip(*open_rows))
    for k in range(indices.size):
        # sampled rows lie in [0, M-1] by construction: the counted core, unchecked
        x = states[k].astype(np.int64)
        state = model._phi(x)
        if not lo[k] <= state <= hi[k]:
            raise InconsistentReferenceSets.on_bracket(sets, int(indices[k]), x, lo[k], hi[k], state)
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
    stage1_results: tuple[Stage1Result, ...]  # one per m'; each counts its search phi calls
    resolution_phi_calls: int  # Stage 2's phi calls, one per sample some threshold left open


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
    """Run Stage 1 for every threshold in lockstep, then one Stage 2 for all, and compose the PMF.

    Stage 1 classifies each iteration's batch once for every threshold
    still running; each threshold's references, trace and phi counts equal
    those of ``stage1_find_references`` at that threshold alone. A sample
    whose bracket references of two thresholds cross raises
    ``InconsistentReferenceSets`` there, in Stage 1.
    Stage 2 resolves each sample's system state once, on one batch, so the
    chain P(S <= m') is monotone exactly and the PMF needs no clamping.
    """
    stage1_results = tuple(_stage1(model, dist, config, range(model.n_system_states - 1)))
    sets = [(s1.lower.threshold, s1.lower, s1.upper) for s1 in stage1_results]
    phi_start = model.evaluation_count
    reports = _stage2(model, dist, config, sets)
    cum = np.array([r.p_lower for r in reports])
    pmf, _ = assemble_pmf(cum)
    return PmfReport(
        pmf=pmf,
        cumulative_lower=cum,
        stage2_reports=tuple(reports),
        stage1_results=stage1_results,
        resolution_phi_calls=model.evaluation_count - phi_start,
    )
