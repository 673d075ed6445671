"""Two-stage workflow: reference discovery (Stage 1) and probability evaluation (Stage 2).

Stage 1 runs in rounds on batch 0, the batch Stage 2 draws (``_Rounds``):
``stage1_find_references`` runs them for one threshold and
``multistate_pmf`` for every threshold. Each round, every threshold still
running walks from rows its bracket leaves open. The walks of every pick
move in lockstep, one phi call a round for all of them
(``boundary.boundary_searches``), and each reference set then takes the
round's candidates in one ``ReferenceSet.insert_many``. Walks never read
the sets, so the sets and outcomes are those of one search and one insert
at a time. A vector that several walks of one threshold probe is
evaluated once. Each set's members give its side's walks a prior
rejection rate, which sizes the start of their gallops
(``boundary._walk``): it moves the phi calls, never the references. Only
the rows some threshold of the run still leaves open are classified
again, and coverage only grows, so a settled row stays settled. The batch
sizes the rounds' walks: the first round's walks cost at most about a
tenth of it, and a later round has twice the walks of a round that
settled more open rows than its walks cost and half those of one that
did not, never more than ``parallel_searches`` a threshold. A threshold
stops on ``eps_u``, the exact share of batch 0 its bracket leaves open,
or on ``r_max`` references.

``multistate_pmf`` alone also stops every threshold on cost, once the
walks' phi calls over the last rounds, at most ``_COST_WINDOW``, from the
first, exceed the open rows those rounds settled, since it resolves each
row still open by one phi call once the rounds end. That call is checked
against the row's bracket, which references at other thresholds may have
narrowed: phi outside it means phi is not coherent, and raises. The
estimate does not depend on the references, so the PMF is phi's
frequency on batch 0 whatever the stop.

Stage 2 (``stage2_evaluate``) classifies one batch against the lower and
upper sets of one threshold m': a lower match gives S <= m', an upper
match S >= m'+1, and a sample both match means phi is not coherent and
raises. One performance-function call settles each sample neither
matches: each chunk's open rows go to the model's counted core
``SystemModel._phi_rows`` in one call as the chunk arrives, the core the
boundary walks call too.

``evaluate`` streams its batch through the one classification route,
``classify.verdicts``, with ``_stream`` as its row source: each chunk is
drawn from the counter-based sampler, so the whole batch is never held,
and its states stay N bytes a row (M <= 256). The sampler fills a chunk
from 1 MiB blocks of raw draws and ``verdicts`` packs it once, in the
thermometer layout, for both sides of every set, so a chunk's temporaries
are about its states plus 1 MiB, next to the hit kernel's scratch of
about 1 MiB that each worker keeps for the whole pass. Memory is about
one chunk's temporaries and one scratch per worker, and Stage 2 adds only
its counts, whatever the batch size. Stage 1's rounds keep the open rows'
indices and narrow brackets between rounds, a few bytes a row, and the
packed thermometer words, ceil(N(M-1)/64) words a row, of as many open
rows as fit in ``_KEEP_BYTES`` a sample of the batch. Later passes
classify the kept words as they are, and phi reads the states they decode
to, with no draw and no encode; the first pass and the open rows past the
budget are regenerated chunk by chunk as the source of ``verdicts``. A
chunk of rows with no gap, every chunk of the first pass, is drawn by
``sampling.sample_batch``'s block loop as ``_stream`` draws it, so the
first pass peaks as Stage 2 does; scattered rows by
``sampling.sample_rows``. The crude Monte Carlo oracle
(``oracle.crude_monte_carlo``) stays whole-batch and calls phi one row at
a time through ``SystemModel.evaluate`` on purpose, as an independent
check of this path and of any batch form of phi.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# boundary_search is not called here; it stays importable as
# workflow.boundary_search because perfbench/spans.py wraps that name
from .boundary import ReferenceSet, Side, boundary_search, boundary_searches  # noqa: F401
# classify is not called here; it stays importable as workflow.classify
# because perfbench/spans.py wraps that name
from .classify import InconsistentReferenceSets, ThresholdSets, _chunk_rows, _word_major, classify, cov, verdicts  # noqa: F401
from .encoding import _n_words, decode_packed
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

# Both stages draw generation index 0, batch 0, so that Stage 1's
# references fit the batch Stage 2 classifies and, with empty reference
# sets, Stage 2 is seed-matched bit-for-bit with the crude Monte Carlo oracle
_GENERATION = 0

# pmf's Stage 1 stops once its walks' phi calls over the last rounds, at
# most this many, from the first, exceed the open rows those rounds settled
_COST_WINDOW = 3

# Stage 1's rounds keep the thermometer words of as many of batch 0's open
# rows as fit in this many bytes a sample of the batch, about the size of
# its index array, rather than regenerating them each round
_KEEP_BYTES = 4


def _peak_rss_bytes() -> int | None:
    try:
        import resource
    except ImportError:  # not available on Windows
        return None
    # ru_maxrss is the peak: in bytes on macOS, in kilobytes on Linux and the BSDs
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


@dataclass(frozen=True)
class RunConfig:
    """Settings of both stages; defaults follow the method's suggested values.

    The CLI takes its defaults from these fields. The chunk size is not a
    setting: results do not depend on it, so both stages size their
    chunks by ``classify._chunk_rows``.
    """

    n_samples: int = 1_000_000
    eps_u: float = 1e-5
    r_max: int = 10_000
    seed: int = 0
    parallel_searches: int = 1
    n_workers: int = 1

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
    """One threshold's Stage-1 measurements on batch 0 at one round, taken before the round's walks.

    ``elapsed_seconds`` counts from the start of the Stage-1 call, and
    ``peak_rss_bytes`` is the process's peak so far: the thresholds of one
    ``multistate_pmf`` round share that clock and that peak.
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
    """One threshold's reference sets from Stage 1's rounds on batch 0, with a trace record a round and the stop."""

    lower: ReferenceSet
    upper: ReferenceSet
    trace: list[TraceRecord]
    iterations: int  # the rounds' records, one more than the rounds of walks
    redundant_searches: int
    terminated_by: str  # 'eps_u', 'r_max', or 'cost' (multistate_pmf only)

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
    unclassified_resolved: int  # samples the bracket left open at m', each resolved by phi
    threshold: int
    seed: int


def stage1_find_references(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    threshold: int,
) -> Stage1Result:
    """Discover boundary reference sets for one threshold: ``multistate_pmf``'s rounds on batch 0, at it alone.

    The rounds (``_Rounds``) stop once the share of batch 0 the bracket
    leaves open, counted exactly, is at most ``eps_u``, or at ``r_max``
    references; redundant (dominated) search results do not count toward
    ``r_max``. The first round's sets are empty, so its record is (0, 0, 1).
    """
    model.check_threshold(threshold)
    rounds = _Rounds(model, dist, config, range(threshold, threshold + 1))
    for _ in rounds:
        pass
    return rounds.results[0]


def _record(
    result: Stage1Result,
    config: RunConfig,
    round_: int,
    t_start: float,
    phi_calls: int,
    searches: int,
    n_lower: int,
    n_upper: int,
) -> bool:
    """Append a round's trace record, and return whether the threshold searches on.

    ``n_lower`` and ``n_upper`` count the rows the threshold's bracket
    settles below and above m'. It stops on ``eps_u`` once the open share
    is at most ``eps_u``, or on ``r_max`` references, the stop a
    ``Stage1Result`` starts with.
    """
    h = config.n_samples
    n_open = h - n_lower - n_upper
    result.trace.append(
        TraceRecord(
            reference_count=len(result.lower) + len(result.upper),
            elapsed_seconds=time.perf_counter() - t_start,
            phi_evaluations=phi_calls,
            searches=searches,
            p_lower=n_lower / h,
            p_upper=n_upper / h,
            p_unclassified=n_open / h,
            peak_rss_bytes=_peak_rss_bytes(),
        )
    )
    result.iterations = round_ + 1
    if n_open / h <= config.eps_u:
        result.terminated_by = "eps_u"
        return False
    return len(result.lower) + len(result.upper) < config.r_max


def _search_round(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    picks: list[tuple[Stage1Result, np.ndarray]],
) -> list[int]:
    """Walk from every picked row of batch 0 in lockstep, then give each set its candidates in one insert.

    ``picks`` pairs each searching threshold's result with the indices of
    the rows it searches from. One ``sample_rows`` call regenerates every
    picked row, and one ``boundary_searches`` call walks them all, one phi
    call a round; each nonempty set gives its side's walks the rate at
    which earlier walks were rejected, which sizes their gallops and never
    changes a reference. Walks never read the sets, so each set takes its
    candidates, in pick order, in one ``insert_many``: the sets and
    outcomes of one search and one insert at a time. Returns each
    threshold's walks' phi calls, in the order of ``picks``.
    """
    sizes = [len(rows) for _, rows in picks]
    owners = np.repeat(np.arange(len(picks)), sizes)
    targets = np.repeat([result.lower.threshold for result, _ in picks], sizes).tolist()
    # the counter-based stream regenerates the picked rows alone; a row two thresholds picked is drawn once
    starts = sample_rows(dist, config.seed, _GENERATION, np.concatenate([rows for _, rows in picks]))
    priors = {
        (ref_set.threshold, ref_set.side): _rejection_rate(ref_set, model.n_component_states)
        for result, _ in picks
        for ref_set in (result.lower, result.upper)
        if len(ref_set)
    }
    ends, lower, calls = boundary_searches(model, starts, targets, priors)
    spent = []
    for k, (result, _) in enumerate(picks):
        mine = owners == k
        for target, side in ((result.lower, lower), (result.upper, ~lower)):
            result.redundant_searches += target.insert_many(ends[mine & side]).count("redundant")
        spent.append(int(calls[mine].sum()))
    return spent


def _rejection_rate(ref_set: ReferenceSet, n_states: int) -> float:
    """The share of the set's member entries short of its walks' limit: each is a rejected move at M = 2."""
    limit = n_states - 1 if ref_set.side == Side.LOWER else 0
    members = ref_set.as_array()
    return float(np.count_nonzero(members != limit) / members.size)


def _stream(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
    sets: list[ThresholdSets],
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]]:
    """``classify.verdicts`` over batch 0, which the counter-based sampler draws chunk by chunk."""
    n = dist.n_components
    return verdicts(
        lambda start, stop: sample_batch(dist, stop - start, config.seed, _GENERATION, start=start).states,
        config.n_samples, _chunk_rows(n), sets,
        (n, model.n_component_states, model.n_system_states), config.n_workers,
    )


def stage2_evaluate(
    model: SystemModel,
    dist: ComponentDistribution,
    lower: ReferenceSet | None,
    upper: ReferenceSet | None,
    config: RunConfig,
    threshold: int,
) -> Stage2Report:
    """Estimate P(S <= m') and P(S >= m'+1) from one classified batch.

    Each chunk's unclassified rows go to the model's counted core
    ``SystemModel._phi_rows`` in one call as the chunk arrives, so the two
    probabilities partition the batch exactly. A sample both sets match
    raises ``InconsistentReferenceSets``, from the first chunk in index
    order that holds one, whatever the worker count.
    """
    model.check_threshold(threshold)
    for ref_set in (lower, upper):
        if ref_set is not None and ref_set.threshold != threshold:
            raise ValueError(f"reference set threshold {ref_set.threshold} != requested m'={threshold}")
    n_low = unclassified = 0
    sets = [(threshold, lower, upper)]
    for _, states, lo, hi, ((low, up),) in _stream(model, dist, config, sets):
        n_low += int(np.count_nonzero(low))
        open_ = ~(low | up)
        if open_.any():
            # S = phi on an open row; it lies in [0, M_S-1], the whole bracket
            phi = model._phi_rows(states[open_])
            unclassified += len(phi)
            n_low += int(np.count_nonzero(phi <= threshold))
        # dropped before the next chunk is drawn, so one chunk is alive at a time
        del states, lo, hi, low, up, open_
    return _stage2_report(config, threshold, n_low, unclassified)


def _stage2_report(config: RunConfig, threshold: int, n_low: int, unclassified: int) -> Stage2Report:
    """The estimates at m' of a batch in which ``n_low`` samples have S <= m' and phi resolved ``unclassified`` rows."""
    h = config.n_samples
    p_low, p_up = n_low / h, (h - n_low) / h
    return Stage2Report(
        p_lower=p_low,
        p_upper=p_up,
        cov_lower=cov(p_low, h),
        cov_upper=cov(p_up, h),
        n_samples=h,
        unclassified_resolved=unclassified,
        threshold=threshold,
        seed=config.seed,
    )


@dataclass(frozen=True)
class PmfReport:
    """The PMF of S from ``multistate_pmf``, with each threshold's Stage-1 result and estimates.

    Every estimate is phi's frequency on batch 0, exact whatever
    references Stage 1 found. Each Stage-1 result holds that threshold's
    rounds on batch 0 and their search phi calls; with
    ``resolution_phi_calls`` they make up every phi call of the run.
    ``rounds`` holds the two sides of the cost test of each round of
    walks: their phi calls, summed over thresholds, and the open rows
    their references settled.
    """

    pmf: np.ndarray  # length M_S, sums to 1
    cumulative_lower: np.ndarray  # P(S <= m') for m' = 0..M_S-2
    stage2_reports: tuple[Stage2Report, ...]
    stage1_results: tuple[Stage1Result, ...]  # one per m'; each counts its search phi calls
    resolution_phi_calls: int  # one phi call per sample some threshold's bracket left open
    rounds: tuple[tuple[int, int], ...]  # (search phi calls, settled rows) of each round of walks


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


class _Rounds:
    """Stage 1 on batch 0, the batch Stage 2 draws, for the thresholds of a range; iterating runs its rounds.

    Each round, every threshold still running picks up to a round's width
    of rows its bracket leaves open, with ``default_rng([seed, round])``
    reset before each threshold; all picks walk in one lockstep
    (``_search_round``), and the open rows are classified again against
    the full sets. A walk makes at most N(M-1) moves, so the first round's
    width, min(``parallel_searches``, max(1, H // (10 * thresholds *
    N(M-1)))), makes its walks cost about a tenth of the batch at most. A
    later round doubles the width after a round that settled more open
    rows than its walks cost and halves it otherwise, between 1 and
    ``parallel_searches``. A threshold stops on ``eps_u`` (the share of
    batch 0 its bracket leaves open) or ``r_max``. Before each round of
    walks the iteration yields the results of the thresholds still
    running, so its caller may stop them; ``spent`` and ``settled`` hold
    each round's walks' phi calls and the open rows its references
    settled, both exact counts on the batch.

    A row is open while some threshold t of the range leaves it open, lo <=
    t < hi in its bracket lo <= S <= hi. Between rounds the open rows keep
    their ascending sample indices ``index`` and narrow brackets ``lo`` and
    ``hi``, a few bytes a row, which each pass compacts in place, and the
    first ``n_kept`` of them their packed thermometer ``words``,
    word-major: as many as fit in ``_KEEP_BYTES`` a sample. Later passes
    classify those as they are, and ``open_words`` regenerates the others
    chunk by chunk. ``known[s]`` counts the settled rows whose bracket
    ends at hi = s: at each threshold t of the range S <= t exactly when
    hi <= t, and over every threshold hi is S.
    """

    def __init__(self, model: SystemModel, dist: ComponentDistribution, config: RunConfig, thresholds: range) -> None:
        self.model, self.dist, self.config, self.thresholds = model, dist, config, thresholds
        self.results = [
            Stage1Result(ReferenceSet(Side.LOWER, t), ReferenceSet(Side.UPPER, t), [], 0, 0, "r_max") for t in thresholds
        ]
        self.sets = [(t, result.lower, result.upper) for t, result in zip(thresholds, self.results)]
        h, n_states = config.n_samples, model.n_system_states
        # while the sets are empty every row is open
        self.index = np.arange(h, dtype=np.min_scalar_type(h - 1))
        self.lo = np.zeros(h, dtype=np.min_scalar_type(n_states - 1))
        self.hi = np.full(h, n_states - 1, dtype=self.lo.dtype)
        n_words = _n_words(model.n_components * (model.n_component_states - 1))
        self.words = np.empty((n_words, min(h, _KEEP_BYTES * h // (8 * n_words))), dtype=np.uint64)
        self.n_kept = 0
        self.known = np.zeros(n_states, dtype=np.int64)
        self.spent: list[int] = []
        self.settled: list[int] = []
        # the rows whose bracket says S <= t, and S >= t+1, at each threshold t of the range, at the last record
        self.below: list[int] = []
        self.above: list[int] = []

    def __iter__(self) -> Iterator[list[Stage1Result]]:
        model, config, results = self.model, self.config, self.results
        h = config.n_samples
        # the open rows' counts by lo, row 0, and by hi, row 1
        brackets = np.zeros((2, model.n_system_states), dtype=np.int64)
        brackets[0, 0] = brackets[1, -1] = h
        searches = [0] * len(results)
        phi_calls = [0] * len(results)
        width = 0  # walks a threshold in a round, set before each round
        t_start = time.perf_counter()
        live = list(range(len(results)))
        for round_ in itertools.count():
            if round_:
                n_open, brackets = self._reclassify()
                self.settled.append(len(self.index) - n_open)
                self.index, self.lo, self.hi = self.index[:n_open], self.lo[:n_open], self.hi[:n_open]
                self.n_kept = min(n_open, self.words.shape[1])
            self.below = np.cumsum(self.known + brackets[1])[self.thresholds].tolist()
            self.above = (h - np.cumsum(self.known + brackets[0])[self.thresholds]).tolist()
            live = [
                k
                for k in live
                if _record(results[k], config, round_, t_start, phi_calls[k], searches[k], self.below[k], self.above[k])
            ]
            if not live:
                return
            yield [results[k] for k in live]
            if not self.spent:
                # a walk makes at most N(M-1) moves, a phi call each, and one call
                # on its start, so the first round's walks cost at most a tenth of
                # the batch and a call a walk
                moves = model.n_components * (model.n_component_states - 1)
                width = min(config.parallel_searches, max(1, h // (10 * len(live) * moves)))
            elif self.settled[-1] > self.spent[-1]:
                width = min(config.parallel_searches, 2 * width)
            else:
                width = max(1, width // 2)
            # every threshold picks from the same stream, reset to its start
            rng = np.random.default_rng([config.seed, round_])
            origin = rng.bit_generator.state
            picks = []
            for k in live:
                t = self.thresholds[k]
                rng.bit_generator.state = origin
                open_k = self.index[(self.lo <= t) & (t < self.hi)]
                n_pick = min(width, len(open_k))
                picks.append((results[k], rng.choice(open_k, size=n_pick, replace=False)))
                searches[k] += n_pick
                del open_k
            calls = _search_round(model, self.dist, config, picks)
            for k, c in zip(live, calls):
                phi_calls[k] += c
            self.spent.append(sum(calls))

    def open_words(self, start: int, stop: int) -> np.ndarray:
        """The thermometer words, word-major, of the open rows ``start..stop-1``: kept, or regenerated and packed.

        Regenerated rows whose indices run with no gap, every chunk of the
        first pass, are drawn by ``sample_batch``'s block loop as Stage 2's
        stream draws them; scattered ones by ``sample_rows``.
        """
        cut = min(max(start, self.n_kept), stop)
        if cut == stop:
            return self.words[:, start:stop]
        rows = self.index[cut:stop]
        first = int(rows[0])
        if int(rows[-1]) - first == len(rows) - 1:
            drawn = sample_batch(self.dist, len(rows), self.config.seed, _GENERATION, start=first).states
        else:
            drawn = sample_rows(self.dist, self.config.seed, _GENERATION, rows)
        drawn = _word_major(drawn, self.dist.n_states)
        return drawn if cut == start else np.concatenate([self.words[:, start:cut], drawn], axis=1)

    def _reclassify(self) -> tuple[int, np.ndarray]:
        """Classify the open rows against every set, and move those still open to the front, in place.

        ``verdicts`` classifies the kept words as they are, and
        ``open_words`` regenerates the others chunk by chunk; a crossed
        bracket raises naming its sample. A settled row is counted in
        ``known``; the others move to the front of ``index``, with their
        brackets in ``lo`` and ``hi`` and, as far as ``words`` has room,
        their words. Returns their count, and their counts by lo and by hi.
        A chunk's rows go no further forward than the chunk itself, so no
        worker reads an index or a word written over.
        """
        model, index, words = self.model, self.index, self.words
        n, n_states = model.n_components, model.n_system_states
        first, last = self.thresholds[0], self.thresholds[-1]
        brackets = np.zeros((2, n_states), dtype=np.int64)
        n_open = 0
        for start, chunk, c_lo, c_hi, _ in verdicts(
            self.open_words, len(index), _chunk_rows(n), self.sets,
            (n, model.n_component_states, n_states), self.config.n_workers, index, packed=True,
        ):
            # some threshold t of the range has lo <= t < hi
            keep = np.maximum(c_lo, first) < np.minimum(c_hi, last + 1)
            self.known += np.bincount(c_hi[~keep], minlength=n_states)
            c_lo, c_hi = c_lo[keep], c_hi[keep]
            brackets += [np.bincount(c_lo, minlength=n_states), np.bincount(c_hi, minlength=n_states)]
            end = n_open + len(c_lo)
            index[n_open:end] = index[start : start + len(keep)][keep]
            self.lo[n_open:end] = c_lo
            self.hi[n_open:end] = c_hi
            room = min(end, words.shape[1]) - n_open
            if room > 0:
                words[:, n_open : n_open + room] = chunk[:, keep][:, :room]
            n_open = end
            # dropped before the next chunk is drawn, so one chunk is alive at a time
            del chunk, c_lo, c_hi, keep
        return n_open, brackets


def multistate_pmf(
    model: SystemModel,
    dist: ComponentDistribution,
    config: RunConfig,
) -> PmfReport:
    """Find references for every threshold on Stage 2's own batch, then resolve the rest by phi.

    Stage 1 runs ``_Rounds`` for every threshold, on batch 0, the batch
    Stage 2 draws. Besides their own stops on ``eps_u`` and ``r_max``, all
    thresholds stop on cost, once the walks' phi calls over the last
    rounds, at most ``_COST_WINDOW``, from the first, exceed the open rows
    those rounds settled: each open row costs one phi call at the end, and
    ``rounds`` reports both counts of each round. Then every row still
    open is resolved by one phi call, on the states its kept words decode
    to or regenerated, and checked against its bracket.

    The estimate is phi's frequency on batch 0 whatever references are
    found, so it equals the crude Monte Carlo oracle's at the same seed,
    and the chain P(S <= m') is monotone exactly. A crossed bracket, or
    phi outside one, raises ``InconsistentReferenceSets``.
    """
    n_states = model.n_system_states
    thresholds = range(n_states - 1)
    rounds = _Rounds(model, dist, config, thresholds)
    for live in rounds:
        if rounds.spent and sum(rounds.spent[-_COST_WINDOW:]) > sum(rounds.settled[-_COST_WINDOW:]):
            for result in live:
                result.terminated_by = "cost"
            break

    # every row still open costs one phi call, checked against its bracket:
    # a bracket a reference narrowed that phi leaves means phi is not coherent
    index, lo, hi, known = rounds.index, rounds.lo, rounds.hi, rounds.known
    chunk = _chunk_rows(model.n_components)
    for start in range(0, len(index), chunk):
        stop = min(start + chunk, len(index))
        states = decode_packed(rounds.open_words(start, stop).T, model.n_components, dist.n_states)
        phi = model._phi_rows(states)
        bad = np.flatnonzero((phi < lo[start:stop]) | (phi > hi[start:stop]))
        if bad.size:
            k = int(bad[0])
            raise InconsistentReferenceSets.on_bracket(
                rounds.sets, int(index[start + k]), states[k], int(lo[start + k]), int(hi[start + k]), int(phi[k])
            )
        known += np.bincount(phi, minlength=n_states)
    n_low = np.cumsum(known)[:-1].tolist()
    h = config.n_samples
    # the rows each threshold's bracket left open, which phi resolved
    reports = [_stage2_report(config, t, n_low[t], h - rounds.below[t] - rounds.above[t]) for t in thresholds]
    cum = np.array([r.p_lower for r in reports])
    pmf, _ = assemble_pmf(cum)
    return PmfReport(
        pmf=pmf,
        cumulative_lower=cum,
        stage2_reports=tuple(reports),
        stage1_results=tuple(rounds.results),
        resolution_phi_calls=len(index),
        rounds=tuple(zip(rounds.spent, rounds.settled)),
    )
