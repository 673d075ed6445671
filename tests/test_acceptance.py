"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (bypassing capture) so a log scan shows the verdict per
criterion. Tolerances are pinned in the assertions themselves.
"""

import importlib
import time
from contextlib import contextmanager

import numpy as np

from conftest import _hits_for, fig_space_phi, random_distribution, random_monotone_model, raw_sample_searches
from rsr import workflow
from rsr.boundary import ReferenceSet, Side, boundary_search
from rsr.classify import classify
from rsr.encoding import encode_batch
from rsr.model import ComponentDistribution, SystemModel
from rsr.oracle import dominates, exact_probabilities, one_hot, one_hot_violations
from rsr.sampling import SampleBatch, sample_batch
from rsr.sysfn import (
    pick_od_pair,
    random_geometric_graph,
    single_od_connectivity,
)
from rsr.workflow import (
    RunConfig,
    assemble_pmf,
    stage1_find_references,
    stage2_evaluate,
)

# rsr/__init__ rebinds the name ``rsr.classify`` to the function
classify_module = importlib.import_module("rsr.classify")


@contextmanager
def criterion(capsys, num: int, title: str):
    """Print one uncaptured PASS/FAIL line per acceptance criterion."""

    def verdict(word: str) -> None:
        with capsys.disabled():
            print(f"[{word}] criterion {num:2d}: {title}", flush=True)

    try:
        yield
    except BaseException:
        verdict("FAIL")
        raise
    verdict("PASS")


def test_criterion_01_encoding_fidelity(capsys):
    with criterion(capsys, 1, "binary encodings match the worked matrices bit-exact"):
        assert np.array_equal(
            one_hot((1, 2), 5, "lower"),
            [[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]],
        )
        assert np.array_equal(
            one_hot((1, 4), 5, "upper"),
            [[0, 1, 1, 1, 1], [0, 0, 0, 0, 1]],
        )
        assert np.array_equal(
            one_hot((4, 0), 5, "upper"),
            [[0, 0, 0, 0, 1], [1, 1, 1, 1, 1]],
        )
        assert np.array_equal(
            one_hot((3, 0), 5, "sample"),
            [[0, 0, 0, 1, 0], [1, 0, 0, 0, 0]],
        )
        assert np.array_equal(
            one_hot((4, 4), 5, "sample"),
            [[0, 0, 0, 0, 1], [0, 0, 0, 0, 1]],
        )


def test_criterion_02_classification_counting(capsys):
    with criterion(capsys, 2, "partition counts (3,4,3) over H=10 give (0.3,0.4,0.3) exactly"):
        states = np.array([[0, 0]] * 3 + [[4, 4]] * 4 + [[2, 2]] * 3)
        batch = SampleBatch(states=states)
        lower = ReferenceSet(Side.LOWER, 0, [(1, 2)])
        upper = ReferenceSet(Side.UPPER, 0, [(1, 4), (4, 0)])
        res = classify(batch, lower, upper, n_states=5)
        assert res.lower_indices.size == 3
        assert res.upper_indices.size == 4
        assert res.unclassified_indices.size == 3
        assert res.p_lower == 0.3
        assert res.p_upper == 0.4
        assert res.p_unclassified == 0.3


def test_criterion_03_boundary_search_trajectory(capsys):
    with criterion(capsys, 3, "boundary search reaches (3,1) in <= 9 evaluations, (1,4) upper"):
        model = SystemModel(2, 5, 2, fig_space_phi)
        assert boundary_search(model, (2, 0), 0) == ((3, 1), Side.LOWER)
        assert model.evaluation_count <= 9
        assert boundary_search(model, (4, 4), 0) == ((1, 4), Side.UPPER)


def test_criterion_04_oracle_equivalence_property_suite(capsys):
    with criterion(capsys, 4, "two-stage estimates match enumeration within 4 sigma, 50 systems"):
        rng = np.random.default_rng(2026)
        checked = 0
        for case in range(50):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(2, 4))
            m_s = int(rng.integers(2, 4))
            model = random_monotone_model(rng, n, m, m_s)
            dist = random_distribution(rng, n, m)
            exact = exact_probabilities(model, dist)
            cfg = RunConfig(
                n_samples=100_000, eps_u=1e-4, r_max=500,
                parallel_searches=8, seed=case,
            )
            for thr in range(m_s - 1):
                s1 = stage1_find_references(model, dist, cfg, thr)
                rep = stage2_evaluate(model, dist, s1.lower, s1.upper, cfg, thr)
                p, p_true = rep.p_lower, float(exact.cumulative[thr])
                sigma = np.sqrt(
                    max(p * (1 - p), p_true * (1 - p_true)) / cfg.n_samples
                )
                assert abs(p - p_true) <= 4 * sigma, (
                    f"case {case} m'={thr}: {p} vs exact {p_true}, sigma {sigma}"
                )
                checked += 1
        assert checked >= 50


def test_criterion_05_dominance_violation_equivalence(capsys):
    with criterion(capsys, 5, "zero violations iff scalar dominance, thermometer kernel agrees, 1e5 pairs"):
        rng = np.random.default_rng(7)
        n, m = 9, 3
        samples = rng.integers(0, m, size=(500, n))
        refs = rng.integers(0, m, size=(200, n))
        encoded = encode_batch(samples, m)
        sample_rows = [one_hot(x, m, "sample") for x in samples.tolist()]
        for side in (Side.LOWER, Side.UPPER):
            for j, r in enumerate(refs.tolist()):
                region = one_hot(r, m, side)
                # the live kernel on the thermometer words, one reference a call
                hits = _hits_for(encoded, refs[j : j + 1], side)
                for i, x in enumerate(samples.tolist()):
                    inside = one_hot_violations(sample_rows[i], region) == 0
                    assert inside == (dominates(x, r) if side == Side.LOWER else dominates(r, x))
                    assert hits[i] == inside


def test_criterion_06_chunk_and_parallel_invariance(capsys, monkeypatch):
    with criterion(capsys, 6, "classification and Stage-1 results invariant to chunking and workers"):
        dist = ComponentDistribution.iid(6, [0.3, 0.3, 0.4])
        batch = sample_batch(dist, 512, seed=3)
        lower = ReferenceSet(Side.LOWER, 0, [(1, 0, 2, 0, 1, 0)])
        upper = ReferenceSet(Side.UPPER, 0, [(1, 1, 1, 1, 1, 1), (2, 0, 0, 2, 0, 0)])
        h = batch.n_samples
        # classify() chunks the batch _chunk_rows(N) = _CHUNK_BYTES // 8N rows at a time
        monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * h)
        base = classify(batch, lower, upper, n_states=3)
        for chunk in (1, 7, h, h + 13):
            monkeypatch.setattr(classify_module, "_CHUNK_BYTES", 8 * 6 * chunk)
            for workers in (1, 4):
                res = classify(batch, lower, upper, n_workers=workers, n_states=3)
                assert np.array_equal(res.lower_indices, base.lower_indices)
                assert np.array_equal(res.upper_indices, base.upper_indices)
                assert np.array_equal(
                    res.unclassified_indices, base.unclassified_indices
                )

        from rsr.sysfn import k_out_of_n

        model = SystemModel(3, 2, 2, k_out_of_n(3, 3))
        sdist = ComponentDistribution.iid(3, [0.1, 0.9])
        results = []
        for workers in (1, 4):
            cfg = RunConfig(
                n_samples=2000, eps_u=1e-3, r_max=50, seed=7,
                parallel_searches=1, n_workers=workers,
            )
            s1 = stage1_find_references(model, sdist, cfg, 0)
            results.append((sorted(s1.lower.members), sorted(s1.upper.members)))
        assert results[0] == results[1]


def test_criterion_07_multistate_composition(capsys):
    with criterion(capsys, 7, "cumulative (2.47e-3, 1.04e-1) composes to masses 0.102 and 0.896"):
        pmf, _ = assemble_pmf([2.47e-3, 1.04e-1])
        assert abs(pmf[1] - 1.02e-1) <= 5e-4  # 3 significant figures
        assert abs(pmf[2] - 8.96e-1) <= 5e-4


def test_criterion_08_convergence_structure(capsys, monkeypatch):
    with criterion(capsys, 8, "boundary search converges where raw-sample references stall"):
        graph = random_geometric_graph(30, 0.35, seed=0)
        origin, dest = pick_od_pair(graph)
        model = SystemModel(
            graph.n_edges, 2, 2, single_od_connectivity(graph, origin, dest)
        )
        dist = ComponentDistribution.iid(graph.n_edges, [0.05, 0.95])

        cfg = RunConfig(
            n_samples=200_000, eps_u=5e-6, r_max=10_000,
            parallel_searches=32, seed=1,
        )
        good = stage1_find_references(model, dist, cfg, 0)
        assert good.terminated_by == "eps_u"
        assert good.trace[-1].p_unclassified < 1e-5
        n_refs = len(good.lower) + len(good.upper)

        stalled_cfg = RunConfig(
            n_samples=200_000, eps_u=5e-6, r_max=10 * n_refs,
            parallel_searches=64, seed=1,
        )
        # each open sample picked becomes a reference as it is, with no walk
        monkeypatch.setattr(workflow, "boundary_searches", raw_sample_searches)
        stalled = stage1_find_references(model, dist, stalled_cfg, 0)
        assert stalled.terminated_by == "r_max"
        assert len(stalled.lower) + len(stalled.upper) >= 10 * n_refs
        assert stalled.trace[-1].p_unclassified > 0.5


def test_criterion_09_throughput_and_linear_scaling(capsys):
    with criterion(capsys, 9, "1e6 x 262 x 49 classification under 120 s, linear in ref count"):
        h, n = 1_000_000, 262
        rng = np.random.default_rng(42)
        states = rng.integers(0, 2, size=(h, n), dtype=np.int8)
        batch = SampleBatch(states=states)

        lower = ReferenceSet(Side.LOWER, 0)
        while len(lower) < 49:
            vec = tuple(int(v) for v in rng.integers(0, 2, size=n))
            lower.insert(vec)
        t0 = time.perf_counter()
        classify(batch, lower, None, n_workers=1, n_states=2)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"classification took {elapsed:.1f}s"

        # scaling in R measured on the classification kernel alone, with
        # the one-time sample encoding hoisted out of the timed region; each
        # ref count's time is the best of 3 calls, made in 3 rounds over the
        # ref counts, so a slow spell of the host cannot decide the ratio
        enc = encode_batch(states, 2)
        enc.packed
        refs = {r: rng.integers(0, 2, size=(r, n)) for r in (49, 98, 196)}
        times = dict.fromkeys(refs, float("inf"))
        for _ in range(3):
            for r, ref_rows in refs.items():
                t0 = time.perf_counter()
                _hits_for(enc, ref_rows, Side.LOWER)
                times[r] = min(times[r], time.perf_counter() - t0)
        for r in (49, 98):
            ratio = times[2 * r] / times[r]
            assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3, (
                f"doubling refs from {r} scaled time by {ratio:.2f}"
            )


def test_criterion_10_full_scale_claims_excluded(capsys):
    with criterion(capsys, 10, "full-scale wall-time/memory claims excluded, substitutes present"):
        # Published large-scale wall-clock times, resident-memory figures,
        # and results on unspecified real-world graphs depend on hardware
        # and data this suite cannot reproduce; they are deliberately out
        # of scope. Criteria 4 through 9 substitute desk-scale checks of
        # the same correctness and scaling properties.
        substitutes = [
            name
            for name in globals()
            if name.startswith("test_criterion_0") and name != "test_criterion_01_encoding_fidelity"
        ]
        assert len(substitutes) >= 6
