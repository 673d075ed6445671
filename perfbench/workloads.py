"""The benchmark's workloads: input files, the timed CLI command and its correctness gate.

Each workload is a function of one integer seed. ``setup`` writes the
inputs into a fresh work directory, ``command`` is the argv of the timed
``rsr`` command, and ``check`` returns ``None`` when the command's output
is correct, or a one-line reason when it is not. ``check`` runs after the
timed region and reloads everything it needs from the output files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rsr import cli, files
from rsr.classify import classify
from rsr.sampling import sample_batch

# The graph is fixed (seed 0 gives N = 115 edges) so that every seed runs
# the same model; the workload seed only drives the samples.
RGG_NODES, RGG_RADIUS, RGG_SEED = 30, 0.35, 0
EDGE_FAIL = 0.05

STAGE1_SAMPLES, STAGE1_EPS_U = 10_000, 1e-4
SEARCHES_PER_ITERATION = 32
# Stage-2 refs come from a coarser Stage 1, so that about 1000 of the
# 500k samples stay unclassified and Stage 2 makes a steady number of
# resolution phi calls. They use one fixed seed, so every seed evaluates
# against the same reference file.
STAGE2_REF_SAMPLES, STAGE2_REF_EPS_U, STAGE2_REF_SEED = 10_000, 3e-3, 0
# 500k x 115 int64 states are 460 MB, over 4x a 105 MiB L3.
STAGE2_SAMPLES = 500_000
STAGE2_CHECK_ROWS = 10_000

KOFN_K, KOFN_N = 3, 12
KOFN_ROW = (0.4, 0.3, 0.15, 0.1, 0.05)
PMF_SAMPLES, PMF_EPS_U = 5_000, 2e-4
# With H = 5k, a correct run strays past 4 sigma on some state with chance
# 4e-4 per input (binomial tails), about 5% over the ~130 inputs of 22
# runs; past 5 sigma the chance is 1.4e-5 per input.
PMF_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # distinct inputs (sub-seeds) per round of repetitions
    inputs_per_round: int
    setup: Callable[[Path, int], None]
    command: Callable[[Path, int], list[str]]
    check: Callable[[Path, int], str | None]


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rsr {argv[0]} exited with code {code}")


def _write_rgg_model(work: Path) -> None:
    _run_cli(
        [
            "gen-graph",
            "--n-nodes", str(RGG_NODES),
            "--radius", str(RGG_RADIUS),
            "--seed", str(RGG_SEED),
            "--out", str(work / "graph.json"),
        ]
    )
    n_edges = files.load_graph(work / "graph.json").n_edges
    files.write_json(
        work / "model.json",
        {
            "format": files.FORMAT,
            "n_components": n_edges,
            "n_component_states": 2,
            "n_system_states": 2,
            "distribution": [[EDGE_FAIL, 1.0 - EDGE_FAIL]] * n_edges,
            # origin and destination default to pick_od_pair(graph)
            "system_function": {"name": "single_od_connectivity", "graph_file": "graph.json"},
        },
    )


def _find_refs_argv(work: Path, seed: int, samples: int, eps_u: float) -> list[str]:
    return [
        "find-refs",
        "--model", str(work / "model.json"),
        "--out-refs", str(work / "refs.json"),
        "--out-trace", str(work / "trace.csv"),
        "--samples", str(samples),
        "--eps-u", repr(eps_u),
        "--parallel", str(SEARCHES_PER_ITERATION),
        "--seed", str(seed),
    ]


def _inconsistent_refs(work: Path) -> str | None:
    """Every stored reference must lie on its side of m' under phi."""
    model, _, digest = files.load_model(work / "model.json")
    lower, upper = files.load_reference_sets(work / "refs.json", digest)
    for refs in (lower, upper):
        for vec in refs.members:
            state = model.evaluate(vec)
            if (state <= refs.threshold) != (refs.side == "lower"):
                return f"{refs.side} reference {vec} has system state {state}"
    return None


# -- stage1-rgg ---------------------------------------------------------


def _stage1_command(work: Path, seed: int) -> list[str]:
    return _find_refs_argv(work, seed, STAGE1_SAMPLES, STAGE1_EPS_U)


def _stage1_check(work: Path, seed: int) -> str | None:
    manifest = json.loads((work / "refs.json").read_text())["manifest"]
    if manifest["terminated_by"] != "eps_u":
        return f"Stage 1 terminated by {manifest['terminated_by']}, not eps_u"
    with open(work / "trace.csv", newline="") as fh:
        final = list(csv.DictReader(fh))[-1]
    if float(final["p_unclassified"]) > STAGE1_EPS_U:
        return f"final p_unclassified {final['p_unclassified']} > eps_u {STAGE1_EPS_U}"
    return _inconsistent_refs(work)


# -- stage2-rgg ---------------------------------------------------------


def _stage2_setup(work: Path, seed: int) -> None:
    _write_rgg_model(work)
    _run_cli(_find_refs_argv(work, STAGE2_REF_SEED, STAGE2_REF_SAMPLES, STAGE2_REF_EPS_U))


def _stage2_command(work: Path, seed: int) -> list[str]:
    return [
        "evaluate",
        "--model", str(work / "model.json"),
        "--refs", str(work / "refs.json"),
        "--out-report", str(work / "report.json"),
        "--samples", str(STAGE2_SAMPLES),
        "--seed", str(seed),
    ]


def _stage2_check(work: Path, seed: int) -> str | None:
    report = json.loads((work / "report.json").read_text())
    if report["n_samples"] != STAGE2_SAMPLES:
        return f"report covers {report['n_samples']} samples, not {STAGE2_SAMPLES}"
    if report["p_lower"] + report["p_upper"] != 1.0:
        return f"p_lower + p_upper = {report['p_lower'] + report['p_upper']!r}, not 1"
    # Stage 2 classifies generation 0; the counter-based stream gives its
    # first rows again, so verdicts can be checked against phi directly.
    model, dist, digest = files.load_model(work / "model.json")
    lower, upper = files.load_reference_sets(work / "refs.json", digest)
    batch = sample_batch(dist, STAGE2_CHECK_ROWS, seed, generation_index=0)
    result = classify(batch, lower, upper, n_states=model.n_component_states)
    for indices, side in ((result.lower_indices, "lower"), (result.upper_indices, "upper")):
        for idx in indices:
            state = model.evaluate(batch.states[int(idx)])
            if (state <= lower.threshold) != (side == "lower"):
                return f"row {int(idx)} classified {side} but phi gives state {state}"
    return None


# -- pmf-kofn -----------------------------------------------------------


def kofn_exact_pmf(k: int, n: int, row: tuple[float, ...]) -> list[float]:
    """Closed-form PMF of the k-out-of-n system state for iid components.

    S is the k-th largest component state, so S <= m' iff fewer than k
    components exceed m', a binomial tail with success chance P(X > m').
    """
    cumulative = [0.0]
    for m in range(len(row) - 1):
        q = sum(row[m + 1 :])
        cumulative.append(sum(math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(k)))
    cumulative.append(1.0)
    return [b - a for a, b in zip(cumulative, cumulative[1:])]


def _pmf_setup(work: Path, seed: int) -> None:
    files.write_json(
        work / "model.json",
        {
            "format": files.FORMAT,
            "n_components": KOFN_N,
            "n_component_states": len(KOFN_ROW),
            "n_system_states": len(KOFN_ROW),
            "distribution": [list(KOFN_ROW)] * KOFN_N,
            "system_function": {"name": "k_out_of_n", "k": KOFN_K},
        },
    )


def _pmf_command(work: Path, seed: int) -> list[str]:
    return [
        "pmf",
        "--model", str(work / "model.json"),
        "--out", str(work / "pmf.json"),
        "--samples", str(PMF_SAMPLES),
        "--eps-u", repr(PMF_EPS_U),
        "--parallel", str(SEARCHES_PER_ITERATION),
        "--seed", str(seed),
    ]


def _pmf_check(work: Path, seed: int) -> str | None:
    report = json.loads((work / "pmf.json").read_text())
    exact = kofn_exact_pmf(KOFN_K, KOFN_N, KOFN_ROW)
    for state, (p_hat, p) in enumerate(zip(report["pmf"], exact)):
        sigma = math.sqrt(p * (1.0 - p) / PMF_SAMPLES)
        if abs(p_hat - p) > PMF_SIGMAS * sigma:
            return f"state {state}: estimate {p_hat:.5f} is over {PMF_SIGMAS} sigma from exact {p:.5f}"
    # Every Stage-2 sample is resolved exactly, so each P(S <= m') must be
    # the plain frequency of phi over the generation-0 batch.
    _, dist, _ = files.load_model(work / "model.json")
    states = sample_batch(dist, PMF_SAMPLES, seed, generation_index=0).states
    system = np.sort(states, axis=1)[:, KOFN_N - KOFN_K]
    direct = [np.count_nonzero(system <= m) / PMF_SAMPLES for m in range(len(KOFN_ROW) - 1)]
    if report["cumulative_lower"] != direct:
        return f"cumulative {report['cumulative_lower']} != direct phi frequencies {direct}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stage1-rgg",
            why="find-refs on RGG(30, 0.35, seed 0), N=115, M=2, H=10k, eps_u=1e-4, CLI seeds "
            "1000s+0..15: the Stage-1 loop, where sampling, boundary phi calls and the kernel all weigh",
            inputs_per_round=16,
            setup=lambda work, seed: _write_rgg_model(work),
            command=_stage1_command,
            check=_stage1_check,
        ),
        Workload(
            name="stage2-rgg",
            why="evaluate 500k samples, CLI seeds 1000s+0..3, on the same RGG against refs a "
            "seed-0 find-refs makes in setup: one 460 MB batch, over 4x L3, few phi calls",
            inputs_per_round=4,
            setup=_stage2_setup,
            command=_stage2_command,
            check=_stage2_check,
        ),
        Workload(
            name="pmf-kofn",
            why="pmf on 3-out-of-12, M=5, row (.4 .3 .15 .1 .05), H=5k, eps_u=2e-4, CLI seeds "
            "1000s+0..5: 4 thresholds, ~286 refs each, kernel-bound; exact PMF known",
            inputs_per_round=6,
            setup=_pmf_setup,
            command=_pmf_command,
            check=_pmf_check,
        ),
    )
}
