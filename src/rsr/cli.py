"""Command-line entry point.

Subcommands: gen-graph, find-refs, evaluate, pmf, oracle. All structured
output is JSON; the Stage-1 trace, a row a round, is CSV. Every subcommand
is deterministic given its full flag set; the seed defaults to the
``RSR_SEED`` environment variable when set.

Exit codes: 0 success, 2 usage error, 3 input validation error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from . import __version__, files
from .model import ComponentDistribution, SystemModel
from .oracle import crude_monte_carlo, exact_probabilities
from .sysfn import random_geometric_graph
from .workflow import (
    RunConfig,
    Stage1Result,
    _peak_rss_bytes,
    multistate_pmf,
    stage1_find_references,
    stage2_evaluate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4

TRACE_COLUMNS = (
    "ref_count",
    "elapsed_s",
    "phi_evals",
    "searches",
    "p_lower",
    "p_upper",
    "p_unclassified",
    "peak_rss_bytes",
)


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("RSR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"RSR_SEED must be an integer, got {raw!r}")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    # main reads the $RSR_SEED default after parsing, so a malformed value
    # is a usage error and --version or --help never reads it
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: $RSR_SEED or 0)",
    )


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of every subcommand that classifies a sample batch."""
    parser.add_argument("--samples", "-H", dest="samples", type=int, default=RunConfig.n_samples)
    parser.add_argument(
        "--workers", type=int, default=RunConfig.n_workers, help="classification worker threads"
    )
    _add_seed(parser)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that run Stage 1."""
    parser.add_argument("--eps-u", type=float, default=RunConfig.eps_u)
    parser.add_argument("--r-max", type=int, default=RunConfig.r_max)
    parser.add_argument(
        "--parallel",
        type=int,
        default=RunConfig.parallel_searches,
        help="at most this many boundary walks per threshold per round",
    )
    _add_batch_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsr",
        description="Reference-state reliability analysis of coherent systems",
    )
    parser.add_argument("--version", action="version", version=f"rsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a random geometric graph file")
    p.add_argument("--n-nodes", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_seed(p)

    p = sub.add_parser("find-refs", help="Stage 1: discover boundary reference sets")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--m-prime", type=int, default=0)
    p.add_argument("--out-refs", type=Path, required=True)
    p.add_argument("--out-trace", type=Path)
    _add_run_flags(p)

    p = sub.add_parser("evaluate", help="Stage 2: estimate system probabilities")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--refs", type=Path, required=True)
    p.add_argument("--out-report", type=Path, required=True)
    _add_batch_flags(p)

    p = sub.add_parser("pmf", help="multi-state PMF: both stages on one batch for every threshold")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_run_flags(p)

    p = sub.add_parser("oracle", help="ground-truth engines for small models")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), required=True)
    p.add_argument("--m-prime", type=int, default=0)
    p.add_argument("--samples", "-H", dest="samples", type=int, default=100_000)
    p.add_argument("--out", type=Path)
    _add_seed(p)

    return parser


def _load_model(path: Path) -> tuple[SystemModel, ComponentDistribution, str]:
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    return files.load_model(path)


def _hashes(digest: str, dist: ComponentDistribution) -> dict:
    """The model's two hashes: the system its references hold for, and the distribution that priced the run."""
    return {"system_hash": digest, "distribution_hash": files.distribution_hash(dist)}


def _write_trace(path: Path, result: Stage1Result) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in result.trace:
            writer.writerow(
                [
                    rec.reference_count,
                    f"{rec.elapsed_seconds:.6f}",
                    rec.phi_evaluations,
                    rec.searches,
                    repr(rec.p_lower),
                    repr(rec.p_upper),
                    repr(rec.p_unclassified),
                    rec.peak_rss_bytes if rec.peak_rss_bytes is not None else "",
                ]
            )


def _save_with_peak(save: Callable[[], None], manifest: dict) -> None:
    """Run ``save`` with the command's peak RSS, taken after the save, as the manifest's ``peak_rss_bytes``.

    A peak never falls, so while a save raises it the save runs again
    with the new peak, until the peak it records is the peak after it.
    """
    while True:
        manifest["peak_rss_bytes"] = peak = _peak_rss_bytes()
        save()
        if _peak_rss_bytes() == peak:
            return


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        n_samples=args.samples,
        eps_u=args.eps_u,
        r_max=args.r_max,
        seed=args.seed,
        parallel_searches=args.parallel,
        n_workers=args.workers,
    )


def cmd_gen_graph(args: argparse.Namespace) -> int:
    graph = random_geometric_graph(args.n_nodes, args.radius, args.seed)
    manifest = files.build_manifest(
        "gen-graph", n_nodes=args.n_nodes, radius=args.radius, seed=args.seed
    )
    files.save_graph(args.out, graph, manifest=manifest)
    print(f"wrote {args.out}: {graph.n_nodes} nodes, {graph.n_edges} edges")
    return EXIT_OK


def cmd_find_refs(args: argparse.Namespace) -> int:
    model, dist, digest = _load_model(args.model)
    config = _config_from_args(args)
    result = stage1_find_references(model, dist, config, args.m_prime)
    manifest = files.build_manifest(
        "find-refs",
        config=config,
        model_path=str(args.model),
        **_hashes(digest, dist),
        m_prime=args.m_prime,
        terminated_by=result.terminated_by,
        redundant_searches=result.redundant_searches,
    )
    _save_with_peak(
        lambda: files.save_reference_sets(
            args.out_refs, result.lower, result.upper, digest, manifest=manifest
        ),
        manifest,
    )
    if args.out_trace:
        _write_trace(args.out_trace, result)
    final = result.trace[-1]
    print(
        f"found {len(result.lower)} lower + {len(result.upper)} upper references "
        f"in {result.iterations} rounds (p_u={final.p_unclassified:.3e}, "
        f"terminated by {result.terminated_by})"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, dist, digest = _load_model(args.model)
    if not args.refs.exists():
        raise FileNotFoundError(f"reference file not found: {args.refs}")
    lower, upper = files.load_reference_sets(args.refs, digest)
    try:
        model.check_threshold(lower.threshold)
    except ValueError as exc:
        raise ValueError(f"{args.refs}: {exc}") from None
    config = RunConfig(n_samples=args.samples, seed=args.seed, n_workers=args.workers)
    report = stage2_evaluate(model, dist, lower, upper, config, lower.threshold)
    manifest = files.build_manifest(
        "evaluate", model_path=str(args.model), **_hashes(digest, dist), refs_path=str(args.refs)
    )
    # the settings Stage 2 reads: it runs no search
    manifest["config"] = {"n_samples": args.samples, "seed": args.seed, "n_workers": args.workers}
    doc = {"format": files.FORMAT, **asdict(report), "manifest": manifest}
    _save_with_peak(lambda: files.write_json(args.out_report, doc), manifest)
    print(
        f"P(S<={report.threshold}) = {report.p_lower:.6e} "
        f"(cov {report.cov_lower if report.cov_lower is not None else 'undefined'}), "
        f"unclassified resolved: {report.unclassified_resolved}"
    )
    return EXIT_OK


def cmd_pmf(args: argparse.Namespace) -> int:
    model, dist, digest = _load_model(args.model)
    config = _config_from_args(args)
    report = multistate_pmf(model, dist, config)
    manifest = files.build_manifest(
        "pmf", config=config, model_path=str(args.model), **_hashes(digest, dist)
    )
    doc = {
        "format": files.FORMAT,
        "pmf": report.pmf.tolist(),
        "cumulative_lower": report.cumulative_lower.tolist(),
        "thresholds": [
            {
                "m_prime": r.threshold,
                "p_lower": r.p_lower,
                "p_upper": r.p_upper,
                "cov_lower": r.cov_lower,
                "cov_upper": r.cov_upper,
                "unclassified_resolved": r.unclassified_resolved,
                "stage1": {
                    # rounds on batch 0, the batch the estimates come from
                    "iterations": s1.iterations,
                    "lower_refs": len(s1.lower),
                    "upper_refs": len(s1.upper),
                    "terminated_by": s1.terminated_by,
                    "search_phi_calls": s1.search_phi_calls,
                },
            }
            for r, s1 in zip(report.stage2_reports, report.stage1_results)
        ],
        # one per sample left open at some threshold; with the search
        # calls above, every phi call of the run
        "resolution_phi_calls": report.resolution_phi_calls,
        # each round of walks: its phi calls over every threshold, and the
        # open rows its references settled, the two sides of the cost test
        "rounds": [{"search_phi_calls": c, "settled": n} for c, n in report.rounds],
        "manifest": manifest,
    }
    _save_with_peak(lambda: files.write_json(args.out, doc), manifest)
    print("PMF:", " ".join(f"{p:.6e}" for p in report.pmf))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    model, dist, digest = _load_model(args.model)
    if args.mode == "exact":
        result = exact_probabilities(model, dist)
        payload = {
            "format": files.FORMAT,
            "mode": "exact",
            "cumulative": result.cumulative.tolist(),
            "state_count": result.state_count.tolist(),
            **_hashes(digest, dist),
        }
        print("cumulative:", " ".join(f"{p:.6e}" for p in result.cumulative))
    else:
        p_hat, delta = crude_monte_carlo(model, dist, args.samples, args.seed, args.m_prime)
        payload = {
            "format": files.FORMAT,
            "mode": "mc",
            "m_prime": args.m_prime,
            "p_lower": p_hat,
            "cov": delta,
            "n_samples": args.samples,
            "seed": args.seed,
            **_hashes(digest, dist),
        }
        print(f"P(S<={args.m_prime}) ~= {p_hat:.6e} (cov {delta})")
    if args.out:
        files.write_json(args.out, payload)
    return EXIT_OK


_COMMANDS = {
    "gen-graph": cmd_gen_graph,
    "find-refs": cmd_find_refs,
    "evaluate": cmd_evaluate,
    "pmf": cmd_pmf,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _default_seed(parser)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
