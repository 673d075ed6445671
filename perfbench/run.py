"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stage1-rgg --seed 1 --seconds 15 --trace 0

Each repetition runs in a fresh interpreter (``child.py``), which sets the
workload up, times one ``rsr`` CLI command and checks its output. A run
repeats rounds of the workload's inputs until ``--seconds`` have passed;
input ``i`` of a round uses CLI seed ``seed * 1000 + i``, so every round
covers the same inputs. End-to-end metrics are medians over the untraced
repetitions for times, and means for ``peak_rss_mb`` and ``phi_calls``. With ``--trace 1`` each
input also runs once traced per round, and the per-layer metrics are
medians over the traced repetitions.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s: start no child after STOP_STARTING_S, and
# kill one still running at RUN_DEADLINE_S.
STOP_STARTING_S = 120.0
RUN_DEADLINE_S = 170.0
SEEDS_PER_RUN_SEED = 1000

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("phi_calls", "count"),
)


def _parse_args(names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _run_child(workload: str, seed: int, traced: bool, work: Path, deadline: float) -> dict:
    """Run one repetition; returns its result with ``peak_rss_mb`` from the child's rusage."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        "--trace", str(int(traced)),
        "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    with open(work / "log.txt", "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_file = work / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = (work / "log.txt").read_text(errors="replace").strip().splitlines()[-1:]
        return {"failure": f"child exited with code {proc.returncode}: {' '.join(tail)}"}
    result = json.loads(result_file.read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # kilobytes on Linux
    return result


def _l3_bytes() -> int:
    try:
        return os.sysconf(194)  # glibc's _SC_LEVEL3_CACHE_SIZE; os.sysconf_names lacks it
    except (OSError, ValueError):
        return 0


def main() -> int:
    if not (ROOT / "src" / "rsr" / "__init__.py").is_file():
        print(f"perfbench: no rsr source tree at {ROOT / 'src' / 'rsr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    from workloads import WORKLOADS

    args = _parse_args(sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    inputs = [args.seed * SEEDS_PER_RUN_SEED + i for i in range(workload.inputs_per_round)]
    modes = (False, True) if args.trace else (False,)

    # Run every repetition on one core: the cores of a small VM can differ
    # in speed by a fifth, which would otherwise split runs in two groups.
    # Children inherit the affinity; this process mostly sleeps.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work_root = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    jobs = [(seed, traced) for seed in inputs for traced in modes]
    started = time.monotonic()
    reps: list[dict] = []
    try:
        for seed, traced in itertools.cycle(jobs):
            elapsed = time.monotonic() - started
            round_done = len(reps) % len(jobs) == 0
            if reps and ((round_done and elapsed >= args.seconds) or elapsed > STOP_STARTING_S):
                break
            work = work_root / f"rep{len(reps)}"
            rep = _run_child(args.workload, seed, traced, work, started + RUN_DEADLINE_S)
            rep.update(seed=seed, traced=traced)
            reps.append(rep)
            shutil.rmtree(work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    # phi calls are deterministic per input, traced or not
    phi_by_seed: dict[int, set] = {}
    for rep in reps:
        if not rep["failure"]:
            phi_by_seed.setdefault(rep["seed"], set()).add(rep["phi_calls"])
    for rep in reps:
        if not rep["failure"] and len(phi_by_seed[rep["seed"]]) > 1:
            rep["failure"] = f"phi calls differ between repetitions: {sorted(phi_by_seed[rep['seed']])}"

    ok = [r for r in reps if not r["failure"]]
    plain = [r for r in ok if not r["traced"]]
    failed = len(reps) - len(ok)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(reps)} repetitions "
          f"over inputs {inputs}, {time.monotonic() - started:.1f} s")
    for i, rep in enumerate(reps):
        verdict = f"FAILED: {rep['failure']}" if rep["failure"] else "correct"
        timing = "" if rep["failure"] else (
            f"wall {rep['wall_s']:.3f} s  setup {rep['setup_s']:.3f} s  "
            f"peak {rep['peak_rss_mb']:.1f} MiB  phi {rep['phi_calls']}  "
        )
        print(f"  rep {i:2d} input {rep['seed']}{' traced' if rep['traced'] else ''}: {timing}{verdict}")

    traced_ok = [r for r in ok if r["traced"]]
    if not plain or (args.trace and not traced_ok):
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1

    metrics: dict[str, dict] = {}
    if args.trace:
        per_rep = [spans.layer_metrics(r["spans"]) for r in traced_ok]
        layer = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        layer["trace_overhead_s"] = layer["cli.s"] - statistics.median(r["wall_s"] for r in plain)
        print(f"per-layer (median of {len(per_rep)} traced repetitions; share of cli.s):")
        for name, unit, _ in spans.PER_LAYER:
            value = layer[name]
            share = f"  {value / layer['cli.s']:6.1%}" if unit == "s" and name != "cli.s" else ""
            print(f"  {name:28s} {value:16.6g} {unit}{share}")
            metrics[name] = {"value": value, "unit": unit}
        l3 = _l3_bytes()
        batch = layer["sampling.batch_bytes"]
        if l3:
            print(f"largest sampled batch {batch / 2**20:.1f} MiB = {batch / l3:.2f} x L3 ({l3 / 2**20:.1f} MiB)")
        print("layer -> end-to-end metric it should move:")
        for layer_name, target in spans.LAYER_TARGETS.items():
            print(f"  {layer_name:9s} {target}")
    else:
        print(f"end-to-end ({len(plain)} repetitions; times median, others mean):")
        for name, unit in END_TO_END:
            # Times are noisy, so they take the median. Peak RSS and phi calls
            # are fixed by the input and take few distinct values; their mean
            # spreads less between seeds and has no outliers to fear.
            aggregate = statistics.median if unit == "s" else statistics.fmean
            value = aggregate(r[name] for r in plain)
            print(f"  {name:12s} {value:14.6f} {unit}")
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
