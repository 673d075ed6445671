"""One repetition of a workload in a fresh interpreter.

Sets the workload up, runs its timed ``rsr`` command in-process through
``rsr.cli.main``, checks the output and writes a JSON result. Started by
``run.py``, which passes the monotonic-clock time at which it spawned
this process so that set-up time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import rsr.cli
import rsr.files

import spans
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    workload.setup(args.work, args.seed)
    argv = workload.command(args.work, args.seed)

    # Capture every model the command loads, to read its phi-call count.
    models = []
    load_model = rsr.files.load_model

    def capture(*a, **k):
        loaded = load_model(*a, **k)
        models.append(loaded[0])
        return loaded

    rsr.files.load_model = capture
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None

    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    code = rsr.cli.main(argv)
    wall_s = time.perf_counter() - t0

    if restore:
        restore()
    rsr.files.load_model = load_model
    phi_calls = sum(m.evaluation_count for m in models)
    failure = f"rsr {argv[0]} exited with code {code}" if code else workload.check(args.work, args.seed)

    result = {
        "wall_s": wall_s,
        "setup_s": (start_ns - args.spawn_ns) / 1e9,
        "phi_calls": phi_calls,
        "failure": failure,
    }
    if tracer:
        result["spans"] = tracer.spans
    (args.work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
