"""One workload pass in a fresh single-threaded process.

Usage (started by ``run.py``, one process per pass):

    python3 -I perfbench/worker.py --root . --workload names-wide --seed 1 --mode pass

Modes: ``pass`` runs the workload untraced (counting probes only) under a
``SpeedSampler``; ``trace`` runs it with timing probes on every public
cascadekit function and no sampler.  The process prints one JSON line and
exits.  ``first_call`` is a ``CLOCK_MONOTONIC``
reading, which the parent compares with its own reading at spawn time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "trace"), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(src))
    import cascadekit
    from cascadekit import _kernels

    if Path(cascadekit.__file__).resolve().parent != src / "cascadekit":
        raise SystemExit(f"cascadekit imported from {cascadekit.__file__}, not from {src}")

    from probes import Probes
    from workloads import WORKLOADS, SpeedSampler, net_time, reference_loop

    make_inputs, run_pass, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    probes = Probes(trace=args.mode == "trace").install()
    first_call = time.clock_gettime(time.CLOCK_MONOTONIC)
    # the machine's speed just after set-up, to scale the set-up time by
    out = {"first_call": first_call, "setup_speed": min(reference_loop() for _ in range(3))}
    sampler = SpeedSampler() if args.mode == "pass" else None
    try:
        with sampler or contextlib.nullcontext():
            results = run_pass(inputs)
    finally:
        probes.restore()
    samples = sampler.samples if sampler else []
    attempted, failed = check(inputs, results)
    out.update(
        wall_s=net_time(results["span"], samples),
        case_s=[net_time(span, samples) for span in results["case_spans"]],
        case_spans=results["case_spans"],
        samples=samples,
        attempted=attempted,
        failed=failed,
        work_counts=probes.work_counts(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        backend=_kernels.BACKEND,
        stdout=results.get("stdout", ""),
    )
    if args.mode == "trace":
        out.update(layer_metrics=probes.layer_metrics(), spans_self_s=probes.spans_self_s())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
