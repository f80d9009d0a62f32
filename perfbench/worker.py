"""One execution of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Prints one JSON object: the end-to-end timings, the simulated counts, the
failed output checks, a fingerprint of the inputs, the process's peak RSS
and, with ``--trace``, every per-layer metric.  ``run.py`` starts this
script once per repetition so that import time lands in ``setup_s`` and
``peak_rss_mb`` is this workload's own high-water mark.  ``--warmup``
only imports the program (filling the bytecode cache) and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

from layers import Tracer, Untraced


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import workloads  # the measured import of ``repro``
    import_s = time.perf_counter() - t0
    if args.warmup:
        return

    run = workloads.Run(Tracer() if args.trace else Untraced())
    run.setup["setup.import_s"] = import_s
    failure = None
    try:
        workloads.WORKLOADS[args.workload](args.seed, run)
    except Exception:  # a crashing program is a failed run
        failure = traceback.format_exc()
        run.failed.append("exception")
    wall_s = time.perf_counter() - t0

    out = {
        "wall_s": wall_s,
        "setup_s": sum(run.setup.values()),
        "run_s": run.run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": run.counts,
        "failed": run.failed,
        "error": failure,
        "instance": run.digest() if failure is None else None,
    }
    if args.trace and failure is None:
        out["layers"] = run.tracer.metrics(run)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
