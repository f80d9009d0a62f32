"""The repository benchmark: one workload, one seed, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for their inputs, ``reference.json`` for
why each exists and what it measured):

* ``sst-churn``  — SST to silence, then 16 topology events each back to
  silence (``runtime.dynamics`` schedules, central-daemon fused loop);
* ``bfs-sync``   — ad hoc BFS under the synchronous daemon, flushing one
  planted ghost root (``runtime.columns`` and engine bookkeeping);
* ``mst-guided`` — the paper's guided MST construction from a random
  spanning tree (``core.tasks``, ``labeling``, ``certify.oracle``);
* ``mc-verify``  — exhaustive daemon-choice model checking of five tasks
  plus one known livelock (``certify.modelcheck``).

Each repetition runs in a fresh process (``worker.py``) with the seed as
its argument; repetitions continue until ``--seconds`` is used up (at
least three).  Every repetition must pass its output checks (silent,
legal and locally certified final configuration; the model checker's
verdicts) and all repetitions must agree exactly on their inputs and
simulated counts; with the default seed the counts must also equal
``reference.json``.  A repetition failing any of these is a failed run.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, with no result printed, when the program under test cannot be
imported at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
#: untraced repetitions per run, and traced ones per traced run, at least
MIN_REPS = 3
MIN_TRACED = 2
#: no repetition starts that could end after this many seconds
HARD_LIMIT = 165.0
#: the simulated counts of the default seed
REFERENCE = HERE / "reference.json"
#: the workload and metric names, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_worker(workload: str, seed: int, traced: bool, timeout: float,
               warmup: bool = False) -> dict:
    """One repetition in a fresh process; a crash or timeout is a failed
    repetition, reported through ``failed``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--warmup"] * warmup
    env = dict(os.environ)
    # the warm-up fills the bytecode cache, so setup_s times the import a
    # user's second run sees rather than a recompile of every module
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failed": ["timeout"], "elapsed": timeout, "traced": traced}
    elapsed = time.perf_counter() - t0
    if warmup:
        return {"failed": [] if proc.returncode == 0 else [proc.stderr]}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"failed": ["crash"], "error": proc.stderr[-2000:]}
    out["elapsed"] = elapsed
    out["traced"] = traced
    return out


def check_agreement(reps: list[dict], seed: int, reference: dict,
                    workload: str) -> None:
    """Mark repetitions that disagree on inputs or counts as failed; with
    the default seed the counts must also equal the recorded reference."""
    def key(rep):
        return json.dumps([rep.get("instance"), rep.get("counts")],
                          sort_keys=True)

    done = [rep for rep in reps if "counts" in rep]
    if not done:
        return
    common, _ = Counter(key(rep) for rep in done).most_common(1)[0]
    expected = reference["counts"][workload]
    for rep in done:
        if key(rep) != common:
            rep["failed"].append("nondeterministic")
        if seed == DEFAULT_SEED and rep["counts"] != expected:
            rep["failed"].append("reference")


def median_of(reps: list[dict], pick) -> float:
    return statistics.median(pick(rep) for rep in reps)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced_run = bool(args.trace)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    start = time.perf_counter()
    warm = run_worker(args.workload, args.seed, False, timeout=HARD_LIMIT,
                      warmup=True)
    if warm["failed"]:
        print(f"the program does not import:\n{warm['failed'][0]}",
              file=sys.stderr)
        return 2

    reps: list[dict] = []
    while True:
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        elapsed = time.perf_counter() - start
        estimate = (statistics.median(r["elapsed"] for r in reps)
                    if reps else 0.0)
        short = (len(plain) < (MIN_TRACED if traced_run else MIN_REPS)
                 or (traced_run and len(traced) < MIN_TRACED))
        if not short and elapsed + estimate > args.seconds:
            break
        if reps and elapsed + estimate > HARD_LIMIT:
            break
        rep = run_worker(args.workload, args.seed,
                         traced_run and len(traced) < len(plain),
                         timeout=max(5.0, HARD_LIMIT + 10 - elapsed))
        reps.append(rep)
        if "timeout" in rep["failed"]:
            break

    check_agreement(reps, args.seed, reference, args.workload)
    attempted = len(reps)
    failed = sum(1 for rep in reps if rep["failed"])
    for rep in reps:
        if rep["failed"]:
            print(f"failed repetition: {rep['failed']} {rep.get('error') or ''}",
                  file=sys.stderr)
    ok = [rep for rep in reps if not rep["failed"]]
    plain = [rep for rep in ok if not rep["traced"]]
    traced = [rep for rep in ok if rep["traced"]]
    if traced_run:
        units = PER_LAYER
        values = {name: 0.0 for name in PER_LAYER}
        if traced:
            for name in traced[0]["layers"]:
                values[name] = median_of(traced,
                                         lambda r, n=name: r["layers"][n])
        if traced and plain:
            base = median_of(plain, lambda r: r["run_s"])
            values["trace.overhead_share"] = (
                median_of(traced, lambda r: r["run_s"]) - base) / base
    else:
        units = END_TO_END
        values = {name: median_of(plain, lambda r, n=name: r[n]) if plain
                  else 0.0 for name in END_TO_END if name != "ok_share"}
        values["ok_share"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
