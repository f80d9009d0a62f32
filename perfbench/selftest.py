"""The benchmark's own tests (about a minute).

    python3 -m pytest perfbench/selftest.py -q

They spawn workers like a benchmark run does, on ``bfs-sync`` (the
shortest workload), plus two in-process checks: a corrupted final
configuration fails its output checks, and the livelock input is
reported as a cycle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402

SEED = 3


def rep(seed: int = SEED, traced: bool = False) -> dict:
    out = bench.run_worker("bfs-sync", seed, traced, timeout=120)
    assert out["failed"] == [], out
    return out


def result(capsys, *argv: str) -> dict:
    assert bench.main(["--workload", "bfs-sync", "--seconds", "0", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_same_seed_repeats_across_processes():
    a, b = rep(), rep()
    assert (a["instance"], a["counts"]) == (b["instance"], b["counts"])


def test_different_seed_gives_different_instance():
    a, b = rep(SEED), rep(SEED + 1)
    assert a["instance"] != b["instance"]
    assert a["counts"] != b["counts"]


def test_traced_counts_equal_untraced():
    plain, traced = rep(), rep(traced=True)
    assert traced["counts"] == plain["counts"]
    layers = traced["layers"]
    assert set(layers) <= set(bench.PER_LAYER)
    assert layers["simulator.moves"] == plain["counts"]["moves"]
    assert layers["columns.vector_calls"] > 0


def test_corrupted_final_configuration_fails_its_checks(monkeypatch):
    import workloads
    from layers import Untraced

    finish = workloads._finish

    def corrupting_finish(run, sim, *args, **kwargs):
        # a wrong distance at the largest node: what a defective engine
        # could leave behind
        v = max(sim.net.nodes)
        sim.overwrite(v, {"d": sim.config[v]["d"] + 1})
        finish(run, sim, *args, **kwargs)

    monkeypatch.setattr(workloads, "_finish", corrupting_finish)
    run = workloads.Run(Untraced())
    workloads.bfs_sync(SEED, run)
    assert "legal" in run.failed


def test_wrong_reference_count_fails_the_run(capsys, tmp_path, monkeypatch):
    reference = json.loads(bench.REFERENCE.read_text())
    reference["counts"]["bfs-sync"]["moves"] += 1
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(bench, "REFERENCE", wrong)
    res = result(capsys, "--seed", str(bench.DEFAULT_SEED))
    assert res["metrics"]["ok_share"]["value"] < 1


def test_default_seed_matches_reference(capsys):
    res = result(capsys, "--seed", str(bench.DEFAULT_SEED))
    assert res["correct"] and res["metrics"]["ok_share"]["value"] == 1


def test_livelock_input_is_reported_as_a_cycle():
    from repro.certify.modelcheck import explore

    import workloads

    net, proto, starts = workloads.livelock_instance()
    assert explore(net, proto, starts, max_states=100).cycle is not None


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bfs-sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
