"""The four benchmark workloads: seed-derived inputs, the timed
execution, and the output checks.

Every input is a pure function of the benchmark seed.  A workload seed
``s`` shifts each of the pinned registry seeds by ``1000 * s``
(:func:`derive`), so the default seed 0 uses the registry's own
seeds.  The inputs are shaped so that the work a run does hardly
depends on the seed, so runs of different seeds compare:

* ``sst-churn`` and ``bfs-sync`` start from an arbitrary configuration
  with exactly one planted ghost root (:func:`_plant_ghost`), so every
  seed pays the same count-to-bound flush;
* ``sst-churn`` rotates through four single-kind churn schedules, so every
  seed applies the same mix of events, and never crashes the current root
  (:func:`_next_event`);
* ``mst-guided`` keeps the registry graph and start tree and lets the
  seed draw the daemon (a graph draw moves its work by ±10%, the daemon
  draw by under 1%);
* ``mc-verify`` explores ``check_certifier``'s pinned instances and does
  not use the seed: which corruptions a sample holds moves its state count
  tenfold.

This module imports ``repro`` at the top so that importing it is the
measured import step of a run.
"""

from __future__ import annotations

import hashlib
import random
import time

from repro.certify.modelcheck import check_certifier, explore
from repro.certify.schemes import get_certifier
from repro.experiments.registry import (
    SCHEDULERS,
    build_config,
    build_network,
    build_protocol,
)
from repro.graphs.network import Network
from repro.runtime.dynamics import ChurnSchedule, NodeCrash, apply_event
from repro.runtime.protocol import Protocol
from repro.runtime.registers import RegisterSpec, flag_field
from repro.runtime.simulator import Simulator

#: how far below the distance bound each workload plants its ghost root
BFS_GHOST_DEPTH = 400
SST_GHOST_DEPTH = 100
#: topology events ``sst-churn`` applies, rotating through the four kinds
CHURN_KINDS = ("edge-remove", "edge-add", "crash", "join")
CHURN_WAVES = 16
#: ``mc-verify`` tasks and instance sizes (every exploration completes
#: within ``check_certifier``'s default state budget)
MC_TASKS = (("sst", 4), ("nca-build", 4), ("guided-bfs", 3),
            ("guided-mst", 3), ("guided-mdst", 3))

clock = time.perf_counter


def derive(base: int, seed: int) -> int:
    """The registry seed ``base`` shifted by the benchmark seed."""
    return base + 1000 * seed


class Run:
    """What one execution measured: timings, counts and failed checks."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.setup: dict[str, float] = {}
        self.run_s = 0.0
        self.verify_s = 0.0
        self.counts: dict[str, int] = {}
        self.failed: list[str] = []
        #: the inputs, fingerprinted by :meth:`digest` after the clock stops
        self.instance: object = ()

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed.append(name)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.instance).encode()).hexdigest()[:16]

    def timed_setup(self, key: str, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        self.setup[key] = self.setup.get(key, 0.0) + clock() - t0
        return out


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _lift_ghosts(net: Network, config) -> None:
    """Raise integer root claims below the smallest identifier to it."""
    low = net.min_id
    for v in net.nodes:
        rid = config[v]["rid"]
        if type(rid) is int and rid < low:
            config[v]["rid"] = low


def _plant_ghost(net: Network, config, seed: int, depth: int) -> None:
    """Replace the start's ghost root claims by exactly one: the identifier
    below the smallest one, claimed ``depth`` below the distance bound by a
    seed-drawn node and its neighbors (a lone claimant drops the claim when
    it moves before any neighbor adopts it).  Flushing it costs about
    ``depth`` rounds whatever the seed, where a random start's ghosts cost
    anything from 0 to n_bound rounds."""
    _lift_ghosts(net, config)
    v = random.Random(seed).choice(net.nodes)
    for u in (v, *net.neighbors(v)):
        config[u]["rid"] = net.min_id - 1
        config[u]["d"] = net.n_bound - 1 - depth + (u != v)


def _next_event(schedule: ChurnSchedule, net: Network):
    """The schedule's next event, skipping crashes of the current root.
    Such a crash turns every root claim into a ghost: a count-to-bound
    flush of about a million moves at n = 1024, drawn by about one seed in
    a hundred, whose cost ``bfs-sync`` measures on every seed."""
    while True:
        event = schedule.next_event(net)
        if not (isinstance(event, NodeCrash) and event.node == net.min_id):
            return event


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------

def _bind(run: Run, net, proto, scheduler, config) -> Simulator:
    run.tracer.wrap_protocol(proto)
    run.tracer.wrap_scheduler(scheduler)
    return run.timed_setup("simulator.bind_s", Simulator, net, proto,
                           scheduler, config=config)


def _finish(run: Run, sim: Simulator, t0: float, certifier_key: str,
            **counts: int) -> None:
    """Stop the clock, record the counts, check the final configuration:
    silent, legal, and accepted by the task's local verifiers."""
    run.run_s = clock() - t0
    run.counts = {"rounds": sim.rounds, "moves": sim.moves, **counts}
    run.tracer.simulator_stats(sim)
    t0 = clock()
    cert = get_certifier(certifier_key)
    net, config = sim.net, sim.config
    run.check("silent", sim.is_silent())
    run.check("legal", cert.is_legal(net, config))
    try:
        accepted = cert.verify(net, cert.certify(net, config)).accepted
    except (ValueError, KeyError, TypeError):
        accepted = False
    run.check("certified", accepted)
    run.verify_s = clock() - t0


def sst_churn(seed: int, run: Run) -> None:
    net = run.timed_setup(
        "graphs.build_s", build_network, "random",
        {"n": 1024, "seed": derive(42, seed), "headroom": 32},
        random.Random(0))
    proto, _ = build_protocol("sst")
    config, _ = run.timed_setup(
        "registry.init_s", build_config, "arbitrary", net, proto,
        random.Random(1), {"seed": derive(7, seed)})
    _plant_ghost(net, config, derive(7, seed), SST_GHOST_DEPTH)
    scheduler = SCHEDULERS["central-random"](derive(3, seed))
    sim = _bind(run, net, proto, scheduler, config)
    run.instance = (net.edges, config, derive(3, seed))

    tracer = run.tracer
    base = random.Random(derive(21, seed))
    schedules = [ChurnSchedule(kind, base.getrandbits(63))
                 for kind in CHURN_KINDS]
    joiner_rng = random.Random(base.getrandbits(63))
    events = 0
    t0 = clock()
    while tracer.round(sim):
        pass
    for wave in range(CHURN_WAVES):
        event = tracer.call("dynamics.schedule", _next_event,
                            schedules[wave % len(schedules)], sim.net)
        if event is None:
            break
        tracer.call("dynamics.apply", apply_event, sim, event,
                    rng=joiner_rng)
        tracer.resilence(sim)
        events += 1
    _finish(run, sim, t0, "sst", events=events)
    run.check("events", events == CHURN_WAVES)


def bfs_sync(seed: int, run: Run) -> None:
    net = run.timed_setup(
        "graphs.build_s", build_network, "random",
        {"n": 2048, "seed": derive(11, seed)}, random.Random(0))
    proto, _ = build_protocol("adhoc-bfs")
    config, _ = run.timed_setup(
        "registry.init_s", build_config, "arbitrary", net, proto,
        random.Random(1), {"seed": derive(2, seed)})
    _plant_ghost(net, config, derive(2, seed), BFS_GHOST_DEPTH)
    sim = _bind(run, net, proto, SCHEDULERS["synchronous"](0), config)
    run.instance = (net.edges, config)

    t0 = clock()
    while run.tracer.round(sim):
        pass
    # the ad hoc baseline shares SST's registers and certificate scheme
    _finish(run, sim, t0, "sst")


def mst_guided(seed: int, run: Run) -> None:
    net = run.timed_setup(
        "graphs.build_s", build_network, "random",
        {"n": 96, "seed": 18, "weighted": True}, random.Random(0))
    proto, _ = build_protocol("guided-mst")
    config, _ = run.timed_setup(
        "registry.init_s", build_config, "random-tree", net, proto,
        random.Random(1), {"seed": 5})
    daemon_seed = derive(5, seed)
    sim = _bind(run, net, proto, SCHEDULERS["central-random"](daemon_seed),
                config)
    run.instance = (net.edges, config, daemon_seed)

    t0 = clock()
    while run.tracer.round(sim):
        pass
    _finish(run, sim, t0, "guided-mst")


# ----------------------------------------------------------------------
# model checking
# ----------------------------------------------------------------------

class Flipper(Protocol):
    """A known livelock: two nodes forever copying each other's bit."""

    name = "flipper"

    def register_spec(self, net):
        return RegisterSpec([flag_field("b")])

    def step(self, view):
        for _, st in view.nbr_states():
            if st["b"] == view["b"]:
                return {"b": not view["b"]}
        return None


def livelock_instance():
    """The two-node flipper network and its all-false start."""
    net = Network([1, 2], [(1, 2)])
    return net, Flipper(), [{v: {"b": False} for v in net.nodes}]


def mc_verify(seed: int, run: Run) -> None:
    """Model-check the pinned instances of ``check_certifier``: the
    exploration is exhaustive, so ``seed`` does not enter."""
    tracer = run.tracer
    run.instance = MC_TASKS
    states = transitions = 0
    t0 = clock()
    for key, n in MC_TASKS:
        cert = get_certifier(key)
        tracer.wrap_certifier(cert)
        res = check_certifier(cert, n)
        states += res.states
        transitions += res.transitions
        run.check(f"{key}.complete", not res.truncated)
        run.check(f"{key}.no-cycle", res.cycle is None)
        run.check(f"{key}.closure", not res.illegal_silent)
        run.check(f"{key}.no-fakes", not res.fake_certified)
    net, proto, starts = livelock_instance()
    livelock = explore(net, proto, starts, max_states=100)
    run.run_s = clock() - t0
    run.check("livelock.cycle", livelock.cycle is not None)
    run.counts = {"modelcheck.states": states,
                  "modelcheck.transitions": transitions}


WORKLOADS = {
    "sst-churn": sst_churn,
    "bfs-sync": bfs_sync,
    "mst-guided": mst_guided,
    "mc-verify": mc_verify,
}
