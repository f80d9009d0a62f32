"""Applying topology events to networks and to *running* simulators.

Two layers:

* :func:`revise` — pure: ``(Network, event) -> Network``.  The network
  stays immutable (PR-3's ``__slots__``/eager-adjacency design); every
  event builds a fresh revision carrying the original ``id_space`` and
  ``n_bound`` forward (they are the paper's incorruptible public bounds
  — rule semantics must not drift as the population fluctuates).  All
  validity lives here: unknown nodes, duplicate/missing edges,
  disconnecting removals (the constructions assume a connected network;
  partition tolerance is future work), and ``n_bound`` exhaustion are
  refused with a clear :class:`EventError`.

* :func:`apply_event` — the event semantics on a live
  :class:`~repro.runtime.simulator.Simulator`: joiners get bottom or
  spec-sampled states, :meth:`Simulator.rebind` moves the engine onto
  the revision (survivor rows kept *by identity*, every derived plane
  recompiled through the constructor's own binding), the protocol's
  interrupt section runs at the touched nodes, and exactly the event's
  write-neighborhood is marked dirty — so the incremental
  :class:`~repro.runtime.scheduler.EnabledSet` stays coherent, provable
  on demand against :meth:`Simulator.rescan_enabled` (``check=True``,
  the event-boundary proof obligation the dynamics tests run
  everywhere).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.graphs.network import Network
from repro.runtime.dynamics.events import (
    EdgeAdd,
    EdgeRemove,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    TopologyEvent,
)
from repro.runtime.simulator import Simulator

__all__ = ["EventError", "EventReport", "revise", "apply_event"]


class EventError(ValueError):
    """A topology event is invalid against the network it targets."""


@dataclass(frozen=True)
class EventReport:
    """What one applied event did to the running simulator."""

    event: TopologyEvent
    #: surviving nodes whose neighborhood the event changed (ascending)
    touched: tuple[int, ...]
    #: effective register writes performed by the interrupt section
    interrupt_writes: int
    n: int
    m: int
    #: enabled-set size once the post-event refresh settled
    enabled_after: int

    def to_dict(self) -> dict[str, Any]:
        return {"event": self.event.to_dict(),
                "touched": list(self.touched),
                "interrupt_writes": self.interrupt_writes,
                "n": self.n, "m": self.m,
                "enabled_after": self.enabled_after}


def _next_weight(weights: dict[tuple[int, int], int]) -> int:
    return max(weights.values(), default=0) + 1


def revise(net: Network, event: TopologyEvent) -> Network:
    """The post-event network revision (pure; ``net`` is untouched)."""
    nodes = list(net.nodes)
    node_set = set(nodes)
    edges = list(net.edges)
    weights = net.weights if net.weighted else None
    disconnected = None  # the refusal, should a removal disconnect

    if isinstance(event, EdgeAdd):
        for x in (event.u, event.v):
            if x not in node_set:
                raise EventError(f"{event}: node {x} does not exist")
        if net.has_edge(event.u, event.v):
            raise EventError(f"{event}: edge already exists")
        e = (event.u, event.v)
        edges.append(e)
        if weights is not None:
            w = event.weight if event.weight is not None \
                else _next_weight(weights)
            if w in weights.values():
                raise EventError(
                    f"{event}: weight {w} already used (weights are "
                    f"pairwise distinct constants)")
            weights[e] = w
    elif isinstance(event, EdgeRemove):
        if not net.has_edge(event.u, event.v):
            raise EventError(f"{event}: no such edge")
        e = (event.u, event.v)
        edges.remove(e)
        if weights is not None:
            del weights[e]
        disconnected = (
            f"{event}: removal disconnects the network (the "
            f"constructions assume a connected topology; partition "
            f"tolerance is future work)")
    elif isinstance(event, NodeCrash):
        if event.node not in node_set:
            raise EventError(f"{event}: node {event.node} does not exist")
        if net.n < 2:
            raise EventError(f"{event}: cannot crash the last node")
        nodes.remove(event.node)
        edges = [d for d in edges if event.node not in d]
        if weights is not None:
            weights = {d: w for d, w in weights.items()
                       if event.node not in d}
        disconnected = (
            f"{event}: crash disconnects the network (node "
            f"{event.node} is a cut vertex; partition tolerance is "
            f"future work)")
    elif isinstance(event, (NodeJoin, NodeRecover)):
        if event.node in node_set:
            raise EventError(f"{event}: id {event.node} already in use")
        if not 1 <= event.node <= net.id_space:
            raise EventError(
                f"{event}: id {event.node} outside the identity space "
                f"{{1, ..., {net.id_space}}}")
        if net.n + 1 > net.n_bound:
            raise EventError(
                f"{event}: joining would exceed n_bound={net.n_bound} "
                f"(give the topology headroom — n_bound is the "
                f"incorruptible public bound the rules read)")
        missing = [a for a in event.edges if a not in node_set]
        if missing:
            raise EventError(
                f"{event}: attachment endpoints {missing} do not exist")
        nodes.append(event.node)
        for a in event.edges:
            e = (min(event.node, a), max(event.node, a))
            edges.append(e)
            if weights is not None:
                weights[e] = _next_weight(weights)
    else:
        raise EventError(f"unknown topology event {event!r}")

    try:
        return Network(nodes, edges, weights=weights,
                       id_space=net.id_space, n_bound=net.n_bound)
    except ValueError:
        # the revision's own connectivity check is the only one.  A
        # removal or crash leaves a subgraph of a valid network, so
        # disconnection is the one way its constructor can refuse it
        if disconnected is None:
            raise
        raise EventError(disconnected) from None


def _refuse_non_simulator(sim: object) -> None:
    cls = type(sim).__name__
    if cls == "ShardedSimulator" or "sharding" in type(sim).__module__:
        raise ValueError(
            "topology events on a sharded run are not supported: the "
            "sharded engine exchanges halo registers keyed by a static "
            "partition, and a live topology change would corrupt "
            "shard-local halos (cross-shard events are future work).  "
            "Re-run single-process to apply churn.")
    raise TypeError(
        f"apply_event needs a repro.runtime.simulator.Simulator, "
        f"got {cls}")


def apply_event(sim: Simulator, event: TopologyEvent, *,
                rng: random.Random | None = None,
                check: bool = False) -> EventReport:
    """Rebind a running simulator to the event's network revision.

    ``rng`` feeds ``init="sampled"`` joiner registers (default: the
    simulator's own injected stream, like fault injection).  With
    ``check=True`` the incremental enabled set is cross-checked against
    a from-scratch rescan once the revision is bound — the event-boundary
    proof obligation — and a mismatch raises RuntimeError.

    Refuses sharded simulators (ValueError) and mid-round application
    (RuntimeError): an event lands between rounds, never inside one.
    """
    if not isinstance(sim, Simulator):
        _refuse_non_simulator(sim)
    # refused before any work, so a refused call draws no entropy
    if sim.in_round:
        raise RuntimeError(
            "cannot apply a topology event mid-round: the active round's "
            "pending set was computed against the old topology.  Apply "
            "events between run_round() calls.")

    old_net = sim.net
    protocol = sim.protocol
    new_net = revise(old_net, event)

    joiners = {}
    if isinstance(event, (NodeJoin, NodeRecover)):
        spec = protocol.register_spec(new_net)
        if event.init == "sampled":
            sampler = rng if rng is not None else sim.rng
            state = spec.corrupt_state(new_net, event.node, sampler)
        else:
            state = spec.default_state(new_net, event.node)
        joiners[event.node] = state
    # survivors keep their rows by identity; the rebind dirties and
    # returns exactly the nodes whose neighborhood changed (the event's
    # touched set: both endpoints of an edge event, a crashed node's
    # neighbors, a joiner and its attachment points)
    touched = sim.rebind(new_net, joiners)

    # ---- protocol lifecycle hook -------------------------------------
    if protocol.on_topology_event(old_net, new_net, event):
        sim.invalidate()

    # ---- interrupt section (super-stabilization) ---------------------
    interrupt_writes = 0
    irule = protocol.interrupt_step(sim.schema)
    if irule is not None:
        config = sim.config
        names = sim.schema.names
        for v in touched:
            own = config[v].row
            delta = irule(new_net, config, v, own, event)
            if not delta:
                continue
            writes = {names[s]: val for s, val in delta.items()
                      if own[s] != val}
            if writes:
                # dirties v's write-neighborhood like any fault
                sim.overwrite(v, writes)
                interrupt_writes += 1

    # ---- proof obligation --------------------------------------------
    enabled_after = len(sim.enabled_set())  # settles via the refresh
    if check:
        incremental = sim.enabled_nodes()
        rescan = sim.rescan_enabled()
        if incremental != rescan:
            raise RuntimeError(
                f"incremental enabled set diverged from rescan after "
                f"{event}: {incremental} != {rescan}")

    if sim.record_trace:
        sim.snapshot()

    return EventReport(event=event, touched=touched,
                       interrupt_writes=interrupt_writes,
                       n=new_net.n, m=new_net.m,
                       enabled_after=enabled_after)
