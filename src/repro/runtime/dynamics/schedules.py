"""Deterministic seeded churn schedules.

A :class:`ChurnSchedule` turns a seed into a stream of topology events
against an *evolving* network: every draw is made from sorted candidate
lists under one private :class:`random.Random`, so the same seed over
the same starting network yields a byte-identical event stream — the
determinism the trace round-trip tests diff.

Schedule kinds (the schedule grammar):

``edge-add`` / ``edge-remove`` / ``crash`` / ``join``
    single-kind streams (each event drawn from the kind's feasible
    candidates; ``None`` when exhausted);
``edge-flip``
    alternating remove/add — mobility-style link churn at constant
    density;
``crash-join``
    alternating crash/join — population churn with fresh identities;
``crash-recover``
    alternating crash/recover — the recovering node returns onto the
    surviving part of its remembered edges;
``mixed``
    a uniform draw among the feasible kinds each step.

Feasibility is validity under :func:`~repro.runtime.dynamics.apply.revise`:
removals and crashes are drawn only from edges/nodes whose removal keeps
the network connected, joins only while ``n_bound`` leaves headroom.

Edge and crash draws cost O(n + m).  One iterative Tarjan DFS
(:func:`_cut_structure`) yields the bridges and cut vertices, so the
removable edges are the non-bridges and the crashable nodes the non-cut
vertices.  Edge additions draw from :class:`_NonEdges`, an indexed view
of the non-edges that never builds the O(n²) pair list.

The RNG contract: each candidate sequence has the length and order of
the sorted list it stands for (``net.edges`` order, ``net.nodes``
order, ``sorted(net.non_edges())``), and ``rng.choice`` over it is the
only RNG consumption of an edge or crash draw.  ``choice`` spends
exactly one ``_randbelow(len(seq))`` and then indexes, so the event
depends on the sequence's length and order only, never on how it is
stored.
"""

from __future__ import annotations

import bisect
import itertools
import random

from repro.graphs.network import Network
from repro.runtime.dynamics.apply import revise
from repro.runtime.dynamics.events import (
    EdgeAdd,
    EdgeRemove,
    NodeCrash,
    NodeJoin,
    NodeRecover,
    TopologyEvent,
)

__all__ = ["SCHEDULE_KINDS", "ChurnSchedule", "materialize_schedule"]

SCHEDULE_KINDS: tuple[str, ...] = (
    "edge-add", "edge-remove", "crash", "join",
    "edge-flip", "crash-join", "crash-recover", "mixed",
)

#: attachment degree cap for joiners/recoverers without remembered edges
_MAX_ATTACH = 3


def _cut_structure(net: Network) -> tuple[set[tuple[int, int]], set[int]]:
    """``(bridges, cut_vertices)`` of the connected ``net`` from one
    iterative Tarjan DFS in O(n + m) — no recursion, so path-like graphs
    of any depth are fine.  Bridges are canonical ``(u, v)``, ``u < v``."""
    adj = net.adjacency
    root = net.nodes[0]
    disc = {root: 0}
    low = {root: 0}
    bridges: set[tuple[int, int]] = set()
    cut: set[int] = set()
    root_children = 0
    # frames: (node, DFS parent, iterator over the node's neighbors);
    # ids are positive, so parent 0 marks the root
    stack = [(root, 0, iter(adj[root]))]
    while stack:
        u, parent, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, u, iter(adj[w])))
                break
            if w != parent and disc[w] < low[u]:
                low[u] = disc[w]
        else:  # u finished: fold its low-link into the parent's
            stack.pop()
            if parent == 0:
                continue
            if low[u] < low[parent]:
                low[parent] = low[u]
            if low[u] > disc[parent]:
                bridges.add((u, parent) if u < parent else (parent, u))
            if parent == root:
                root_children += 1
            elif low[u] >= disc[parent]:
                cut.add(parent)
    if root_children >= 2:
        cut.add(root)
    return bridges, cut


def _removable_edges(net: Network) -> list[tuple[int, int]]:
    """Edges whose removal keeps the network connected: the non-bridges,
    in ``net.edges`` (sorted) order."""
    bridges, _ = _cut_structure(net)
    return [e for e in net.edges if e not in bridges]


def _crashable_nodes(net: Network) -> list[int]:
    """Non-cut vertices (sorted); their crash keeps the rest connected."""
    if net.n < 2:
        return []
    _, cut = _cut_structure(net)
    return [v for v in net.nodes if v not in cut]


class _NonEdges:
    """The non-edges of ``net`` as an indexable sequence, in the order of
    ``sorted(net.non_edges())`` — without materializing the O(n²) list.

    Row ``i`` holds the pairs ``(nodes[i], w)`` with ``w > nodes[i]`` and
    no edge between them; per-row prefix counts give ``len`` in O(1) and
    ``seq[k]`` is a bisect over rows plus a walk along one row.
    """

    def __init__(self, net: Network) -> None:
        nodes = net.nodes
        n = len(nodes)
        higher = dict.fromkeys(nodes, 0)  # neighbors above each node
        for u, _ in net.edges:
            higher[u] += 1
        self._nodes = nodes
        self._adj = net.adjacency_sets
        #: _ends[i] = number of non-edges in rows 0..i
        self._ends = list(itertools.accumulate(
            n - 1 - i - higher[u] for i, u in enumerate(nodes)))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k: int) -> tuple[int, int]:
        i = bisect.bisect_right(self._ends, k)
        k -= self._ends[i - 1] if i else 0
        u = self._nodes[i]
        nbrs = self._adj[u]
        row = (w for w in self._nodes[i + 1:] if w not in nbrs)
        return (u, next(itertools.islice(row, k, None)))


class ChurnSchedule:
    """A seeded generator of feasible events against an evolving network.

    :meth:`next_event` draws one event valid on the network it is shown
    (callers apply it before asking for the next); alternating kinds
    keep their own phase latch, and ``crash-recover`` remembers each
    crashed node's edges so recovery restores the surviving part.
    """

    def __init__(self, kind: str, seed: int) -> None:
        if kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {kind!r} "
                             f"(known: {', '.join(SCHEDULE_KINDS)})")
        self.kind = kind
        self.seed = seed
        self._rng = random.Random(seed)
        self._phase = 0  # alternating-kind latch
        #: crashed node -> its edge endpoints at crash time
        self._crashed: dict[int, tuple[int, ...]] = {}

    # -- single-kind draws ---------------------------------------------

    def _draw_edge_add(self, net: Network) -> EdgeAdd | None:
        candidates = _NonEdges(net)
        if not candidates:
            return None
        u, v = self._rng.choice(candidates)
        return EdgeAdd(u, v)

    def _draw_edge_remove(self, net: Network) -> EdgeRemove | None:
        candidates = _removable_edges(net)
        if not candidates:
            return None
        u, v = self._rng.choice(candidates)
        return EdgeRemove(u, v)

    def _draw_crash(self, net: Network) -> NodeCrash | None:
        candidates = _crashable_nodes(net)
        if not candidates:
            return None
        v = self._rng.choice(candidates)
        self._crashed[v] = net.neighbors(v)
        return NodeCrash(v)

    def _free_id(self, net: Network) -> int | None:
        used = set(net.nodes) | set(self._crashed)
        for i in range(1, net.id_space + 1):
            if i not in used:
                return i
        return None

    def _draw_join(self, net: Network) -> NodeJoin | None:
        if net.n + 1 > net.n_bound:
            return None
        node = self._free_id(net)
        if node is None:
            return None
        k = self._rng.randint(1, min(_MAX_ATTACH, net.n))
        anchors = sorted(self._rng.sample(sorted(net.nodes), k))
        return NodeJoin(node, tuple(anchors), init="sampled")

    def _draw_recover(self, net: Network) -> NodeRecover | None:
        if net.n + 1 > net.n_bound:
            return None
        live = set(net.nodes)
        # a drawn crash the caller declined leaves its node live: skip it
        ready = sorted(v for v, edges in self._crashed.items()
                       if v not in live and any(a in live for a in edges))
        if not ready:
            return None
        v = ready[0]  # oldest-id-first: deterministic
        edges = tuple(a for a in self._crashed.pop(v) if a in live)
        return NodeRecover(v, edges, init="bottom")

    # -- the stream ------------------------------------------------------

    def next_event(self, net: Network) -> TopologyEvent | None:
        """One feasible event against ``net``, or None when exhausted."""
        kind = self.kind
        if kind == "edge-add":
            return self._draw_edge_add(net)
        if kind == "edge-remove":
            return self._draw_edge_remove(net)
        if kind == "crash":
            return self._draw_crash(net)
        if kind == "join":
            return self._draw_join(net)
        if kind in ("edge-flip", "crash-join", "crash-recover"):
            first, second = {
                "edge-flip": (self._draw_edge_remove, self._draw_edge_add),
                "crash-join": (self._draw_crash, self._draw_join),
                "crash-recover": (self._draw_crash, self._draw_recover),
            }[kind]
            draw = first if self._phase == 0 else second
            ev = draw(net)
            if ev is None:  # this phase exhausted: try the other one
                other = second if self._phase == 0 else first
                ev = other(net)
                if ev is not None:
                    self._phase ^= 1
            self._phase ^= 1
            return ev
        # mixed: uniform over the feasible kinds, in a fixed draw order
        draws = [("edge-add", self._draw_edge_add),
                 ("edge-remove", self._draw_edge_remove),
                 ("crash", self._draw_crash),
                 ("join", self._draw_join)]
        order = list(range(len(draws)))
        self._rng.shuffle(order)
        for i in order:
            ev = draws[i][1](net)
            if ev is not None:
                return ev
        return None


def materialize_schedule(net: Network, *, kind: str, count: int,
                         seed: int) -> list[TopologyEvent]:
    """The first ``count`` events of a schedule, evolved through
    :func:`~repro.runtime.dynamics.apply.revise` only (no simulator) —
    the pure form the determinism tests serialize and diff."""
    sched = ChurnSchedule(kind, seed)
    events: list[TopologyEvent] = []
    current = net
    for _ in range(count):
        ev = sched.next_event(current)
        if ev is None:
            break
        current = revise(current, ev)
        events.append(ev)
    return events
