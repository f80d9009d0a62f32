"""The execution engine.

Implements the paper's execution and complexity model:

* **Atomic step**: a node reads its own register and its neighbors'
  registers, applies the transition function, writes its register.
* **Enabled node**: a node whose register differs from what the transition
  function would write (equivalently, :meth:`Protocol.step` returns a
  non-trivial update).
* **Scheduler step**: the daemon activates a non-empty subset of the enabled
  nodes; the activated nodes' writes are applied simultaneously, each based
  on the pre-step configuration (single-writer registers make this sound).
* **Round** (Section II-A): starting from a configuration, the round is the
  shortest execution prefix in which every node enabled at the start has
  either executed a step or become non-enabled because of a neighbor's step.
* **Silence**: a configuration with no enabled node.  A silent
  self-stabilizing algorithm must reach a *legal* silent configuration from
  every initial configuration.

Incremental enabled-set engine
------------------------------

The engine maintains a live :class:`~repro.runtime.scheduler.EnabledSet`
plus a *dirty set* of nodes whose cached proposals a write (or a fault)
invalidated.  Applying a batch of writes only dirties the write
neighborhoods; the next scheduler step re-proposes exactly the dirty nodes
and feeds the resulting adds/removes to the daemon through
:meth:`Scheduler.notify`.  A scheduler step therefore costs O(deg) proposal
recomputations per applied write instead of the O(n) full rescan the
previous engine performed before every ``select`` — the difference between
O(n·M) and O(Δ·M) Python work for an M-move central-daemon execution.
Large batches (synchronous rounds, global readers) skip the per-write
bookkeeping entirely and raise a single *all-dirty* flag instead: one
refresh pass over the whole network replaces thousands of set inserts.
:meth:`Simulator.rescan_enabled` recomputes enabledness from scratch with
no caches, for cross-checking the incremental state in tests.

Slot-indexed state
------------------

Node registers are stored as **slot rows** — plain lists indexed by the
:class:`~repro.runtime.schema.StateSchema` compiled once per
``(protocol, network)`` from the protocol's
:class:`~repro.runtime.registers.RegisterSpec`.  ``Simulator.config``
exposes the same storage as zero-copy
:class:`~repro.runtime.schema.SlotState` Mapping views, so name-keyed
callers (legality predicates, verifiers, metrics, tests) are unaffected.
The engine calls exactly one rule plane: the slot-indexed rule
:meth:`Protocol.fast_step_slots` compiles, or — for protocols that only
implement the readable :meth:`Protocol.step` — that ``step`` wrapped by
:func:`~repro.runtime.protocol.adapt_step_to_slots`.  ``step`` itself
stays the specification :meth:`Simulator.rescan_enabled` re-derives
enabledness from.  Configurations cross the boundary as plain dicts in
both directions (``config=`` input, traces, :func:`random_configuration`).

Binding
-------

Everything derived from ``(protocol, network, rows)`` — spec, schema,
neighbor-row table, compiled rules, column store — is computed in one
place, :meth:`Simulator._bind`, which both the constructor and
:meth:`Simulator.rebind` (a topology revision between rounds) call.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.graphs.network import Network
from repro.runtime.columns import ColumnStore
from repro.runtime.protocol import (
    NodeView,
    Protocol,
    adapt_step_to_slots,
    effective_delta,
)
from repro.runtime.scheduler import EnabledSet, Scheduler, SynchronousScheduler

__all__ = ["Simulator", "RunResult", "random_configuration"]

Config = dict[int, Mapping[str, object]]


@dataclass(slots=True)
class RunResult:
    """Outcome of a (partial) execution."""

    rounds: int
    moves: int
    silent: bool
    stopped_by_predicate: bool = False
    invariant_violations: int = 0
    #: populated only when the simulator was created with ``record_trace``;
    #: the result owns this list (it is a deep copy of the simulator's
    #: recording, so later runs or caller mutations cannot corrupt it).
    #: Snapshots are plain name-keyed dicts — the boundary serialization
    #: shape — decoded through the schema, never aliases of live rows.
    trace: list[Config] = field(default_factory=list)

    @property
    def stabilized(self) -> bool:
        """Whether the run ended in a silent configuration."""
        return self.silent

    def to_record(self) -> dict[str, object]:
        """A JSON-serializable summary of this run (no trace).

        This is the shape the experiment campaign store persists; keep the
        keys stable — result files written by old campaigns must remain
        readable by new reports.
        """
        return {
            "rounds": self.rounds,
            "moves": self.moves,
            "silent": self.silent,
            "stopped_by_predicate": self.stopped_by_predicate,
            "invariant_violations": self.invariant_violations,
        }


def random_configuration(net: Network, protocol: Protocol,
                         seed: int = 0,
                         rng: random.Random | None = None) -> Config:
    """An *arbitrary* configuration: every field of every register corrupted.

    This is the canonical starting point for self-stabilization tests: the
    adversary has written arbitrary (domain-valid) values everywhere.
    An explicit ``rng`` takes precedence over ``seed``; module-level global
    RNG state is never touched either way, so parallel campaign workers can
    corrupt configurations without sharing streams.
    """
    if rng is None:
        rng = random.Random(seed)
    spec = protocol.register_spec(net)
    return {v: spec.corrupt_state(net, v, rng) for v in net.nodes}


class Simulator:
    """Runs one protocol on one network under one scheduler."""

    def __init__(
        self,
        net: Network,
        protocol: Protocol,
        scheduler: Scheduler | None = None,
        config: Config | None = None,
        invariant: Callable[[Network, Config], bool] | None = None,
        record_trace: bool = False,
        rng: random.Random | None = None,
        recorder: object | None = None,
    ) -> None:
        self.protocol = protocol
        self.scheduler = scheduler or SynchronousScheduler()
        #: the simulator's own entropy source, injectable so campaign
        #: workers run on isolated streams.  The engine itself is
        #: deterministic and never draws from it; it is the default stream
        #: for adversarial helpers acting on this simulator (e.g.
        #: :func:`repro.runtime.faults.inject_random_faults`).
        self.rng = rng if rng is not None else random.Random(0)
        if config is None:
            config = protocol.initial_configuration(net)
        self.invariant = invariant
        self.record_trace = record_trace
        self.moves = 0
        self.rounds = 0
        # cold-path engagement counters (never touched by the fused loop):
        # settle-retirements taken through _apply_batch and successful
        # columnar refreshes.  The telemetry layer diffs them per round.
        self.stat_settle_retired = 0
        self.stat_vector_refreshes = 0
        self._invariant_violations = 0
        self._trace: list[Config] = []
        # incremental enabledness machinery: valid proposals for every
        # non-dirty node (slot-keyed deltas), the live enabled set, and the
        # dirty set / all-dirty flag for nodes whose proposals the last
        # writes or faults invalidated.
        self._proposal: dict[int, dict[int, object] | None] = {}
        self._enabled = EnabledSet()
        self._dirty: set[int] = set()
        self._dirty_all = True
        self._pending: set[int] | None = None  # the active round's pending set
        self._sched_synced = False
        # protocol-level contracts (independent of the network):
        # exact deltas skip the engine's no-op filter; oracle-consulting
        # protocols read the whole configuration, so any write
        # invalidates every cached proposal (see Protocol.read_locality)
        self._exact_deltas = bool(getattr(protocol, "exact_deltas", False))
        self._global_reads = protocol.read_locality == "global"
        # movers that provably land disabled retire from the enabled set
        # at apply time (Protocol.settles_after_move); global readers go
        # through the all-dirty flag instead
        self._settles = (not self._global_reads
                         and bool(getattr(protocol,
                                          "settles_after_move", False)))
        # the base-class Scheduler.notify is a no-op; skip the call frame
        # entirely unless the daemon actually overrides it
        self._notify = (self.scheduler.notify
                        if type(self.scheduler).notify is not Scheduler.notify
                        else None)
        # node registers: slot rows, encoded from the boundary
        # configuration by _bind; ``self.config`` shares the storage as
        # zero-copy Mapping views, so name-keyed reads stay supported
        self._state: dict[int, list] = {}
        self.config: dict[int, object] = {}
        self._bind(net, config)
        if record_trace:
            self.snapshot()
        # telemetry seam: hook selection happens HERE, once, at setup.
        # With no recorder the engine runs the exact pre-telemetry byte
        # path — no per-move branch anywhere below; with one, the
        # observed round loop shadows ``run_round`` on this instance
        # only and emits one trace row per round.
        self._obs = recorder
        if recorder is not None:
            self.run_round = self._run_round_observed  # type: ignore[method-assign]
            recorder.attach(self)

    # ------------------------------------------------------------------
    # binding a protocol to a network
    # ------------------------------------------------------------------

    def _bind(self, net: Network, states: Mapping[int, Mapping[str, object]],
              backend: str | None = None) -> None:
        """Bind the protocol to ``net``: every derived engine structure.

        The single place the ``(protocol, network, rows)`` binding is
        computed, for the constructor and :meth:`rebind` alike.  Nodes
        of ``net`` that have no slot row yet are encoded from ``states``
        (the whole configuration at construction, the joiners at a
        rebind); existing rows are kept *by identity* and must match the
        new register layout positionally.  Rows of nodes absent from
        ``net`` are left for the caller to drop.  ``backend`` pins the
        column store's backend (``None``: numpy when available).
        """
        protocol = self.protocol
        spec = protocol.register_spec(net)
        schema = spec.schema()
        names = schema.names
        rows = self._state
        if rows and tuple(names) != tuple(self.schema.names):
            raise ValueError(
                f"register layout changed across the rebind "
                f"({list(self.schema.names)} -> {list(names)}); surviving "
                f"rows are carried forward positionally")
        # encode the boundary states of row-less nodes into slot rows
        # (this also validates their shape) before anything is assigned
        fresh: dict[int, list] = {}
        for v in net.nodes:
            if v in rows:
                continue
            if v not in states:
                raise ValueError(f"configuration missing node {v}")
            state = states[v]
            try:
                fresh[v] = [state[name] for name in names]
            except KeyError:
                missing = [n for n in names if n not in state]
                raise ValueError(
                    f"node {v} register missing fields {sorted(missing)}"
                ) from None
        rows.update(fresh)
        view = schema.view
        config = self.config
        for v, row in fresh.items():
            config[v] = view(row)
        self.net = net
        self.spec = spec
        #: the compiled slot layout of this (protocol, network) binding
        self.schema = schema
        self._index = schema.index
        self._all_nodes: list[int] = sorted(net.nodes)
        # batch-aware bookkeeping: a write batch at least this large
        # (a synchronous round, a mass fault) raises the all-dirty flag
        # instead of performing per-write neighborhood set inserts — one
        # refresh pass per round replaces the per-batch bookkeeping.
        # Purely an accounting choice: refresh re-proposes a superset,
        # and re-proposing a clean node reproduces its cached proposal.
        self._bulk_dirty = max(4, net.n // 4)
        # the one rule plane: the protocol's compiled slot rule, or its
        # readable step bridged onto slot rows.  Called through the
        # instance, so a per-instance override (a timing wrapper, a test
        # forcing the adapter) reaches every binding.
        self._slot_rule = (protocol.fast_step_slots(schema)
                           or adapt_step_to_slots(protocol, schema))
        # prebuilt per-node (neighbor, row) table.  Slot rows are mutated
        # in place (never replaced) by _apply_batch and overwrite, so
        # these references stay valid for the binding's lifetime.
        self._nbr_rows: dict[int, tuple[tuple[int, list], ...]] = {
            v: tuple((u, rows[u]) for u in net.neighbors(v))
            for v in net.nodes}
        # the compiled write-impact filter (Protocol.fast_write_impact)
        # narrows which neighbors a write re-dirties; a soundness claim
        # about the rule itself, so it holds on every plane.  Global
        # readers go through the all-dirty flag instead.
        self._write_impact = (None if self._global_reads
                              else protocol.fast_write_impact(schema))
        # columnar bulk-evaluation plane: built only when the protocol
        # compiles a vector rule for this binding (Protocol.vector_step);
        # _refresh engages it on all-dirty passes, everything else stays
        # on the scalar slot rule.
        self._columns: ColumnStore | None = None
        self._vector_rule = None
        if type(protocol).vector_step is not Protocol.vector_step:
            store = ColumnStore(schema, net, rows, backend=backend)
            vrule = protocol.vector_step(schema, store)
            if vrule is not None:
                self._columns = store
                self._vector_rule = vrule

    @property
    def in_round(self) -> bool:
        """Whether a round is active: its pending set was computed
        against the current topology, so no rebind may land until the
        round ends."""
        return self._pending is not None

    def rebind(self, net: Network,
               joiners: Mapping[int, Mapping[str, object]] | None = None,
               ) -> tuple[int, ...]:
        """Move this simulator onto a revised network, between rounds.

        Surviving nodes keep their register rows by identity; nodes of
        ``net`` without a row are encoded from ``joiners`` (name-keyed
        boundary states); rows, proposals and enabled-set entries of
        nodes absent from ``net`` are dropped.  The column store keeps
        the backend the constructor chose.  Every node whose closed
        neighborhood changed is marked dirty, so the incremental enabled
        set stays coherent with no further help; further invalidation
        (register writes, oracle flushes) goes through :meth:`overwrite`
        and :meth:`invalidate`.

        Returns the nodes of ``net`` whose neighborhood changed
        (ascending): the survivors adjacent to the change and the
        joiners.

        Raises RuntimeError mid-round (see :attr:`in_round`): the active
        round's pending set was computed against the old topology.
        """
        if self.in_round:
            raise RuntimeError(
                "cannot rebind mid-round: the active round's pending set "
                "was computed against the old topology.  Rebind between "
                "run_round() calls.")
        old_adjacency = self.net.adjacency
        backend = self._columns.backend if self._columns is not None else None
        self._bind(net, joiners or {}, backend)
        rows, dirty = self._state, self._dirty
        adjacency = net.adjacency
        for v in [v for v in rows if v not in adjacency]:
            del rows[v]
            del self.config[v]
            self._proposal.pop(v, None)
            dirty.discard(v)
            self._enabled.discard(v)
        changed = tuple(sorted(v for v, nbrs in adjacency.items()
                               if old_adjacency.get(v) != nbrs))
        if self._global_reads:
            self._dirty_all = True
        else:
            dirty.update(changed)
        self._sched_synced = False  # the daemon re-reads the enabled set
        return changed

    def invalidate(self) -> None:
        """Drop every cached proposal: the next settle re-proposes all
        nodes.  For callers that changed what the rule reads outside the
        registers (a protocol flushing an oracle cache)."""
        self._dirty_all = True
        self._dirty.clear()

    @property
    def engine_plan(self) -> dict[str, bool]:
        """Which engine paths this binding engages (read-only summary).

        ``slot``: the slot rule plane (always, since every protocol is
        bound to one); ``vector``: the columnar plane compiled for this
        binding; ``fused_capable``: ``run_round`` may take the fused
        single-mover loop (local readers under a daemon without
        incremental hooks).
        """
        return {"slot": True,
                "vector": self._vector_rule is not None,
                "fused_capable": (not self._global_reads
                                  and self._notify is None)}

    # ------------------------------------------------------------------
    # proposals and enabledness
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Re-propose every dirty node, settling the incremental state.

        Cost is O(|dirty|) transition evaluations — O(deg) per write applied
        since the last refresh, or one O(n) pass when a bulk batch raised
        the all-dirty flag.  Feeds the resulting enabled-set deltas to the
        scheduler's incremental hooks and prunes the active round's pending
        set, replacing the old per-step ``pending &= rescan``.

        All-dirty passes of vectorized protocols go through the columnar
        plane (:meth:`_vector_refresh`) instead of the per-node loop; a
        declined vector evaluation falls through to the scalar pass.
        """
        if self._dirty_all and self._vector_rule is not None:
            if self._vector_refresh():
                if not self._sched_synced:
                    self.scheduler.reset(self._enabled)
                    self._sched_synced = True
                return
        if self._dirty_all:
            items = self._all_nodes
            self._dirty_all = False
            self._dirty.clear()
        elif self._dirty:
            items = sorted(self._dirty)
            self._dirty.clear()
        else:
            items = None
        if items:
            added: list[int] = []
            removed: list[int] = []
            net, config = self.net, self.config
            rows = self._state
            slot_rule = self._slot_rule
            exact = self._exact_deltas
            nbr_rows = self._nbr_rows
            proposal = self._proposal
            # engine-owned EnabledSet internals, updated in place (the
            # method-call indirection is measurable at this call rate)
            eset = self._enabled._set
            elist = self._enabled._list
            i = 0
            try:
                for i, v in enumerate(items):
                    # inlined effective_delta (this loop dominates stepping
                    # cost); deltas are slot-keyed, so everything
                    # downstream (_apply_batch) is index-only
                    own = rows[v]
                    delta = slot_rule(net, config, v, own, nbr_rows[v])
                    if not delta:
                        delta = None
                    elif not exact:
                        # count effective writes; allocate a filtered
                        # dict only when the proposal mixes no-op and
                        # effective slots
                        eff = 0
                        for k, val in delta.items():
                            if own[k] != val:
                                eff += 1
                        if eff == 0:
                            delta = None
                        elif eff != len(delta):
                            delta = {k: val for k, val in delta.items()
                                     if own[k] != val}
                    proposal[v] = delta
                    if delta is not None:
                        if v not in eset:
                            eset.add(v)
                            insort(elist, v)
                            added.append(v)
                    elif v in eset:
                        eset.remove(v)
                        del elist[bisect_left(elist, v)]
                        removed.append(v)
            except BaseException:
                # a raising step() must not desynchronize the engine: the
                # node that failed and everything unprocessed stay dirty,
                # while the transitions already applied are delivered to the
                # scheduler below so mirror-keeping daemons stay coherent
                self._dirty.update(items[i:])
                raise
            finally:
                if self._pending is not None:
                    self._pending.difference_update(removed)
                if (self._sched_synced and (added or removed)
                        and self._notify is not None):
                    self._notify(added, removed)
        if not self._sched_synced:
            self.scheduler.reset(self._enabled)
            self._sched_synced = True

    def _vector_refresh(self) -> bool:
        """One all-dirty re-proposal through the columnar plane.

        Returns False when the compiled rule declines (stale or
        unencodable columns, value ranges its arithmetic cannot pack) —
        the caller then runs the scalar per-node pass, which handles
        everything.  On success the engine state (proposal table, enabled
        set, pending round set, scheduler notify) ends exactly as the
        scalar all-dirty pass would leave it.
        """
        store = self._columns
        if not store.fresh:
            store.sync()
        delta_map = self._vector_rule(store, None)
        if delta_map is None:
            return False
        # the rule evaluated every node: the dirty flags are consumed
        # (only after success — a decline must leave them raised)
        self._dirty_all = False
        self._dirty.clear()
        if not self._exact_deltas and delta_map:
            # same no-op filter as the scalar pass: enabledness is
            # defined on effective writes
            rows = self._state
            for v in list(delta_map):
                delta = delta_map[v]
                own = rows[v]
                eff = 0
                for s, val in delta.items():
                    if own[s] != val:
                        eff += 1
                if eff == 0:
                    del delta_map[v]
                elif eff != len(delta):
                    delta_map[v] = {s: val for s, val in delta.items()
                                    if own[s] != val}
        proposal = self._proposal
        proposal.update(dict.fromkeys(self._all_nodes))
        proposal.update(delta_map)
        new_ids = sorted(delta_map)
        enabled = self._enabled
        added, removed = store.commit_enabled(new_ids, enabled._list)
        # run_round and the select fast path hold aliases to these
        # internals: update them in place, never rebind
        enabled._set.clear()
        enabled._set.update(new_ids)
        enabled._list[:] = new_ids
        if self._pending is not None and removed:
            self._pending.difference_update(removed)
        if (self._sched_synced and (added or removed)
                and self._notify is not None):
            self._notify(added, removed)
        self.stat_vector_refreshes += 1
        return True

    def _propose(self, v: int) -> dict[int, object] | None:
        """The pending write of node v (slot-keyed), or None if not enabled."""
        if self._dirty_all or v in self._dirty:
            self._refresh()
        return self._proposal[v]

    def enabled_nodes(self) -> list[int]:
        """All currently enabled nodes, ascending."""
        self._refresh()
        return list(self._enabled)

    def enabled_set(self) -> EnabledSet:
        """The live enabled set (engine-owned; treat as read-only)."""
        self._refresh()
        return self._enabled

    def rescan_enabled(self) -> list[int]:
        """Enabled nodes recomputed from scratch, bypassing every cache.

        O(n) transition evaluations through the readable ``step``
        specification over the Mapping views; exists so tests can
        cross-check the incrementally maintained enabled set — and the
        compiled slot rule feeding it — against first principles.
        """
        net, config, proto = self.net, self.config, self.protocol
        return [v for v in net.nodes
                if effective_delta(proto, NodeView(net, v, config)) is not None]

    def is_silent(self) -> bool:
        self._refresh()
        return not self._enabled

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _validate_selection(self, chosen: Sequence[int]) -> None:
        """Enforce the daemon contract: non-empty, duplicate-free, enabled."""
        if not chosen:
            raise RuntimeError(
                f"scheduler {self.scheduler.name!r} selected no node from a "
                f"non-empty enabled set")
        if len(chosen) == 1:  # the common central-daemon case
            if chosen[0] not in self._enabled:
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} selected non-enabled "
                    f"nodes [{chosen[0]}] (enabled: {list(self._enabled)})")
            return
        name = self.scheduler.name
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen):
            dups = sorted(v for v in chosen_set if chosen.count(v) > 1)
            raise RuntimeError(
                f"scheduler {name!r} selected duplicate nodes {dups}; a node "
                f"takes at most one atomic step per daemon step")
        stray = [v for v in chosen_set if v not in self._enabled]
        if stray:
            raise RuntimeError(
                f"scheduler {name!r} selected non-enabled nodes "
                f"{sorted(stray)} (enabled: {list(self._enabled)})")

    def _apply_batch(self, nodes: Sequence[int]) -> None:
        """Apply the cached proposals of ``nodes`` simultaneously."""
        # gather first: every write must be based on the pre-step state.
        # Settle the incremental state once up front (a no-op on the
        # run_round/run_steps paths, which refresh before selecting), so
        # the gather below is a plain proposal-table read per node.
        if self._dirty_all or self._dirty:
            self._refresh()
        proposal = self._proposal
        dirty = self._dirty
        if len(nodes) == 1:  # central-daemon fast path
            v = nodes[0]
            delta = proposal[v]
            writes = [(v, delta)] if delta is not None else []
        else:
            writes = []
            for v in nodes:
                delta = proposal[v]
                if delta is not None:
                    writes.append((v, delta))
        rows = self._state
        bulk = self._global_reads or len(writes) >= self._bulk_dirty
        impact = None if bulk else self._write_impact
        olds = [] if impact is not None else None
        for v, delta in writes:
            row = rows[v]
            if olds is not None:
                # the impact filter compares against pre-write values
                olds.append({s: row[s] for s in delta})
            for s, val in delta.items():
                row[s] = val
        store = self._columns
        if store is not None and writes:
            # the columns go stale here; _vector_refresh resyncs on demand
            # (write-through would cost about what the resync does, and is
            # pure waste on central-daemon runs that never vectorize)
            store.fresh = False
        if bulk:
            # bulk batch (synchronous round / global reader): one flag
            # instead of per-write neighborhood set maintenance
            if writes:
                self._dirty_all = True
        else:
            net = self.net
            adjacency = net.adjacency
            # settles_after_move: a mover provably lands disabled, so it
            # skips re-evaluation and retires from the enabled set below —
            # unless another mover in its neighborhood may re-enable it
            # this very batch.  (Movers are pairwise non-adjacent to any
            # settled node, so no same-batch write can dirty one.)
            if not self._settles:
                settled = ()
            elif len(writes) == 1:
                settled = (writes[0][0],)
            else:
                movers = {v for v, _ in writes}
                nbr_set = net.neighbor_set
                settled = tuple(v for v in movers
                                if movers.isdisjoint(nbr_set(v)))
            settled_set = set(settled)
            if impact is not None:
                for (v, delta), old in zip(writes, olds):
                    if v not in settled_set:
                        dirty.add(v)
                    nbrs = impact(net, rows, v, delta, old, proposal)
                    # None = the filter declines: full neighborhood
                    dirty.update(adjacency[v] if nbrs is None else nbrs)
            else:
                for v, _ in writes:
                    # invalidate proposals in the write neighborhood
                    if v not in settled_set:
                        dirty.add(v)
                    dirty.update(adjacency[v])
            if settled:
                proposal_table = proposal
                eset = self._enabled._set
                elist = self._enabled._list
                retired: list[int] = []
                for v in settled:
                    proposal_table[v] = None
                    if v in eset:
                        eset.remove(v)
                        del elist[bisect_left(elist, v)]
                        retired.append(v)
                if retired:
                    self.stat_settle_retired += len(retired)
                    if self._pending is not None:
                        self._pending.difference_update(retired)
                    if self._sched_synced and self._notify is not None:
                        self._notify((), retired)
        self.moves += len(writes)
        if writes:
            # read the observer attributes live: callers may legitimately
            # attach an invariant or enable tracing after construction
            if self.invariant is not None and not self.invariant(self.net, self.config):
                self._invariant_violations += 1
            if self.record_trace:
                self.snapshot()

    def run_round(self, max_moves: int | None = None) -> bool:
        """Execute one full round.  Returns False if already silent.

        A round completes when every node that was enabled at the start has
        stepped or been neutralized by a neighbor's step.  A generous
        default move budget turns scheduler-starvation livelocks into
        diagnosable errors instead of hangs.
        """
        self._refresh()
        if not self._enabled:
            return False
        if max_moves is None:
            max_moves = 200 * self.net.n * self.net.n_bound + 10_000
        budget = max_moves
        pending = set(self._enabled)
        self._pending = pending  # _refresh prunes nodes that become disabled
        refresh = self._refresh
        select = self.scheduler.select
        validate = self._validate_selection
        apply_batch = self._apply_batch
        enabled = self._enabled
        eset = enabled._set
        elist = enabled._list
        # fused single-mover stepping: the central-daemon common case
        # (one write, a handful of neighborhood re-proposals) is applied
        # and re-proposed inline, skipping the _apply_batch/_refresh
        # frames and the dirty-set round trip entirely.  Disabled for
        # global readers (all-dirty semantics) and mirror-keeping daemons
        # (their notify contract is the general path's).  State evolution
        # is identical: same writes, same proposals, same enabled-set
        # contents at every select.
        fused = not self._global_reads and self._notify is None
        pick = None
        if fused:
            net = self.net
            config = self.config
            rows = self._state
            slot_rule = self._slot_rule
            nbr_rows = self._nbr_rows
            proposal = self._proposal
            adjacency = net.adjacency
            impact = self._write_impact
            settles = self._settles
            exact = self._exact_deltas
            store = self._columns
            dirty = self._dirty
            # latched for the round (reassigning them mid-round from an
            # invariant callback is not a supported pattern)
            invariant = self.invariant
            record = self.record_trace
            # single-selection daemons expose ``pick`` (same distribution,
            # same RNG stream as select); it returns a member of the
            # enabled set by construction, so the fused path skips the
            # list-of-one round trip and the membership re-check
            pick = getattr(self.scheduler, "pick", None)
        try:
            while pending:
                if self._dirty_all or self._dirty:
                    refresh()
                    if not pending:
                        break
                if pick is not None:
                    v = pick(enabled)
                else:
                    chosen = select(enabled)
                    if len(chosen) != 1:
                        validate(chosen)
                        apply_batch(chosen)
                        pending.difference_update(chosen)
                        budget -= len(chosen)
                        if budget <= 0:
                            raise RuntimeError(
                                f"round exceeded {max_moves} moves "
                                f"(protocol={self.protocol.name}, "
                                f"n={self.net.n})"
                            )
                        continue
                    v = chosen[0]
                    if v not in eset:
                        validate(chosen)  # raises with the full diagnosis
                if fused:
                    delta = proposal[v]
                    row = rows[v]
                    old = None
                    if impact is not None:
                        # capture + write in one pass (the filter
                        # compares against the displaced values)
                        old = {}
                        for s, val in delta.items():
                            old[s] = row[s]
                            row[s] = val
                    else:
                        for s, val in delta.items():
                            row[s] = val
                    self.moves += 1
                    if store is not None:
                        store.fresh = False
                        store = None  # stale once is stale enough
                    if settles:
                        # the mover provably landed disabled: retire
                        proposal[v] = None
                        eset.remove(v)
                        del elist[bisect_left(elist, v)]
                    targets = (impact(net, rows, v, delta, old, proposal)
                               if impact is not None else None)
                    if targets is None:
                        targets = adjacency[v]
                    if not settles:
                        targets = [*targets, v]
                    i = 0
                    try:
                        for i, u in enumerate(targets):
                            own = rows[u]
                            d_u = slot_rule(net, config, u, own,
                                            nbr_rows[u])
                            if not d_u:
                                d_u = None
                            elif not exact:
                                eff = 0
                                for k, val in d_u.items():
                                    if own[k] != val:
                                        eff += 1
                                if eff == 0:
                                    d_u = None
                                elif eff != len(d_u):
                                    d_u = {k: val
                                           for k, val in d_u.items()
                                           if own[k] != val}
                            proposal[u] = d_u
                            if d_u is not None:
                                if u not in eset:
                                    eset.add(u)
                                    insort(elist, u)
                            elif u in eset:
                                eset.remove(u)
                                del elist[bisect_left(elist, u)]
                                pending.discard(u)
                    except BaseException:
                        # same coherence contract as _refresh: the
                        # failing node and everything unprocessed
                        # stay dirty for the next settle
                        dirty.update(targets[i:])
                        raise
                    pending.discard(v)
                    if invariant is not None and not invariant(net, config):
                        self._invariant_violations += 1
                    if record:
                        self.snapshot()
                    budget -= 1
                    if budget <= 0:
                        raise RuntimeError(
                            f"round exceeded {max_moves} moves "
                            f"(protocol={self.protocol.name}, "
                            f"n={self.net.n})"
                        )
                    continue
                apply_batch(chosen)
                pending.discard(v)
                budget -= 1
                if budget <= 0:
                    raise RuntimeError(
                        f"round exceeded {max_moves} moves "
                        f"(protocol={self.protocol.name}, n={self.net.n})"
                    )
        finally:
            self._pending = None
        self.rounds += 1
        return True

    def _run_round_observed(self, max_moves: int | None = None) -> bool:
        """``run_round`` with per-round telemetry — the recorder's loop.

        Installed as this instance's ``run_round`` at construction when
        a recorder is attached (see ``__init__``); the plain class
        method above is never patched, so unobserved simulators keep
        the exact pre-telemetry byte path.

        Mirrors the *general* (``select``-based, unfused) path of
        :meth:`run_round` exactly.  State evolution is bit-identical to
        the fused path by construction: single-selection daemons'
        ``pick`` draws from the same RNG stream as ``select`` (that
        equivalence is what the dual-path engine tests pin), so an
        observed run replays the same moves in the same order and a
        trace is a faithful record of the unobserved execution.
        """
        self._refresh()
        enabled_start = len(self._enabled)
        if not self._enabled:
            return False
        if max_moves is None:
            max_moves = 200 * self.net.n * self.net.n_bound + 10_000
        budget = max_moves
        pending = set(self._enabled)
        self._pending = pending
        refresh = self._refresh
        select = self.scheduler.select
        validate = self._validate_selection
        apply_batch = self._apply_batch
        enabled = self._enabled
        eset = enabled._set
        n = self.net.n
        moves_before = self.moves
        vector_before = self.stat_vector_refreshes
        settled_before = self.stat_settle_retired
        selections = 0
        dirty_peak = 0
        try:
            while pending:
                if self._dirty_all or self._dirty:
                    d = n if self._dirty_all else len(self._dirty)
                    if d > dirty_peak:
                        dirty_peak = d
                    refresh()
                    if not pending:
                        break
                chosen = select(enabled)
                selections += 1
                if len(chosen) != 1:
                    validate(chosen)
                    apply_batch(chosen)
                    pending.difference_update(chosen)
                    budget -= len(chosen)
                else:
                    v = chosen[0]
                    if v not in eset:
                        validate(chosen)  # raises with the full diagnosis
                    apply_batch(chosen)
                    pending.discard(v)
                    budget -= 1
                if budget <= 0:
                    raise RuntimeError(
                        f"round exceeded {max_moves} moves "
                        f"(protocol={self.protocol.name}, n={self.net.n})"
                    )
        finally:
            self._pending = None
        self.rounds += 1
        # settle the incremental state so the row reports the round-edge
        # enabled count (idempotent; the next round's opening refresh
        # becomes a no-op, and the potential probe reads a consistent
        # configuration)
        self._refresh()
        self._obs.on_round(
            self,
            moves=self.moves - moves_before,
            enabled_start=enabled_start,
            enabled_end=len(self._enabled),
            selections=selections,
            dirty_peak=dirty_peak,
            vector=self.stat_vector_refreshes - vector_before,
            settled=self.stat_settle_retired - settled_before,
        )
        return True

    def run_steps(self, max_moves: int) -> int:
        """Execute daemon steps until silence or ``max_moves`` moves.

        Sub-round granularity for callers that need a *move* budget on
        protocols whose rounds are huge (the perf harness budgets the
        slow-stepping baselines this way).  Does not advance the round
        counter — rounds are a property of complete-round executions.
        The budget is checked between daemon steps, so a multi-node
        selection may overshoot it by at most one batch.

        Returns the number of moves applied.
        """
        if max_moves < 1:
            raise ValueError(f"max_moves must be >= 1, got {max_moves}")
        start = self.moves
        while self.moves - start < max_moves:
            self._refresh()
            if not self._enabled:
                break
            chosen = self.scheduler.select(self._enabled)
            if len(chosen) != 1 or chosen[0] not in self._enabled._set:
                self._validate_selection(chosen)
            self._apply_batch(chosen)
        return self.moves - start

    def run(
        self,
        max_rounds: int,
        stop_when: Callable[[Network, Config], bool] | None = None,
        max_moves_per_round: int | None = None,
    ) -> RunResult:
        """Run until silence, the predicate, or the round budget.

        Raises RuntimeError if ``max_rounds`` is exhausted before silence
        (or before ``stop_when`` holds, when provided): a self-stabilizing
        run that does not converge within its budget is a failure, not a
        result.
        """
        stopped = False
        for _ in range(max_rounds):
            if stop_when is not None and stop_when(self.net, self.config):
                stopped = True
                break
            progressed = self.run_round(max_moves=max_moves_per_round)
            if not progressed:
                break
        else:
            if stop_when is None or not stop_when(self.net, self.config):
                raise RuntimeError(
                    f"no convergence within {max_rounds} rounds "
                    f"(protocol={self.protocol.name}, n={self.net.n}, "
                    f"scheduler={self.scheduler.name}, "
                    f"enabled={len(self.enabled_nodes())})"
                )
            stopped = True
        return RunResult(
            rounds=self.rounds,
            moves=self.moves,
            silent=self.is_silent(),
            stopped_by_predicate=stopped,
            invariant_violations=self._invariant_violations,
            # deep-copy: the result must stay valid across later run() calls
            # and caller mutations (the old aliasing silently corrupted
            # previously returned results).
            trace=[{v: dict(s) for v, s in snap.items()}
                   for snap in self._trace],
        )

    def run_to_silence(self, max_rounds: int) -> RunResult:
        return self.run(max_rounds=max_rounds)

    def confirm_silent(self, extra_rounds: int = 3) -> bool:
        """Certify silence: no node is enabled, now and after prodding.

        Because enabledness is a pure function of the configuration, one
        check suffices; the extra rounds assert that running the engine
        does not manufacture moves.
        """
        if not self.is_silent():
            return False
        before = self.moves
        for _ in range(extra_rounds):
            if self.run_round():
                return False
        return self.moves == before

    # ------------------------------------------------------------------
    # fault injection entry point
    # ------------------------------------------------------------------

    def overwrite(self, node: int, updates: Mapping[str, object]) -> None:
        """Adversarially overwrite parts of one node's register.

        Updates are name-keyed (the boundary shape) and written through
        the schema into the node's slot row.  Feeds the dirty set, so the
        incremental enabled set stays coherent across injected faults.
        """
        row = self._state.get(node)
        if row is None:
            raise KeyError(
                f"unknown node {node!r}: not a node of this network "
                f"(n={self.net.n})")
        index = self._index
        unknown = set(updates) - set(index)
        if unknown:
            raise KeyError(f"unknown fields: {sorted(unknown)}")
        for name, val in updates.items():
            row[index[name]] = val
        if self._columns is not None:
            # adversarial writes bypass the write-through; resync the
            # columns from the rows on the next vector refresh
            self._columns.fresh = False
        if self._global_reads:
            self._dirty_all = True
        else:
            self._dirty.add(node)
            self._dirty.update(self.net.neighbors(node))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def snapshot(self) -> None:
        """Append the current configuration to the recorded trace.

        The engine calls this after every write batch when
        ``record_trace`` is set; callers that change the configuration
        outside a daemon step (a topology event) call it themselves.
        """
        names = self.schema.names
        rows = self._state
        self._trace.append(
            {v: dict(zip(names, rows[v])) for v in self.net.nodes})
