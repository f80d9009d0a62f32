"""Per-layer timing for the traced run, measured from outside ``repro``.

Every span is a wrapper around a public entry point of one layer,
installed on the *instance* the workload hands to the engine:

* ``protocol.rule`` — the compiled slot rule ``Protocol.fast_step_slots``
  returns (``core``, ``labeling``, ``certify.oracle``);
* ``columns.vector`` — the columnar rule ``Protocol.vector_step`` returns
  (``runtime.columns``);
* ``scheduler`` — the daemon's ``select`` and ``pick``
  (``runtime.scheduler``);
* ``simulator.round`` — each ``Simulator.run_round`` call;
* ``dynamics.schedule`` / ``dynamics.apply`` / ``dynamics.resilence`` —
  ``ChurnSchedule.next_event``, ``apply_event`` and the rounds back to
  silence (``runtime.dynamics``);
* ``modelcheck.step`` / ``modelcheck.accepts`` — ``Protocol.step`` on
  every protocol the certifier makes for the model checker, and the
  certifier's ``is_legal``/``certify``/``verify`` (``certify.modelcheck``).

A span records a call count and busy seconds.  ``simulator.self_s`` is
round time not covered by the rule, vector and scheduler spans inside it.
Timed (untraced) runs use :class:`Untraced`, whose hooks install nothing.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter


class Untraced:
    """The hooks of a timed run: plain calls, nothing installed."""

    def timed(self, name: str, fn):
        return fn

    def call(self, name: str, fn, *args, **kwargs):
        return self.timed(name, fn)(*args, **kwargs)

    def wrap_protocol(self, proto) -> None:
        pass

    def wrap_scheduler(self, scheduler) -> None:
        pass

    def wrap_certifier(self, cert) -> None:
        pass

    def round(self, sim) -> bool:
        return sim.run_round()

    def resilence(self, sim) -> None:
        while self.round(sim):
            pass

    def simulator_stats(self, sim) -> None:
        pass


class Tracer(Untraced):
    """The hooks of a traced run: spans around every layer entry point."""

    def __init__(self) -> None:
        #: span name -> [calls, seconds]
        self.spans: dict[str, list] = {}
        self.round_ms: list[float] = []
        self.child_s = 0.0  # rule + vector + scheduler time inside rounds
        self.resilence_rounds = 0
        self.resilence_moves = 0
        self.stats: dict[str, int] = {}

    def cell(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0])

    def timed(self, name: str, fn):
        cell = self.cell(name)

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            cell[1] += clock() - t0
            cell[0] += 1
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def wrap_protocol(self, proto) -> None:
        compile_rule, compile_vector = proto.fast_step_slots, proto.vector_step

        def fast_step_slots(schema):
            rule = compile_rule(schema)
            return None if rule is None else self.timed("protocol.rule", rule)

        def vector_step(schema, cols):
            rule = compile_vector(schema, cols)
            return (None if rule is None
                    else self.timed("columns.vector", rule))

        proto.fast_step_slots = fast_step_slots
        proto.vector_step = vector_step

    def wrap_scheduler(self, scheduler) -> None:
        scheduler.select = self.timed("scheduler", scheduler.select)
        if hasattr(scheduler, "pick"):
            scheduler.pick = self.timed("scheduler", scheduler.pick)

    def wrap_certifier(self, cert) -> None:
        factory = cert.protocol

        def protocol():
            proto = factory()
            proto.step = self.timed("modelcheck.step", proto.step)
            return proto

        cert.protocol = protocol
        for name in ("is_legal", "certify", "verify"):
            setattr(cert, name,
                    self.timed("modelcheck.accepts", getattr(cert, name)))

    # -- the round loop --------------------------------------------------

    def _inner_s(self) -> float:
        spans = self.spans
        return sum(spans[k][1] for k in ("protocol.rule", "columns.vector",
                                         "scheduler") if k in spans)

    def round(self, sim) -> bool:
        inner = self._inner_s()
        t0 = clock()
        more = sim.run_round()
        dt = clock() - t0
        if more:
            cell = self.cell("simulator.round")
            cell[0] += 1
            cell[1] += dt
            self.child_s += self._inner_s() - inner
            self.round_ms.append(dt * 1e3)
        return more

    def resilence(self, sim) -> None:
        rounds, moves = sim.rounds, sim.moves
        t0 = clock()
        while self.round(sim):
            pass
        cell = self.cell("dynamics.resilence")
        cell[0] += 1
        cell[1] += clock() - t0
        self.resilence_rounds += sim.rounds - rounds
        self.resilence_moves += sim.moves - moves

    def simulator_stats(self, sim) -> None:
        self.stats = {"simulator.settle_retired": sim.stat_settle_retired,
                      "columns.vector_refreshes": sim.stat_vector_refreshes}

    # -- report ------------------------------------------------------------

    def metrics(self, run) -> dict[str, float]:
        """Every per-layer metric of one traced execution (0 where the
        workload never enters the layer)."""

        def calls(name):
            return self.spans.get(name, [0, 0.0])[0]

        def busy(name):
            return self.spans.get(name, [0, 0.0])[1]

        counts = run.counts
        moves = counts.get("moves", 0)
        round_s = busy("simulator.round")
        rounds_ms = sorted(self.round_ms)
        out = dict(run.setup)
        out.update({
            "simulator.rounds": counts.get("rounds", 0),
            "simulator.moves": moves,
            "simulator.round_s": round_s,
            "simulator.self_s": round_s - self.child_s,
            "simulator.moves_per_s": moves / round_s if round_s else 0.0,
            "simulator.round_ms_p50": (statistics.median(rounds_ms)
                                       if rounds_ms else 0.0),
            "simulator.round_ms_p99": (
                rounds_ms[min(len(rounds_ms) - 1,
                              int(0.99 * len(rounds_ms)))]
                if rounds_ms else 0.0),
            "simulator.settle_retired": self.stats.get(
                "simulator.settle_retired", 0),
            "columns.vector_refreshes": self.stats.get(
                "columns.vector_refreshes", 0),
            "protocol.rule_calls": calls("protocol.rule"),
            "protocol.rule_s": busy("protocol.rule"),
            "protocol.evals_per_move": (calls("protocol.rule") / moves
                                        if moves else 0.0),
            "columns.vector_calls": calls("columns.vector"),
            "columns.vector_s": busy("columns.vector"),
            "scheduler.calls": calls("scheduler"),
            "scheduler.s": busy("scheduler"),
            "dynamics.events": counts.get("events", 0),
            "dynamics.schedule_s": busy("dynamics.schedule"),
            "dynamics.apply_s": busy("dynamics.apply"),
            "dynamics.resilence_s": busy("dynamics.resilence"),
            "dynamics.resilence_rounds": self.resilence_rounds,
            "dynamics.resilence_moves": self.resilence_moves,
            "certify.verify_s": run.verify_s,
            "modelcheck.states": counts.get("modelcheck.states", 0),
            "modelcheck.transitions": counts.get("modelcheck.transitions", 0),
            "modelcheck.states_per_s": (
                counts.get("modelcheck.states", 0) / run.run_s
                if "modelcheck.states" in counts else 0.0),
            "modelcheck.step_calls": calls("modelcheck.step"),
            "modelcheck.step_s": busy("modelcheck.step"),
            "modelcheck.accepts_s": busy("modelcheck.accepts"),
        })
        if "modelcheck.states" in counts:
            covered = busy("modelcheck.step") + busy("modelcheck.accepts")
            out["modelcheck.self_s"] = run.run_s - covered
        else:
            covered = (round_s + busy("dynamics.schedule")
                       + busy("dynamics.apply"))
            out["modelcheck.self_s"] = 0.0
        out["trace.accounted_share"] = covered / run.run_s
        return out
