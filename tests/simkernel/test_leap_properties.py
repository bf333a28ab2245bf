"""Leap soundness: leaping quiet clock stretches is unobservable.

Every generated netlist runs twice from the same construction — once
with ``Simulator.run_until_leaping`` free to apply quiet stretches in
closed form, once with ``edge_by_edge`` set so every edge is toggled —
and both runs must agree on the full kernel snapshot, the work
counters, the clock's cycle count and everything the netlist observed
along the way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay.snapshot import state_digest
from repro.simkernel import Clock, Event, Module, Signal, Simulator

#: Simulated horizon of one generated run, in clock periods.
HORIZON_PERIODS = 40

ACTION_KINDS = ("wake", "observe", "wait_edge", "irq")


@st.composite
def netlists(draw):
    quarter = draw(st.integers(min_value=1, max_value=4))
    period = 4 * quarter
    duty = draw(st.sampled_from([0.25, 0.5, 0.75]))
    start = draw(st.sampled_from([0, period, period // 2 + 1]))
    workers = draw(st.lists(
        st.tuples(st.booleans(),                      # parked
                  st.integers(min_value=1, max_value=4)),  # busy edges
        max_size=3))
    horizon = HORIZON_PERIODS * period

    def action_time(spec):
        on_edge, edge_index, offset = spec
        if on_edge:
            # Exactly on a rising or falling edge of the clock.
            high = int(period * duty)
            return start + (edge_index // 2) * period \
                + (high if edge_index % 2 else 0)
        return offset

    actions = draw(st.lists(
        st.tuples(
            st.tuples(st.booleans(),
                      st.integers(min_value=0,
                                  max_value=2 * HORIZON_PERIODS - 2),
                      st.integers(min_value=1, max_value=horizon - 1)
                      ).map(action_time),
            st.sampled_from(ACTION_KINDS),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=6))
    chunks = draw(st.lists(st.integers(min_value=1, max_value=horizon),
                           min_size=1, max_size=4))
    return {"period": period, "duty": duty, "start": start,
            "workers": workers, "actions": actions, "chunks": chunks}


class _Netlist(Module):
    """A clock, posedge workers and timed mid-run actions."""

    def __init__(self, sim, spec, log):
        super().__init__(sim, "top")
        self.log = log
        self.clock = Clock(sim, "clk", period=spec["period"],
                           duty=spec["duty"], start_time=spec["start"])
        self.irq = Signal(sim, "irq", init=False)
        self.wakes = []
        for index, (parked, busy) in enumerate(spec["workers"]):
            self._worker(index, parked, busy)
        for index, (when, kind, arg) in enumerate(spec["actions"]):
            event = Event(sim, f"action{index}")
            self.method(self._action(index, kind, arg),
                        sensitive=[event], dont_initialize=True,
                        name=f"act{index}")
            if when == 0:
                event.notify_delta()
            else:
                event.notify(when)

    def _worker(self, index, parked, busy):
        sim, posedge = self.sim, self.clock.posedge
        wake = Event(sim, f"wake{index}")
        self.wakes.append(wake)
        state = {"left": 0}

        def body():
            if proc.static_sensitivity[0] is wake:
                # Woken: re-arm on the clock for *busy* edges.
                state["left"] = busy
                proc.set_static_sensitivity([posedge])
                return
            self.log.append(("work", index, sim.now))
            state["left"] -= 1
            if parked and state["left"] <= 0:
                proc.set_static_sensitivity([wake])

        proc = self.method(body, sensitive=[wake if parked else posedge],
                           dont_initialize=True, name=f"worker{index}")

    def _action(self, index, kind, arg):
        sim, clock, log = self.sim, self.clock, self.log

        def act():
            log.append(("act", index, sim.now))
            if kind == "wake" and self.wakes:
                self.wakes[arg % len(self.wakes)].notify()
            elif kind == "observe":
                clock.signal.observe(
                    lambda _sig, _old, new: log.append(
                        ("obs", index, sim.now, new)))
            elif kind == "wait_edge":
                edge = clock.posedge if arg % 2 else clock.negedge

                def waiter():
                    for _ in range(arg + 1):
                        yield edge
                        log.append(("edge", index, sim.now))

                self.thread(waiter, name=f"waiter{index}")
            elif kind == "irq":
                self.irq.write(not self.irq.read())

        return act


def run(spec, edge_by_edge):
    """Build and run one netlist; returns everything observable."""
    sim = Simulator("leap")
    sim.edge_by_edge = edge_by_edge
    log = []
    top = _Netlist(sim, spec, log)
    stops = []

    def on_irq(_sig, old, new):
        # The reactive-window case: an interrupt edge ends the call.
        if new and not old:
            sim.stop()

    top.irq.observe(on_irq)
    clocks = (top.clock,)
    for chunk in spec["chunks"]:
        target = sim.now + chunk
        while True:
            sim.run_until_leaping(target, clocks=clocks)
            if sim.now >= target:
                break
            stops.append(sim.now)
    return {
        "digest": state_digest(sim.snapshot()),
        "delta_count": sim.delta_count,
        "process_runs": sim.process_runs,
        "cycles": top.clock.cycles,
        "edges": sim.edges_leapt + sim.edges_simulated,
        "log": log,
        "stops": stops,
        "leapt": sim.edges_leapt,
    }


class TestLeapMatchesEdgeByEdge:
    @given(netlists())
    @settings(max_examples=150, deadline=None)
    def test_leap_is_unobservable(self, spec):
        edge = run(spec, edge_by_edge=True)
        leap = run(spec, edge_by_edge=False)
        assert edge["leapt"] == 0
        for key in ("digest", "delta_count", "process_runs", "cycles",
                    "edges", "log", "stops"):
            assert leap[key] == edge[key], key

    def test_quiet_stretches_do_leap(self):
        spec = {"period": 8, "duty": 0.5, "start": 8,
                "workers": [(True, 2)],
                "actions": [(160, "wake", 0), (200, "irq", 0)],
                "chunks": [320]}
        edge = run(spec, edge_by_edge=True)
        leap = run(spec, edge_by_edge=False)
        assert leap["leapt"] > 0.9 * leap["edges"]
        assert leap["stops"] == edge["stops"] == [200]
        assert {k: v for k, v in leap.items() if k != "leapt"} \
            == {k: v for k, v in edge.items() if k != "leapt"}
