"""The simkernel router netlist, mounted as a plugin.

Wraps the *existing* event-driven hardware — the same
:class:`~repro.router.router.Router`, producers and consumers that
``build_router_cosim`` elaborates — behind the
:mod:`repro.fmi.protocol` contract, so the boundary is exercised by
every current scenario without reimplementing anything.  ``step``
advances the simkernel; DATA transactions go through the simulator's
external read/write ports; IRQ edges are observed off the router's
interrupt signal and surfaced as ``irq_events``.

Restore strategy: simkernel process generator frames cannot be
serialized or rewound (see :meth:`repro.simkernel.kernel.Simulator.
snapshot`), so — like :func:`repro.replay.checkpoint.restore_session`
— this plugin restores by *deterministic re-execution*: the snapshot
carries the init config, the seed and the full DATA transaction log;
``restore`` rebuilds the netlist from scratch, replays every logged
transaction at its recorded cycle, and verifies the rebuilt kernel
against the snapshotted one leaf-for-leaf.  That is what it takes for
an event-driven simulator to honour FMI004 bit-exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cosim.config import CosimConfig
from repro.cosim.master import build_driver_sim
from repro.errors import FmiError
from repro.fmi.protocol import DATA_ADDR_KEY, DATA_OP_KEY, DATA_VALUE_KEY
from repro.replay.snapshot import plain_copy, state_digest
from repro.router.consumer import Consumer
from repro.router.producer import Producer
from repro.router.router import (
    REG_PACKET,
    REG_STATS,
    REG_STATUS,
    REG_VERDICT,
    Router,
)
from repro.router.routing_table import RoutingTable
from repro.router.stats import WorkloadStats


class NetlistRouterModel:
    """The event-driven router netlist as a conforming plugin."""

    def __init__(self) -> None:
        # Lifecycle flags, not simulation state: a restored plugin is
        # by definition initialized and live.
        self._initialized = False  # lint: disable=SNAP001
        self._terminated = False  # lint: disable=SNAP001
        self._pending: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Contract: lifecycle
    # ------------------------------------------------------------------
    def init(self, config: Optional[dict], seed: int) -> None:
        if self._initialized:
            raise FmiError("plugin already initialized")
        self._config = dict(config or {})
        self._seed = seed
        self._build()
        self._initialized = True

    def terminate(self) -> None:
        self._terminated = True

    # ------------------------------------------------------------------
    # Contract: inputs / stepping / outputs
    # ------------------------------------------------------------------
    def set_inputs(self, values: dict) -> None:
        self._require_live()
        unknown = set(values) - {DATA_OP_KEY, DATA_ADDR_KEY, DATA_VALUE_KEY}
        if unknown:
            raise FmiError(f"unknown input keys: {sorted(unknown)}")
        self._pending = dict(values)

    def step(self, delta_ticks: int) -> None:
        self._require_live()
        if delta_ticks < 0:
            raise FmiError(f"cannot step {delta_ticks} ticks")
        self._irq_events = []
        pending, self._pending = self._pending, None
        if pending is not None:
            self._oplog.append([self.clock.cycles, dict(pending)])
            self._apply_data(pending)
        if delta_ticks:
            self._run_to(self.sim.now + delta_ticks * self.clock.period)

    def get_outputs(self) -> dict:
        self._require_init()
        return {
            "cycles": self.clock.cycles,
            "irq_events": [list(event) for event in self._irq_events],
            "data_value": self._data_value,
            "done": all(p.done for p in self.producers),
            "stats": self.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # Contract: checkpointing (by deterministic re-execution)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        self._require_init()
        return {
            "config": dict(self._config),
            "seed": self._seed,
            "cycles": self.clock.cycles,
            "oplog": plain_copy(self._oplog),
            "sim": self.sim.snapshot(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._require_init()
        for key in ("config", "seed", "cycles", "oplog", "sim", "stats"):
            if key not in state:
                raise FmiError(f"plugin snapshot missing {key!r}")
        self._config = dict(state["config"])
        self._seed = state["seed"]
        self._build()
        period = self.clock.period
        for cycle, op in state["oplog"]:
            if self.sim.now < cycle * period:
                self._run_to(cycle * period)
            self._apply_data(op)
        if self.sim.now < state["cycles"] * period:
            self._run_to(state["cycles"] * period)
        self._oplog = [[cycle, dict(op)]
                       for cycle, op in state["oplog"]]
        self.stats.restore(state["stats"])
        rebuilt = state_digest(self.sim.snapshot())
        recorded = state_digest(plain_copy(state["sim"]))
        if rebuilt != recorded:
            raise FmiError(
                "netlist re-execution diverged from the snapshotted "
                "kernel state (non-deterministic module?)")
        self._pending = None
        self._data_value = None
        self._irq_events = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Elaborate a fresh netlist from ``(config, seed)``."""
        config, seed = self._config, self._seed
        num_ports = int(config.get("num_ports", 4))
        self._irq_vector = int(config.get("irq_vector", 1))
        cosim_config = CosimConfig(
            clock_period_ps=int(config.get("clock_period_ps", 10_000)))
        self.sim, self.clock = build_driver_sim("fmu_netlist",
                                                config=cosim_config)
        self.stats = WorkloadStats()
        table = RoutingTable.uniform(num_ports,
                                     addresses_per_port=256 // num_ports)
        self.router = Router(
            self.sim, "router", self.clock, table, self.stats,
            buffer_capacity=int(config.get("buffer_capacity", 20)),
            num_ports=num_ports)
        self.sim.map_port(REG_STATUS, self.router.reg_status)
        self.sim.map_port(REG_PACKET, self.router.reg_packet)
        self.sim.map_port(REG_VERDICT, self.router.reg_verdict)
        self.sim.map_port(REG_STATS, self.router.reg_stats)
        self.producers = [
            Producer(self.sim, f"producer{i}", self.router, i, self.clock,
                     self.stats,
                     count=int(config.get("packets_per_producer", 25)),
                     interval_cycles=int(config.get("interval_cycles",
                                                    1000)),
                     payload_size=int(config.get("payload_size", 32)),
                     corrupt_rate=float(config.get("corrupt_rate", 0.05)),
                     seed=seed,
                     burst_size=int(config.get("burst_size", 1)),
                     burst_gap_cycles=int(config.get("burst_gap_cycles",
                                                     0)))
            for i in range(num_ports)
        ]
        self.consumers = [
            Consumer(self.sim, f"consumer{i}", self.router, i, self.clock,
                     self.stats)
            for i in range(num_ports)
        ]
        self._irq_events: List[List[int]] = []

        def on_irq(sig, old, new) -> None:
            if new and not old:
                self._irq_events.append([self.clock.cycles,
                                         self._irq_vector])

        self.router.irq.observe(on_irq)
        self._data_value: Any = None
        self._oplog: List[List[Any]] = []

    def _require_init(self) -> None:
        if not self._initialized:
            raise FmiError("plugin used before init()")

    def _require_live(self) -> None:
        self._require_init()
        if self._terminated:
            raise FmiError("plugin used after terminate()")

    def _run_to(self, t_end: int) -> None:
        """Advance the netlist, leaping quiet stretches of its clock."""
        self.sim.run_until_leaping(t_end, clocks=(self.clock,))

    def _apply_data(self, pending: Dict[str, Any]) -> None:
        op = pending.get(DATA_OP_KEY)
        if op is None:
            return
        address = pending.get(DATA_ADDR_KEY)
        if op == "read":
            self._data_value = self.sim.external_read(address)
        elif op == "write":
            self._data_value = None
            self.sim.external_write(address, pending.get(DATA_VALUE_KEY))
        else:
            raise FmiError(f"bad data_op {op!r}")
