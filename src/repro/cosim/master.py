"""The SystemC-side co-simulation master.

Wraps a :class:`~repro.simkernel.driver_ext.DriverSimulator` and a
master link endpoint, implementing the simulator half of the virtual
tick protocol:

* every ``T_sync`` clock cycles it emits a clock grant and, once its
  own window is simulated, waits for the board's time report ("it waits
  an answer from the board");
* rising edges of the model's interrupt signal are forwarded on the INT
  port, stamped with the clock cycle at which they occurred;
* DATA requests from the board are serviced against the settled model
  state at any time — during the window and while waiting for the
  report — exactly as ``driver_simulate`` checks the DATA port on every
  loop iteration.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cosim.config import CosimConfig
from repro.cosim.protocol import (
    MASTER_INITIAL,
    MASTER_WINDOW_TABLE,
    MasterProtocol,
    WindowFsm,
)
from repro.errors import ProtocolError, SimulationError, TransportError
from repro.obs.recorder import NULL_RECORDER
from repro.simkernel.clock import Clock
from repro.simkernel.driver_ext import DriverSimulator
from repro.simkernel.signals import Signal
from repro.transport.channel import MasterEndpoint
from repro.transport.messages import DataRead, DataWrite, Interrupt, TimeReport


class CosimMaster:
    """Drives the hardware simulation as the master of co-simulated time."""

    #: Span recorder; replaced per-session when tracing is enabled.
    obs = NULL_RECORDER

    def __init__(
        self,
        sim: DriverSimulator,
        clock: Clock,
        endpoint: MasterEndpoint,
        config: CosimConfig,
        interrupt_signal: Optional[Signal] = None,
    ) -> None:
        self.sim = sim
        self.clock = clock
        self.endpoint = endpoint
        self.config = config
        self.protocol = MasterProtocol()
        #: Window-phase tracker; every phase change is validated against
        #: the declarative MASTER_WINDOW_TABLE (see repro.cosim.protocol).
        self.fsm = WindowFsm("master", MASTER_WINDOW_TABLE, MASTER_INITIAL)
        self.interrupts_sent = 0
        self.data_reads_served = 0
        self.data_writes_served = 0
        # Structural binding registry, not simulated state; rebuilt
        # by construction, never by restore.
        self._bound_vectors = set()  # lint: disable=SNAP001
        #: When set, an interrupt edge stops the running window early
        #: (used by reactive/adaptive sessions).  Transient within
        #: one call (reset in a finally), never spans a boundary.
        self._stop_on_activity = False  # lint: disable=SNAP001
        if interrupt_signal is not None:
            self.bind_interrupt(config.remote_vector, interrupt_signal)

    # ------------------------------------------------------------------
    # Interrupt forwarding
    # ------------------------------------------------------------------
    def bind_interrupt(self, vector: int, signal: Signal,
                       endpoint: Optional[MasterEndpoint] = None) -> None:
        """Forward rising edges of *signal* as INT packets for *vector*.

        Multiple devices may each bind their own request line; the
        board dispatches on the vector carried by the packet.  In
        multi-board sessions pass the *endpoint* of the board that owns
        the device (defaults to the master's primary endpoint).
        """
        if vector in self._bound_vectors:
            raise ProtocolError(f"interrupt vector {vector} already bound")
        self._bound_vectors.add(vector)
        self.sim.bind_interrupt_vector(vector, signal)
        if vector == self.config.remote_vector:
            # Keep the kernel-level single-signal view working too.
            self.sim.bind_interrupt(signal)
        target = endpoint or self.endpoint

        def on_commit(sig, old, new, vector=vector, target=target):
            if new and not old:
                self.interrupts_sent += 1
                if self.obs.enabled:
                    self.obs.event("master", "irq.send",
                                   sim=self.clock.cycles, vector=vector)
                target.send_interrupt(
                    Interrupt(vector=vector,
                              master_cycle=self.clock.cycles)
                )
                if self._stop_on_activity:
                    self.sim.stop()

        signal.observe(on_commit)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Protocol state, service counters, and the hardware model."""
        return {
            "protocol": self.protocol.snapshot(),
            "interrupts_sent": self.interrupts_sent,
            "data_reads_served": self.data_reads_served,
            "data_writes_served": self.data_writes_served,
            "sim": self.sim.snapshot(),
        }

    def restore(self, state: dict) -> None:
        for key in ("protocol", "interrupts_sent", "data_reads_served",
                    "data_writes_served", "sim"):
            if key not in state:
                raise ProtocolError(f"master snapshot missing {key!r}")
        self.protocol.restore(state["protocol"])
        # Restores happen at window boundaries, where the master sits in
        # the FSM's initial state; the phase is not serialized.
        self.fsm.reset()
        self.interrupts_sent = state["interrupts_sent"]
        self.data_reads_served = state["data_reads_served"]
        self.data_writes_served = state["data_writes_served"]
        self.sim.restore(state["sim"])

    # ------------------------------------------------------------------
    # DATA servicing
    # ------------------------------------------------------------------
    def serve_data(self, op: str, address: int, value=None):
        """Synchronous DATA server (installed on in-process links)."""
        if op == "read":
            self.data_reads_served += 1
            if self.obs.enabled:
                self.obs.event("master", "data.read",
                               sim=self.clock.cycles, address=address)
            return self.sim.external_read(address)
        if op == "write":
            self.data_writes_served += 1
            if self.obs.enabled:
                self.obs.event("master", "data.write",
                               sim=self.clock.cycles, address=address)
            self.sim.external_write(address, value)
            return None
        raise SimulationError(f"bad DATA operation {op!r}")

    def _serve_pending_data(self, endpoint: Optional[MasterEndpoint] = None) -> int:
        """Drain queued DATA requests (threaded sessions); returns count.

        Requests are drained from the transport in batches and served in
        arrival order (a write must be visible to the read behind it).
        Multi-board sessions pass each board's *endpoint* in turn; the
        default serves the master's primary endpoint.
        """
        endpoint = endpoint or self.endpoint
        served = 0
        while True:
            batch = endpoint.poll_data_batch()
            if not batch:
                return served
            served += len(batch)
            for request in batch:
                if isinstance(request, DataRead):
                    self.data_reads_served += 1
                    if self.obs.enabled:
                        self.obs.event("master", "data.read",
                                       sim=self.clock.cycles,
                                       address=request.address)
                    value = self.sim.external_read(request.address)
                    endpoint.send_reply(request.seq, value)
                elif isinstance(request, DataWrite):
                    self.data_writes_served += 1
                    if self.obs.enabled:
                        self.obs.event("master", "data.write",
                                       sim=self.clock.cycles,
                                       address=request.address)
                    self.sim.external_write(request.address, request.value)
                else:  # pragma: no cover - endpoint type-checks already
                    raise ProtocolError(f"bad DATA request {request!r}")

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def run_cycles(self, cycles: int) -> int:
        """Advance the hardware simulation by *cycles* clock cycles.

        The only way the master advances hardware time: stretches where
        the tick-rate clock is the sole live activity are applied in
        closed form (see
        :meth:`~repro.simkernel.kernel.Simulator.run_until_leaping`).
        Returns the number of clock edges applied analytically.
        """
        return self.sim.run_until_leaping(
            self.sim.now + cycles * self.clock.period,
            clocks=(self.clock,),
        )

    def run_window_inproc(self, ticks: int) -> None:
        """Deterministic sessions: grant, then simulate the window.

        The caller (the session) afterwards steps the board and collects
        the time report through :meth:`finish_window_inproc`.
        """
        self.fsm.step("send_grant")
        grant = self.protocol.make_grant(ticks)
        if self.obs.enabled:
            self.obs.event("transport", "grant.send",
                           sim=self.clock.cycles, seq=grant.seq,
                           ticks=ticks)
        self.endpoint.send_grant(grant)
        self._run_cycles_traced(ticks)
        self.fsm.step("window_simulated")

    def finish_window_inproc(self, report: TimeReport) -> None:
        if self.obs.enabled:
            self.obs.event("transport", "report.recv",
                           sim=self.clock.cycles, seq=report.seq,
                           board_ticks=report.board_ticks)
        self.protocol.check_report(report, self.clock.cycles)
        self.fsm.step("recv_report")

    def _run_cycles_traced(self, ticks: int) -> None:
        """One window's worth of hardware simulation, under a
        ``master.simulate`` span when tracing is on."""
        if not self.obs.enabled:
            self.run_cycles(ticks)
            return
        deltas = self.sim.delta_count
        runs = self.sim.process_runs
        token = self.obs.begin("master", "simulate",
                               sim=self.clock.cycles, ticks=ticks)
        try:
            self.run_cycles(ticks)
        finally:
            self.obs.end(token, sim=self.clock.cycles,
                         deltas=self.sim.delta_count - deltas,
                         process_runs=self.sim.process_runs - runs)

    def run_window_inproc_reactive(self, max_ticks: int) -> int:
        """Simulate up to *max_ticks* cycles, stopping at the first
        interrupt edge, then grant exactly the cycles simulated.

        In-process sessions simulate the master's half of a window
        before the board consumes it, so the grant can legally be sized
        *after* the fact.  Ending the window at the first sign of
        device activity lets the board react within one cycle of the
        event while quiet stretches still cost a single exchange — the
        mechanism behind :class:`repro.cosim.adaptive`.
        """
        start = self.clock.cycles
        token = None
        if self.obs.enabled:
            token = self.obs.begin("master", "simulate", sim=start,
                                   max_ticks=max_ticks, reactive=1)
        try:
            self._stop_on_activity = True
            try:
                self.run_cycles(max_ticks)
            finally:
                self._stop_on_activity = False
            ticks = self.clock.cycles - start
            if ticks == 0:
                # An event fired in the settle phase before any clock
                # edge; the minimum legal grant is one tick.
                self.run_cycles(1)
                ticks = self.clock.cycles - start
        finally:
            if token is not None:
                self.obs.end(token, sim=self.clock.cycles)
        # Reactive windows simulate first and size the grant after the
        # fact, so both phase changes land at the send.
        self.fsm.step("send_grant")
        grant = self.protocol.make_grant(ticks)
        if self.obs.enabled:
            self.obs.event("transport", "grant.send", sim=self.clock.cycles,
                           seq=grant.seq, ticks=ticks)
        self.endpoint.send_grant(grant)
        self.fsm.step("window_simulated")
        return ticks

    def run_window_threaded(self, ticks: int) -> None:
        """Threaded sessions: grant, simulate in strides while
        servicing the DATA port, then block for the time report."""
        self.fsm.step("send_grant")
        grant = self.protocol.make_grant(ticks)
        obs = self.obs
        if obs.enabled:
            obs.event("transport", "grant.send", sim=self.clock.cycles,
                      seq=grant.seq, ticks=ticks)
        self.endpoint.send_grant(grant)
        sim_token = None
        if obs.enabled:
            deltas = self.sim.delta_count
            runs = self.sim.process_runs
            sim_token = obs.begin("master", "simulate",
                                  sim=self.clock.cycles, ticks=ticks)
        try:
            # Poll the DATA port every cycle only while the board is
            # actually talking; on quiet cycles the stride between
            # polls doubles (up to the configured cap) so long silent
            # stretches cost one Python iteration per stride rather
            # than one per cycle.  Wall-clock only — simulated timing
            # of the window is identical either way.
            stride_max = self.config.data_poll_stride_max
            stride = 1
            remaining = ticks
            while remaining > 0:
                if self._serve_pending_data():
                    stride = 1
                elif stride < stride_max:
                    stride = min(stride * 2, stride_max)
                step = min(stride, remaining)
                self.run_cycles(step)
                remaining -= step
        finally:
            if sim_token is not None:
                obs.end(sim_token, sim=self.clock.cycles,
                        deltas=self.sim.delta_count - deltas,
                        process_runs=self.sim.process_runs - runs)
        self.fsm.step("window_simulated")
        wait_token = None
        if obs.enabled:
            wait_token = obs.begin("transport", "report_wait",
                                   sim=self.clock.cycles, seq=grant.seq)
        polls = 0
        timeout_s = self.config.report_timeout_s
        poll_s = self.config.report_poll_s
        poll_max_s = self.config.report_poll_max_s
        # The deadline bounds *silence*, not total window duration: a
        # slow board that keeps issuing DATA requests is alive, so each
        # sign of progress pushes the deadline out again.
        deadline = time.monotonic() + timeout_s
        try:
            while True:
                if self._serve_pending_data():
                    deadline = time.monotonic() + timeout_s
                    poll_s = self.config.report_poll_s
                polls += 1
                try:
                    report = self.endpoint.recv_report(timeout=poll_s)
                except TransportError as exc:
                    # A resilient endpoint only raises once its
                    # reconnect / liveness budget is spent; that is a
                    # protocol death.
                    raise ProtocolError(
                        f"link failed while waiting for report of grant "
                        f"seq {grant.seq}: {exc}"
                    ) from exc
                if report is not None:
                    break
                poll_s = min(poll_s * 2, poll_max_s)
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        f"no time report for grant seq {grant.seq} "
                        f"within {timeout_s}s of the last sign of life"
                    )
        finally:
            if wait_token is not None:
                obs.end(wait_token, sim=self.clock.cycles, polls=polls)
        self.protocol.check_report(report, self.clock.cycles)
        self.fsm.step("recv_report")


def build_driver_sim(name: str = "cosim_hw",
                     clock_period_ps: Optional[int] = None,
                     config: Optional[CosimConfig] = None):
    """Convenience: a fresh DriverSimulator plus its tick-rate clock."""
    cfg = config or CosimConfig()
    period = clock_period_ps or cfg.clock_period_ps
    sim = DriverSimulator(name)
    clock = Clock(sim, f"{name}.clk", period=period, start_time=period)
    return sim, clock
