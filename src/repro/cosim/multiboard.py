"""Co-simulating several boards against one hardware model.

The paper targets one board, but its own lineage ([19, 20]: co-simulation
and emulation of multi-processor SoCs) begs the generalization: one
simulator masters the time of *N* embedded boards, each with its own
RTOS, driver stack and three-port link.  The virtual tick extends
naturally — every window, the master grants the same tick budget to all
boards and waits for all time reports, so

    master cycles == board_i ticks        for every i, at every exchange

which both sessions assert.  Boards interact with the shared hardware
through their own DATA ports (e.g. one board runs the checksum
application while another monitors the router's counters).

Two session flavours mirror the single-board ones:

* :class:`MultiBoardInprocSession` — boards interleaved deterministically
  in one thread over :class:`~repro.transport.inproc.InprocLink`s;
* :class:`MultiBoardThreadedSession` — each board runtime serves in its
  own OS thread behind a :class:`~repro.transport.queues.QueueLink` or a
  TCP link, with the master servicing every board's DATA port while it
  simulates.  Tick accounting is identical to the in-process session —
  the differential fuzzer (:mod:`repro.difftest`) checks exactly that.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.config import CosimConfig
from repro.cosim.master import CosimMaster
from repro.cosim.metrics import CosimMetrics
from repro.cosim.protocol import make_shutdown
from repro.cosim.session import DoneFn
from repro.errors import ProtocolError, TransportError
from repro.transport.channel import LinkStats


class BoardSlot:
    """One board's attachment to a multi-board session.

    For in-process and queue links pass the *link* object (anything with
    ``.master`` and ``.stats`` attributes).  For transports whose two
    endpoints are created separately (TCP), pass ``link=None`` plus
    explicit ``master_ep`` and ``stats``.
    """

    def __init__(self, name: str, link, runtime: CosimBoardRuntime,
                 master_ep=None, stats: Optional[LinkStats] = None) -> None:
        if link is None and (master_ep is None or stats is None):
            raise ProtocolError(
                f"board slot {name!r}: need a link, or master_ep + stats"
            )
        self.name = name
        self.link = link
        self.runtime = runtime
        self.master_ep = master_ep if master_ep is not None else link.master
        self.stats = stats if stats is not None else link.stats


class _MultiBoardBase:
    """Validation, report collection and metrics shared by both modes."""

    def __init__(self, master: CosimMaster, slots: Sequence[BoardSlot],
                 config: CosimConfig) -> None:
        if not slots:
            raise ProtocolError("a multi-board session needs boards")
        names = [slot.name for slot in slots]
        if len(set(names)) != len(names):
            raise ProtocolError(f"duplicate board names: {names}")
        self.master = master
        self.slots = list(slots)
        self.config = config

    # ------------------------------------------------------------------
    def _grant_all(self, ticks: int) -> None:
        # One grant per window fans out to every board: a single
        # send_grant phase change, however many slots receive it.
        self.master.fsm.step("send_grant")
        grant = self.master.protocol.make_grant(ticks)
        for slot in self.slots:
            slot.master_ep.send_grant(grant)

    def _check_report(self, slot: BoardSlot, report) -> None:
        self.master.protocol.check_report(report, self.master.clock.cycles)

    def _window_ticks(self, max_cycles: Optional[int]) -> int:
        ticks = self.config.t_sync
        if max_cycles is not None:
            ticks = min(ticks, max_cycles - self.master.clock.cycles)
        return ticks

    def _should_continue(self, windows: int, done: Optional[DoneFn],
                         max_cycles: Optional[int]) -> bool:
        if windows >= self.config.max_windows:
            raise ProtocolError(
                f"exceeded max_windows={self.config.max_windows}"
            )
        if done is not None and done():
            return False
        if max_cycles is not None \
                and self.master.clock.cycles >= max_cycles:
            return False
        return True

    def _finalize(self, metrics: CosimMetrics) -> CosimMetrics:
        metrics.master_cycles = self.master.clock.cycles
        metrics.board_ticks = self.slots[0].runtime.board.kernel.sw_ticks
        metrics.board_cycles = sum(
            slot.runtime.board.kernel.cycles for slot in self.slots
        )
        metrics.state_switches = sum(
            slot.runtime.board.kernel.state_switches for slot in self.slots
        )
        combined = LinkStats()
        for slot in self.slots:
            stats = slot.stats
            combined.messages_sent += stats.messages_sent
            combined.bytes_sent += stats.bytes_sent
            combined.clock_messages += stats.clock_messages
            combined.int_messages += stats.int_messages
            combined.data_messages += stats.data_messages
        metrics.absorb_link_stats(combined)
        metrics.finish_modeled(self.config.wall_cost)
        return metrics

    def aligned(self) -> bool:
        """Every board's tick counter equals the master's cycle count."""
        cycles = self.master.clock.cycles
        return all(slot.runtime.board.kernel.sw_ticks == cycles
                   for slot in self.slots)

    def close(self) -> None:
        """Release transport resources on every link."""
        for slot in self.slots:
            try:
                slot.master_ep.close()
            finally:
                slot.runtime.endpoint.close()


class MultiBoardInprocSession(_MultiBoardBase):
    """Deterministic session over one master and N boards.

    The master needs one *link endpoint per board* for grants and
    interrupts.  Construct with the shared master plus a list of
    :class:`BoardSlot`; the master's protocol object tracks the grant
    history once, and each board's protocol tracks its own sequence.

    Interrupt routing: the master binds each device's interrupt signal
    to a vector as usual, but sends the packet on *every* board's INT
    port; each board attaches ISRs only for the vectors it owns, and
    :meth:`CosimBoardRuntime.serve_window` schedules (and its kernel
    then ignores) only attached vectors — so give each board's devices
    distinct vectors.
    """

    def _serve_all(self) -> None:
        for slot in self.slots:
            slot.runtime.serve_window()

    def _collect_reports(self) -> None:
        exchanges_before = self.master.protocol.exchanges
        for slot in self.slots:
            report = slot.master_ep.recv_report()
            if report is None:
                raise ProtocolError(f"board {slot.name}: no time report")
            self._check_report(slot, report)
        # One logical exchange per window, however many boards answered.
        self.master.protocol.exchanges = exchanges_before + 1
        self.master.fsm.step("recv_report")

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None,
            done: Optional[DoneFn] = None) -> CosimMetrics:
        if max_cycles is None and done is None:
            raise ProtocolError("need max_cycles and/or a done() condition")
        metrics = CosimMetrics(t_sync=self.config.t_sync)
        while self._should_continue(metrics.windows, done, max_cycles):
            ticks = self._window_ticks(max_cycles)
            self._grant_all(ticks)
            self.master.run_cycles(ticks)
            self.master.fsm.step("window_simulated")
            self._serve_all()
            self._collect_reports()
            metrics.windows += 1
            metrics.sync_exchanges += len(self.slots)
        return self._finalize(metrics)


class MultiBoardThreadedSession(_MultiBoardBase):
    """N board runtimes in their own OS threads, one timed master.

    Every window the master grants the same tick budget on every CLOCK
    port, simulates its half in strides while draining each board's
    DATA port, then blocks until *all* boards report — so the alignment
    invariant ``master cycles == board_i ticks`` holds at every
    exchange, exactly as in the in-process session.  Works over any
    link whose board endpoint supports :meth:`serve_forever` blocking
    receives (queue or TCP).
    """

    def run(self, max_cycles: Optional[int] = None,
            done: Optional[DoneFn] = None) -> CosimMetrics:
        if max_cycles is None and done is None:
            raise ProtocolError("need max_cycles and/or a done() condition")
        metrics = CosimMetrics(t_sync=self.config.t_sync)
        threads = [
            threading.Thread(
                target=slot.runtime.serve_forever,
                kwargs={"grant_timeout_s": self.config.report_timeout_s},
                name=f"cosim-board-{slot.name}",
                daemon=True,
            )
            for slot in self.slots
        ]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        failed = True
        try:
            while self._should_continue(metrics.windows, done, max_cycles):
                ticks = self._window_ticks(max_cycles)
                self._grant_all(ticks)
                # Same adaptive poll stride as the single-board master.
                stride_max = self.config.data_poll_stride_max
                stride = 1
                remaining = ticks
                while remaining > 0:
                    if self._serve_all_data():
                        stride = 1
                    elif stride < stride_max:
                        stride = min(stride * 2, stride_max)
                    step = min(stride, remaining)
                    self.master.run_cycles(step)
                    remaining -= step
                self.master.fsm.step("window_simulated")
                self._collect_reports()
                metrics.windows += 1
                metrics.sync_exchanges += len(self.slots)
            failed = False
        finally:
            if not failed:
                # A mid-window failure leaves the FSM wherever the
                # error struck; only the clean path claims a legal
                # idle -> closed shutdown transition.
                self.master.fsm.step("send_shutdown")
            shutdown = make_shutdown(self.master.protocol.seq + 1)
            for slot in self.slots:
                try:
                    slot.master_ep.send_grant(shutdown)
                except TransportError:
                    # Dead link; the board thread hits its own timeout.
                    pass
            for thread in threads:
                thread.join(timeout=self.config.report_timeout_s)
            if failed or any(t.is_alive() for t in threads):
                try:
                    self.close()
                except Exception:
                    pass
        metrics.wall_seconds = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            for thread in threads:
                thread.join(timeout=1.0)
            if any(t.is_alive() for t in threads):
                raise ProtocolError("board runtime failed to shut down")
        return self._finalize(metrics)

    # ------------------------------------------------------------------
    def _serve_all_data(self) -> int:
        served = 0
        for slot in self.slots:
            served += self.master._serve_pending_data(slot.master_ep)
        return served

    def _collect_reports(self) -> None:
        exchanges_before = self.master.protocol.exchanges
        timeout_s = self.config.report_timeout_s
        poll_s = self.config.report_poll_s
        # As in the single-board master: the deadline bounds silence,
        # so any board's DATA traffic (or a report) refreshes it.
        deadline = time.monotonic() + timeout_s
        pending = list(self.slots)
        while pending:
            slot = pending[0]
            if self._serve_all_data():
                deadline = time.monotonic() + timeout_s
                poll_s = self.config.report_poll_s
            report = slot.master_ep.recv_report(timeout=poll_s)
            if report is not None:
                self._check_report(slot, report)
                pending.pop(0)
                deadline = time.monotonic() + timeout_s
                poll_s = self.config.report_poll_s
                continue
            poll_s = min(poll_s * 2, self.config.report_poll_max_s)
            if time.monotonic() > deadline:
                names = [s.name for s in pending]
                raise ProtocolError(
                    f"no time report from boards {names} within "
                    f"{timeout_s}s of the last sign of life"
                )
        self.master.protocol.exchanges = exchanges_before + 1
        self.master.fsm.step("recv_report")
