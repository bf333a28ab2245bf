"""Optimistic synchronization: speculate past ``T_sync``, roll back on
conflict (ROADMAP item 3, Time-Warp style).

The paper's protocol is strictly conservative — board and simulator
lock-step at every ``T_sync``, so idle-heavy workloads pay the full
synchronization cost for windows in which no interrupt ever lands.
:class:`OptimisticSession` decouples the two sides the way CHESSY does:

* **Speculate** — the board runs up to ``config.speculation_depth``
  windows ahead of the simulator, assuming no interrupt will land in
  them.  A lightweight in-memory checkpoint (plain-data state tree, no
  disk) of the *board side* is taken at each speculative window
  boundary.  Only windows the board would execute as *pure idle time*
  are eligible (see :meth:`OptimisticSession._board_quiescent`): board
  threads are Python generators whose frames advance irreversibly, so
  a window in which any thread would run cannot be discarded by a
  plain-data restore.  Idle windows advance nothing but counters —
  frame-exactly rewindable — and they are precisely the windows where
  conservative lock-step wastes its synchronization cost.
* **Catch up** — the master then simulates the same windows through
  its shared :meth:`~repro.cosim.master.CosimMaster.run_cycles`, whose
  analytic clock leap makes quiet stretches cost arithmetic instead of
  per-edge event churn, exactly as in a conservative window.
* **Validate** — per window, the speculatively-assumed schedule (no
  interrupts, no DATA) is diffed against what the simulation actually
  produced.  A clean window **commits**: the stashed time report is
  checked with the stock alignment invariants and the boundary is
  reported to the trace/checkpointer exactly as a conservative window
  would be.  A dirty window is a **conflict**: the board is rolled back
  to the last pre-conflict checkpoint and the window is replayed
  conservatively against the now-correct master, after which the
  session resumes speculating.

Conflict definition (either condition):

1. the master simulation emitted at least one interrupt inside the
   window — the board speculated it as idle, so the wake it would have
   caused is missing and its timing is wrong;
2. the board issued DATA traffic inside the *speculative* window — it
   read or wrote master state that was up to ``depth`` windows stale
   (writes additionally pollute the live model, which is why the
   master side is restored from its round-start snapshot before the
   catch-up pass).  With the quiescence probe in front, no thread runs
   during speculation and this is a defensive backstop rather than an
   expected path.

Equivalence: at every committed boundary the session state is
bit-identical to the conservative :class:`InprocSession` — same trace
rows, same snapshot digests, same tick accounting — which the difftest
``optimistic`` backend proves against ``inproc`` on every fuzz case.

Speculation is disabled (the session degrades to the conservative
loop) when a ``done()`` probe is supplied, since probing live state
between windows is incompatible with the board running ahead; it is
*refused* outright in combination with the window memo or a fault
injector, both of which hold state outside the snapshot tree that a
rollback could not rewind (lint rule COSIM005).
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.cosim.metrics import CosimMetrics
from repro.cosim.session import DoneFn, InprocSession
from repro.errors import ProtocolError
from repro.transport.faults import FaultyBoardEndpoint
from repro.transport.messages import ClockGrant


class OptimisticSession(InprocSession):
    """In-process session that lets the board speculate ahead.

    Construction is identical to :class:`InprocSession`; the behaviour
    switch is ``config.speculation_depth`` (0 = conservative).
    """

    # Composed boundary state served while reporting a committed
    # speculative window whose live board has already run ahead; the
    # checkpointer reads it through the snapshot() override.
    _boundary_state = None

    # ------------------------------------------------------------------
    # Checkpoint interface
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        if self._boundary_state is not None:
            return self._boundary_state
        return super().snapshot()

    def attach_memo(self, memo) -> None:
        if self.config.speculation_depth > 0:
            raise ProtocolError(
                "cannot attach a window memo to an OptimisticSession "
                f"(speculation_depth={self.config.speculation_depth}): "
                "memo and speculation both skip re-execution, and a "
                "memo hit at a speculative boundary would be rolled "
                "back as if it had been simulated"
            )
        super().attach_memo(memo)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None,
            done: Optional[DoneFn] = None,
            max_windows: Optional[int] = None) -> CosimMetrics:
        if self.config.speculation_depth < 1 or done is not None:
            # A done() probe inspects live state between windows, which
            # is meaningless while the board runs ahead — degrade to
            # the conservative loop (correct, merely not speculative).
            return super().run(max_cycles=max_cycles, done=done,
                               max_windows=max_windows)
        if self.memo is not None:
            raise ProtocolError(
                "cannot speculate with a window memo attached (see "
                "attach_memo); detach the memo or set "
                "speculation_depth=0"
            )
        self._refuse_fault_injection()
        if max_cycles is None and max_windows is None:
            raise ProtocolError(
                "need max_cycles, max_windows, and/or a done() condition"
            )
        metrics = self._new_metrics()
        while self._should_continue(metrics.windows, None, max_cycles,
                                    max_windows):
            self._run_round(metrics, max_cycles, max_windows)
        return self._finalize(metrics)

    def _refuse_fault_injection(self) -> None:
        endpoint = self.runtime.endpoint
        while endpoint is not None:
            if isinstance(endpoint, FaultyBoardEndpoint):
                raise ProtocolError(
                    "cannot speculate across a fault-injected link: "
                    "the fault plan's drop/corruption schedule lives "
                    "outside the session snapshot, so a rollback "
                    "would not rewind it"
                )
            endpoint = getattr(endpoint, "inner", None)

    # ------------------------------------------------------------------
    # Quiescence probe
    # ------------------------------------------------------------------
    def _board_quiescent(self, horizon_ticks: int) -> bool:
        """Would the board run the next *horizon_ticks* as pure idle?

        A window is speculation-eligible only when, under the
        no-interrupt assumption, the board would advance nothing but
        time and idle counters: no runnable thread, no pending or
        scheduled interrupt work, no undelivered INT packet on the
        link, and no alarm (sleeps, sync timeouts, application alarms
        all route through the alarm queue) due inside the window.  Such
        windows are frame-safe to discard — blocked generator frames
        stay frozen — so a plain-data rollback is exact.  Anything
        livelier runs conservatively instead.
        """
        endpoint = self.runtime.endpoint
        pending = getattr(endpoint, "pending_interrupts", None)
        if pending is None or pending():
            # No probe, no speculation.  A wrapped endpoint that does
            # not forward pending_interrupts() (e.g. a recording
            # wrapper) degrades the session to conservative windows —
            # which is also what keeps recorded grant streams
            # replayable: no speculative or re-sent grants are logged.
            return False
        kernel = self.runtime.board.kernel
        if kernel.current is not None:
            return False
        if kernel.scheduler.has_runnable():
            return False
        if kernel._external_irqs or kernel.interrupts.has_work(kernel.cycles):
            return False
        if kernel.interrupts.next_scheduled_cycle() is not None:
            return False
        alarm_tick = kernel._alarm_queue.next_tick()
        if (alarm_tick is not None
                and alarm_tick <= kernel.sw_ticks + horizon_ticks):
            return False
        return True

    # ------------------------------------------------------------------
    # One speculative round
    # ------------------------------------------------------------------
    def _plan_round(self, metrics: CosimMetrics,
                    max_cycles: Optional[int],
                    max_windows: Optional[int]) -> list:
        """Window sizes for the next round, clamped to every budget.

        The master clock has not moved yet, so the per-window clamp
        against ``max_cycles`` is computed on projected cycles — the
        resulting grant sizes are exactly the ones the conservative
        loop would issue one at a time.
        """
        budget = self.config.speculation_depth
        if max_windows is not None:
            budget = min(budget, max_windows - self.windows_completed)
        budget = min(budget, self.config.max_windows - metrics.windows)
        plan = []
        projected = self.master.clock.cycles
        for _ in range(budget):
            if max_cycles is not None and projected >= max_cycles:
                break
            ticks = self.config.t_sync
            if max_cycles is not None:
                ticks = min(ticks, max_cycles - projected)
            plan.append(ticks)
            projected += ticks
        return plan

    def _run_round(self, metrics: CosimMetrics,
                   max_cycles: Optional[int],
                   max_windows: Optional[int]) -> None:
        master = self.master
        runtime = self.runtime
        stats = self.link_stats
        plan = self._plan_round(metrics, max_cycles, max_windows)
        if not plan or not self._board_quiescent(plan[0]):
            # The board has live work — a busy window is not frame-safe
            # to discard, so it runs the exact conservative path.
            self._run_conservative_window(metrics, max_cycles)
            return

        # -- speculate -------------------------------------------------
        # The master's books (protocol seq / ticks_granted) stay at the
        # committed boundary throughout speculation: grants are crafted
        # with future sequence numbers here and entered into
        # MasterProtocol only when their window is actually simulated,
        # so the stock check_report() validates every commit.
        seq0 = master.protocol.seq
        master_pre = copy.deepcopy({
            "master": master.snapshot(),
            "extra": self._extra_snapshot("master"),
        })
        checkpoints = []
        stash = []
        poisoned_from = None
        for k, ticks in enumerate(plan, start=1):
            if k > 1 and not self._board_quiescent(ticks):
                # The board went live mid-round (an alarm due in this
                # window, say) — truncate; windows past k-1 wait for
                # the next round.
                break
            # Board-side checkpoint at the pre-window boundary; C_k+1,
            # taken after window k completed, doubles as the committed
            # boundary-k state for the checkpointer.
            checkpoints.append(copy.deepcopy({
                "board_runtime": runtime.snapshot(),
                "link": stats.snapshot(),
                "extra": self._extra_snapshot("board"),
            }))
            master.fsm.step("spec_grant")
            grant = ClockGrant(seq=seq0 + k, ticks=ticks)
            if self.obs.enabled:
                self.obs.event("transport", "grant.send",
                               sim=master.clock.cycles, seq=grant.seq,
                               ticks=ticks, speculative=1)
            data_before = stats.data_messages
            token = None
            if self.obs.enabled:
                token = self.obs.begin("spec", "window",
                                       sim=master.clock.cycles,
                                       index=self.windows_completed + k - 1,
                                       ticks=ticks, depth=k)
            try:
                master.endpoint.send_grant(grant)
                runtime.serve_window()
                report = master.endpoint.recv_report()
            finally:
                if token is not None:
                    self.obs.end(token, sim=master.clock.cycles)
            if report is None:
                raise ProtocolError("board produced no time report")
            master.fsm.step("recv_spec_report")
            data_delta = stats.data_messages - data_before
            stash.append((grant, report, ticks))
            self.windows_speculated += 1
            if data_delta:
                # The board touched master state up to k windows stale;
                # stop speculating — window k replays after catch-up.
                poisoned_from = k
                break
        spec_end_link = stats.snapshot()

        if poisoned_from is not None:
            # Un-pollute the master half: speculative DATA traffic was
            # served against the live model (reads bumped counters,
            # writes mutated state and may even have tripped the IRQ
            # line).  The FSM phase tracks the handshake, not model
            # state, and survives the restore.
            phase = master.fsm.state
            master.restore(master_pre["master"])
            master.fsm.state = phase
            self._extra_restore(master_pre["extra"])
            # Drop IRQ packets raised by speculative writes: they carry
            # pre-catch-up cycle stamps; the catch-up pass regenerates
            # the real schedule.
            while runtime.endpoint.poll_interrupt() is not None:
                pass

        # -- catch up and validate ------------------------------------
        master.fsm.step("begin_catchup")
        for k, (grant, report, ticks) in enumerate(stash, start=1):
            ints_before = master.interrupts_sent
            made = master.protocol.make_grant(ticks)
            if made.seq != grant.seq:  # pragma: no cover - internal
                raise ProtocolError(
                    f"speculative grant seq drifted: sent {grant.seq}, "
                    f"booked {made.seq}"
                )
            self._catchup_simulate(ticks)
            master.fsm.step("catchup_simulated")
            actual_ints = master.interrupts_sent - ints_before
            if actual_ints == 0 and k != poisoned_from:
                master.fsm.step("commit_window")
                # Alignment invariants exactly as finish_window_inproc:
                # the books and the clock are both at boundary k.
                master.protocol.check_report(report, master.clock.cycles)
                metrics.windows += 1
                metrics.sync_exchanges += 1
                boundary = checkpoints[k] if k < len(stash) else None
                self._commit_boundary(ticks, boundary)
            else:
                self._rollback_replay(metrics, k, len(stash), grant,
                                      ticks, checkpoints[k - 1],
                                      spec_end_link, ints_before)
                break
        master.fsm.step("round_done")

    def _run_conservative_window(self, metrics: CosimMetrics,
                                 max_cycles: Optional[int]) -> None:
        """One plain InprocSession window (round too short to overlap)."""
        ticks = self._window_ticks(max_cycles)
        ints_before = self.master.interrupts_sent
        data_before = self.link_stats.data_messages
        token = None
        if self.obs.enabled:
            token = self.obs.begin("session", "window",
                                   sim=self.master.clock.cycles,
                                   index=self.windows_completed,
                                   ticks=ticks)
        try:
            self.master.run_window_inproc(ticks)
            self.runtime.serve_window()
            report = self.master.endpoint.recv_report()
            if report is None:
                raise ProtocolError("board produced no time report")
            self.master.finish_window_inproc(report)
        finally:
            if token is not None:
                self.obs.end(token, sim=self.master.clock.cycles)
        metrics.windows += 1
        metrics.sync_exchanges += 1
        self._after_window(ticks, ints_before, data_before)

    # ------------------------------------------------------------------
    # Catch-up, commit, rollback
    # ------------------------------------------------------------------
    def _catchup_simulate(self, ticks: int) -> int:
        """Master's half of one speculated window."""
        master = self.master
        if not self.obs.enabled:
            return master.run_cycles(ticks)
        deltas = master.sim.delta_count
        runs = master.sim.process_runs
        leapt = 0
        token = self.obs.begin("master", "simulate",
                               sim=master.clock.cycles, ticks=ticks,
                               catchup=1)
        try:
            leapt = master.run_cycles(ticks)
        finally:
            self.obs.end(token, sim=master.clock.cycles,
                         deltas=master.sim.delta_count - deltas,
                         process_runs=master.sim.process_runs - runs,
                         leapt=leapt)
        return leapt

    def _commit_boundary(self, ticks: int, boundary: Optional[dict]) -> None:
        """Report a committed window to the trace and checkpointer.

        The live board has already run ahead, so for every committed
        window but the round's last the boundary-k board state comes
        from checkpoint C_{k+1}; the master half is live and exact.
        Committed windows carry no interrupts and no DATA by
        definition, and board ticks equal granted ticks by the
        alignment invariant just checked.
        """
        self.windows_completed += 1
        if self.trace is not None:
            self.trace.record(
                ticks=ticks,
                master_cycles=self.master.clock.cycles,
                board_ticks=self.master.protocol.ticks_granted,
                interrupts=0,
                data_messages=0,
            )
        if self.checkpointer is None:
            return
        if boundary is not None:
            extra = {}
            for name in sorted(self.snapshotables):
                if self.snapshotable_sides.get(name, "master") == "board":
                    extra[name] = boundary["extra"][name]
                else:
                    extra[name] = self.snapshotables[name].snapshot()
            self._boundary_state = {
                "master": self.master.snapshot(),
                "board_runtime": boundary["board_runtime"],
                "link": boundary["link"],
                "extra": extra,
            }
        try:
            if self.obs.enabled:
                taken = self.checkpoints_taken
                token = self.obs.begin("session", "checkpoint",
                                       sim=self.master.clock.cycles,
                                       window=self.windows_completed)
                try:
                    self.checkpointer.on_window(self)
                finally:
                    self.obs.end(token, sim=self.master.clock.cycles,
                                 taken=self.checkpoints_taken - taken)
            else:
                self.checkpointer.on_window(self)
        finally:
            self._boundary_state = None

    def _rollback_replay(self, metrics: CosimMetrics, k: int,
                         spec_count: int, grant: ClockGrant, ticks: int,
                         checkpoint: dict, spec_end_link: dict,
                         ints_before: int) -> None:
        """Conflict at speculated window *k*: roll the board back to the
        pre-window checkpoint and replay the window conservatively
        against the caught-up master, discarding windows k..end of the
        round."""
        master = self.master
        runtime = self.runtime
        stats = self.link_stats
        depth = spec_count - (k - 1)
        self.rollbacks += 1
        self.rollback_depth_max = max(self.rollback_depth_max, depth)
        token = None
        if self.obs.enabled:
            token = self.obs.begin("spec", "rollback",
                                   sim=master.clock.cycles,
                                   window=self.windows_completed,
                                   depth=depth)
        try:
            master.fsm.step("rollback")
            runtime.restore(copy.deepcopy(checkpoint["board_runtime"]))
            self._extra_restore(copy.deepcopy(checkpoint["extra"]))
            # Rewind the link counters arithmetically: subtract what the
            # discarded speculative windows accounted (their grants,
            # reports and DATA), keeping what the catch-up pass added
            # since — the very INT packets that exposed this conflict.
            base = checkpoint["link"]
            for name in type(stats).FIELDS:
                delta = spec_end_link[name] - base[name]
                setattr(stats, name, getattr(stats, name) - delta)
            # Conservative replay: the master already simulated the
            # window (that is how the conflict surfaced); re-deliver the
            # grant and let the board consume the real schedule.
            data_before = stats.data_messages
            if self.obs.enabled:
                self.obs.event("transport", "grant.send",
                               sim=master.clock.cycles, seq=grant.seq,
                               ticks=ticks, replay=1)
            master.endpoint.send_grant(grant)
            runtime.serve_window()
            report = master.endpoint.recv_report()
            if report is None:
                raise ProtocolError("board produced no time report")
            if self.obs.enabled:
                self.obs.event("transport", "report.recv",
                               sim=master.clock.cycles, seq=report.seq,
                               board_ticks=report.board_ticks)
            master.protocol.check_report(report, master.clock.cycles)
            master.fsm.step("recv_spec_report")
            metrics.windows += 1
            metrics.sync_exchanges += 1
            self._after_window(ticks, ints_before, data_before)
        finally:
            if token is not None:
                self.obs.end(token, sim=master.clock.cycles)

    # ------------------------------------------------------------------
    # Side-tagged extra snapshotables
    # ------------------------------------------------------------------
    def _extra_snapshot(self, side: str) -> dict:
        return {name: obj.snapshot()
                for name, obj in sorted(self.snapshotables.items())
                if self.snapshotable_sides.get(name, "master") == side}

    def _extra_restore(self, tree: dict) -> None:
        for name, state in tree.items():
            self.snapshotables[name].restore(state)
