"""Execute one fuzz spec through one backend.

A *backend* is a complete way of running the spec's workload: a
transport + session flavour for co-simulation scenarios, or a timing
model for ISS scenarios.  Each run is summarized as a
:class:`RunOutcome` — trace rows, tick counters, workload statistics
and a state digest — which is all the oracle layer ever looks at.

Backends are deliberately built fresh per run: fault plans are consumed
as they fire, and sharing hardware models across runs would let state
leak between fuzz cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.board.memory import Memory
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    MultiBoardInprocSession,
    MultiBoardThreadedSession,
    ProtocolTrace,
    build_driver_sim,
)
from repro.devices import AcceleratorDriver, ChecksumAccelerator
from repro.difftest.progbuilder import build_program
from repro.difftest.workload import FuzzSpec
from repro.errors import ReproError
from repro.iss import NUM_REGS, IssCpu, TimingModel
from repro.replay import (
    SessionRecording,
    board_state_summary,
    find_divergence,
)
from repro.replay.snapshot import state_digest
from repro.router.checksum import checksum16
from repro.router.testbench import (
    build_router_cosim,
    finalize_router_recording,
    replay_router_recording,
)
from repro.rtos.kernel import IDLE
from repro.transport.inproc import InprocLink
from repro.transport.queues import QueueLink

#: Backends per scenario; the first entry is the reference backend.
SCENARIO_BACKENDS: Dict[str, List[str]] = {
    "router": ["inproc", "edge", "rerun", "replay", "memo", "optimistic",
               "fmu", "queue", "tcp"],
    "iss": ["iss-default", "iss-unit"],
    "adaptive": ["adaptive", "adaptive-rerun"],
    "multiboard": ["multi-inproc", "multi-threaded"],
}

#: Backends excluded unless explicitly requested (slow: real sockets).
OPTIONAL_BACKENDS = {"tcp"}


def scenario_backends(scenario: str,
                      requested: Optional[List[str]] = None) -> List[str]:
    """The backends to run for *scenario*, honouring an explicit list.

    With *requested*, keeps its order but drops names the scenario does
    not support; the scenario's reference backend is always included.
    Without it, returns the default set minus :data:`OPTIONAL_BACKENDS`.
    """
    known = SCENARIO_BACKENDS[scenario]
    if requested is None:
        return [b for b in known if b not in OPTIONAL_BACKENDS]
    picked = [b for b in known if b in requested]
    if known[0] not in picked:
        picked.insert(0, known[0])
    return picked


@dataclass
class RunOutcome:
    """Everything the oracles inspect about one backend run."""

    backend: str
    ok: bool = True
    error: Optional[str] = None
    windows: int = 0
    master_cycles: int = 0
    board_ticks: int = 0
    state_switches: int = 0
    #: None when the backend has no master-side alignment to check.
    aligned: Optional[bool] = None
    #: ``WindowRecord.as_row()`` rows.
    trace_rows: List[List[int]] = field(default_factory=list)
    #: Workload statistics snapshot (router scenarios).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Digest of the final state tree; comparable only between
    #: *deterministic* outcomes.
    digest: Optional[str] = None
    #: Bit-determinism holds: same spec => same digest and trace.
    deterministic: bool = False
    #: Non-final windows must be exactly ``spec.t_sync`` ticks.
    fixed_windows: bool = True
    #: The message-stream recording (reference backend only).
    recording: Optional[SessionRecording] = None
    #: Scenario-specific extras (freeze violations, per-board ticks...).
    extra: Dict[str, Any] = field(default_factory=dict)


def run_backend(spec: FuzzSpec, backend: str,
                recording: Optional[SessionRecording] = None) -> RunOutcome:
    """Run *spec* through *backend*; never raises on workload failure.

    The ``replay`` backend consumes the *recording* produced by the
    reference ``inproc`` run.  Exceptions inside the run are captured
    on the outcome (``ok=False``) so a crash in one backend is itself
    a finding rather than an abort of the whole fuzz loop.
    """
    try:
        if backend in ("inproc", "edge", "rerun", "memo", "optimistic",
                       "queue", "tcp"):
            return _run_router(spec, backend)
        if backend == "replay":
            return _run_replay(spec, recording)
        if backend == "fmu":
            return _run_fmu(spec)
        if backend in ("iss-default", "iss-unit"):
            return _run_iss(spec, backend)
        if backend in ("adaptive", "adaptive-rerun"):
            return _run_adaptive(spec, backend)
        if backend in ("multi-inproc", "multi-threaded"):
            return _run_multiboard(spec, backend)
        raise ReproError(f"unknown difftest backend {backend!r}")
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return RunOutcome(backend=backend, ok=False,
                          error=f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Router scenario
# ----------------------------------------------------------------------
def _run_router(spec: FuzzSpec, backend: str) -> RunOutcome:
    mode = ("inproc" if backend in ("inproc", "edge", "rerun", "memo",
                                    "optimistic") else backend)
    # The memo backend exercises the real skip path on fault-free
    # specs: repeated windows are satisfied from the cache, and the
    # cross-backend oracles then hold the final digest and trace to
    # the reference run's — any normalization bug becomes a finding.
    # Fault plans carry hidden state outside the session snapshot
    # (drop schedules indexed by message count), which breaks the
    # memo's purity requirement — those specs run as a plain second
    # inproc execution instead.
    use_memo = backend == "memo" and spec.fault_plan() is None
    # The optimistic backend speculates with a spec-derived depth and
    # must land on bit-identical trace rows and digests — the oracles
    # are exactly the ≥2x-throughput claim's correctness half.  Fault
    # plans are hidden off-snapshot state a rollback cannot rewind
    # (OptimisticSession refuses the combination), so faulted specs run
    # as a plain second conservative execution instead, like memo.
    use_optimistic = (backend == "optimistic"
                      and spec.fault_plan() is None)
    # Deterministic flavours record: the finalized recording's trace
    # rows carry *board-visible* interrupt counts (a fault plan can
    # drop packets the master sent), which is the representation the
    # replay backend reconstructs — comparing raw live rows against a
    # replay would flag every dropped interrupt as a divergence.  A
    # memoized run cannot record (skipped windows exchange no
    # messages), but then it never runs under faults, so its live rows
    # equal the board-visible ones.  Only the reference ``inproc``
    # recording is handed onward to the replay backend.
    record = (backend in ("inproc", "edge", "rerun")
              or (backend == "memo" and not use_memo)
              or (backend == "optimistic" and not use_optimistic))
    recording = SessionRecording() if record else None
    config = spec.cosim_config()
    if use_optimistic:
        from dataclasses import replace

        config = replace(config,
                         speculation_depth=1 + spec.seed % 8)
    cosim = build_router_cosim(
        config, spec.router_workload(), mode=mode,
        fault_plan=spec.fault_plan(), recorder=recording)
    # The edge backend is the leap's oracle: the master kernel toggles
    # every clock edge, so any backend that leaps is diffed against a
    # run that never does.
    sim = cosim.master.sim
    if backend == "edge":
        sim.edge_by_edge = True
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    memo = None
    if use_memo:
        from repro.cosim.memo import WindowMemo

        memo = WindowMemo()
        cosim.session.attach_memo(memo)
    # Fixed cycle budget, no drain condition: every backend covers the
    # exact same window schedule, which the cross-backend oracles need.
    metrics = cosim.run(max_cycles=spec.max_cycles, await_drain=False)
    if record:
        finalize_router_recording(recording, cosim, metrics)
    outcome = RunOutcome(
        backend=backend,
        windows=metrics.windows,
        master_cycles=metrics.master_cycles,
        board_ticks=metrics.board_ticks,
        state_switches=metrics.state_switches,
        aligned=(metrics.master_cycles
                 == cosim.runtime.board.kernel.sw_ticks),
        trace_rows=(list(recording.trace_rows) if record
                    else [r.as_row() for r in trace.records]),
        stats=cosim.stats.snapshot(),
        deterministic=(mode == "inproc"),
        recording=recording if backend == "inproc" else None,
    )
    if memo is not None:
        outcome.extra["memo_hits"] = memo.hits
        outcome.extra["memo_misses"] = memo.misses
    if use_optimistic:
        outcome.extra["speculation_depth"] = config.speculation_depth
        outcome.extra["windows_speculated"] = metrics.windows_speculated
        outcome.extra["rollbacks"] = metrics.rollbacks
        outcome.extra["rollback_depth_max"] = metrics.rollback_depth_max
    if mode == "inproc":
        outcome.digest = state_digest({
            "board": board_state_summary(cosim.runtime.board),
            "stats": cosim.stats.snapshot(),
        })
    if backend in ("inproc", "edge", "rerun"):
        outcome.extra["kernel_digest"] = state_digest(sim.snapshot())
    if backend == "edge" and sim.edges_leapt:
        raise ReproError(
            f"edge backend leapt {sim.edges_leapt} clock edges")
    return outcome


def _run_fmu(spec: FuzzSpec) -> RunOutcome:
    """Run the spec with the behavioral-router plugin mounted through
    the FMI-style boundary (:mod:`repro.fmi`).

    The plugin is a clean-room behavioral model of the router netlist;
    holding its digest and trace rows to the ``inproc`` reference run's
    convicts either a boundary bug (adapter, clock domain crossing,
    DATA forwarding) or a divergence between the two models.  The run
    always records so faulted specs compare board-visible rows, same as
    the deterministic netlist flavours.
    """
    from repro.fmi import build_fmu_router_cosim

    recording = SessionRecording()
    cosim = build_fmu_router_cosim(
        spec.cosim_config(), spec.router_workload(),
        fault_plan=spec.fault_plan(), recorder=recording)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=spec.max_cycles, await_drain=False)
    finalize_router_recording(recording, cosim, metrics)
    stats = cosim.stats.snapshot()
    return RunOutcome(
        backend="fmu",
        windows=metrics.windows,
        master_cycles=metrics.master_cycles,
        board_ticks=metrics.board_ticks,
        state_switches=metrics.state_switches,
        aligned=(metrics.master_cycles
                 == cosim.runtime.board.kernel.sw_ticks),
        trace_rows=list(recording.trace_rows),
        stats=stats,
        digest=state_digest({
            "board": board_state_summary(cosim.runtime.board),
            "stats": stats,
        }),
        deterministic=True,
    )


def _run_replay(spec: FuzzSpec,
                recording: Optional[SessionRecording]) -> RunOutcome:
    if recording is None:
        return RunOutcome(backend="replay", ok=False,
                          error="no recording from the reference run")
    result = replay_router_recording(recording, strict=False,
                                     config=spec.cosim_config())
    report = find_divergence(recording, result)
    trace_rows = [r.as_row() for r in result.trace.records]
    master_cycles = trace_rows[-1][2] if trace_rows else 0
    return RunOutcome(
        backend="replay",
        windows=result.windows_replayed,
        master_cycles=master_cycles,
        board_ticks=result.board_summary["board_ticks"],
        state_switches=result.board_summary["state_switches"],
        trace_rows=trace_rows,
        deterministic=True,
        digest=state_digest({
            "board": result.board_summary,
            "stats": recording.final.get("stats", {}),
        }),
        extra={
            "divergence_clean": report.clean,
            "divergence": None if report.clean else report.describe(),
        },
    )


# ----------------------------------------------------------------------
# ISS scenario
# ----------------------------------------------------------------------
#: Memory span digested after an ISS run (the scratch data area).
_ISS_DIGEST_SPAN = (0x200, 0x280)


def _run_iss(spec: FuzzSpec, backend: str) -> RunOutcome:
    generated = build_program(spec.seed, num_fragments=spec.fragments)
    if backend == "iss-unit":
        timing = TimingModel(
            cycles={op: 1 for op in TimingModel().cycles},
            branch_taken_penalty=0,
        )
    else:
        timing = TimingModel()
    memory = Memory(64 * 1024)
    cpu = IssCpu(generated.program, memory, timing)
    cpu.run(max_instructions=1_000_000)
    registers = [cpu.read_reg(i) for i in range(NUM_REGS)]
    data = [memory.load(addr, 1)
            for addr in range(*_ISS_DIGEST_SPAN)]
    return RunOutcome(
        backend=backend,
        deterministic=True,
        # Architectural state only: cycle counts legitimately differ
        # between timing models, so they stay out of the digest.
        digest=state_digest({
            "registers": registers,
            "memory": data,
            "instructions": cpu.instructions_retired,
        }),
        extra={
            "instructions": cpu.instructions_retired,
            "cycles": cpu.cycles,
            "accumulator": cpu.read_reg(1),
            "fragments": generated.fragments,
        },
    )


# ----------------------------------------------------------------------
# Adaptive scenario
# ----------------------------------------------------------------------
def _run_adaptive(spec: FuzzSpec, backend: str) -> RunOutcome:
    policy = spec.adaptive_policy()
    cosim = build_router_cosim(
        spec.cosim_config(), spec.router_workload(), mode="inproc",
        adaptive=policy, fault_plan=spec.fault_plan())
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    kernel = cosim.runtime.board.kernel
    freeze_violations: List[int] = []
    boundaries = [0]

    def at_boundary() -> bool:
        # Runs between windows: Section 5.3's freeze invariant says the
        # RTOS must be parked in IDLE whenever the master holds time.
        boundaries[0] += 1
        if kernel.state != IDLE:
            freeze_violations.append(boundaries[0])
        return False

    # done() is probed at every window boundary and never terminates
    # the run, so the session runs the full fixed cycle budget while
    # the probe watches the freeze invariant live.
    metrics = cosim.session.run(max_cycles=spec.max_cycles,
                                done=at_boundary)
    controller = cosim.session.controller
    if kernel.state != IDLE:
        freeze_violations.append(metrics.windows)
    outcome = RunOutcome(
        backend=backend,
        windows=metrics.windows,
        master_cycles=metrics.master_cycles,
        board_ticks=metrics.board_ticks,
        state_switches=metrics.state_switches,
        aligned=metrics.master_cycles == kernel.sw_ticks,
        trace_rows=[r.as_row() for r in trace.records],
        stats=cosim.stats.snapshot(),
        deterministic=True,
        fixed_windows=False,
        digest=state_digest({
            "board": board_state_summary(cosim.runtime.board),
            "stats": cosim.stats.snapshot(),
            "controller": controller.snapshot(),
        }),
        extra={
            "freeze_violations": freeze_violations,
            "window_sizes": list(controller.trace),
            "policy_min": policy.min_t_sync,
            "policy_max": policy.max_t_sync,
        },
    )
    return outcome


# ----------------------------------------------------------------------
# Multi-board scenario
# ----------------------------------------------------------------------
_ACCEL_BASE = 0x10
_ACCEL_VECTOR = 2


def _run_multiboard(spec: FuzzSpec, backend: str) -> RunOutcome:
    from repro.board import Board

    threaded = backend == "multi-threaded"
    config = spec.cosim_config()
    sim, clock = build_driver_sim("difftest_multi", config=config)
    accel = ChecksumAccelerator(sim, "accel", clock)
    accel.map_registers(sim, _ACCEL_BASE)

    links = [QueueLink() if threaded else InprocLink()
             for _ in range(spec.num_boards)]
    master = CosimMaster(sim, clock, links[0].master, config)
    master.bind_interrupt(_ACCEL_VECTOR, accel.done_irq,
                          endpoint=links[0].master)
    if not threaded:
        for link in links:
            link.install_data_server(master.serve_data)

    slots = []
    boards = []
    for index, link in enumerate(links):
        board = Board(name=f"board_{index}")
        boards.append(board)
        slots.append(BoardSlot(
            f"b{index}", link,
            CosimBoardRuntime(board, link.board, config)))
    data = spec.payload_bytes()
    results: Dict[str, int] = {}
    driver = AcceleratorDriver(boards[0].kernel, links[0].board,
                               config.latency, vector=_ACCEL_VECTOR,
                               base=_ACCEL_BASE)

    def app():
        value = yield from driver.checksum([data], wait_irq=True)
        results["csum"] = value

    boards[0].kernel.create_thread("fuzz_app", app, 10)
    session_cls = (MultiBoardThreadedSession if threaded
                   else MultiBoardInprocSession)
    session = session_cls(master, slots, config)
    metrics = session.run(max_cycles=spec.max_cycles)
    return RunOutcome(
        backend=backend,
        windows=metrics.windows,
        master_cycles=metrics.master_cycles,
        board_ticks=metrics.board_ticks,
        state_switches=metrics.state_switches,
        aligned=session.aligned(),
        deterministic=not threaded,
        digest=None if threaded else state_digest({
            "boards": [board_state_summary(b) for b in boards],
            "csum": results.get("csum"),
        }),
        extra={
            "board_ticks_each": [b.kernel.sw_ticks for b in boards],
            "csum": results.get("csum"),
            "expected_csum": checksum16(data),
        },
    )
