"""Command-line interface.

::

    repro run [--t-sync N] [--packets N] [--mode inproc|queue|tcp]
              [--adaptive]          # run the router case study
    repro explore [--t-sync-values ...]   # overhead/accuracy trade-off
    repro figures [--fast]                # regenerate Figs. 5-7 tables
    repro iss FILE.asm [--reg N=V ...]    # assemble + run + cycle stats
    repro lint [TARGET ...] [--format text|json]  # static analysis
    repro record OUT.json [...]           # record a run's message stream
    repro replay RECORDING.json [--bisect] [--trace FILE.csv]
    repro checkpoint --every N [--dir D] [--resume FILE.json]
    repro profile [router] [--format chrome|csv|text] [--out FILE]
                  [--sample N]            # traced run + span profile
    repro fuzz [--seed N] [--runs K] [--out DIR] [--jobs N]
                                          # differential fuzzing
    repro fmi check PLUGIN [--seed N] [--out FILE.json]
                                          # plugin conformance kit
    repro fmi list                        # registered FMI plugins
    repro bench [--full] [--out DIR]      # record the benchmark trajectory
    repro bench --compare OLD NEW         # diff two trajectory snapshots
    repro serve [--port N] [--workers N] [--results DIR]
                                          # multi-tenant co-simulation farm
    repro submit JOB.json [--wait]        # submit a job to a farm server
    repro jobs [--tenant T] [--follow]    # list / stream farm jobs

(Installed as the ``repro`` console script; also usable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import format_percent, format_table
    from repro.cosim import AdaptivePolicy, CosimConfig, ProtocolTrace
    from repro.router.testbench import RouterWorkload, build_router_cosim

    workload = RouterWorkload(
        packets_per_producer=max(1, args.packets // 4),
        interval_cycles=args.interval,
        corrupt_rate=args.corrupt_rate,
        buffer_capacity=args.buffer,
    )
    adaptive = None
    if args.adaptive:
        adaptive = AdaptivePolicy(
            min_t_sync=max(1, args.t_sync // 8),
            max_t_sync=args.t_sync * 8,
            initial_t_sync=args.t_sync,
        )
    cosim = build_router_cosim(CosimConfig(t_sync=args.t_sync), workload,
                               mode=args.mode, adaptive=adaptive)
    trace = None
    if args.trace:
        if args.mode != "inproc":
            print("--trace requires --mode inproc", file=sys.stderr)
            return 2
        trace = ProtocolTrace()
        cosim.session.attach_trace(trace)
    metrics = cosim.run()
    if trace is not None:
        trace.to_csv(args.trace)
        print(f"wrote {len(trace)} window records to {args.trace}")
    stats = cosim.stats
    print(metrics.summary())
    print(format_table(
        ["counter", "value"],
        [
            ["generated", stats.generated],
            ["forwarded", stats.forwarded],
            ["dropped (overflow)", stats.dropped_overflow],
            ["dropped (checksum)", stats.dropped_checksum],
            ["accuracy", format_percent(stats.handled_fraction())],
            ["mean latency [cycles]", f"{stats.mean_latency():.1f}"],
        ],
    ))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.analysis import find_optimal_t_sync, format_percent, format_table
    from repro.router.testbench import RouterWorkload

    workload = RouterWorkload(
        packets_per_producer=max(1, args.packets // 4),
        interval_cycles=args.interval,
        corrupt_rate=0.0,
        buffer_capacity=args.buffer,
    )
    result = find_optimal_t_sync(args.t_sync_values, workload=workload)
    print(format_table(
        ["T_sync", "accuracy", "wall [s]", "speedup", "merit", ""],
        [[p.t_sync, format_percent(p.accuracy), f"{p.wall_seconds:.3f}",
          f"{p.speedup:.1f}", f"{p.merit:.2f}",
          "<-- optimum" if p is result.best else ""]
         for p in result.points],
    ))
    print(f"optimal T_sync: {result.best.t_sync}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import (
        figure6_overhead_ratio,
        figure7_accuracy,
        format_table,
    )
    from repro.router.testbench import RouterWorkload

    if args.fast:
        workload = RouterWorkload(packets_per_producer=10,
                                  interval_cycles=400, corrupt_rate=0.0,
                                  buffer_capacity=8)
        fig6_ts, fig7_ts = (50, 200, 1000), (200, 800, 3200)
        counts = (40,)
    else:
        workload = RouterWorkload(corrupt_rate=0.0)
        fig6_ts = (10, 100, 360, 1000, 10000)
        fig7_ts = (100, 1000, 5000, 8000, 20000)
        counts = (100,)

    fig6 = figure6_overhead_ratio(fig6_ts, counts, workload=workload)
    print("== Figure 6: overhead ratio vs T_sync ==")
    print(format_table(
        ["T_sync"] + [f"N={n}" for n in counts],
        [[t] + [f"{fig6.ratios[n][t]:.1f}x" for n in counts]
         for t in fig6_ts],
    ))
    fig7 = figure7_accuracy(fig7_ts, counts, workload=workload)
    print("\n== Figure 7: accuracy vs T_sync ==")
    print(format_table(
        ["T_sync"] + [f"N={n}" for n in counts],
        [[t] + [f"{100 * fig7.accuracy[n][t]:.1f}%" for n in counts]
         for t in fig7_ts],
    ))
    return 0


def _cmd_iss(args: argparse.Namespace) -> int:
    import re

    from repro.analysis import format_table
    from repro.board.memory import Memory
    from repro.errors import AssemblerError, ReproError
    from repro.iss import IssCpu, assemble

    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        program = assemble(source)
    except AssemblerError as exc:
        for line, message in exc.messages:
            where = f"{args.file}:{line}" if line is not None else args.file
            message = re.sub(r"^line \d+: ", "", message)
            print(f"{where}: error: {message}", file=sys.stderr)
        return 1
    presets = {}
    for assignment in args.reg:
        name, _, value = assignment.partition("=")
        presets[int(name.lstrip("rR"))] = int(value, 0)
    if not args.no_lint:
        from repro.staticcheck import LintReport, check_program

        report = LintReport()
        check_program(program, target=args.file, source=source,
                      memory_size=args.memory,
                      assume_defined=set(presets), report=report)
        if report.diagnostics:
            print(report.render_text(), file=sys.stderr)
        if report.errors:
            print("lint found errors; pass --no-lint to run anyway",
                  file=sys.stderr)
            return 1
    cpu = IssCpu(program, Memory(args.memory))
    for index, value in presets.items():
        cpu.write_reg(index, value)
    try:
        cpu.run(max_instructions=args.max_instructions)
    except ReproError as exc:
        where = args.file
        if 0 <= cpu.pc < len(program.instructions):
            line = program.instructions[cpu.pc].line
            if line is not None:
                where = f"{args.file}:{line}"
        print(f"{where}: runtime error: {exc}", file=sys.stderr)
        return 1
    print(f"halted after {cpu.instructions_retired} instructions, "
          f"{cpu.cycles} cycles "
          f"(CPI {cpu.cycles / max(1, cpu.instructions_retired):.2f})")
    registers = [[f"r{i}", f"0x{cpu.read_reg(i):08x}"]
                 for i in range(16) if cpu.read_reg(i)]
    if registers:
        print(format_table(["reg", "value"], registers))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.iss.timing import TimingModel
    from repro.staticcheck import run_lint

    timing = TimingModel() if args.wcet else None
    report = run_lint(args.targets, suppress=args.suppress,
                      memory_size=args.memory, timing=timing,
                      include_cycle_bounds=args.wcet)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code(strict=args.strict)


def _workload_from_args(args: argparse.Namespace):
    from repro.router.testbench import RouterWorkload

    return RouterWorkload(
        packets_per_producer=max(1, args.packets // 4),
        interval_cycles=args.interval,
        corrupt_rate=args.corrupt_rate,
        buffer_capacity=args.buffer,
        seed=args.seed,
    )


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.cosim import CosimConfig, ProtocolTrace
    from repro.replay import SessionRecording
    from repro.router.testbench import (
        build_router_cosim,
        finalize_router_recording,
    )
    from repro.transport.faults import FaultPlan
    from repro.transport.messages import CLOCK_PORT, DATA_PORT, INT_PORT
    from repro.transport.resilience import ResilienceConfig

    ports = {p: p for p in (CLOCK_PORT, DATA_PORT, INT_PORT)}
    disconnects = {}
    for spec in args.disconnect_after:
        seq, _, port = spec.partition(":")
        port = port or CLOCK_PORT
        if port not in ports:
            print(f"unknown port {port!r} in --disconnect-after {spec!r} "
                  f"(expected one of {sorted(ports)})", file=sys.stderr)
            return 2
        disconnects[int(seq)] = port
    if disconnects and args.mode != "tcp":
        print("--disconnect-after requires --mode tcp (the resilient "
              "link is what reconnects)", file=sys.stderr)
        return 2
    fault_plan = None
    if disconnects or args.drop_interrupt:
        fault_plan = FaultPlan(
            drop_interrupts=set(args.drop_interrupt),
            disconnect_after_grants=disconnects,
        )
    resilience = ResilienceConfig()
    if disconnects:
        # Fast-reconnect knobs (the soak-test profile): sub-second
        # backoff so a recorded CI run stays quick.
        resilience = ResilienceConfig(
            enabled=True, max_attempts=8, backoff_initial_s=0.005,
            backoff_max_s=0.05, heartbeat_interval_s=0.05,
            heartbeat_misses_allowed=200)
    recording = SessionRecording()
    cosim = build_router_cosim(
        CosimConfig(t_sync=args.t_sync, resilience=resilience),
        _workload_from_args(args), mode=args.mode,
        fault_plan=fault_plan, recorder=recording)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run()
    finalize_router_recording(recording, cosim, metrics)
    recording.save(args.out)
    print(metrics.summary())
    print(f"recorded {recording.num_windows} windows, "
          f"{len(recording.interrupts)} interrupts, "
          f"{len(recording.data_ops)} data ops -> {args.out}")
    if args.trace:
        trace.to_csv(args.trace)
        print(f"wrote {len(trace)} window records to {args.trace}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.replay import (
        ReplayDivergence,
        SessionRecording,
        find_divergence,
    )
    from repro.router.testbench import replay_router_recording

    recording = SessionRecording.load(args.recording)
    scenario = recording.meta.get("scenario")
    if scenario != "router":
        print(f"cannot replay scenario {scenario!r} (only 'router')",
              file=sys.stderr)
        return 2
    # Bisection needs the full divergence list, so it always runs
    # non-strict; plain strict mode aborts on the first hard mismatch.
    strict = args.strict and not args.bisect
    try:
        result = replay_router_recording(recording, strict=strict)
    except ReplayDivergence as exc:
        print(f"replay diverged in window {exc.window} ({exc.kind}): "
              f"recorded {exc.expected!r}, replayed {exc.actual!r}",
              file=sys.stderr)
        return 1
    print(f"replayed {result.windows_replayed} windows, "
          f"{result.interrupts_delivered} interrupts, "
          f"{result.data_ops_replayed} data ops")
    if args.trace:
        result.trace.to_csv(args.trace)
        print(f"wrote {len(result.trace)} window records to {args.trace}")
    report = find_divergence(recording, result)
    if args.bisect or not report.clean:
        print(report.describe())
    elif report.clean:
        print("replay is bit-identical to the recording")
    return 0 if report.clean else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.cosim import CosimConfig, ProtocolTrace
    from repro.replay import Checkpoint, Checkpointer, restore_session
    from repro.router.testbench import (
        build_router_cosim,
        router_run_meta,
        workload_from_meta,
    )

    if args.resume:
        checkpoint = Checkpoint.load(args.resume)
        meta = checkpoint.meta
        if meta.get("scenario") != "router":
            print(f"cannot resume scenario {meta.get('scenario')!r} "
                  "(only 'router')", file=sys.stderr)
            return 2
        config = CosimConfig(t_sync=meta.get("t_sync", args.t_sync))
        workload = workload_from_meta(meta)
        iss_timing = bool(meta.get("iss_timing"))
    else:
        config = CosimConfig(t_sync=args.t_sync)
        workload = _workload_from_args(args)
        iss_timing = False

    cosim = build_router_cosim(config, workload, mode="inproc",
                               iss_timing=iss_timing)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)

    if args.resume:
        # Fast-forward (deterministic re-execution) happens without the
        # checkpointer so already-saved checkpoints are not re-captured.
        restore_session(cosim.session, checkpoint)
        print(f"restored window {checkpoint.window} "
              f"(master cycle {checkpoint.master_cycles}) from "
              f"{args.resume}")
    checkpointer = Checkpointer(
        every=args.every, directory=args.dir,
        meta=router_run_meta(config, workload, mode="inproc",
                             iss_timing=iss_timing))
    cosim.session.attach_checkpointer(checkpointer)
    metrics = cosim.run()
    print(metrics.summary())
    if checkpointer.paths:
        print(f"wrote {len(checkpointer.paths)} checkpoint(s) to "
              f"{args.dir}")
    if args.trace:
        trace.to_csv(args.trace)
        print(f"wrote {len(trace)} window records to {args.trace}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.difftest import FuzzSpec, fuzz, run_spec

    if args.backends:
        # Accept both "--backends inproc fmu" and "--backends inproc,fmu".
        args.backends = [name
                         for token in args.backends
                         for name in token.split(",") if name]
    log = None if args.quiet else print
    if args.lint_concurrency:
        # Pre-flight: a fuzz campaign over a protocol or locking bug
        # wastes its whole budget rediscovering what the static layer
        # already proves; fail fast instead.
        from repro.staticcheck import run_lint

        preflight = run_lint(["protocol", "concurrency", "purity"])
        if preflight.exit_code(strict=True) != 0:
            print(preflight.render_text(), file=sys.stderr)
            print("fuzz: concurrency pre-flight failed; fix the lint "
                  "findings (or run without --lint-concurrency)",
                  file=sys.stderr)
            return 2
        if log is not None:
            log("fuzz: concurrency pre-flight clean "
                "(protocol, concurrency, purity)")
    if args.spec:
        spec = FuzzSpec.load(args.spec)
        outcomes, mismatches = run_spec(spec, backends=args.backends)
        print(f"spec {spec.describe()}: {len(outcomes)} backends")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        if not mismatches:
            print("all oracles held")
        return 0 if not mismatches else 1
    if args.jobs > 1:
        from repro.farm import fuzz_parallel

        report = fuzz_parallel(
            args.seed, args.runs,
            jobs=args.jobs,
            scenarios=args.scenarios,
            backends=args.backends,
            shrink=args.shrink,
            out_dir=args.out,
            max_failures=args.max_failures,
            start_index=args.index,
            log=log,
        )
    else:
        report = fuzz(
            args.seed, args.runs,
            scenarios=args.scenarios,
            backends=args.backends,
            shrink=args.shrink,
            out_dir=args.out,
            max_failures=args.max_failures,
            start_index=args.index,
            log=log,
        )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_fmi(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FmiError
    from repro.fmi.conformance import check_spec, format_report
    from repro.fmi.registry import SUBPROCESS_PREFIX, available, load_class

    if args.action == "list":
        for name, spec in sorted(available().items()):
            print(f"{name:24s} {spec}")
        print(f"{'subprocess:<spec>':24s} any of the above, hosted in "
              "a child process")
        return 0

    try:
        # Validate the spec up front: a typo is a usage error (exit 2),
        # not a conformance failure.  Per-rule crashes of a *valid*
        # plugin still land in the report.
        inner = args.plugin
        if inner.startswith(SUBPROCESS_PREFIX):
            inner = inner[len(SUBPROCESS_PREFIX):]
        load_class(inner)
        report = check_spec(args.plugin, seed=args.seed,
                            step_timeout_s=args.step_timeout)
    except FmiError as exc:
        print(f"fmi check: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import BenchValidationError, compare_paths

    if args.compare:
        old_path, new_path = args.compare
        try:
            result = compare_paths(old_path, new_path,
                                   threshold=args.threshold)
        except (BenchValidationError, OSError, json.JSONDecodeError) as exc:
            print(f"bench compare: {exc}", file=sys.stderr)
            return 2
        print(result.describe())
        return result.exit_code

    import os

    try:
        import pytest as pytest_mod
    except ImportError:  # pragma: no cover - test extra not installed
        print("repro bench requires pytest (pip install repro[test])",
              file=sys.stderr)
        return 2
    bench_dir = args.dir
    if not os.path.isdir(bench_dir):
        print(f"benchmark directory {bench_dir!r} not found "
              "(run from the repository root or pass --dir)",
              file=sys.stderr)
        return 2
    out_dir = args.out
    argv = [bench_dir, "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", f"--bench-json-dir={out_dir}",
            "--override-ini=addopts="]
    if not args.full:
        argv.append("--quick")
    if args.keyword:
        argv.extend(["-k", args.keyword])
    code = int(pytest_mod.main(argv))
    if code != 0:
        print(f"benchmark run failed (pytest exit {code})", file=sys.stderr)
        return 1
    print(f"trajectory written to {out_dir} "
          f"({'full' if args.full else 'quick'} profile)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.farm import Farm, TenantQuota
    from repro.farm.server import serve

    if os.environ.get("REPRO_LOCK_SANITIZER") == "1":
        # Soak profile: assert the statically derived lock order on
        # every instrumented acquisition for the server's lifetime.
        from repro.staticcheck import sanitizer
        from repro.staticcheck.concurrency_rules import (
            canonical_lock_order,
        )

        sanitizer.SANITIZER.configure(canonical_lock_order())
        sanitizer.SANITIZER.active = True
    quota = TenantQuota(max_in_flight=args.quota_jobs,
                        max_total_windows=args.quota_windows)
    farm = Farm(
        workers=args.workers,
        results_dir=args.results,
        default_quota=quota,
        job_timeout_s=args.job_timeout,
    )
    return serve(farm, host=args.host, port=args.port,
                 port_file=args.port_file,
                 drain_timeout_s=args.drain_timeout,
                 verbose=args.verbose)


def _parse_server(args: argparse.Namespace):
    host, _, port = args.server.partition(":")
    if not port:
        print(f"--server must be HOST:PORT, got {args.server!r}",
              file=sys.stderr)
        return None
    from repro.farm import FarmClient

    return FarmClient(host or "127.0.0.1", int(port))


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FarmError, QuotaExceeded

    client = _parse_server(args)
    if client is None:
        return 2
    if args.job:
        with open(args.job, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    else:
        payload = json.loads(args.payload) if args.payload else {}
        doc = {"schema": "repro-job/1", "tenant": args.tenant,
               "kind": args.kind, "payload": payload,
               "priority": args.priority, "seed": args.seed}
        if args.name:
            doc["name"] = args.name
    try:
        submitted = client.submit(doc)
    except QuotaExceeded as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 3
    except (FarmError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    job_id = submitted["job_id"]
    print(f"submitted {job_id} (tenant={submitted['tenant']} "
          f"kind={submitted['kind']} state={submitted['state']})")
    if not args.wait:
        return 0
    try:
        if args.follow:
            for event in client.stream(job_id=job_id,
                                       timeout_s=args.timeout):
                print(f"  {event['event']}: state={event['state']}"
                      + (f" error={event['error']}"
                         if event.get("error") else ""))
        final = client.wait(job_id, timeout_s=args.timeout)
    except (FarmError, OSError) as exc:
        print(f"wait failed: {exc}", file=sys.stderr)
        return 1
    state = final["state"]
    print(f"{job_id}: {state}"
          + (f" ({final['error']})" if final.get("error") else ""))
    if state == "done" and final.get("result") is not None:
        print(f"  result: {json.dumps(final['result'], sort_keys=True)}")
    return 0 if state == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import format_table
    from repro.errors import FarmError

    client = _parse_server(args)
    if client is None:
        return 2
    try:
        if args.cancel:
            ok = client.cancel(args.cancel)
            print(f"{args.cancel}: "
                  f"{'cancelled' if ok else 'not cancellable'}")
            return 0 if ok else 1
        if args.follow:
            for event in client.stream(cursor=args.cursor,
                                       timeout_s=args.timeout):
                print(json.dumps(event, sort_keys=True))
            return 0
        jobs = client.jobs(tenant=args.tenant)
        if not jobs:
            print("no jobs")
        else:
            print(format_table(
                ["job", "tenant", "kind", "name", "prio", "state",
                 "error"],
                [[j["job_id"][:12], j["tenant"], j["kind"], j["name"],
                  j["priority"], j["state"], j.get("error", "")[:40]]
                 for j in jobs],
            ))
        metrics = client.metrics()
        print(f"queue_depth={metrics['queue_depth']} "
              f"in_flight={metrics['in_flight']} "
              f"workers_busy={metrics['workers_busy']}/"
              f"{metrics['workers']}")
        return 0
    except (FarmError, OSError) as exc:
        print(f"jobs query failed: {exc}", file=sys.stderr)
        return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.cosim import CosimConfig, TracingConfig
    from repro.obs import (
        render_text_report,
        to_chrome_trace,
        write_csv,
    )
    from repro.router.testbench import build_router_cosim

    if args.app != "router":
        print(f"unknown application {args.app!r} (only 'router')",
              file=sys.stderr)
        return 2
    tracing = TracingConfig(
        enabled=True,
        mode="sample" if args.sample > 1 else "full",
        sample_every=args.sample,
    )
    cosim = build_router_cosim(
        CosimConfig(t_sync=args.t_sync, tracing=tracing),
        _workload_from_args(args), mode=args.mode)
    metrics = cosim.run()
    obs = cosim.session.obs
    print(metrics.summary())
    sim = cosim.master.sim
    edges = sim.edges_leapt + sim.edges_simulated
    print(f"simkernel: edges_simulated={sim.edges_simulated} "
          f"edges_leapt={sim.edges_leapt} "
          f"leapt_share={sim.edges_leapt / edges if edges else 0.0:.4f}")
    if args.format == "text":
        report = render_text_report(obs, top=args.top)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
            print(f"wrote span report to {args.out}")
        else:
            print(report)
        return 0
    out = args.out or f"profile.{'json' if args.format == 'chrome' else 'csv'}"
    if args.format == "chrome":
        doc = to_chrome_trace(obs, metadata={
            "app": args.app, "t_sync": args.t_sync, "mode": args.mode,
        })
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        print(f"wrote {len(doc['traceEvents'])} trace events to {out} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    else:
        write_csv(obs, out)
        print(f"wrote {obs.span_count - obs.dropped_spans} spans and "
              f"{obs.event_count - obs.dropped_events} events to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timed HW/SW co-simulation framework (DATE'05 "
                    "reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the router case study")
    run.add_argument("--t-sync", type=int, default=1000)
    run.add_argument("--packets", type=int, default=100)
    run.add_argument("--interval", type=int, default=1000)
    run.add_argument("--buffer", type=int, default=20)
    run.add_argument("--corrupt-rate", type=float, default=0.05)
    run.add_argument("--mode", choices=["inproc", "queue", "tcp"],
                     default="inproc")
    run.add_argument("--adaptive", action="store_true",
                     help="use the adaptive synchronization controller")
    run.add_argument("--trace", metavar="FILE.csv",
                     help="record one CSV row per synchronization window")
    run.set_defaults(fn=_cmd_run)

    explore = sub.add_parser("explore",
                             help="sweep T_sync and pick the optimum")
    explore.add_argument("--t-sync-values", type=int, nargs="+",
                         default=[500, 1000, 2000, 5000, 10000, 20000])
    explore.add_argument("--packets", type=int, default=100)
    explore.add_argument("--interval", type=int, default=1000)
    explore.add_argument("--buffer", type=int, default=20)
    explore.set_defaults(fn=_cmd_explore)

    figures = sub.add_parser("figures",
                             help="regenerate the paper's figure tables")
    figures.add_argument("--fast", action="store_true",
                         help="small workloads (seconds instead of minutes)")
    figures.set_defaults(fn=_cmd_figures)

    iss = sub.add_parser("iss", help="assemble and run a program on the ISS")
    iss.add_argument("file")
    iss.add_argument("--reg", action="append", default=[],
                     metavar="N=VALUE", help="preset register, e.g. r1=0x10")
    iss.add_argument("--memory", type=int, default=64 * 1024)
    iss.add_argument("--max-instructions", type=int, default=10_000_000)
    iss.add_argument("--no-lint", action="store_true",
                     help="skip the static checks before running")
    iss.set_defaults(fn=_cmd_iss)

    lint = sub.add_parser(
        "lint",
        help="static analysis: ISS programs, netlists, co-sim configs")
    lint.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help=".asm file, directory, 'bundled', or 'router' "
             "(default: bundled router)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--suppress", action="append", default=[],
                      metavar="RULE", help="suppress a rule id, e.g. ISS003")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")
    lint.add_argument("--memory", type=int, default=64 * 1024,
                      help="memory size assumed for bounds checks")
    lint.add_argument("--wcet", action="store_true",
                      help="report static cycle bounds (ISS006)")
    lint.set_defaults(fn=_cmd_lint)

    def add_workload_args(cmd) -> None:
        cmd.add_argument("--t-sync", type=int, default=1000)
        cmd.add_argument("--packets", type=int, default=40)
        cmd.add_argument("--interval", type=int, default=1000)
        cmd.add_argument("--buffer", type=int, default=20)
        cmd.add_argument("--corrupt-rate", type=float, default=0.05)
        cmd.add_argument("--seed", type=int, default=12345)

    record = sub.add_parser(
        "record",
        help="run the router case study, recording the board's complete "
             "message stream for deterministic replay")
    record.add_argument("out", metavar="OUT.json",
                        help="recording file to write")
    add_workload_args(record)
    record.add_argument("--mode", choices=["inproc", "queue", "tcp"],
                        default="inproc")
    record.add_argument("--trace", metavar="FILE.csv",
                        help="also write the live per-window trace")
    record.add_argument("--drop-interrupt", type=int, action="append",
                        default=[], metavar="N",
                        help="fault injection: swallow the N-th interrupt")
    record.add_argument("--disconnect-after", action="append",
                        default=[], metavar="SEQ[:PORT]",
                        help="fault injection (tcp mode): yank PORT "
                             "(clock/int/data) right after grant SEQ; "
                             "enables the resilient link")
    record.set_defaults(fn=_cmd_record)

    replay = sub.add_parser(
        "replay",
        help="re-execute a recorded run with no sockets or wall clock "
             "and verify it is bit-identical")
    replay.add_argument("recording", metavar="RECORDING.json")
    replay.add_argument("--no-strict", dest="strict", action="store_false",
                        help="collect divergences instead of aborting on "
                             "the first one")
    replay.add_argument("--bisect", action="store_true",
                        help="report the first diverging window across "
                             "stream, trace and end-of-run state")
    replay.add_argument("--trace", metavar="FILE.csv",
                        help="write the replayed per-window trace")
    replay.set_defaults(fn=_cmd_replay)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run the router case study with periodic checkpoints, or "
             "resume from one")
    checkpoint.add_argument("--every", type=int, default=5, metavar="N",
                            help="checkpoint every N windows")
    checkpoint.add_argument("--dir", default="checkpoints",
                            help="directory for checkpoint-NNNNNN.json")
    checkpoint.add_argument("--resume", metavar="CHECKPOINT.json",
                            help="restore this checkpoint into a fresh "
                                 "session and finish the run")
    add_workload_args(checkpoint)
    checkpoint.add_argument("--trace", metavar="FILE.csv",
                            help="write the full per-window trace "
                                 "(fast-forward included)")
    checkpoint.set_defaults(fn=_cmd_checkpoint)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated workloads through multiple "
             "backends, equivalence oracles, shrunk repro recordings")
    fuzz.add_argument("--seed", type=int, default=42,
                      help="base seed; case I derives its own seed from "
                           "(seed, I)")
    fuzz.add_argument("--runs", type=int, default=20,
                      help="number of generated fuzz cases")
    fuzz.add_argument("--index", type=int, default=0,
                      help="first case index (resume a campaign)")
    fuzz.add_argument("--scenarios", nargs="+", metavar="NAME",
                      choices=["router", "iss", "adaptive", "multiboard"],
                      help="restrict to these scenarios (default: all, "
                           "round-robin)")
    fuzz.add_argument("--backends", nargs="+", metavar="NAME",
                      help="restrict to these backends (e.g. inproc rerun "
                           "replay queue tcp); each scenario keeps its "
                           "reference backend")
    fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                      help="report failures without minimizing them")
    fuzz.add_argument("--out", metavar="DIR",
                      help="write fail-N.workload.json and "
                           "fail-N.recording.json artifacts here")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop the campaign after this many failures")
    fuzz.add_argument("--spec", metavar="FILE.json",
                      help="re-run one saved workload spec instead of "
                           "generating cases")
    fuzz.add_argument("--lint-concurrency", action="store_true",
                      help="pre-flight the protocol/concurrency/purity "
                           "lint passes and refuse to fuzz while they "
                           "report findings")
    fuzz.add_argument("--quiet", action="store_true",
                      help="only print the final summary")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan the campaign across N farm worker "
                           "processes; results and artifacts are "
                           "identical to the serial run (default: 1)")
    fuzz.set_defaults(fn=_cmd_fuzz)

    fmi = sub.add_parser(
        "fmi",
        help="FMI-style plugin boundary: run the conformance kit "
             "against a plugin, or list the registered ones")
    fmi_sub = fmi.add_subparsers(dest="action", required=True)
    fmi_check = fmi_sub.add_parser(
        "check",
        help="run the seven-rule conformance kit (FMI001..FMI007) "
             "against a plugin spec")
    fmi_check.add_argument("plugin", metavar="PLUGIN",
                           help="registry name (see 'repro fmi list'), "
                                "'module:Class', or 'subprocess:<spec>'")
    fmi_check.add_argument("--seed", type=int, default=2005,
                           help="base seed for the scripted session "
                                "(default: 2005)")
    fmi_check.add_argument("--step-timeout", type=float, default=10.0,
                           metavar="SECONDS",
                           help="per-call timeout for subprocess "
                                "plugins (default: 10)")
    fmi_check.add_argument("--format", choices=["text", "json"],
                           default="text")
    fmi_check.add_argument("--out", metavar="FILE.json",
                           help="also write the JSON report here "
                                "(repro-fmi-conformance/1)")
    fmi_check.set_defaults(fn=_cmd_fmi)
    fmi_list = fmi_sub.add_parser(
        "list", help="list the registered plugin specs")
    fmi_list.set_defaults(fn=_cmd_fmi)

    bench = sub.add_parser(
        "bench",
        help="record the repro-bench/1 trajectory (runs the benchmark "
             "harnesses), or compare two snapshots")
    bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       help="compare two BENCH_*.json files or two "
                            "directories of them instead of recording")
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="tier-1 regression gate: fail when throughput "
                            "falls by more than this fraction (default "
                            "0.20)")
    bench.add_argument("--dir", default="benchmarks",
                       help="benchmark harness directory (default: "
                            "benchmarks)")
    bench.add_argument("--out", default="benchmarks/results",
                       help="directory for the BENCH_<name>.json files "
                            "(default: benchmarks/results)")
    bench.add_argument("--full", action="store_true",
                       help="record the full paper-scale sweeps instead "
                            "of the quick profile (minutes, not seconds)")
    bench.add_argument("-k", dest="keyword", metavar="EXPR",
                       help="restrict to harnesses matching this pytest "
                            "keyword expression")
    bench.set_defaults(fn=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant co-simulation farm: a job queue, "
             "worker pool and streaming status over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks a free one; see "
                            "--port-file)")
    serve.add_argument("--port-file", metavar="FILE",
                       help="write the bound port here once listening")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes in the pool (default: 2)")
    serve.add_argument("--results", metavar="DIR", default="farm-results",
                       help="results directory (job documents, "
                            "artifacts, index.json)")
    serve.add_argument("--quota-jobs", type=int, default=4,
                       metavar="N",
                       help="per-tenant max in-flight jobs (default: 4)")
    serve.add_argument("--quota-windows", type=int, default=None,
                       metavar="N",
                       help="per-tenant cumulative window budget "
                            "(default: unlimited)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill any job running longer than this")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="graceful-shutdown bound: how long the "
                            "first SIGINT/SIGTERM waits for in-flight "
                            "jobs (default: 30)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a repro-job/1 job to a farm server")
    submit.add_argument("job", nargs="?", metavar="JOB.json",
                        help="job document to submit (omit to build "
                             "one from the flags below)")
    submit.add_argument("--server", default="127.0.0.1:8642",
                        metavar="HOST:PORT")
    submit.add_argument("--tenant", default="default",
                        help="tenant to submit as (default: default)")
    submit.add_argument("--kind", choices=["fuzz_case", "router"],
                        default="router")
    submit.add_argument("--payload", metavar="JSON",
                        help="kind-specific payload as inline JSON")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--name", default="",
                        help="job name; (tenant, kind, name, seed) "
                             "determines the job id")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal")
    submit.add_argument("--follow", action="store_true",
                        help="with --wait: stream the job's events")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait bound in seconds (default: 300)")
    submit.set_defaults(fn=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list, stream or cancel jobs on a farm server")
    jobs.add_argument("--server", default="127.0.0.1:8642",
                      metavar="HOST:PORT")
    jobs.add_argument("--tenant", help="only this tenant's jobs")
    jobs.add_argument("--follow", action="store_true",
                      help="stream the live event feed (NDJSON)")
    jobs.add_argument("--cursor", type=int, default=0,
                      help="with --follow: resume after this event "
                           "sequence number")
    jobs.add_argument("--timeout", type=float, default=None,
                      help="with --follow: stop after this many seconds")
    jobs.add_argument("--cancel", metavar="JOB_ID",
                      help="cancel one job instead of listing")
    jobs.set_defaults(fn=_cmd_jobs)

    profile = sub.add_parser(
        "profile",
        help="run an application with tracing enabled and export the "
             "span profile (Chrome trace JSON, CSV, or a text report)")
    profile.add_argument("app", nargs="?", default="router",
                         help="application to profile (default: router)")
    add_workload_args(profile)
    profile.add_argument("--mode", choices=["inproc", "queue", "tcp"],
                         default="inproc")
    profile.add_argument("--format", choices=["chrome", "csv", "text"],
                         default="chrome",
                         help="chrome: trace_event JSON for "
                              "chrome://tracing / Perfetto (default)")
    profile.add_argument("--out", metavar="FILE",
                         help="output file (default: profile.json / "
                              "profile.csv; text prints to stdout)")
    profile.add_argument("--sample", type=int, default=1, metavar="N",
                         help="keep every N-th window's span subtree; "
                              "aggregates still cover every span")
    profile.add_argument("--top", type=int, default=15,
                         help="hot spans listed in the text report")
    profile.set_defaults(fn=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
