"""Exclusive host time per layer, measured from outside the program.

The tracer replaces public methods on the objects of one built
co-simulation with timing wrappers.  Every wrapper is a span: it pushes
a child-time accumulator on its thread's stack, and on return charges
its duration minus its children's time to its layer.  The self times of
all spans on a thread therefore add up to the duration of that thread's
outermost spans, which is what :meth:`LayerTracer.report` checks.

Nothing inside ``src/`` is changed; each wrapper is an instance
attribute shadowing the class method, plus one module global
(``repro.iss.rtos_bridge.run_program``) swapped for the duration of a
``with iss_resumes(tracer):`` block.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

#: The layers, in report order (module names of the program).
LAYERS = (
    "cosim.session",
    "cosim.master",
    "cosim.board_runtime",
    "simkernel",
    "transport",
    "rtos",
    "iss",
)

MASTER_CALLS = ("run_window_inproc", "finish_window_inproc",
                "run_window_threaded", "serve_data")
BOARD_RUNTIME_CALLS = ("serve_window", "serve_forever")
MASTER_ENDPOINT_CALLS = ("send_grant", "recv_report", "send_interrupt",
                         "poll_data_batch", "send_reply")
BOARD_ENDPOINT_CALLS = ("recv_grant", "send_report", "poll_interrupt",
                        "data_read", "data_write")

#: Called after a span closes with (tally, result, seconds).
Note = Callable[["_Tally", object, float], None]


class _Tally:
    """One thread's span stack and accumulators."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.root_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class LayerTracer:
    """Span stacks per thread; merged by :meth:`report`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[_Tally] = []
        self._main: Optional[_Tally] = None

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def count(self, key: str, amount: float) -> None:
        """Add *amount* to counter *key* on the calling thread."""
        self._tally().add(key, amount)

    def _begin(self) -> "tuple[_Tally, float]":
        tally = self._tally()
        tally.stack.append(0.0)
        return tally, time.perf_counter()

    @staticmethod
    def _end(tally: _Tally, layer: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        children = tally.stack.pop()
        tally.self_s[layer] += elapsed - children
        if tally.stack:
            tally.stack[-1] += elapsed
        else:
            tally.root_s += elapsed
        return elapsed

    def wrap(self, obj, attr: str, layer: str,
             note: Optional[Note] = None) -> None:
        """Shadow ``obj.attr`` with a span charged to *layer*."""
        inner = getattr(obj, attr)

        def span(*args, **kwargs):
            tally, start = self._begin()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = self._end(tally, layer, start)
            if note is not None:
                note(tally, result, elapsed)
            return result

        setattr(obj, attr, span)

    def resumes(self, layer: str, gen: Iterator) -> Iterator:
        """Re-yield *gen*, timing each resume as a span of *layer*."""
        value = None
        try:
            while True:
                tally, start = self._begin()
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._end(tally, layer, start)
                value = yield item
        finally:
            gen.close()

    def timed_root(self, fn: Callable[[], object]) -> "tuple[object, float]":
        """Call *fn* on this thread; returns (result, wall seconds).

        The wall is measured outside every span, so the gap between it
        and the outermost spans is what the report calls unattributed.
        """
        self._main = self._tally()
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def report(self, wall_s: float) -> Dict[str, float]:
        """Merged self times, counters and the partition of the wall.

        ``traced_wall_s`` is *wall_s* (the calling thread) plus the
        outermost span time of every other thread, so in a threaded run
        it counts the board thread's busy and blocked time too.
        """
        with self._lock:
            tallies = list(self._tallies)
        merged = dict.fromkeys(LAYERS, 0.0)
        counts: Dict[str, float] = {}
        other_roots = 0.0
        main_root = 0.0
        for tally in tallies:
            if tally.stack:
                raise RuntimeError("a span was left open")
            for layer, seconds in tally.self_s.items():
                merged[layer] += seconds
            for key, value in tally.counts.items():
                counts[key] = counts.get(key, 0) + value
            if tally is self._main:
                main_root = tally.root_s
            else:
                other_roots += tally.root_s
        out = {f"{layer}.self_s": merged[layer] for layer in LAYERS}
        out["unattributed_s"] = wall_s - main_root
        out["traced_wall_s"] = wall_s + other_roots
        out.update(counts)
        return out


def partition_error(report: Dict[str, float]) -> float:
    """|sum of self times + unattributed - traced wall|, in seconds."""
    total = sum(report[f"{layer}.self_s"] for layer in LAYERS)
    total += report["unattributed_s"]
    return abs(total - report["traced_wall_s"])


def instrument(tracer: LayerTracer, cosim) -> None:
    """Wrap the public calls of one built router co-simulation."""
    master, runtime = cosim.master, cosim.runtime
    tracer.wrap(cosim, "run", "cosim.session")
    for name in MASTER_CALLS:
        tracer.wrap(master, name, "cosim.master")
    # In-process links hold the DATA server as a bound method taken at
    # build time; hand them the wrapped one.
    link = getattr(runtime.endpoint, "link", None)
    if hasattr(link, "install_data_server"):
        link.install_data_server(master.serve_data)
    for name in BOARD_RUNTIME_CALLS:
        tracer.wrap(runtime, name, "cosim.board_runtime")

    def edges(tally, result, _elapsed):
        tally.add("simkernel.edges_leapt", result)

    tracer.wrap(master.sim, "run_until", "simkernel")
    # Leaping keeps delta_count bit-identical; its return value (edges
    # applied in closed form) is the only counter that shows a leap.
    tracer.wrap(master.sim, "run_until_leaping", "simkernel", note=edges)

    def report_wait(tally, _result, elapsed):
        tally.add("transport.report_polls", 1)
        tally.add("transport.report_wait_s", elapsed)

    def grant_wait(tally, _result, elapsed):
        tally.add("transport.grant_wait_s", elapsed)

    notes = {"recv_report": report_wait, "recv_grant": grant_wait}
    for name in MASTER_ENDPOINT_CALLS:
        tracer.wrap(master.endpoint, name, "transport", notes.get(name))
    for name in BOARD_ENDPOINT_CALLS:
        tracer.wrap(runtime.endpoint, name, "transport", notes.get(name))
    tracer.wrap(runtime.board.kernel, "run_ticks", "rtos")


@contextlib.contextmanager
def iss_resumes(tracer: LayerTracer):
    """Time every resume of ``repro.iss.rtos_bridge.run_program`` and
    count the instructions each finished program retired."""
    from repro.iss import rtos_bridge

    original = rtos_bridge.run_program

    def run_program(cpu, *args, **kwargs):
        result = yield from tracer.resumes("iss",
                                           original(cpu, *args, **kwargs))
        tracer.count("iss.instructions", cpu.instructions_retired)
        return result

    rtos_bridge.run_program = run_program
    try:
        yield
    finally:
        rtos_bridge.run_program = original
