"""Equivalence and invariant oracles over backend outcomes.

Three tiers, matching what actually holds across backends:

1. **Per-backend invariants** — true of every legal run regardless of
   transport: tick alignment (``master cycles == board ticks`` at every
   exchange), the grant schedule (every non-final window is exactly
   ``T_sync`` ticks for fixed-window sessions), trace self-consistency,
   and workload-statistics conservation.
2. **Deterministic equivalence** — backends that promise bit-identical
   execution (in-process vs edge-by-edge vs a fresh rerun vs
   record/replay) must agree on the full state digest and every trace
   row; netlist runs also on the master kernel's full snapshot.
3. **Cross-backend equivalence** — threaded/TCP runs schedule interrupt
   delivery on real threads, so only schedule-level facts are common:
   window count, master cycles, board ticks and the generated-packet
   count (producers are driven purely by simulated time).

Each failure is a :class:`Mismatch` carrying a stable ``oracle`` id —
the shrinker preserves the id while minimizing the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.difftest.backends import RunOutcome
from repro.difftest.workload import FuzzSpec

#: ``WindowRecord.as_row()`` column indices.
_COL_TICKS = 1
_COL_MASTER = 2
_COL_BOARD = 3

#: Counters that must balance in a WorkloadStats snapshot.
_TERMINAL_KEYS = ("forwarded", "dropped_overflow", "dropped_checksum",
                  "dropped_unroutable")


@dataclass
class Mismatch:
    """One oracle failure."""

    oracle: str
    backend: str
    detail: str

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "backend": self.backend,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, doc: dict) -> "Mismatch":
        return cls(oracle=doc["oracle"], backend=doc["backend"],
                   detail=doc["detail"])

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.backend}: {self.detail}"


def check_outcome(spec: FuzzSpec, outcome: RunOutcome) -> List[Mismatch]:
    """Tier 1: invariants of a single backend run."""
    found: List[Mismatch] = []
    name = outcome.backend
    if not outcome.ok:
        found.append(Mismatch("backend-error", name,
                              outcome.error or "unknown failure"))
        return found

    if outcome.aligned is False:
        found.append(Mismatch(
            "tick-alignment", name,
            f"master_cycles={outcome.master_cycles} != "
            f"board ticks={outcome.board_ticks}"))

    rows = outcome.trace_rows
    if rows:
        if outcome.windows != len(rows):
            found.append(Mismatch(
                "window-count", name,
                f"metrics report {outcome.windows} windows but the "
                f"trace has {len(rows)} rows"))
        running = 0
        for row in rows:
            running += row[_COL_TICKS]
            if row[_COL_BOARD] != row[_COL_MASTER]:
                found.append(Mismatch(
                    "tick-alignment", name,
                    f"window {row[0]}: board_ticks={row[_COL_BOARD]} != "
                    f"master_cycles={row[_COL_MASTER]}"))
                break
            if row[_COL_MASTER] != running:
                found.append(Mismatch(
                    "trace-consistency", name,
                    f"window {row[0]}: cumulative granted ticks "
                    f"{running} != master_cycles {row[_COL_MASTER]}"))
                break
        if outcome.fixed_windows:
            for row in rows[:-1]:
                if row[_COL_TICKS] != spec.t_sync:
                    found.append(Mismatch(
                        "grant-schedule", name,
                        f"window {row[0]} granted {row[_COL_TICKS]} "
                        f"ticks, expected t_sync={spec.t_sync}"))
                    break
            if rows and not 0 < rows[-1][_COL_TICKS] <= spec.t_sync:
                found.append(Mismatch(
                    "grant-schedule", name,
                    f"final window granted {rows[-1][_COL_TICKS]} ticks "
                    f"(legal range is 1..{spec.t_sync})"))

    stats = outcome.stats
    if stats:
        terminal = sum(stats.get(key, 0) for key in _TERMINAL_KEYS)
        generated = stats.get("generated", 0)
        if terminal > generated:
            found.append(Mismatch(
                "stats-conservation", name,
                f"{terminal} terminal packet outcomes exceed "
                f"{generated} generated packets"))
        negative = {key: value for key, value in stats.items()
                    if isinstance(value, int) and value < 0}
        if negative:
            found.append(Mismatch(
                "stats-conservation", name,
                f"negative counters: {negative}"))

    if outcome.extra.get("freeze_violations"):
        found.append(Mismatch(
            "freeze-invariant", name,
            f"kernel not IDLE at window boundaries "
            f"{outcome.extra['freeze_violations']}"))
    sizes = outcome.extra.get("window_sizes")
    if sizes:
        low = outcome.extra.get("policy_min", 1)
        high = outcome.extra.get("policy_max")
        bad = [s for s in sizes if s < low or s > high]
        if bad:
            found.append(Mismatch(
                "adaptive-bounds", name,
                f"controller chose windows outside "
                f"[{low}, {high}]: {bad[:5]}"))
    if outcome.extra.get("divergence_clean") is False:
        found.append(Mismatch(
            "replay-divergence", name,
            outcome.extra.get("divergence") or "replay diverged"))
    csum = outcome.extra.get("csum")
    expected_csum = outcome.extra.get("expected_csum")
    if csum is not None and expected_csum is not None \
            and csum != expected_csum:
        found.append(Mismatch(
            "checksum-value", name,
            f"application computed {csum:#06x}, reference model says "
            f"{expected_csum:#06x}"))
    ticks_each = outcome.extra.get("board_ticks_each")
    if ticks_each is not None and outcome.aligned is not False:
        off = [t for t in ticks_each if t != outcome.master_cycles]
        if off:
            found.append(Mismatch(
                "tick-alignment", name,
                f"per-board ticks {ticks_each} vs master cycles "
                f"{outcome.master_cycles}"))
    return found


def check_pair(spec: FuzzSpec, reference: RunOutcome,
               other: RunOutcome) -> List[Mismatch]:
    """Tiers 2 and 3: compare *other* against the reference backend."""
    found: List[Mismatch] = []
    if not (reference.ok and other.ok):
        return found
    pair = f"{reference.backend} vs {other.backend}"

    if reference.deterministic and other.deterministic:
        if (reference.digest and other.digest
                and reference.digest != other.digest):
            found.append(Mismatch(
                "determinism", pair,
                f"state digests differ: {reference.digest[:12]} != "
                f"{other.digest[:12]}"))
        if (reference.trace_rows and other.trace_rows
                and reference.trace_rows != other.trace_rows):
            first = next(
                (i for i, (a, b) in enumerate(
                    zip(reference.trace_rows, other.trace_rows))
                 if a != b),
                min(len(reference.trace_rows), len(other.trace_rows)))
            found.append(Mismatch(
                "trace-equivalence", pair,
                f"trace rows diverge at window {first}"))
        kernels = (reference.extra.get("kernel_digest"),
                   other.extra.get("kernel_digest"))
        if None not in kernels and kernels[0] != kernels[1]:
            found.append(Mismatch(
                "kernel-equivalence", pair,
                f"master kernel snapshots differ: {kernels[0][:12]} != "
                f"{kernels[1][:12]}"))
        if reference.extra.get("instructions") is not None and \
                other.extra.get("instructions") is not None:
            if reference.extra["instructions"] \
                    != other.extra["instructions"]:
                found.append(Mismatch(
                    "iss-retirement", pair,
                    f"instruction counts differ: "
                    f"{reference.extra['instructions']} != "
                    f"{other.extra['instructions']}"))
        return found

    # Threaded vs deterministic: schedule-level equivalence only.
    for attribute in ("windows", "master_cycles", "board_ticks"):
        a, b = getattr(reference, attribute), getattr(other, attribute)
        if a and b and a != b:
            found.append(Mismatch(
                "cross-backend-ticks", pair,
                f"{attribute}: {a} != {b}"))
    if reference.stats and other.stats:
        a = reference.stats.get("generated")
        b = other.stats.get("generated")
        if a != b:
            found.append(Mismatch(
                "generated-equality", pair,
                f"generated packets differ: {a} != {b} (producers are "
                f"driven by simulated time only)"))
    a_each = reference.extra.get("board_ticks_each")
    b_each = other.extra.get("board_ticks_each")
    if a_each is not None and b_each is not None and a_each != b_each:
        found.append(Mismatch(
            "cross-backend-ticks", pair,
            f"per-board ticks differ: {a_each} != {b_each}"))
    return found


def run_oracles(spec: FuzzSpec,
                outcomes: Dict[str, RunOutcome]) -> List[Mismatch]:
    """All oracle tiers over a full backend sweep of one spec."""
    found: List[Mismatch] = []
    for outcome in outcomes.values():
        found.extend(check_outcome(spec, outcome))
    reference: Optional[RunOutcome] = None
    for outcome in outcomes.values():
        if outcome.ok and outcome.deterministic:
            reference = outcome
            break
    if reference is not None:
        for outcome in outcomes.values():
            if outcome is not reference:
                found.extend(check_pair(spec, reference, outcome))
    return found
