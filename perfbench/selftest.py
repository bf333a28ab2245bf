"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Every workload (tcp_threaded too, though BENCHMARK.json does not
   list it), at tiny size, with and without tracing, prints each
   metric BENCHMARK.json names, with its unit, and passes its checks.
2. The output check fails a run whose reference digest is perturbed.
3. Without the program's sources the benchmark exits non-zero and
   prints no result.

Exits 0 when all hold; raises AssertionError otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _result(args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, timeout=180,
                         check=False)
    return out.returncode, out.stdout.strip().splitlines()


def check_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in bench.WORKLOADS:
            code, lines = _result([
                "--workload", workload, "--seed",
                str(bench.DEFAULT_SEED), "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny"])
            assert code == 0, (workload, trace, code)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert printed == expected, (workload, trace, printed)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok  {workload} --trace {trace}: "
                  f"{len(printed)} metrics with units")


def check_perturbed_digest_fails() -> None:
    wl = bench.WORKLOADS["bursty_coarse"]
    seed = bench.DEFAULT_SEED
    reference = bench.reference_outcome(wl, seed, "tiny")
    clean = bench.one_run(wl, seed, "tiny", False, reference)
    assert not clean.problems, clean.problems
    flipped = "0" if reference.digest[0] != "0" else "1"
    reference.digest = flipped + reference.digest[1:]
    perturbed = bench.one_run(wl, seed, "tiny", False, reference)
    assert any("determinism" in p for p in perturbed.problems), \
        perturbed.problems
    print("ok  a perturbed reference digest fails the output check")


def check_fails_without_sources() -> None:
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"),
             "--workload", "bursty_coarse", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, out.returncode
    assert '"correct"' not in out.stdout, out.stdout
    print("ok  without src/ the benchmark exits "
          f"{out.returncode} and prints no result")


def main() -> int:
    bench.import_program()
    check_perturbed_digest_fails()
    check_fails_without_sources()
    check_metrics_printed()
    return 0


if __name__ == "__main__":
    sys.exit(main())
