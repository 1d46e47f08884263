"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

For every workload it runs the untraced and the traced mode at tiny sizes
and checks that the result carries exactly the metrics BENCHMARK.json names,
each with its unit, and that no check failed.  Then it plants one wrong
expected output per workload and checks that the failures are counted.
Exits 0 when all of that holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.5


def expected_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(workload: str, trace: bool) -> None:
    lines, result = run.run(workload, 1, SECONDS, trace, size=workloads.TINY)
    label = f"{workload} trace={int(trace)}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, lines)
    want = expected_metrics("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (label, sorted(set(got) ^ set(want)))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
        assert any(line.startswith(f"metric {name} = ") for line in lines), (label, name)
    print(f"ok   {label}: {len(got)} metrics, {result['attempted']} checked outputs")


def wrong_expectations(workload: str):
    """Patch one expected output of the workload to be wrong; return the undo."""
    if workload == "exact-sweep":
        original = workloads.closed_form_balanced
        workloads.closed_form_balanced = lambda *args: not original(*args)
        return lambda: setattr(workloads, "closed_form_balanced", original)
    if workload == "numeric-evidence":
        original = workloads._epsilon_ok
        workloads._epsilon_ok = lambda session, report, expect, what: original(session, report, not expect, what)
        return lambda: setattr(workloads, "_epsilon_ok", original)
    original = workloads.make_command

    def wrong_exit(*args):
        cmd = original(*args)
        return workloads.Command(cmd.argv, 1, cmd.check_json, cmd.check_text)

    workloads.make_command = wrong_exit
    return lambda: setattr(workloads, "make_command", original)


def check_failures_counted(workload: str) -> None:
    undo = wrong_expectations(workload)
    try:
        lines, result = run.run(workload, 1, SECONDS, False, size=workloads.TINY)
    finally:
        undo()
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"], (workload, result)
    frac = result["failed"] / result["attempted"]
    assert any(line.startswith(f"failed_frac = {frac:.6g}") for line in lines), (workload, lines)
    print(f"ok   {workload}: planted wrong expectation gives failed_frac {frac:.3g}")


def main() -> int:
    for workload in workloads.WORKLOADS:
        check_result(workload, trace=False)
        check_result(workload, trace=True)
        check_failures_counted(workload)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
