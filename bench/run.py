"""cartanbal benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

Workloads: exact-sweep, numeric-evidence, cli-session (see bench/NOTES.md).
With --trace 0 the run measures set-up and the workload untraced and ends
with the end-to-end metrics; with --trace 1 it runs the workload with every
other operation traced, then times each layer on fixed inputs, and ends with
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  The package is imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4

# BLAS and OpenMP pools capped at one thread, here and in every child process:
# the runs are single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _git_sha() -> str | None:
    """HEAD of ROOT/.git if it is a repository; a plain checkout has none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cartanbal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(session) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "inputs_sha256": session.inputs_sha256,
        "inputs_issued": session.inputs_issued,
    }


def _peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the workload process (of the CLI children for cli-session)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _latencies(session, kind: str, traced: bool | None = False) -> list[float]:
    return [s for s, t in session.samples.get(kind, []) if traced is None or t == traced]


OP_KIND = {"exact-sweep": "verdict", "numeric-evidence": "op", "cli-session": None}


def _op_latencies(session, workload: str, traced: bool | None = False) -> list[float]:
    kind = OP_KIND[workload]
    if kind is not None:
        return _latencies(session, kind, traced)
    return _latencies(session, "cli_exact", traced) + _latencies(session, "cli_numeric", traced)


def _throughput(session, workload: str) -> float:
    """Completed units of work per busy second of the library calls."""
    if workload == "exact-sweep":  # the one scan per run is too few samples to gate on
        rows = session.work["corollary_rows"] + session.work["requests"]
        busy = sum(sum(_latencies(session, k, None)) for k in ("corollary", "verdict"))
        return rows / busy
    ops = _op_latencies(session, workload, None)
    return len(ops) / sum(ops)


def workload_figures(session, workload: str) -> list[tuple[str, float, str]]:
    """The workload's own figures: rates and medians of each operation kind."""
    med = lambda kind: statistics.median(_latencies(session, kind, None))
    if workload == "exact-sweep":
        scan = sum(_latencies(session, "scan", None))
        corollary = _latencies(session, "corollary", None)
        per_corollary = session.work["corollary_rows"] / len(corollary)
        return [
            ("scan_rows_per_s", session.work["scan_rows"] / scan, "1/s"),
            ("corollary_rows_per_s", per_corollary / statistics.median(corollary), "1/s"),
            ("verdict_p50_ms", med("verdict") * 1e3, "ms"),
        ]
    if workload == "numeric-evidence":
        return [
            (f"{kind}_s", med(kind), "s")
            for kind in ("epsilon_hartogs", "epsilon_grid", "epsilon_ball", "pullback")
        ]
    return [(f"{kind}_p50_s", med(kind), "s") for kind in ("cli_exact", "cli_numeric")]


def _tail_line(name: str, values: list[float]) -> str:
    from tracing import tail

    found = tail(values)
    if found is None:
        return f"{name}: n/a, {len(values)} samples (needs 20 for ten beyond the median)"
    pct, value, beyond, n = found
    return f"{name}: {value * 1e3:.4f} ms at p{pct:g}, {beyond} of {n} samples beyond"


def run(workload: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object."""
    import layers
    import workloads
    from tracing import Tracer

    imported = Path(workloads.cb.__file__).resolve().parent
    if imported != SRC / "cartanbal":
        raise RuntimeError(f"cartanbal was imported from {imported}, not from {SRC}")

    size = size or workloads.FULL
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}"]
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"metric {name} = {value:.6g} {unit}")

    session = workloads.Session(Tracer(), alternate=trace)
    setup = [] if trace else workloads.measure_setup(workload, SETUP_REPEATS, session.probe)
    session.probe.burst()
    start = perf_counter()
    workloads.WORKLOADS[workload](session, seed, seconds, size)
    wall = perf_counter() - start
    probe = session.probe
    op_factor = probe.startup_factor if workload == "cli-session" else probe.kernel_factor
    lines.append(f"env {json.dumps(environment(session), sort_keys=True)}")
    lines.append(f"window {wall:.3f} s, {session.ops} operations, {session.attempted} checked outputs")
    lines.append(
        f"speed: kernel median {statistics.median(probe.kernel_s) * 1e3:.4f} ms over "
        f"{len(probe.kernel_s)} samples (factor {probe.kernel_factor:.4f}), startup median "
        + (f"{statistics.median(probe.startup_s):.4f} s over {len(probe.startup_s)} samples "
           f"(factor {probe.startup_factor:.4f})" if probe.startup_s else "not sampled")
    )

    if not trace:
        scaled = {
            "setup_s": (statistics.median(setup), "s", probe.startup_factor),
            "op_p50_ms": (statistics.median(_op_latencies(session, workload)) * 1e3, "ms", op_factor),
            "ops_per_s": (_throughput(session, workload), "1/s", 1 / op_factor),
        }
        for name, (value, unit, factor) in scaled.items():
            put(name, value * factor, unit)
            lines[-1] += f" at reference speed (raw {value:.6g})"
        put("peak_rss_mb", _peak_rss_mb(workload), "MB")
        lines.append(_tail_line("op_tail_ms", _op_latencies(session, workload)))
        for name, value, unit in workload_figures(session, workload):
            scaled = value / op_factor if unit == "1/s" else value * op_factor
            lines.append(f"{workload} {name} = {scaled:.6g} {unit} at reference speed (raw {value:.6g})")
        if workload == "exact-sweep":
            lines.append(_tail_line("verdict_tail_ms", _latencies(session, "verdict")))
    else:
        tracer = session.tracer
        traced_ops = _op_latencies(session, workload, True)
        plain_ops = _op_latencies(session, workload, False)
        overhead = statistics.median(traced_ops) / statistics.median(plain_ops) - 1.0
        timer = Tracer(enabled=True)
        t0 = perf_counter()
        for _ in range(20000):
            timer.call(len, ())
        t1 = perf_counter()
        for _ in range(20000):
            len(())
        span_cost = (t1 - t0 - (perf_counter() - t1)) / 20000
        lines.append(
            f"trace: {len(tracer.spans)} spans over {tracer.top_level_seconds():.3f} s of "
            f"{session.traced_wall:.3f} s traced wall; traced minus untraced median "
            f"operation: {(statistics.median(traced_ops) - statistics.median(plain_ops)) * 1e3:+.4f} ms"
        )
        for layer, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            lines.append(f"self {layer}: {secs:.4f} s ({100 * secs / session.traced_wall:.1f}% of traced wall)")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.as_records()))
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        for name, (value, unit) in layers.measure(session).items():
            put(name, value, unit)
        put("trace.coverage_pct", 100 * tracer.top_level_seconds() / session.traced_wall, "%")
        put("trace.overhead_pct", 100 * overhead, "%")
        put("trace.span_cost_us", span_cost * 1e6, "us")
        put("trace.spans", len(tracer.spans), "count")

    lines.append("work " + json.dumps(dict(sorted(session.work.items()))))
    lines.append(
        f"failed_frac = {session.failed / max(session.attempted, 1):.6g} "
        f"({session.failed} of {session.attempted})"
    )
    lines.extend(f"FAILED {what}" for what in session.failures)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact-sweep", "numeric-evidence", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cartanbal" / "__init__.py").is_file():
        print(f"error: no cartanbal package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
