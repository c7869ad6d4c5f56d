"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Workloads: dense-room, sparse-field (simulator), registry-mix (registry
server and client processes), device-log (a phone's contact log and a
business visitor log).  The seed makes every input; the program sees only
those inputs.  The run prints a summary line, then as its last line one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric of bench/metrics.py with --trace 0, every per-layer metric
with --trace 1.  Traced runs also write their spans to .bench_traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from collections import Counter

from common import TRACES, WORK, Outcome, ProgramMissing, end_to_end, use_checkout_program
from metrics import END_TO_END, PER_LAYER, per_layer_values

WORKLOADS = ("dense-room", "sparse-field", "registry-mix", "device-log")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """Run one workload; returns (outcome, {metric: value})."""
    use_checkout_program()
    import wl_devicelog
    import wl_registry
    import wl_sim
    from tracing import CallTable, Tracer

    tracer = Tracer() if trace else None
    if trace:
        TRACES.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if workload == "registry-mix":
            server_spans = TRACES / f"{workload}-seed{seed}-server.jsonl"
            out = wl_registry.run(seed, seconds, tracer, size, work_dir, server_spans)
        elif workload == "device-log":
            out = wl_devicelog.run(seed, seconds, tracer, size, work_dir)
        else:
            out = wl_sim.run(workload, seed, seconds, tracer, size)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    if not trace:
        return out, end_to_end(out)
    tracer.write_spans(TRACES / f"{workload}-seed{seed}.jsonl")
    server = out.notes.pop("server", {})
    counts = tracer.counts + Counter(server.get("counts", {}))
    extra = {**out.layers, "trace.spans": len(tracer.spans) + server.get("spans", 0)}
    table = CallTable(tracer.call_table() + server.get("calls", []))
    return out, per_layer_values(table, counts, extra)


def summary(workload: str, seed: int, out: Outcome, metrics: dict, units: dict) -> str:
    fields = {
        "workload": workload,
        "seed": seed,
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_frac": out.failed / out.attempted,
        "latency_samples": len(out.latency_s),
        "raw_unit_s": statistics.median(out.raw_unit_s),
        "host_factor": statistics.median(out.unit_s) / statistics.median(out.raw_unit_s),
        **out.notes,
    }
    shown = " ".join(f"{k}={v}" for k, v in fields.items())
    if "setup_s" in metrics:
        shown += "".join(f" {k}={v:.6g}{units[k]}" for k, v in metrics.items())
    return shown


def pin_to_one_cpu() -> None:
    """Keep this process and the ones it starts on one CPU, so that the
    host-speed probe measures the CPU that did the work (the registry's
    client and server take turns in a closed loop, so they lose nothing)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through every cleanup block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()

    try:
        out, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, *_ in table}
    print(summary(args.workload, args.seed, out, metrics, units))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
