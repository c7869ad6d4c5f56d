"""Shared pieces of the benchmark: the program under test, timing summaries
and the outcome every workload returns."""

from __future__ import annotations

import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"


class ProgramMissing(RuntimeError):
    pass


def use_checkout_program() -> None:
    """Import backtrack from this checkout's src/, never from anywhere else."""
    init = SRC / "backtrack" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"program source not found: {init}")
    sys.path.insert(0, str(SRC))
    import backtrack

    if Path(backtrack.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"backtrack imported from {backtrack.__file__}, not {init}")


REFERENCE_S = 0.0025  # the reference work's time on the reference host


def _reference_work() -> float:
    """Time a fixed piece of pure-Python work: integer arithmetic and stores
    into a small dict.  Its working set stays in cache whatever the
    program's own footprint, so the program cannot speed it up or slow it
    down."""
    start = perf_counter()
    table = {}
    acc = 0
    for k in range(12_000):
        acc += k * k
        table[k & 511] = acc
    return perf_counter() - start


class HostSpeed:
    """Corrects timings for the host's speed, which drifts by up to 2x over
    seconds on shared machines.  A fixed reference work is timed before and
    after each timed piece; the piece's time is scaled by REFERENCE_S over
    the mean of those two.  On a host that runs the reference work in
    REFERENCE_S the corrected figure is the plain wall time."""

    def __init__(self) -> None:
        self.probes = [_reference_work()]

    def factor(self) -> float:
        """Probe now: the correction for what ran since the last probe."""
        self.probes.append(_reference_work())
        return 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured; end_to_end() turns it into metrics."""

    # times are corrected by HostSpeed; raw_unit_s keeps the plain wall times
    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)  # one fixed unit of work each
    raw_unit_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    ops: int = 0  # operations completed in the timed phase
    timed_s: float = 0.0  # time of the timed phase
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)  # printed on the summary line
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced run

    def add_unit(self, raw_s: float, factor: float, latencies: list[float]) -> None:
        """Record one timed unit of work and the latencies measured inside it."""
        self.raw_unit_s.append(raw_s)
        self.unit_s.append(raw_s * factor)
        self.timed_s += raw_s * factor
        self.latency_s += [x * factor for x in latencies]

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)


def percentiles_ms(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        raise ValueError("need at least two latency samples")
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[49] * 1e3, cuts[98] * 1e3


def end_to_end(o: Outcome) -> dict[str, float]:
    p50, p99 = percentiles_ms(o.latency_s)
    return {
        "setup_s": statistics.median(o.setup_s),
        "run_s": statistics.median(o.unit_s),
        "ops_per_s": o.ops / o.timed_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": o.peak_rss_mb,
    }
