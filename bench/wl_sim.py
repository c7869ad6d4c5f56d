"""Simulator workloads: dense-room and sparse-field.

Each run builds a scenario file from the seed, parses it and constructs the
World (set-up), then calls World.run() until --seconds have passed.  Every
beacon interval (10 simulated seconds) is one operation, timed on its own.  The program's outputs
are checked against the ground truth it reports, and a SHA-256 of the
metrics and the trace must repeat across the runs of one seed.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from backtrack import sim
from common import ROOT, HostSpeed, Outcome, peak_rss_mb

GOLDEN = ROOT / "bench" / "golden_digests.json"
SETUP_REPEATS = 20
MIN_RUNS = 2  # so every run can check that the output digest repeats
PROBE_EVERY = 50  # steps between host-speed probes; a multiple of the beacon interval

# dense-room keeps the acceptance dense_world density (50 agents in 12 m x
# 12 m) at n=100, so every pair is in radio range and sessions are long.
# Its transmission is off: diagnosed agents stop beaconing, so an epidemic
# that grows differently per seed made the work per seed differ by 15%.
# sparse-field puts 200 agents on 1 km^2, where few pairs are in range and
# the O(n^2) pair loop does the work; it diagnoses after 600 s so that its
# 1200 s still build, deliver and verify notifications.
SCENARIOS = {
    "dense-room": {
        "full": dict(n_agents=100, duration_s=2400, world_width_m=16.97, world_height_m=16.97),
        "tiny": dict(n_agents=12, duration_s=1500, world_width_m=5.88, world_height_m=5.88),
        "common": dict(
            speed_min_mps=0.3, speed_max_mps=1.0, pause_min_s=600, pause_max_s=1200,
            initial_infectious=10, diagnosis_delay_s=1200, transmission_prob=0.0,
        ),
    },
    "sparse-field": {
        "full": dict(n_agents=200, duration_s=1200, world_width_m=1000, world_height_m=1000),
        "tiny": dict(n_agents=20, duration_s=900, world_width_m=300, world_height_m=300),
        "common": dict(
            speed_min_mps=0.5, speed_max_mps=1.5, pause_min_s=0, pause_max_s=30,
            initial_infectious=10, diagnosis_delay_s=600, transmission_prob=0.2,
        ),
    },
}
SHARED = dict(
    shadowing_sigma_db=2,
    forge_fake_claims=20,
    forge_pid_swap=20,
    forge_bogus_cert=20,
)


def scenario_text(workload: str, size: str, seed: int) -> str:
    spec = SCENARIOS[workload]
    keys = {**spec[size], **spec["common"], **SHARED, "rng_seed": seed}
    if size == "tiny":
        keys["initial_infectious"] = 3
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


class StepTimedWorld(sim.World):
    """The program's World; only step() is timed, run() is its own.

    One operation is one beacon interval of steps (one beacon exchange and
    the bookkeeping of the seconds up to the next).  Every PROBE_EVERY
    steps, between two steps, the host speed is probed and the operations
    since the last probe are corrected with it."""

    def __init__(self, scenario: sim.Scenario, speed: HostSpeed) -> None:
        super().__init__(scenario)
        self.speed = speed
        self.op_s: list[float] = []  # corrected
        self.raw_step_total = 0.0
        self.corrected_step_total = 0.0
        self.probe_s = 0.0  # time spent probing inside run()
        self._pending: list[float] = []

    def step(self) -> None:
        start = perf_counter()
        super().step()
        self._pending.append(perf_counter() - start)
        if len(self._pending) == PROBE_EVERY:
            self.correct_pending()

    def correct_pending(self) -> None:
        start = perf_counter()
        factor = self.speed.factor()
        self.probe_s += perf_counter() - start
        raw = sum(self._pending)
        self.raw_step_total += raw
        self.corrected_step_total += raw * factor
        n = self.scenario.beacon_interval_s
        self.op_s += [sum(self._pending[i:i + n]) * factor for i in range(0, len(self._pending), n)]
        self._pending = []


def output_digest(metrics: sim.SimMetrics, trace: list[str]) -> str:
    h = hashlib.sha256(sim.metrics_to_lines(metrics).encode("utf-8"))
    for line in trace:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def golden_status(workload: str, size: str, seed: int, digest: str) -> str:
    recorded = json.loads(GOLDEN.read_text()).get(workload, {}).get(size, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "CHANGED"


def run(workload: str, seed: int, seconds: float, tracer, size: str) -> Outcome:
    """Untraced: World.run() at least MIN_RUNS times and until the seconds
    are up.  Traced: one untraced World.run() for the overhead base, then
    one traced World.run()."""
    out = Outcome()
    text = scenario_text(workload, size, seed)
    speed = HostSpeed()

    def build() -> StepTimedWorld:
        start = perf_counter()
        world = StepTimedWorld(sim.parse_scenario(text), speed)
        out.setup_s.append((perf_counter() - start) * speed.factor())
        return world

    for _ in range(SETUP_REPEATS - 1):
        build()
    digests = []
    started = perf_counter()
    while True:
        world = build()
        traced = tracer is not None and len(digests) == 1
        if traced:
            from tracing import install_program_wrappers

            install_program_wrappers(tracer)
        try:
            start = perf_counter()
            metrics = world.run()
            took = perf_counter() - start - world.probe_s
            world.correct_pending()  # also covers finalize()
        finally:
            if traced:
                tracer.uninstall()
        # the whole run is corrected by its steps' mean correction
        corrected = took * world.corrected_step_total / world.raw_step_total
        if traced:
            out.layers["trace.overhead"] = corrected / out.unit_s[0]
        else:
            out.add_unit(took, corrected / took, [])
            out.latency_s += world.op_s
            out.ops += len(world.op_s)
        digests.append(output_digest(metrics, world.trace))
        _check(out, metrics)
        del world
        if tracer is not None:
            if traced:
                break
        elif len(digests) >= MIN_RUNS and perf_counter() - started >= seconds:
            break

    out.check(len(set(digests)) == 1, f"output digest differs between runs of seed {seed}")
    out.peak_rss_mb = peak_rss_mb()
    out.notes["runs"] = len(digests)
    out.notes["output_digest"] = digests[0]
    out.notes["golden"] = golden_status(workload, size, seed, digests[0])
    if tracer is not None:
        out.layers.update({
            "sim.true_exposures": metrics.true_exposures,
            "sim.notified_true": metrics.notified_true,
            "sim.notified_false": metrics.notified_false,
            "sim.missed": metrics.missed,
            "sim.forgeries_rejected": metrics.rejected_forgeries,
        })
    return out


def _check(out: Outcome, m: sim.SimMetrics) -> None:
    """Each verified notification is one operation; an accepted forgery fails."""
    verified = sum(m.verdict_counts.values())
    out.attempted += verified
    for _ in range(m.forgeries_accepted):
        out.fail("forged notification accepted")
    out.check(
        m.notified_true + m.missed == m.true_exposures,
        f"notified_true {m.notified_true} + missed {m.missed} != true_exposures {m.true_exposures}",
    )
    out.check(
        m.rejected_forgeries + m.forgeries_accepted == m.forgeries_injected,
        f"{m.forgeries_injected} forgeries injected, "
        f"{m.rejected_forgeries + m.forgeries_accepted} verified",
    )
