"""registry-mix workload: the registry server in its own process, one
closed-loop client in this one.

The server is preloaded with a state file of notified PIDs and persists
ingests to it.  The client calls client_query / client_claim /
client_ingest, which open a new connection per request: 90% QUERY (half
hits), 8% CLAIM and 2% INGEST (80% valid, 20% signed by a lab outside the
directory).  Every response is checked against the answer the generator
knows, and after the run every ingested PID must be in the state file.
"""

from __future__ import annotations

import json
import random
import select
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from datetime import date
from statistics import median
from time import perf_counter

from backtrack import certificates, identity, registry
from backtrack.identity import Pid
from common import ROOT, HostSpeed, Outcome

HOST = "127.0.0.1"
SIZES = {
    "full": dict(preload=100_000, certs=256, claimants=64),
    "tiny": dict(preload=1000, certs=16, claimants=8),
}
PIDS_PER_CERT = 3
SERVER_STARTS = 5  # set-up is measured this many times; the last server serves
BATCH = 500  # requests per timed unit (run_s)
READY_TIMEOUT_S = 120


@contextmanager
def running_server(work_dir, spans_path, setup_s: list[float], speed: HostSpeed):
    """Start a server process and yield (port, stats); the stats dict is
    filled in when the block ends.  The process is always stopped and
    reaped: its stdin closing is its signal to shut down, and it is killed
    if it does not.  spans_path is None for an untraced server."""
    stats_path = work_dir / "server-stats.json"
    cmd = [
        sys.executable, str(ROOT / "bench" / "registry_server.py"),
        "--directory", str(work_dir / "labs.txt"),
        "--state", str(work_dir / "state.txt"),
        "--stats", str(stats_path),
    ]
    if spans_path is not None:
        cmd += ["--trace", "1", "--spans", str(spans_path)]
    stats: dict = {}
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"registry server did not start (said {line!r})")
        setup_s.append((perf_counter() - start) * speed.factor())
        yield int(line.split()[1]), stats
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"registry server exited with {proc.returncode}")
    stats.update(json.loads(stats_path.read_text()))


class Mix:
    """Inputs and the request stream for one seed."""

    def __init__(self, seed: int, size: str, work_dir) -> None:
        sz = SIZES[size]
        rng = random.Random(seed)
        self.rng = random.Random(rng.getrandbits(64))  # drives the request stream
        lab = certificates.LabIdentity.from_seed("lab-A", rng.randbytes(32))
        outsider = certificates.LabIdentity.from_seed("lab-X", rng.randbytes(32))
        directory = certificates.LabDirectory()
        directory.add_lab(lab)
        (work_dir / "labs.txt").write_text(directory.to_lines())

        self.preload = [f"{rng.getrandbits(128):032x}" for _ in range(sz["preload"])]
        (work_dir / "state.txt").write_text(
            "".join(f"notified|{p}|lab-A|2020-03-{1 + i % 28:02d}\n" for i, p in enumerate(self.preload))
        )
        self.claimants = [
            identity.generate_trusted_pid(f"person {i}", f"phrase {rng.getrandbits(32)}")
            for i in range(sz["claimants"])
        ]

        def cert(signer):
            pids = [Pid(f"{rng.getrandbits(128):032x}") for _ in range(PIDS_PER_CERT)]
            return certificates.issue_certificate(signer, pids, date(2020, 4, 1), date(2020, 3, 25))

        self.certs = [cert(lab) for _ in range(sz["certs"])]
        self.outsider_certs = [cert(outsider) for _ in range(sz["certs"] // 4)]
        self.ingested: set[str] = set()

    def request(self, port: int):
        """The next request as (kind, function, arguments, expected response)."""
        rng = self.rng
        r = rng.random()
        if r < 0.90:
            if rng.random() < 0.5:
                return "QUERY", registry.client_query, (HOST, port, Pid(rng.choice(self.preload))), "YES"
            return "QUERY", registry.client_query, (HOST, port, self._fresh()), "NO"
        if r < 0.98:
            c = rng.choice(self.claimants)
            k = rng.random()
            if k < 0.5:
                args = (Pid(rng.choice(self.preload)), c.pid, c.personal_data, c.phrase)
                expected = registry.ClaimVerdict.CONTACT_CONFIRMED
            elif k < 0.75:
                args = (self._fresh(), c.pid, c.personal_data, c.phrase)
                expected = registry.ClaimVerdict.CONTACT_PID_UNKNOWN
            else:
                args = (Pid(rng.choice(self.preload)), c.pid, c.personal_data, "wrong phrase")
                expected = registry.ClaimVerdict.OWNERSHIP_FAILED
            return "CLAIM", registry.client_claim, (HOST, port, *args), expected.value
        if rng.random() < 0.8:
            cert = rng.choice(self.certs)
            self.ingested.update(p.value for p in cert.pids)
            return "INGEST", registry.client_ingest, (HOST, port, cert), "OK"
        return "INGEST", registry.client_ingest, (HOST, port, rng.choice(self.outsider_certs)), "REJECTED"

    def _fresh(self) -> Pid:
        return Pid(f"{self.rng.getrandbits(128):032x}")


def _drive(mix: Mix, port: int, out: Outcome, speed: HostSpeed, until: float, tracer, first: int) -> int:
    i = first
    speed.factor()
    while True:
        latencies: list[float] = []
        batch_start = perf_counter()
        for _ in range(BATCH):
            i += 1
            kind, call, args, expected = mix.request(port)
            with tracer.span(f"registry.request.{kind}", i) if tracer else nullcontext():
                start = perf_counter()
                try:
                    response = call(*args)
                except OSError as exc:  # refused, reset or timed out
                    response = f"error {exc!r}"
                latencies.append(perf_counter() - start)
            out.check(response == expected, f"request {i} {kind}: {response!r}, expected {expected!r}")
        out.add_unit(perf_counter() - batch_start, speed.factor(), latencies)
        if perf_counter() >= until:
            out.ops = out.attempted - out.failed
            return i


def run(seed: int, seconds: float, tracer, size: str, work_dir, spans_path) -> Outcome:
    """Set-up is measured over SERVER_STARTS server starts; the last one
    serves.  A traced run serves its first half untraced, for the overhead
    base, and its second half from a new, traced server."""
    out = Outcome()
    mix = Mix(seed, size, work_dir)
    speed = HostSpeed()
    for _ in range(SERVER_STARTS - 1):
        with running_server(work_dir, None, out.setup_s, speed):
            pass
    span = seconds if tracer is None else seconds / 2
    with running_server(work_dir, None, out.setup_s, speed) as (port, stats):
        last = _drive(mix, port, out, speed, perf_counter() + span, None, 0)
    out.peak_rss_mb = stats["peak_rss_mb"]
    if tracer is not None:
        traced = Outcome()
        with running_server(work_dir, spans_path, [], speed) as (port, server):
            with tracer.span("registry.run"):
                _drive(mix, port, traced, speed, perf_counter() + span, tracer, last)
        out.attempted += traced.attempted
        out.failed += traced.failed
        out.layers = {"trace.overhead": median(traced.unit_s) / median(out.unit_s)}
        del server["peak_rss_mb"]
        out.notes["server"] = server  # calls, counts and span count of the server

    persisted = registry.load_repository(str(work_dir / "state.txt"))
    missing = sum(1 for p in mix.ingested if p not in persisted.entries)
    out.check(missing == 0, f"{missing} ingested PIDs missing from the state file")
    return out
