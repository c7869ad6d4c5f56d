"""device-log workload: one phone and one business, closed loop, one thread.

The phone holds a contact log spanning 21 days and verifies incoming
notifications against it: 50% genuine, 20% fake contact claims, 15% PID
swaps (a logged peer's PID on someone else's certificate) and 15%
certificates from a lab outside the directory.  Interleaved are contact-log
appends, a prune every 100 operations, visit appends onto the business's
hash chain, and every 50 operations a chain audit (verify_chain plus an
evidence query).  Every operation's expected answer is known in advance.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from datetime import date
from statistics import median
from time import perf_counter

from backtrack import bizlog, certificates, contactlog, notify, registry
from backtrack.encounter import InformationRecord
from backtrack.identity import Pad, Pid
from common import HostSpeed, Outcome, peak_rss_mb

T0 = 1583020800.0  # 2020-03-01 00:00 UTC
DAY = 86400.0
RETENTION_S = contactlog.DEFAULT_RETENTION_DAYS * DAY
SIZES = {
    "full": dict(entries=10_000, visits=10_000, people=400, visitors=3000),
    "tiny": dict(entries=300, visits=300, people=20, visitors=60),
}
PIDS_PER_PERSON = 5
CELLS = 40
BATCH = 100  # operations per timed unit (run_s)
SETUP_REPEATS = 5
V = notify.VerdictStatus


def _pid(rng: random.Random) -> Pid:
    return Pid(f"{rng.getrandbits(128):032x}")


class DeviceLog:
    """Inputs, expected state, and the operation stream for one seed."""

    def __init__(self, seed: int, size: str, work_dir) -> None:
        sz = SIZES[size]
        rng = random.Random(seed)
        self.rng = random.Random(rng.getrandbits(64))  # drives the operation stream
        self.step_s = RETENTION_S / sz["entries"]  # log clock advance per append
        lab = certificates.LabIdentity.from_seed("lab-A", rng.randbytes(32))
        fake_lab = certificates.LabIdentity.from_seed("lab-X", rng.randbytes(32))
        self.directory = certificates.LabDirectory()
        self.directory.add_lab(lab)

        self.people = [[_pid(rng) for _ in range(PIDS_PER_PERSON)] for _ in range(sz["people"])]
        self.person_of = {p: i for i, pids in enumerate(self.people) for p in pids}
        window = dict(test_date=date(2030, 1, 1), infectious_from=date(2020, 1, 1))
        self.certs = [certificates.issue_certificate(lab, p, **window) for p in self.people]
        self.fake_certs = [certificates.issue_certificate(fake_lab, p, **window) for p in self.people]
        self.own_pad = Pad("me@phone")
        self._own_pids: dict[int, Pid] = {}
        self._own_rng = random.Random(rng.getrandbits(64))

        self.live = [self._entry(rng, T0 + k * self.step_s) for k in range(sz["entries"])]
        self.head = 0  # live[head:] is what the log must hold
        self.clock = T0 + RETENTION_S
        self.log_path = work_dir / "contact.log"
        self.log_path.write_text(contactlog.serialize_log(contactlog.ContactLog(list(self.live))))

        visitors = [_pid(rng) for _ in range(sz["visitors"])]
        self.certified = set(rng.sample(visitors, len(visitors) // 5))
        self.repo = registry.NotifiedPidRepository(
            {p.value: ("lab-A", date(2020, 3, 1)) for p in self.certified}
        )
        self.visitors = visitors
        self.visits = [
            (rng.choice(visitors), T0 + k * self.step_s) for k in range(sz["visits"])
        ]
        self.visit_clock = T0 + RETENTION_S
        self.log = self.chain = None

    def _own_pid(self, t: float) -> Pid:
        day = int((t - T0) // DAY)
        if day not in self._own_pids:
            self._own_pids[day] = _pid(self._own_rng)
        return self._own_pids[day]

    def _entry(self, rng: random.Random, recorded_at: float) -> contactlog.LogEntry:
        dwell = rng.uniform(600.0, 1800.0)
        t = recorded_at - dwell
        person = rng.randrange(len(self.people))
        own = InformationRecord(
            self._own_pid(t), self.own_pad, t, f"cell-{rng.randrange(CELLS)}-{int(t // 600)}"
        )
        peer = InformationRecord(
            rng.choice(self.people[person]),
            Pad(f"p{person}@mail"),
            t + rng.uniform(-5.0, 5.0),
            f"cell-{rng.randrange(CELLS)}",
        )
        return contactlog.LogEntry(own, peer, recorded_at, dwell, 1)

    def set_up(self) -> None:
        self.log = self.chain = None
        self.log = contactlog.load_log(str(self.log_path))
        self.chain = bizlog.VisitorLog("cafe")
        for pid, at in self.visits:
            bizlog.append_visit(self.chain, pid, at)

    # -- operations ----------------------------------------------------------

    def notification(self) -> tuple[notify.Notification, notify.VerdictStatus]:
        rng = self.rng
        r = rng.random()
        if r < 0.20:
            n = notify.Notification(
                _pid(rng), self.clock - rng.uniform(0, RETENTION_S), f"cell-{rng.randrange(CELLS)}-0"
            )
            return n, V.REJECTED_NO_MATCHING_CONTACT
        e = self.live[rng.randrange(self.head, len(self.live))]
        sender = e.peer_record.pid
        person = self.person_of[sender]
        if r < 0.70:
            cert, expected = self.certs[person], V.ACCEPTED
        elif r < 0.85:
            # the attacker is a logged peer and echoes its own contact, but
            # the certificate is someone else's
            cert = self.certs[(person + 1 + rng.randrange(len(self.people) - 1)) % len(self.people)]
            expected = V.REJECTED_PID_NOT_IN_CERTIFICATE
        else:
            cert, expected = self.fake_certs[person], V.REJECTED_UNKNOWN_LAB
        n = notify.Notification(sender, e.own_record.local_time, e.own_record.local_location, cert)
        return n, expected

    def append_contact(self) -> None:
        self.clock += self.step_s
        entry = self._entry(self.rng, self.clock)
        contactlog.append_entry(self.log, entry)
        self.live.append(entry)

    def append_visit(self) -> None:
        self.visit_clock += self.step_s
        pid = self.rng.choice(self.visitors)
        bizlog.append_visit(self.chain, pid, self.visit_clock)
        self.visits.append((pid, self.visit_clock))

    def prune(self) -> bool:
        contactlog.prune(self.log, self.clock)
        cutoff = self.clock - RETENTION_S
        while self.head < len(self.live) and self.live[self.head].recorded_at < cutoff:
            self.head += 1
        return len(self.log.entries) == len(self.live) - self.head

    def audit(self, k: int) -> tuple[bool, bool]:
        intact = bizlog.verify_chain(self.chain).intact
        if k % 3 == 2:
            claimant, at = _pid(self.rng), self.visit_clock
            expected = bizlog.EvidenceVerdict.NO_VISIT_RECORDED
        else:
            claimant, at = self.visits[self.rng.randrange(len(self.visits))]
            expected = (
                bizlog.EvidenceVerdict.VISIT_AND_CERTIFIED
                if claimant in self.certified
                else bizlog.EvidenceVerdict.NOT_CERTIFIED_SICK
            )
        verdict = bizlog.evidence_query(
            self.chain, claimant, at - 3600.0, at + 3600.0,
            lambda pid: registry.is_notified_pid(self.repo, pid),
        )
        return intact, verdict is expected


def _verify(d: DeviceLog, latencies: list[float]) -> tuple[bool, str]:
    n, expected = d.notification()
    start = perf_counter()
    verdict = notify.verify_notification(n, d.log, d.directory)
    latencies.append(perf_counter() - start)
    return verdict.status is expected, f"{verdict.status.value}, expected {expected.value}"


def _drive(d: DeviceLog, out: Outcome, speed: HostSpeed, until: float, tracer, first_op: int) -> int:
    """Run whole batches until the deadline; returns the last op index."""
    i = first_op
    speed.factor()
    while True:
        latencies: list[float] = []
        batch_start = perf_counter()
        for _ in range(BATCH):
            i += 1
            r = d.rng.random()
            kind = "verify" if r < 0.6 else "append" if r < 0.8 else "visit"
            with tracer.span(f"devicelog.{kind}", i) if tracer else nullcontext():
                try:
                    if kind == "verify":
                        ok, what = _verify(d, latencies)
                    else:
                        d.append_contact() if kind == "append" else d.append_visit()
                        ok, what = True, ""
                except Exception as exc:  # a crash is one failed operation
                    ok, what = False, f"raised {exc!r}"
            out.check(ok, f"op {i} ({kind}): {what}")
            if i % 50 == 0:
                with tracer.span("devicelog.audit", i) if tracer else nullcontext():
                    intact, answered = d.audit(i // 50)
                out.check(intact, f"op {i}: business chain reported tampered")
                out.check(answered, f"op {i}: wrong evidence verdict")
            if i % 100 == 0:
                with tracer.span("devicelog.prune", i) if tracer else nullcontext():
                    kept = d.prune()
                out.check(kept, f"op {i}: prune kept the wrong entries")
        out.add_unit(perf_counter() - batch_start, speed.factor(), latencies)
        if perf_counter() >= until:
            out.ops = out.attempted
            return i


def run(seed: int, seconds: float, tracer, size: str, work_dir) -> Outcome:
    out = Outcome()
    d = DeviceLog(seed, size, work_dir)
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        d.set_up()
        out.setup_s.append((perf_counter() - start) * speed.factor())

    if tracer is None:
        _drive(d, out, speed, perf_counter() + seconds, None, 0)
    else:
        # first half untraced for the overhead base, second half traced
        last_op = _drive(d, out, speed, perf_counter() + seconds / 2, None, 0)
        from tracing import install_program_wrappers

        install_program_wrappers(tracer)
        traced = Outcome()
        try:
            with tracer.span("devicelog.run"):
                _drive(d, traced, speed, perf_counter() + seconds / 2, tracer, last_op)
        finally:
            tracer.uninstall()
        out.attempted += traced.attempted
        out.failed += traced.failed
        out.layers = {"trace.overhead": median(traced.unit_s) / median(out.unit_s)}
    out.peak_rss_mb = peak_rss_mb()
    out.notes["log_entries"] = len(d.log.entries)
    out.notes["chain_visits"] = len(d.chain.chain)
    return out
