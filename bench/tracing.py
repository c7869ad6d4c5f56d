"""Spans and counters for the traced run, installed from outside the program.

The tracer replaces public functions (and the simulator's step phases) with
timing wrappers at every place callers look the names up, for example
``backtrack.sim.ingest_beacon`` as well as ``backtrack.encounter.ingest_beacon``,
and puts every original back on ``uninstall``.  Phases, operations and
requests become full spans (name, start, end, parent, request id) that are
kept in memory and written out at the end.  Hot leaf calls are only
aggregated into count, total and self time per (name, parent name), so memory
stays bounded however many calls a run makes.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

_ROOT = "root"
EXPIRY = "sim.expiry"


class _ThreadState:
    """One thread's open frames and the calls and counts it has not yet
    merged into the tracer's totals (merged whenever its stack empties)."""

    __slots__ = ("stack", "calls", "counts")

    def __init__(self) -> None:
        # a frame is [name, span id or None, seconds spent in children,
        # start, request id]
        self.stack = [[_ROOT, None, 0.0, 0.0, None]]
        self.calls: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id, self s)
        self.calls: dict[tuple[str, str], list] = {}  # (name, parent) -> [n, total s, self s]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
        return st

    def _merge(self, st: _ThreadState) -> None:
        with self._lock:
            for key, (n, took, own) in st.calls.items():
                rec = self.calls.setdefault(key, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += took
                rec[2] += own
            for key, n in st.counts.items():
                if key.endswith("_peak"):
                    self.counts[key] = max(self.counts[key], n)
                else:
                    self.counts[key] += n
        st.calls.clear()
        st.counts.clear()

    @staticmethod
    def _add(st: _ThreadState, name: str, parent: str, took: float, own: float) -> None:
        rec = st.calls.get((name, parent))
        if rec is None:
            rec = st.calls[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += took
        rec[2] += own

    def _open(self, name: str, request_id=None) -> list:
        stack = self._state().stack
        if request_id is None:
            request_id = stack[-1][4]
        frame = [name, next(self._ids), 0.0, perf_counter(), request_id]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        st = self._state()
        stack = st.stack
        while stack[-1] is not frame:  # an implicit phase left open inside
            self._close(stack[-1])
        stack.pop()
        parent = stack[-1]
        took = end - frame[3]
        own = took - frame[2]
        parent[2] += took
        self._add(st, frame[0], parent[0], took, own)
        self.spans.append((frame[1], frame[0], frame[3], end, parent[1], frame[4], own))
        if len(stack) == 1:
            self._merge(st)

    @contextmanager
    def span(self, name: str, request_id=None):
        frame = self._open(name, request_id)
        try:
            yield frame
        finally:
            self._close(frame)

    def open_implicit(self, name: str, inside: str) -> None:
        """Open a span for a stretch of code that is not a function of its
        own; it ends when the next span under the same parent starts."""
        if self._state().stack[-1][0] == inside:
            self._open(name)

    def close_implicit(self, name: str) -> None:
        stack = self._state().stack
        if stack[-1][0] == name:
            self._close(stack[-1])

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, full=False, before=None, observe=None):
        """Replace owner.attr with a timing wrapper.

        name is a string or a function of the call's arguments; full spans
        are kept one by one, others only aggregated.  before(args) runs ahead
        of the call, observe(counts, args, result) after it.
        """
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        tracer = self

        if full:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = tracer._open(name if isinstance(name, str) else name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(frame)
                if observe is not None:
                    st = tracer._state()
                    observe(st.counts, args, result)
                    if len(st.stack) == 1:
                        tracer._merge(st)
                return result
        else:
            local, add, merge = self._local, self._add, self._merge

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                st = getattr(local, "st", None) or tracer._state()
                stack = st.stack
                frame = [name, None, 0.0, 0.0, None]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    stack.pop()
                    parent = stack[-1]
                    parent[2] += took
                    add(st, name, parent[0], took, took - frame[2])
                if observe is not None:
                    observe(st.counts, args, result)
                if len(stack) == 1:
                    merge(st)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def call_table(self) -> list[list]:
        return [[n, p, *rec] for (n, p), rec in sorted(self.calls.items())]

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "self_s")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


class CallTable:
    """Aggregated calls from one or more tracers (the registry server's too)."""

    def __init__(self, rows: list[list]) -> None:
        self.rows = rows  # [name, parent, n, total s, self s]

    def _sum(self, name: str, col: int, parent: str | None = None) -> float:
        return sum(r[col] for r in self.rows if r[0] == name and parent in (None, r[1]))

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._sum(name, 2, parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return self._sum(name, 3, parent)

    def own(self, name: str) -> float:
        return self._sum(name, 4)

    def children_total(self, parent: str) -> float:
        return sum(r[3] for r in self.rows if r[1] == parent)


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap every public layer function the benchmark drives, where it is looked up."""
    from backtrack import bizlog, certificates, contactlog, encounter, notify, registry, sim

    def verdict(counts, args, result):
        counts[f"notify.verdict.{result.status.value}"] += 1

    def classified(counts, args, result):
        counts["encounter.samples_classified"] += len(args[0].samples)
        counts["encounter.significant"] += result.significant

    def scanned(counts, args, result):
        counts["encounter.sessions_scanned"] += len(args[0]) + len(result)

    def matched(counts, args, result):
        counts["contactlog.matches"] += result is not None

    def verified(counts, args, result):
        counts["certificates.verified"] += result is certificates.VerificationStatus.VERIFIED

    def hashed(counts, args, result):
        counts["bizlog.visits_hashed"] += len(args[0].chain)

    def sessions_held(counts, args, result):
        # sampled every tenth beacon tick, outside the tick's span
        counts["sim.beacon_ticks"] += 1
        if counts["sim.beacon_ticks"] % 10 == 1:
            world = args[0]
            tables = [a.sessions for a in world.agents]
            held = sum(len(t) for t in tables)
            samples = sum(len(s.samples) for t in tables for s in t.values())
            counts["encounter.open_sessions_peak"] = max(counts["encounter.open_sessions_peak"], held)
            counts["encounter.stored_samples_peak"] = max(
                counts["encounter.stored_samples_peak"], samples
            )

    def leaving_expiry(args):
        tracer.close_implicit(EXPIRY)

    def entering_expiry(args):
        # World.step runs the expiry scan inline, between the beacon tick
        # and _diagnose_due; its first call opens the phase span
        tracer.open_implicit(EXPIRY, inside="sim.run")

    functions = [
        ([sim, encounter], "ingest_beacon", "encounter.ingest_beacon", None),
        ([sim, encounter], "distance_to_rssi", "encounter.distance_to_rssi", None),
        ([sim, encounter], "classify_contact", "encounter.classify_contact", classified),
        ([sim, encounter], "close_expired_sessions", "encounter.close_expired_sessions", scanned),
        ([notify, contactlog], "find_matching_contact", "contactlog.find_matching_contact", matched),
        ([sim, contactlog], "append_entry", "contactlog.append_entry", None),
        ([contactlog], "prune", "contactlog.prune", None),
        ([contactlog], "load_log", "contactlog.load_log", None),
        ([notify, registry, certificates], "verify_certificate",
         "certificates.verify_certificate", verified),
        ([sim, certificates], "issue_certificate", "certificates.issue_certificate", None),
        ([sim, notify], "verify_notification", "notify.verify_notification", verdict),
        ([sim, notify], "build_notifications", "notify.build_notifications", None),
        ([sim, registry], "ingest_certificate", "registry.ingest_certificate", None),
        ([registry], "load_repository", "registry.load_repository", None),
        ([registry], "prove_pid_ownership", "identity.prove_pid_ownership", None),
        ([bizlog], "verify_chain", "bizlog.verify_chain", hashed),
        ([bizlog], "append_visit", "bizlog.append_visit", None),
        ([bizlog], "evidence_query", "bizlog.evidence_query", None),
    ]
    for modules, attr, name, observe in functions:
        for module in modules:
            before = entering_expiry if module is sim and attr == "close_expired_sessions" else None
            tracer.wrap(module, attr, name, observe=observe, before=before)
    tracer.wrap(notify.MailboxStore, "poll", "notify.mailbox_poll")

    world = sim.World
    tracer.wrap(world, "run", "sim.run", full=True)
    phases = [
        ("_move", "sim.move", None),
        ("_rotate_pids", "sim.rotate", None),
        ("_beacon_tick", "sim.beacon", sessions_held),
        ("_diagnose_due", "sim.diagnose", None),
        ("_inject_scheduled_forgeries", "sim.forgeries", None),
        ("_poll_and_verify", "sim.poll_verify", None),
        ("finalize", "sim.finalize", None),
    ]
    for attr, name, observe in phases:
        tracer.wrap(world, attr, name, full=True, before=leaving_expiry, observe=observe)


def wrapped_attributes() -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for everything install_program_wrappers replaces."""
    probe = Tracer()
    install_program_wrappers(probe)
    saved = [(owner, attr, original) for owner, attr, original in probe._saved]
    probe.uninstall()
    return saved
