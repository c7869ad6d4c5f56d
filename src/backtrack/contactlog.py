"""The per-device log of significant contacts.

Monotone append, retention-bounded pruning, the cross-check lookup used to
validate incoming notifications, and a bit-exact line serialization.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from . import wire
from .encounter import InformationRecord
from .identity import Pad, Pid

DEFAULT_RETENTION_DAYS = 21  # epidemiologists' 2-3 weeks
DEFAULT_TIME_TOLERANCE_S = 300.0


@dataclass(frozen=True, slots=True)
class LogEntry:
    own_record: InformationRecord
    peer_record: InformationRecord
    recorded_at: float
    dwell_s: float
    policy_version: int

    def __post_init__(self) -> None:
        if self.own_record.pid == self.peer_record.pid:
            raise ValueError("own and peer PID must differ")
        if not math.isfinite(self.recorded_at):
            raise ValueError("recorded_at is NaN or infinite; the log is kept in time order")
        if not math.isfinite(self.dwell_s):
            raise ValueError("dwell_s is NaN or infinite")


@dataclass
class ContactLog:
    """Entries in `recorded_at` order, and `by_peer`: each peer PID's entries
    in the same order.  `append_entry` and `prune` keep both up to date;
    code outside this module only reads them."""

    entries: list[LogEntry] = field(default_factory=list)
    by_peer: dict[Pid, list[LogEntry]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        entries, self.entries = self.entries, []
        for entry in entries:
            append_entry(self, entry)


def append_entry(log: ContactLog, entry: LogEntry) -> ContactLog:
    if log.entries and entry.recorded_at < log.entries[-1].recorded_at:
        raise ValueError(f"entry at {entry.recorded_at} older than {log.entries[-1].recorded_at}")
    log.entries.append(entry)
    log.by_peer.setdefault(entry.peer_record.pid, []).append(entry)
    return log


def prune(
    log: ContactLog, now: float, retention_days: int = DEFAULT_RETENTION_DAYS
) -> ContactLog:
    """Drop entries older than the retention window; boundary entries stay."""
    try:
        cutoff = now - retention_days * 86400.0
    except OverflowError:  # days past the float range
        cutoff = math.nan
    if retention_days < 0 or not math.isfinite(cutoff):
        raise ValueError(f"cannot prune at now={now} keeping {retention_days} days")
    cut = bisect_left(log.entries, cutoff, key=attrgetter("recorded_at"))
    # each peer's dropped entries are the front of its list
    for pid, n in Counter(e.peer_record.pid for e in log.entries[:cut]).items():
        peer_entries = log.by_peer[pid]
        del peer_entries[:n]
        if not peer_entries:
            del log.by_peer[pid]
    del log.entries[:cut]
    return log


def find_matching_contact(
    log: ContactLog,
    claimed_peer_pid: Pid,
    echoed_time: float,
    echoed_location: str,
    time_tolerance_s: float = DEFAULT_TIME_TOLERANCE_S,
) -> LogEntry | None:
    """Cross-check a claimed contact against the own log.

    The claim must name a logged peer PID and echo back the own announced
    location (exact string) and own announced time (within tolerance).
    Raises ValueError for a negative or non-finite tolerance.
    """
    if not 0 <= time_tolerance_s < math.inf:
        raise ValueError(f"time tolerance must be finite and >= 0, got {time_tolerance_s}")
    for entry in log.by_peer.get(claimed_peer_pid, ()):
        if (
            entry.own_record.local_location == echoed_location
            and abs(entry.own_record.local_time - echoed_time) <= time_tolerance_s
        ):
            return entry
    return None


def _record_fields(r: InformationRecord) -> str:
    return (
        f"{r.pid}|{r.pad}|{wire.fmt_num(r.local_time)}"
        f"|{wire.quote(r.local_location)}"
    )


def _parse_record(
    parts: list[str], pids: dict[str, Pid], pads: dict[str, Pad]
) -> InformationRecord:
    # pids and pads hold the one checked Pid and Pad made for each id text
    # seen so far, so a log's repeated ids are checked and stored once
    pid = pids.get(parts[0])
    if pid is None:
        pid = pids[parts[0]] = Pid(parts[0])
    pad = pads.get(parts[1])
    if pad is None:
        pad = pads[parts[1]] = Pad(parts[1])
    return InformationRecord(
        pid=pid,
        pad=pad,
        local_time=float(parts[2]),
        local_location=wire.unquote_written(parts[3]),
    )


def entry_to_line(entry: LogEntry) -> str:
    return (
        f"entry|{wire.fmt_num(entry.recorded_at)}|{wire.fmt_num(entry.dwell_s)}"
        f"|{entry.policy_version}"
        f"|OWN|{_record_fields(entry.own_record)}"
        f"|PEER|{_record_fields(entry.peer_record)}"
    )


def _parse_entry(line: str, pids: dict[str, Pid], pads: dict[str, Pad]) -> LogEntry:
    parts = line.split("|")
    if len(parts) != 14 or parts[0] != "entry" or parts[4] != "OWN" or parts[9] != "PEER":
        raise ValueError(f"malformed log entry line: {line!r}")
    return LogEntry(
        own_record=_parse_record(parts[5:9], pids, pads),
        peer_record=_parse_record(parts[10:14], pids, pads),
        recorded_at=float(parts[1]),
        dwell_s=float(parts[2]),
        policy_version=int(parts[3]),
    )


def serialize_log(log: ContactLog) -> str:
    return "".join(entry_to_line(e) + "\n" for e in log.entries)


def parse_log(text: str) -> ContactLog:
    """Parse a serialized log; every PID and PAD text that repeats is one
    shared `Pid` or `Pad`."""
    pids: dict[str, Pid] = {}
    pads: dict[str, Pad] = {}
    return ContactLog([_parse_entry(line, pids, pads) for line in wire.replaced_lines(text)])


def save_log(log: ContactLog, path: str) -> None:
    """Replace the file at path with the log; a crash leaves the old file whole."""
    wire.write_atomic(path, serialize_log(log))


def load_log(path: str) -> ContactLog:
    return wire.load(path, parse_log)
