"""Business visitor log: append-only, hash-chained, tamper-evident.

Each entry's hash covers the previous entry's hash, so any retroactive edit
breaks the chain at a localizable sequence number. Together with the
notified-PID repository this answers fake claims of visits by people later
certified infected.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import math
import os
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from . import wire
from .identity import Pid

GENESIS_HASH = "0" * 64


class EvidenceVerdict(enum.Enum):
    VISIT_AND_CERTIFIED = "VISIT-AND-CERTIFIED"
    NO_VISIT_RECORDED = "NO-VISIT-RECORDED"
    NOT_CERTIFIED_SICK = "NOT-CERTIFIED-SICK"


@dataclass(frozen=True, slots=True)
class ChainedVisit:
    seq: int
    visited_at: float
    pid: Pid
    entry_hash: str


@dataclass
class VisitorLog:
    """Visits in chain order, and `visit_times`: each PID's visit times in
    time order.  `append_visit` keeps both up to date; code outside this
    module only reads them."""

    business_id: str = ""
    chain: list[ChainedVisit] = field(default_factory=list)
    head: str = GENESIS_HASH
    # the visits the last intact audit covered; see verify_chain
    audited: list[ChainedVisit] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    visit_times: dict[Pid, list[float]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # in time order, so that a chain parsed out of order answers as its scan
        for v in sorted(self.chain, key=attrgetter("visited_at")):
            self.visit_times.setdefault(v.pid, []).append(v.visited_at)


@dataclass(frozen=True)
class ChainCheck:
    intact: bool
    tampered_at: int | None = None


def visit_payload(seq: int, visited_at: float, pid: Pid) -> str:
    return f"visit|{seq}|{wire.fmt_num(visited_at)}|{pid}"


def _hash_entry(prev_hash: str, seq: int, visited_at: float, pid: Pid) -> str:
    h = hashlib.sha256()
    h.update(bytes.fromhex(prev_hash))
    h.update(visit_payload(seq, visited_at, pid).encode("utf-8"))
    return h.hexdigest()


def append_visit(log: VisitorLog, pid: Pid, visited_at: float) -> VisitorLog:
    if not math.isfinite(visited_at):
        raise ValueError(f"visit time {visited_at} is not finite")
    if log.chain and visited_at < log.chain[-1].visited_at:
        raise ValueError(f"visit at {visited_at} precedes head visit {log.chain[-1].visited_at}")
    seq = log.chain[-1].seq + 1 if log.chain else 1
    prev_hash = log.chain[-1].entry_hash if log.chain else GENESIS_HASH
    entry_hash = _hash_entry(prev_hash, seq, visited_at, pid)
    log.chain.append(ChainedVisit(seq, visited_at, pid, entry_hash))
    bisect.insort(log.visit_times.setdefault(pid, []), visited_at)
    log.head = entry_hash
    return log


def _check_links(log: VisitorLog, start: int) -> ChainCheck:
    """Rehash the visits from index start on, trusting the ones before it.
    A visit earlier than the one before it breaks the chain as an edit does:
    `append_visit` never adds one, so it was not appended."""
    prev_hash = log.chain[start - 1].entry_hash if start else GENESIS_HASH
    prev_at = log.chain[start - 1].visited_at if start else -math.inf
    for expected_seq, visit in enumerate(log.chain[start:], start=start + 1):
        if (
            visit.seq != expected_seq
            or visit.visited_at < prev_at
            or visit.entry_hash != _hash_entry(prev_hash, visit.seq, visit.visited_at, visit.pid)
        ):
            return ChainCheck(intact=False, tampered_at=expected_seq)
        prev_hash, prev_at = visit.entry_hash, visit.visited_at
    if log.head != prev_hash:
        return ChainCheck(intact=False, tampered_at=len(log.chain) + 1)
    return ChainCheck(intact=True)


def verify_chain(log: VisitorLog) -> ChainCheck:
    """Recompute every hash and link; report the smallest violating seq.

    A head that does not match the last entry (e.g. truncation with a stale
    head) is reported at the sequence number after the last surviving entry.

    An intact result checkpoints the chain on this log object, so the next
    audit rehashes only the visits appended since, from the checkpoint's
    hash: it rehashes O(new visits) and compares O(n) references. If the
    audited prefix no longer equals the checkpoint, visit by visit, because
    a visit there was replaced, removed or reordered, it rehashes the whole
    chain from genesis, so the violating seq is still exact. The compare
    trusts `ChainedVisit` to be frozen and its fields to keep their declared
    types (int seq, float time, Pid): a visit changed in place through
    `object.__setattr__`, or replaced by one that compares equal but renders
    another payload (seq=True for seq=1), is not rehashed. A tampered result
    leaves the checkpoint where it was, and a log parsed afresh has none.
    """
    n = len(log.audited)
    check = _check_links(log, n if log.chain[:n] == log.audited else 0)
    if check.intact:
        log.audited = list(log.chain)
    return check


def evidence_query(
    log: VisitorLog,
    claimant_pid: Pid,
    window_from: float,
    window_to: float,
    repo_query: Callable[[Pid], bool],
) -> EvidenceVerdict:
    """Did the claimant visit during the window, and are they certified sick?
    Answered from the claimant's sorted visit times in O(log of their visits):
    the first time not before window_from is a visit in the window unless it
    is after window_to."""
    if not window_from <= window_to:  # also refuses a NaN bound
        raise ValueError(f"from {window_from} > to {window_to}")
    times = log.visit_times.get(claimant_pid, [])
    i = bisect.bisect_left(times, window_from)
    if i == len(times) or times[i] > window_to:
        return EvidenceVerdict.NO_VISIT_RECORDED
    if not repo_query(claimant_pid):
        return EvidenceVerdict.NOT_CERTIFIED_SICK
    return EvidenceVerdict.VISIT_AND_CERTIFIED


def _visit_line(v: ChainedVisit) -> str:
    return f"{visit_payload(v.seq, v.visited_at, v.pid)}|{v.entry_hash}"


def chain_to_lines(log: VisitorLog) -> str:
    """One `visit|<seq>|<t>|<pid>|<hash>` line per visit: the hashed payload,
    then its entry hash."""
    return "".join(_visit_line(v) + "\n" for v in log.chain)


def head_to_line(log: VisitorLog) -> str:
    return f"head|{log.head}\n"


def parse_head(text: str) -> str:
    """The hash in a head file's `head|<hash>` line."""
    line = text.strip()
    parts = line.split("|")
    if len(parts) != 2 or parts[0] != "head":
        raise ValueError(f"malformed head line: {line!r}")
    return parts[1]


def parse_chain(chain_text: str, head: str) -> VisitorLog:
    """The log of the visits in chain_text up to the one whose hash is head,
    the commit point that `parse_head` read from the head file: the visits
    after it were left by an append that failed before it moved the head."""
    chain: list[ChainedVisit] = []
    for line in chain_text.splitlines():
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 5 or parts[0] != "visit":
            raise ValueError(f"malformed visit line: {line!r}")
        visit = ChainedVisit(int(parts[1]), float(parts[2]), Pid(parts[3]), parts[4])
        # the hash covers the re-rendered payload, so only the canonical
        # spelling may stand in the file
        if _visit_line(visit) != line:
            raise ValueError(f"non-canonical visit line: {line!r}")
        if not math.isfinite(visit.visited_at):
            raise ValueError(f"visit time is not finite: {line!r}")
        chain.append(visit)
    hashes = [v.entry_hash for v in chain]
    if head in hashes:
        del chain[hashes.index(head) + 1:]
    return VisitorLog(chain=chain, head=head)


def save_chain(log: VisitorLog, chain_path: str, head_path: str) -> None:
    """Replace each file atomically, the chain first: replacing the head
    commits the new visits, so a crash between the two commits none of them."""
    wire.write_atomic(chain_path, chain_to_lines(log))
    wire.write_atomic(head_path, head_to_line(log))


def load_chain(chain_path: str, head_path: str) -> VisitorLog:
    """The committed visits: those in the chain file up to the head file's."""
    head = wire.load(head_path, parse_head)
    return wire.load(chain_path, lambda text: parse_chain(text, head))


def nothing_committed(chain_path: str, head_path: str) -> bool:
    """No head file, and no chain file or only the seq-1 visit of a first
    `save_chain` cut before its head write; `load_chain` refuses the rest."""
    if os.path.exists(head_path):
        return False
    if not os.path.exists(chain_path):
        return True
    orphan = wire.load(chain_path, lambda text: parse_chain(text, GENESIS_HASH))
    return [v.seq for v in orphan.chain] == [1]
