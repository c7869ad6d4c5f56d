"""Business visitor log: append-only, hash-chained, tamper-evident.

Each entry's hash covers the previous entry's hash, so any retroactive edit
breaks the chain at a localizable sequence number. Together with the
notified-PID repository this answers fake claims of visits by people later
certified infected.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

from . import wire
from .identity import Pid

GENESIS_HASH = "0" * 64


class EvidenceVerdict(enum.Enum):
    VISIT_AND_CERTIFIED = "VISIT-AND-CERTIFIED"
    NO_VISIT_RECORDED = "NO-VISIT-RECORDED"
    NOT_CERTIFIED_SICK = "NOT-CERTIFIED-SICK"


@dataclass(frozen=True)
class ChainedVisit:
    seq: int
    visited_at: float
    pid: Pid
    entry_hash: str


@dataclass
class VisitorLog:
    business_id: str = ""
    chain: list[ChainedVisit] = field(default_factory=list)
    head: str = GENESIS_HASH


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
    log.head = entry_hash
    return log


def verify_chain(log: VisitorLog) -> ChainCheck:
    """Recompute every hash and link; report the smallest violating seq.

    A head that does not match the last entry (e.g. truncation with a stale
    head) is reported at the sequence number after the last surviving entry.
    """
    prev_hash = GENESIS_HASH
    for expected_seq, visit in enumerate(log.chain, start=1):
        if visit.seq != expected_seq or visit.entry_hash != _hash_entry(
            prev_hash, visit.seq, visit.visited_at, visit.pid
        ):
            return ChainCheck(intact=False, tampered_at=expected_seq)
        prev_hash = visit.entry_hash
    if log.head != prev_hash:
        return ChainCheck(intact=False, tampered_at=len(log.chain) + 1)
    return ChainCheck(intact=True)


def evidence_query(
    log: VisitorLog,
    claimant_pid: Pid,
    window_from: float,
    window_to: float,
    repo_query: Callable[[Pid], bool],
) -> EvidenceVerdict:
    """Did the claimant visit during the window, and are they certified sick?"""
    if window_from > window_to:
        raise ValueError(f"from {window_from} > to {window_to}")
    visited = any(
        v.pid == claimant_pid and window_from <= v.visited_at <= window_to
        for v in log.chain
    )
    if not visited:
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
    """The log of the visits in chain_text under head, the hash that
    `parse_head` read from the head file."""
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
    return VisitorLog(chain=chain, head=head)


def save_chain(log: VisitorLog, chain_path: str, head_path: str) -> None:
    """Replace each file atomically.  A crash between the two replacements
    still leaves the new chain under the old head."""
    wire.write_atomic(chain_path, chain_to_lines(log))
    wire.write_atomic(head_path, head_to_line(log))
