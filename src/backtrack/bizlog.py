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
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class Visits(Sequence):
    """A log's visits in chain order, to index, slice, measure and iterate."""

    _visits: list[ChainedVisit]

    def __getitem__(self, i):
        return self._visits[i]

    def __len__(self) -> int:
        return len(self._visits)


class VisitorLog:
    """A business's visits in chain order, read through the `chain` view, and
    the head hash that commits them.  Only `append_visit` changes a log once
    it is built, its index of each PID's sorted visit times included."""

    def __init__(
        self, business_id: str = "", chain: Iterable[ChainedVisit] = (), head: str = GENESIS_HASH
    ) -> None:
        self.business_id = business_id
        self._visits = list(chain)
        self._head = head
        self._audited = 0  # the visits the last intact audit covered; see verify_chain
        self._visit_times: dict[Pid, list[float]] = {}
        for v in self._visits:  # insort, as append_visit does: a parsed chain may be unordered
            bisect.insort(self._visit_times.setdefault(v.pid, []), v.visited_at)

    @property
    def chain(self) -> Visits:
        return Visits(self._visits)

    @property
    def head(self) -> str:
        return self._head


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
    last = log._visits[-1] if log._visits else None
    if last and visited_at < last.visited_at:
        raise ValueError(f"visit at {visited_at} precedes head visit {last.visited_at}")
    seq = last.seq + 1 if last else 1
    entry_hash = _hash_entry(last.entry_hash if last else GENESIS_HASH, seq, visited_at, pid)
    log._visits.append(ChainedVisit(seq, visited_at, pid, entry_hash))
    bisect.insort(log._visit_times.setdefault(pid, []), visited_at)
    log._head = entry_hash
    return log


def verify_chain(log: VisitorLog) -> ChainCheck:
    """Recompute every hash and link; report the smallest violating seq.
    A visit earlier than the one before it breaks the chain as an edit does:
    `append_visit` never adds one.  A head that does not match the last
    entry (e.g. truncation with a stale head) is reported at the sequence
    number after the last surviving entry.

    An intact result checkpoints the count of visits it covered, and the
    next audit rehashes only the visits `append_visit` added since, the only
    change a log takes.  A tampered result leaves the count; a new log has 0."""
    visits, start = log._visits, log._audited
    prev_hash = visits[start - 1].entry_hash if start else GENESIS_HASH
    prev_at = visits[start - 1].visited_at if start else -math.inf
    for expected_seq, visit in enumerate(visits[start:], start=start + 1):
        if (
            visit.seq != expected_seq
            or visit.visited_at < prev_at
            or visit.entry_hash != _hash_entry(prev_hash, visit.seq, visit.visited_at, visit.pid)
        ):
            return ChainCheck(intact=False, tampered_at=expected_seq)
        prev_hash, prev_at = visit.entry_hash, visit.visited_at
    if log._head != prev_hash:
        return ChainCheck(intact=False, tampered_at=len(visits) + 1)
    log._audited = len(visits)
    return ChainCheck(intact=True)


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
    times = log._visit_times.get(claimant_pid, [])
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
    return "".join(_visit_line(v) + "\n" for v in log._visits)


def head_to_line(log: VisitorLog) -> str:
    return f"head|{log.head}\n"


def parse_head(text: str) -> str:
    """The hash in a head file's one line, spelled as `head_to_line` writes it."""
    line = wire.only_line(text)
    if not re.fullmatch(r"head\|[0-9a-f]{64}", line):
        raise ValueError(f"malformed head line: {line!r}")
    return line[len("head|"):]


def parse_chain(chain_text: str, head: str) -> VisitorLog:
    """The log of the visits in chain_text up to the one whose hash is head,
    the commit point that `parse_head` read from the head file: the visits
    after it were left by an append that failed before it moved the head."""
    chain: list[ChainedVisit] = []
    for line in wire.replaced_lines(chain_text):
        parts = line.split("|")
        if len(parts) != 5 or parts[0] != "visit" or not re.fullmatch("[0-9a-f]{64}", parts[4]):
            raise ValueError(f"malformed visit line: {line!r}")
        visit = ChainedVisit(int(parts[1]), float(parts[2]), Pid(parts[3]), parts[4])
        # the hash covers the re-rendered payload: one spelling stands in the file
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
