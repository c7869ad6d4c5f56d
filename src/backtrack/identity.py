"""Pseudonymous identities.

Random pseudo-IDs (PIDs), mailbox-style pseudo-addresses (PADs), and
hash-committed "trusted" PIDs whose ownership can later be proven by
revealing the committed name/phrase pair.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import wire

PID_HEX_LEN = 32
# byte separator in the commitment preimage; prevents ("ab","c") == ("a","bc")
_COMMIT_SEP = "\x1f"
_FORBIDDEN_TOKEN_CHARS = frozenset("|,")


def check_token(value: str, what: str) -> None:
    """Raise ValueError unless value is 1-64 printable non-whitespace chars
    without `|` or `,`: the rule for every id written raw into a record."""
    if not 1 <= len(value) <= 64:
        raise ValueError(f"{what} length must be 1-64, got {len(value)}")
    for c in value:
        if c in _FORBIDDEN_TOKEN_CHARS or c.isspace() or not c.isprintable():
            raise ValueError(f"{what} contains forbidden character {c!r}")


class Pid(str):
    """Opaque pseudo-ID: 1-64 printable non-whitespace chars, no `|` or `,`.
    Checked on construction; after that it is its text, and keys tables."""

    __slots__ = ()

    def __new__(cls, value: str) -> Pid:
        check_token(value, "PID")
        return super().__new__(cls, value)

    @property
    def value(self) -> str:
        """The PID as a plain `str`.  The program never reads it; the
        benchmark's workloads do, from when `Pid` wrapped its text."""
        return str(self)


class Pad(str):
    """Mailbox-style pseudo-address `local@domain`; routing is opaque.  It is
    written raw into log lines, so it holds no `|` and no line break."""

    __slots__ = ()

    def __new__(cls, value: str) -> Pad:
        if "|" in value or not value.isprintable():
            raise ValueError(f"PAD must be printable and must not contain '|', got {value!r}")
        local, sep, domain = value.partition("@")
        if not sep or not local or not domain or "@" in domain:
            raise ValueError(f"PAD must be local@domain, got {value!r}")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class TrustedPidCommitment:
    """A PID derived by hashing (personal_data, phrase); phrase stays secret."""

    personal_data: str
    phrase: str
    pid: Pid


def generate_random_pid(rng_seed: int | random.Random) -> Pid:
    """Draw a 32-hex-char PID; deterministic for a fixed seed."""
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    return Pid(f"{rng.getrandbits(128):032x}")


def _commitment_digest(personal_data: str, phrase: str) -> str:
    preimage = (personal_data + _COMMIT_SEP + phrase).encode("utf-8")
    return hashlib.sha256(preimage).hexdigest()[:PID_HEX_LEN]


def generate_trusted_pid(personal_data: str, phrase: str) -> TrustedPidCommitment:
    """Derive a PID as a one-way hash over (personal_data, phrase)."""
    if not personal_data or not phrase:
        raise ValueError("personal_data and phrase must be non-empty")
    pid = Pid(_commitment_digest(personal_data, phrase))
    return TrustedPidCommitment(personal_data=personal_data, phrase=phrase, pid=pid)


def prove_pid_ownership(personal_data: str, phrase: str, claimed: Pid) -> bool:
    """True iff the claimed PID was derived from exactly this data/phrase pair."""
    if not personal_data or not phrase:
        return False
    return _commitment_digest(personal_data, phrase) == claimed


def active_pids_in_window(
    pids_used: list[tuple[float, Pid]], window_from: float, window_to: float
) -> list[Pid]:
    """Every PID whose activation interval intersects [window_from, window_to].

    pids_used lists (activation time, PID) in activation order; each PID is
    active until the next one's activation, the last one for good.
    """
    if window_from > window_to:
        raise ValueError(f"from {window_from} > to {window_to}")
    active: list[Pid] = []
    for i, (start, pid) in enumerate(pids_used):
        end = pids_used[i + 1][0] if i + 1 < len(pids_used) else None
        if start <= window_to and (end is None or end > window_from):
            active.append(pid)
    return active


def commitment_to_line(c: TrustedPidCommitment) -> str:
    """Persisted commitment record; the secret phrase is never written."""
    return f"trusted-pid|{c.pid}|{wire.quote(c.personal_data)}|"
