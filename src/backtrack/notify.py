"""Notification build, store-and-forward delivery, and receiver verification.

The PAD transport is a mailbox store (in-memory or directory-backed) so the
protocol runs hermetically; real e-mail semantics are out of scope.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass

from . import wire
from .certificates import (
    CertificateOfInfection,
    LabDirectory,
    VerificationStatus,
    certificate_to_line,
    covers_contact,
    parse_certificate_line,
    verify_certificate,
)
from .contactlog import (
    DEFAULT_TIME_TOLERANCE_S,
    ContactLog,
    LogEntry,
    find_matching_contact,
)
from .identity import Pad, Pid


class DeploymentMode(enum.Enum):
    CERTIFICATE_REQUIRED = "required"
    CERTIFICATE_OPTIONAL = "optional"


class VerdictStatus(enum.Enum):
    ACCEPTED = "ACCEPTED"
    ACCEPTED_UNCERTIFIED = "ACCEPTED-UNCERTIFIED"
    REJECTED_NO_MATCHING_CONTACT = "REJECTED-NO-MATCHING-CONTACT"
    REJECTED_UNKNOWN_LAB = "REJECTED-UNKNOWN-LAB"
    REJECTED_BAD_SIGNATURE = "REJECTED-BAD-SIGNATURE"
    REJECTED_PID_NOT_IN_CERTIFICATE = "REJECTED-PID-NOT-IN-CERTIFICATE"


ACCEPTED_STATUSES = frozenset(
    {VerdictStatus.ACCEPTED, VerdictStatus.ACCEPTED_UNCERTIFIED}
)


@dataclass(frozen=True)
class Notification:
    """Warning to a past contact: the sender's PID plus the recipient's own
    announced time/location echoed back, optionally with the certificate."""

    sender_pid: Pid
    echoed_time: float
    echoed_location: str
    certificate: CertificateOfInfection | None = None


@dataclass(frozen=True)
class VerificationVerdict:
    status: VerdictStatus
    matched_entry: LogEntry | None = None

    @property
    def accepted(self) -> bool:
        return self.status in ACCEPTED_STATUSES


def build_notifications(
    log: ContactLog,
    own_pids: list[Pid] | tuple[Pid, ...],
    certificate: CertificateOfInfection | None = None,
) -> list[tuple[Pad, Notification]]:
    """One notification per log entry announced under one of own_pids.

    When a certificate is supplied it must cover every notified entry's own
    PID ("all relevant PIDs declared"); otherwise ValueError is raised.
    """
    own = set(own_pids)
    out: list[tuple[Pad, Notification]] = []
    for entry in log.entries:
        if entry.own_record.pid not in own:
            continue
        if certificate is not None and entry.own_record.pid not in certificate.pids:
            raise ValueError(f"log entry PID {entry.own_record.pid} not in certificate")
        out.append(
            (
                entry.peer_record.pad,
                Notification(
                    sender_pid=entry.own_record.pid,
                    echoed_time=entry.peer_record.local_time,
                    echoed_location=entry.peer_record.local_location,
                    certificate=certificate,
                ),
            )
        )
    return out


def verify_notification(
    n: Notification,
    log: ContactLog,
    directory: LabDirectory,
    mode: DeploymentMode = DeploymentMode.CERTIFICATE_REQUIRED,
    time_tolerance_s: float = DEFAULT_TIME_TOLERANCE_S,
) -> VerificationVerdict:
    """Receiver-side pipeline: contact cross-check, certificate check, PID coverage."""
    entry = find_matching_contact(
        log, n.sender_pid, n.echoed_time, n.echoed_location, time_tolerance_s
    )
    if entry is None:
        return VerificationVerdict(VerdictStatus.REJECTED_NO_MATCHING_CONTACT)
    if n.certificate is None:
        if mode is DeploymentMode.CERTIFICATE_OPTIONAL:
            return VerificationVerdict(VerdictStatus.ACCEPTED_UNCERTIFIED, entry)
        return VerificationVerdict(VerdictStatus.REJECTED_BAD_SIGNATURE)
    status = verify_certificate(n.certificate, directory)
    if status is VerificationStatus.UNKNOWN_LAB:
        return VerificationVerdict(VerdictStatus.REJECTED_UNKNOWN_LAB)
    if status is VerificationStatus.BAD_SIGNATURE:
        return VerificationVerdict(VerdictStatus.REJECTED_BAD_SIGNATURE)
    cert = n.certificate
    if n.sender_pid not in cert.pids or not covers_contact(cert, entry.own_record.local_time):
        return VerificationVerdict(VerdictStatus.REJECTED_PID_NOT_IN_CERTIFICATE)
    return VerificationVerdict(VerdictStatus.ACCEPTED, entry)


def notification_to_line(n: Notification) -> str:
    """`notif|v1|<pid>|<time>|<loc%>`, continued by `|` and the certificate
    line when the notification carries one."""
    line = (
        f"notif|v1|{n.sender_pid}|{wire.fmt_num(n.echoed_time)}"
        f"|{wire.quote(n.echoed_location)}"
    )
    if n.certificate is None:
        return line
    return line + "|" + certificate_to_line(n.certificate)


def parse_notifications(text: str) -> list[Notification]:
    """Parse a stream of wire-format notifications, one per line."""
    out: list[Notification] = []
    for line in text.splitlines():
        if not line:
            continue
        parts = line.split("|", 5)
        if len(parts) < 5 or parts[0] != "notif" or parts[1] != "v1":
            raise ValueError(f"malformed notification line: {line!r}")
        out.append(
            Notification(
                sender_pid=Pid(parts[2]),
                echoed_time=float(parts[3]),
                echoed_location=wire.unquote(parts[4]),
                certificate=parse_certificate_line(parts[5]) if len(parts) == 6 else None,
            )
        )
    return out


class MailboxStore:
    """In-memory store-and-forward transport keyed by PAD.

    Messages are kept as delivered, so a caller may deliver a notification
    inside a record of its own and poll the same records back.
    """

    def __init__(self) -> None:
        self._boxes: dict[Pad, list] = {}
        self._lock = threading.Lock()

    def deliver(self, pad: Pad, message) -> None:
        with self._lock:
            self._boxes.setdefault(pad, []).append(message)

    def poll(self, pad: Pad) -> list:
        with self._lock:
            return self._boxes.pop(pad, [])


class FileMailboxStore:
    """Directory-backed mailbox store: one file per percent-encoded PAD.

    It only delivers, appending in the `parse_notifications` format; the
    recipient reads its file.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, pad: Pad) -> str:
        return os.path.join(self.root, wire.quote(pad))

    def deliver(self, pad: Pad, n: Notification) -> None:
        with self._lock:
            with open(self._path(pad), "a", encoding="utf-8") as f:
                f.write(notification_to_line(n) + "\n")
