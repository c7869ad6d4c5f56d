"""Repository of notified PIDs.

Fed at certificate issuance, queried by health authorities to prioritize
testing, with an ownership-checked claim path. Exposed over a minimal
line-oriented TCP protocol and persisted as an append-only file.
"""

from __future__ import annotations

import enum
import os
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from datetime import date

from . import wire
from .certificates import (
    CertificateOfInfection,
    LabDirectory,
    VerificationStatus,
    certificate_to_line,
    parse_certificate_line,
    verify_certificate,
)
from .identity import Pid, prove_pid_ownership


class ClaimVerdict(enum.Enum):
    CONTACT_CONFIRMED = "CONFIRMED"
    CONTACT_PID_UNKNOWN = "UNKNOWN"
    OWNERSHIP_FAILED = "OWNERSHIP-FAILED"


@dataclass
class NotifiedPidRepository:
    """pid -> (lab_id, test_date); re-insertion keeps the earliest test date."""

    entries: dict[str, tuple[str, date]] = field(default_factory=dict)


def ingest_certificate(
    repo: NotifiedPidRepository,
    cert: CertificateOfInfection,
    directory: LabDirectory,
) -> NotifiedPidRepository:
    if verify_certificate(cert, directory) is not VerificationStatus.VERIFIED:
        raise ValueError("certificate did not verify against the directory")
    for pid in cert.pids:
        _record(repo, pid, cert.lab_id, cert.test_date)
    return repo


def _record(repo: NotifiedPidRepository, pid: str, lab_id: str, test_date: date) -> None:
    """Insert pid; the earliest test date wins."""
    existing = repo.entries.get(pid)
    if existing is None or test_date < existing[1]:
        repo.entries[pid] = (lab_id, test_date)


def is_notified_pid(repo: NotifiedPidRepository, pid: Pid) -> bool:
    return pid in repo.entries


def check_test_priority_claim(
    repo: NotifiedPidRepository,
    claimed_contact_pid: Pid,
    claimant_personal_data: str,
    claimant_phrase: str,
    claimant_pid: Pid,
) -> ClaimVerdict:
    """Two checks: is the claimed contact a notified PID, and does the
    claimant own the trusted PID they present."""
    if not is_notified_pid(repo, claimed_contact_pid):
        return ClaimVerdict.CONTACT_PID_UNKNOWN
    if not prove_pid_ownership(claimant_personal_data, claimant_phrase, claimant_pid):
        return ClaimVerdict.OWNERSHIP_FAILED
    return ClaimVerdict.CONTACT_CONFIRMED


def _entry_line(repo: NotifiedPidRepository, pid: str) -> str:
    lab_id, test_date = repo.entries[pid]
    return f"notified|{pid}|{lab_id}|{test_date.isoformat()}\n"


def repository_to_lines(repo: NotifiedPidRepository) -> str:
    return "".join(_entry_line(repo, pid) for pid in sorted(repo.entries))


def parse_repository(text: str) -> NotifiedPidRepository:
    """Parse a state file.  Without a trailing newline the last line may be a
    record torn by a crash mid-append: it is skipped when malformed, while a
    malformed line anywhere else raises ValueError."""
    repo = NotifiedPidRepository()
    lines = text.splitlines()
    tail = lines.pop() if lines and not text.endswith("\n") else None
    for line in lines:
        _add_line(repo, line)
    if tail is not None:
        try:
            _add_line(repo, tail)
        except ValueError:
            pass
    return repo


def _add_line(repo: NotifiedPidRepository, line: str) -> None:
    if not line:
        return
    parts = line.split("|")
    if len(parts) != 4 or parts[0] != "notified":
        raise ValueError(f"malformed repository line: {line!r}")
    _record(repo, parts[1], parts[2], date.fromisoformat(parts[3]))


def load_repository(path: str) -> NotifiedPidRepository:
    try:
        with open(path, encoding="utf-8") as f:
            return parse_repository(f.read())
    except FileNotFoundError:
        return NotifiedPidRepository()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


class RegistryService:
    """Transport-independent request processor for the registry protocol.

    Requests (one line each):
      QUERY <pid>                                     -> YES | NO
      CLAIM <contact_pid> <claimant_pid> <name%> <phrase%> -> CONFIRMED | UNKNOWN | OWNERSHIP-FAILED
      INGEST <certificate line>                       -> OK | REJECTED
    `handle_request` takes a list holding the one line, which is what
    `bench/registry_server.py` names its trace spans from.  Anything else,
    an empty list or more than one line included, gets
    `ERROR malformed request`.
    """

    def __init__(
        self,
        repo: NotifiedPidRepository,
        directory: LabDirectory,
        persist_path: str | None = None,
    ) -> None:
        self.repo = repo
        self.directory = directory
        self.persist_path = persist_path
        self._lock = threading.Lock()

    def handle_request(self, lines: list[str]) -> str:
        if len(lines) != 1:
            return "ERROR malformed request"
        head = lines[0].split(" ")
        if head[0] == "QUERY" and len(head) == 2:
            try:
                pid = Pid(head[1])
            except ValueError:
                return "NO"
            return "YES" if is_notified_pid(self.repo, pid) else "NO"
        if head[0] == "CLAIM" and len(head) == 5:
            try:
                contact_pid = Pid(head[1])
                claimant_pid = Pid(head[2])
            except ValueError:
                return ClaimVerdict.CONTACT_PID_UNKNOWN.value
            verdict = check_test_priority_claim(
                self.repo,
                contact_pid,
                wire.unquote(head[3]),
                wire.unquote(head[4]),
                claimant_pid,
            )
            return verdict.value
        if head[0] == "INGEST" and len(head) == 2:
            try:
                cert = parse_certificate_line(head[1])
            except ValueError:
                return "REJECTED"
            with self._lock:
                try:
                    ingest_certificate(self.repo, cert, self.directory)
                except ValueError:
                    return "REJECTED"
                if self.persist_path:
                    with open(self.persist_path, "a", encoding="utf-8") as f:
                        for pid in cert.pids:
                            f.write(_entry_line(self.repo, pid))
            return "OK"
        return "ERROR malformed request"


# Longest request line the server reads, newline included.  The longest valid
# request is an INGEST, whose certificate line grows by at most 65 bytes per
# listed PID (64 characters and a comma): 1 MiB holds over 16,000 PIDs, where
# two weeks of PIDs rotated every 10 minutes are 2,016.
MAX_REQUEST_BYTES = 1 << 20
# Seconds a connection may stay silent before the server hangs up, so that an
# idle client does not hold its thread forever.
IDLE_TIMEOUT_S = 30.0


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: RegistryService = self.server.service  # type: ignore[attr-defined]
        self.connection.settimeout(IDLE_TIMEOUT_S)
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except TimeoutError:
                return
            if not line:
                return
            if len(line) > MAX_REQUEST_BYTES:
                # the rest of the line is never read: answer, then hang up
                self.wfile.write(b"ERROR request too long\n")
                return
            try:
                request = line.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError:
                response = "ERROR malformed request"
            else:
                response = service.handle_request([request])
            self.wfile.write((response + "\n").encode("utf-8"))


class RegistryServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: RegistryService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def serve(
    host: str,
    port: int,
    directory: LabDirectory,
    persist_path: str | None = None,
) -> RegistryServer:
    """Start a registry server (caller drives serve_forever / shutdown).

    A state file whose last record a crash cut short is rewritten from what
    loaded, so that the next append starts on a line of its own.
    """
    repo = load_repository(persist_path) if persist_path else NotifiedPidRepository()
    if persist_path and _ends_mid_record(persist_path):
        wire.write_atomic(persist_path, repository_to_lines(repo))
    return RegistryServer((host, port), RegistryService(repo, directory, persist_path))


def _ends_mid_record(path: str) -> bool:
    try:
        with open(path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            if size == 0:
                return False
            f.seek(size - 1)
            return f.read(1) != b"\n"
    except FileNotFoundError:
        return False


def _roundtrip(host: str, port: int, request: str) -> str:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall((request + "\n").encode("utf-8"))
        f = sock.makefile("r", encoding="utf-8")
        response = f.readline().rstrip("\n")
    return response


def client_query(host: str, port: int, pid: Pid) -> str:
    return _roundtrip(host, port, f"QUERY {pid}")


def client_claim(
    host: str,
    port: int,
    contact_pid: Pid,
    claimant_pid: Pid,
    personal_data: str,
    phrase: str,
) -> str:
    return _roundtrip(
        host,
        port,
        f"CLAIM {contact_pid} {claimant_pid} "
        f"{wire.quote(personal_data)} {wire.quote(phrase)}",
    )


def client_ingest(host: str, port: int, cert: CertificateOfInfection) -> str:
    return _roundtrip(host, port, f"INGEST {certificate_to_line(cert)}")
