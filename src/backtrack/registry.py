"""Repository of notified PIDs.

Fed at certificate issuance, queried by health authorities to prioritize
testing, with an ownership-checked claim path. Exposed over a minimal
line-oriented TCP protocol and persisted as an append-only file.
"""

from __future__ import annotations

import enum
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable

from . import wire
from .certificates import (
    CertificateOfInfection,
    LabDirectory,
    VerificationStatus,
    certificate_to_line,
    parse_certificate_line,
    verify_certificate,
)
from .identity import Pid, check_token, prove_pid_ownership


class ClaimVerdict(enum.Enum):
    CONTACT_CONFIRMED = "CONFIRMED"
    CONTACT_PID_UNKNOWN = "UNKNOWN"
    OWNERSHIP_FAILED = "OWNERSHIP-FAILED"


@dataclass
class NotifiedPidRepository:
    """pid -> (lab_id, test_date); re-insertion keeps the earliest test date.

    `shared` maps each `<lab>|<test date>` text recorded so far to its one
    (lab_id, test_date) value, which every PID of that lab and day points at:
    a state file repeats few such pairs (labs times days) over many PIDs."""

    entries: dict[str, tuple[str, date]] = field(default_factory=dict)
    shared: dict[str, tuple[str, date]] = field(default_factory=dict, repr=False, compare=False)


def ingest_certificate(
    repo: NotifiedPidRepository,
    cert: CertificateOfInfection,
    directory: LabDirectory,
    persist_path: str | None = None,
) -> NotifiedPidRepository:
    """Verify cert, append its PIDs to the state file at persist_path if one
    is given, then record them in repo.  A certificate that does not verify
    raises ValueError and an append that fails raises OSError; either way
    repo is left unchanged, so it never holds a PID the file lacks."""
    if verify_certificate(cert, directory) is not VerificationStatus.VERIFIED:
        raise ValueError("certificate did not verify against the directory")
    lab_day = f"{cert.lab_id}|{cert.test_date.isoformat()}"
    if persist_path:
        wire.append_lines(persist_path, "".join(f"notified|{pid}|{lab_day}\n" for pid in cert.pids))
    value = repo.shared.setdefault(lab_day, (cert.lab_id, cert.test_date))
    for pid in cert.pids:
        _record(repo, pid, value)
    return repo


def _record(repo: NotifiedPidRepository, pid: str, value: tuple[str, date]) -> None:
    """Point pid at value, a (lab_id, test_date) from repo.shared; the
    earliest test date wins."""
    existing = repo.entries.get(pid)
    if existing is None or value[1] < existing[1]:
        repo.entries[pid] = value


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


def parse_repository(lines: Iterable[str]) -> NotifiedPidRepository:
    """Parse the complete lines of a state file, without their newlines, as
    `wire.load_lines` reads them, leaving out an unterminated last line, a
    record torn by a crash.
    Every line must be `notified|<pid>|<lab>|<test date>`, with valid ids
    and a date that `wire.parse_day` reads; any other, a blank one
    included, raises ValueError.  Each distinct `<lab>|<test date>` text
    is parsed once, into the value `repo.shared` keeps for it."""
    repo = NotifiedPidRepository()
    for line in lines:
        # a `<lab>|<test date>` already in shared was checked whole when first
        # seen, so one hit there checks the rest of this line
        parts = line.split("|", 2)
        if len(parts) != 3 or parts[0] != "notified":
            raise ValueError(f"malformed repository line: {line!r}")
        check_token(parts[1], "PID")
        value = repo.shared.get(parts[2])
        if value is None:
            value = repo.shared[parts[2]] = _parse_shared(parts[2])
        _record(repo, parts[1], value)
    return repo


def _parse_shared(text: str) -> tuple[str, date]:
    """The (lab_id, test_date) that `<lab>|<test date>` text spells; with no
    `|` or a second one, the day is one that `wire.parse_day` refuses."""
    lab_id, _, day = text.partition("|")
    check_token(lab_id, "lab id")
    return lab_id, wire.parse_day(day)


def load_repository(path: str) -> NotifiedPidRepository:
    """The repository in the state file at path, read line by line; a missing
    file is an empty repository.  A malformed complete line raises ValueError
    prefixed with the path."""
    try:
        return wire.load_lines(path, parse_repository)[0]
    except FileNotFoundError:
        return NotifiedPidRepository()


class RegistryService:
    """Transport-independent request processor for the registry protocol.

    Requests (one line each):
      QUERY <pid>                                     -> YES | NO
      CLAIM <contact_pid> <claimant_pid> <name%> <phrase%> -> CONFIRMED | UNKNOWN | OWNERSHIP-FAILED
      INGEST <certificate line>                       -> OK | REJECTED | ERROR state not saved
    An INGEST answers OK only once its PIDs are appended to the state file;
    one whose append fails gets `ERROR state not saved` and records nothing.
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
                    ingest_certificate(self.repo, cert, self.directory, self.persist_path)
                except ValueError:
                    return "REJECTED"
                except OSError:
                    return "ERROR state not saved"
            return "OK"
        return "ERROR malformed request"


# Longest request line the server reads, newline included.  The longest valid
# request is an INGEST, whose certificate line grows by at most 65 bytes per
# listed PID (64 characters and a comma): 1 MiB holds over 16,000 PIDs, where
# two weeks of PIDs rotated every 10 minutes are 2,016.
MAX_REQUEST_BYTES = 1 << 20
# Longest reply line the client reads, newline included.  The longest reply
# the server sends, `ERROR malformed request`, is 24 bytes with its newline.
MAX_REPLY_BYTES = 64
# Seconds a connection may stay silent before the server hangs up, so that an
# idle client does not hold its worker forever.
IDLE_TIMEOUT_S = 30.0
# Worker threads per server: at most this many connections are served at once.
POOL_SIZE = 16


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        service: RegistryService = self.server.service  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        sock.settimeout(IDLE_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # no reply waits for an ACK
        pending = bytearray()  # received, not yet answered
        scanned = 0  # pending[:scanned] holds no newline
        while True:
            end = pending.find(b"\n", scanned)
            if end < 0 and len(pending) <= MAX_REQUEST_BYTES:
                try:
                    chunk = sock.recv(1 << 16)
                except TimeoutError:
                    return
                if chunk:
                    scanned = len(pending)
                    pending += chunk
                    continue
                if not pending:
                    return
                end = len(pending)  # an unterminated last line before end of file
            if end < 0 or end >= MAX_REQUEST_BYTES:
                # the rest of the line is never read: answer, then hang up
                sock.sendall(b"ERROR request too long\n")
                return
            try:
                request = pending[:end].decode("utf-8")
            except UnicodeDecodeError:
                response = "ERROR malformed request"
            else:
                response = service.handle_request([request])
            del pending[: end + 1]
            scanned = 0
            sock.sendall(response.encode("utf-8") + b"\n")


class RegistryServer(socketserver.TCPServer):
    """POOL_SIZE worker threads each accept a connection on the IPv4
    listening socket and serve it to the end themselves, not through
    socketserver's per-request hooks, so at most POOL_SIZE connections are
    accepted at once; the rest wait in the listen backlog.  A client that
    resets or leaves mid-exchange just ends its connection; any other
    exception is reported by handle_error.  serve_forever() only waits for
    shutdown(); server_close() hangs up on the connections still being
    served, wakes the workers waiting in accept and joins them.
    """

    allow_reuse_address = True
    # room in the backlog for a burst of clients several times the pool,
    # past which the kernel drops handshakes and clients retry after a second
    request_queue_size = 4 * POOL_SIZE

    def __init__(self, address: tuple[str, int], service: RegistryService) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._serving: set[socket.socket] = set()
        self._closing = False
        self._stopped = threading.Event()
        self._workers: list[threading.Thread] = []  # a failed bind calls server_close()
        super().__init__(address, _Handler)
        for i in range(POOL_SIZE):
            worker = threading.Thread(target=self._work, name=f"registry-worker-{i}", daemon=True)
            worker.start()
            self._workers.append(worker)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        # the workers serve; poll_interval is kept for socketserver's signature
        self._stopped.wait()

    def shutdown(self) -> None:
        self._stopped.set()

    def _work(self) -> None:
        while True:
            try:
                request, client_address = self.socket.accept()
            except OSError:
                if self._closing:
                    return
                continue  # the connection failed before it was accepted
            with self._lock:
                self._serving.add(request)
                if self._closing:
                    _hang_up(request)
            try:
                _Handler(request, client_address, self)
            except ConnectionError:
                pass  # the client reset or left mid-exchange: its connection is over
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._lock:
                    self._serving.discard(request)
                request.close()

    def server_close(self) -> None:
        with self._lock:
            self._closing = True
            for request in self._serving:
                _hang_up(request)
        _hang_up(self.socket)  # on Linux, accept fails from now on, also where it waits
        for worker in self._workers:
            worker.join()
        super().server_close()


def _hang_up(sock: socket.socket) -> None:
    """Wake a worker blocked on sock: a read returns end of file, an accept fails."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the client has already gone


def serve(
    host: str,
    port: int,
    directory: LabDirectory,
    persist_path: str | None = None,
) -> RegistryServer:
    """A registry server whose workers serve from now until server_close();
    an OSError that stops it starting names the address."""
    _check_port(port)
    try:
        repo = load_repository(persist_path) if persist_path else NotifiedPidRepository()
        return RegistryServer((host, port), RegistryService(repo, directory, persist_path))
    except OSError as exc:
        raise OSError(f"registry at {host}:{port}: {exc}") from exc


def _check_port(port: int) -> None:
    # connect and bind would raise OverflowError, which names no registry
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} is outside 0-65535")


def _roundtrip(host: str, port: int, request: str) -> str:
    """The reply to one request line.  Every failed exchange raises OSError
    naming the address: no connection, a reply cut short or too long, and an
    `ERROR ...` reply (the server could not serve the request: retry it)."""
    _check_port(port)
    try:
        # IPv4 only, as the server listens: connect reads an address literal
        # itself and resolves a host name, with no getaddrinfo list to walk
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect((host, port))
            sock.sendall((request + "\n").encode("utf-8"))
            response = b""
            while b"\n" not in response and len(response) < MAX_REPLY_BYTES:
                chunk = sock.recv(MAX_REPLY_BYTES - len(response))
                if not chunk:
                    break
                response += chunk
        line, newline, _ = response.partition(b"\n")
        if not newline:
            if len(response) == MAX_REPLY_BYTES:
                raise OSError(f"reply longer than {MAX_REPLY_BYTES} bytes")
            raise OSError("connection closed before a complete reply")
        reply = line.decode("utf-8")
        if reply.startswith("ERROR"):
            raise OSError(reply)
    except OSError as exc:
        raise OSError(f"registry at {host}:{port}: {exc}") from exc
    return reply


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
