"""Repository of notified PIDs.

Fed at certificate issuance, queried by health authorities to prioritize
testing, with an ownership-checked claim path. Exposed over a minimal
line-oriented TCP protocol and persisted as an append-only file.
"""

from __future__ import annotations

import enum
import queue
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
    persist_path: str | None = None,
) -> NotifiedPidRepository:
    """Verify cert, append its PIDs to the state file at persist_path if one
    is given, then record them in repo.  A certificate that does not verify
    raises ValueError and an append that fails raises OSError; either way
    repo is left unchanged, so it never holds a PID the file lacks."""
    if verify_certificate(cert, directory) is not VerificationStatus.VERIFIED:
        raise ValueError("certificate did not verify against the directory")
    if persist_path:
        day = cert.test_date.isoformat()
        wire.append_lines(
            persist_path, "".join(f"notified|{pid}|{cert.lab_id}|{day}\n" for pid in cert.pids)
        )
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


def parse_repository(text: str) -> NotifiedPidRepository:
    """Parse a state file, whose lines the server appends through
    `wire.append_lines`: an unterminated last line is a record torn by a crash
    and is skipped, while a malformed complete line raises ValueError."""
    repo = NotifiedPidRepository()
    for line in wire.complete_lines(text)[0]:
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 4 or parts[0] != "notified":
            raise ValueError(f"malformed repository line: {line!r}")
        _record(repo, parts[1], parts[2], date.fromisoformat(parts[3]))
    return repo


def load_repository(path: str) -> NotifiedPidRepository:
    try:
        return wire.load(path, parse_repository)
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


class RegistryServer(socketserver.TCPServer):
    """Serves each accepted connection on one of POOL_SIZE worker threads.

    A connection is accepted only when a worker is idle, so threads and
    accepted sockets are both bounded; while every worker is busy, new
    connections wait in the listen backlog.  server_close() hangs up on the
    connections still being served and stops the workers.
    """

    allow_reuse_address = True
    # room in the backlog for a burst of clients several times the pool,
    # past which the kernel drops handshakes and clients retry after a second
    request_queue_size = 4 * POOL_SIZE

    def __init__(self, address: tuple[str, int], service: RegistryService) -> None:
        # start the pool first: a failed bind calls server_close(), which stops it
        self.service = service
        self._idle = threading.Semaphore(POOL_SIZE)
        self._jobs = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._serving: set[socket.socket] = set()
        self._closing = False
        self._workers = [
            threading.Thread(target=self._work, name=f"registry-worker-{i}", daemon=True)
            for i in range(POOL_SIZE)
        ]
        for worker in self._workers:
            worker.start()
        super().__init__(address, _Handler)

    def get_request(self):
        # Wait at most half a second for an idle worker, so that the serve
        # loop still sees shutdown() while the pool is busy; the connection
        # stays in the backlog and the loop comes back for it.
        if not self._idle.acquire(timeout=0.5):
            raise OSError("every worker is busy")
        try:
            return super().get_request()
        except OSError:
            self._idle.release()
            raise

    def process_request(self, request, client_address) -> None:
        self._jobs.put((request, client_address))

    def _work(self) -> None:
        while (job := self._jobs.get()) is not None:
            request, client_address = job
            with self._lock:
                self._serving.add(request)
                if self._closing:
                    _hang_up(request)
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._lock:
                    self._serving.discard(request)
                self.shutdown_request(request)
                self._idle.release()

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closing = True
            for request in self._serving:
                _hang_up(request)
        for _ in self._workers:
            self._jobs.put(None)
        for worker in self._workers:
            worker.join()


def _hang_up(sock: socket.socket) -> None:
    """Wake a worker blocked reading sock: its read returns end of file."""
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
    """Start a registry server (caller drives serve_forever / shutdown)."""
    _check_port(port)
    repo = load_repository(persist_path) if persist_path else NotifiedPidRepository()
    return RegistryServer((host, port), RegistryService(repo, directory, persist_path))


def _check_port(port: int) -> None:
    # the resolver keeps a port's low 16 bits: a larger one reaches another port
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} is outside 0-65535")


def _roundtrip(host: str, port: int, request: str) -> str:
    _check_port(port)
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall((request + "\n").encode("utf-8"))
        response = sock.makefile("rb").readline(MAX_REPLY_BYTES)
    if not response.endswith(b"\n"):
        if len(response) == MAX_REPLY_BYTES:
            raise OSError(f"reply longer than {MAX_REPLY_BYTES} bytes")
        raise OSError("connection closed before a complete reply")
    return response[:-1].decode("utf-8")


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
