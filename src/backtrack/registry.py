"""Repository of notified PIDs.

Fed at certificate issuance, queried by health authorities to prioritize
testing, with an ownership-checked claim path. Exposed over a minimal
line-oriented TCP protocol and persisted as an append-only file.
"""

from __future__ import annotations

import enum
import errno
import hashlib
import select
import socket
import sys
import time
import traceback
from dataclasses import dataclass, field
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
    """The notified PIDs, as a set of their texts; built from any iterable of
    PID texts (a dict gives its keys)."""

    entries: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.entries = set(self.entries)


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
        lab_day = f"{cert.lab_id}|{cert.test_date.isoformat()}"
        wire.append_lines(persist_path, "".join(f"notified|{pid}|{lab_day}\n" for pid in cert.pids))
    # plain `str` members, as a loaded state file's are: a 32-character
    # `Pid` takes 129 bytes, its `str` 81
    repo.entries.update(map(str, cert.pids))
    return repo


def is_notified_pid(repo: NotifiedPidRepository, pid: str) -> bool:
    return pid in repo.entries


def check_test_priority_claim(
    repo: NotifiedPidRepository,
    claimed_contact_pid: str,
    claimant_personal_data: str,
    claimant_phrase: str,
    claimant_pid: str,
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
    is checked once."""
    repo, lab_days = NotifiedPidRepository(), set()
    for line in lines:
        parts = line.split("|", 2)
        if len(parts) != 3 or parts[0] != "notified":
            raise ValueError(f"malformed repository line: {line!r}")
        check_token(parts[1], "PID")
        if parts[2] not in lab_days:
            # with no `|` or a second one, the day is one parse_day refuses
            lab_id, _, day = parts[2].partition("|")
            check_token(lab_id, "lab id")
            wire.parse_day(day)
            lab_days.add(parts[2])
        repo.entries.add(parts[1])
    return repo


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
    The service keeps the SHA-256 digest of each INGEST line it has recorded,
    so a repeat of one (a client's retry, say) is answered OK at once: no
    second signature check and no second append.  A line that was rejected
    or not saved is checked again each time, and a new service starts with
    no digests.
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
        self._recorded: set[bytes] = set()  # digests of the INGEST lines recorded

    def handle_request(self, lines: list[str]) -> str:
        if len(lines) != 1:
            return "ERROR malformed request"
        head = lines[0].split(" ")
        if head[0] == "QUERY" and len(head) == 2:
            return "YES" if is_notified_pid(self.repo, head[1]) else "NO"
        if head[0] == "CLAIM" and len(head) == 5:
            return check_test_priority_claim(
                self.repo, head[1], wire.unquote(head[3]), wire.unquote(head[4]), head[2]
            ).value
        if head[0] == "INGEST" and len(head) == 2:
            digest = hashlib.sha256(head[1].encode("utf-8")).digest()
            if digest in self._recorded:  # added only after ingest_certificate returned
                return "OK"
            try:
                cert = parse_certificate_line(head[1])
            except ValueError:
                return "REJECTED"
            try:
                ingest_certificate(self.repo, cert, self.directory, self.persist_path)
            except ValueError:
                return "REJECTED"
            except OSError:
                return "ERROR state not saved"
            self._recorded.add(digest)
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
# Seconds a connection may make no progress before the server hangs up on it.
IDLE_TIMEOUT_S = 30.0
# Connections served at once; further clients wait in the listen backlog.
MAX_CONNECTIONS = 128


@dataclass(eq=False)
class _Handler:
    """A connection of the server's loop.  Unsent replies stop its reads, so a
    client that does not read holds at most the replies to one read."""

    request: socket.socket
    client_address: tuple[str, int]
    service: RegistryService
    pending: bytes = b""  # received and not yet answered: no newline in it
    unsent: memoryview = memoryview(b"")
    deadline: float = 0.0
    last: bool = False  # hang up once unsent is sent

    def handle(self) -> None:
        """Ready a connection just accepted; the loop calls this once for each.
        With TCP_NODELAY no reply waits for the client's ACK."""
        self.request.setblocking(False)
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def receive(self) -> None:
        """Read once, then answer with one send every complete line read and,
        at end of file, an unterminated last line."""
        data = self.request.recv(1 << 16)
        lines = (self.pending + data).split(b"\n")
        self.pending = lines.pop() if data or not lines[-1] else b""
        self.last = not data
        if len(self.pending) > MAX_REQUEST_BYTES:
            lines.append(self.pending)
        replies = []
        for line in lines:
            if len(line) >= MAX_REQUEST_BYTES:  # too long: answer, then hang up
                replies.append("ERROR request too long")
                self.last = True
                break
            try:
                replies.append(self.service.handle_request([line.decode("utf-8")]))
            except UnicodeDecodeError:
                replies.append("ERROR malformed request")
        if replies:
            self.unsent = memoryview(("\n".join(replies) + "\n").encode("utf-8"))
            self.send()

    def send(self) -> None:
        try:
            self.unsent = self.unsent[self.request.send(self.unsent) :]
        except BlockingIOError:
            pass  # the rest goes once poll reports room


class RegistryServer:
    """serve_forever() serves the IPv4 listening socket and every connection
    from one `select.poll` loop until shutdown(); server_close() closes them.
    A client that resets or leaves mid-exchange just ends its connection; any
    other exception is reported by handle_error, and the loop goes on.
    """

    def __init__(self, address: tuple[str, int], service: RegistryService) -> None:
        self.service = service
        self._handlers: dict[int, _Handler] = {}  # by descriptor
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                self.socket.bind(address)
            except TypeError as exc:  # a host name the IDNA codec cannot encode
                raise OSError(exc) from exc
            self.socket.listen()
            self.socket.setblocking(False)
            self._wake, self._woken = socket.socketpair()  # shutdown() writes to the loop
        except BaseException:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._done: socket.socket | None = None  # closed as serve_forever() returns

    def __enter__(self) -> RegistryServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.server_close()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until shutdown(); poll_interval is kept for socketserver's
        signature.  Once a second the loop hangs up on the idle connections."""
        handlers, listener, stop = self._handlers, self.socket.fileno(), self._woken.fileno()
        poller = select.poll()
        poller.register(stop, select.POLLIN)
        accepting, starved, sweep_at = False, False, 0.0
        try:
            while True:
                now = time.monotonic()
                if now >= sweep_at:  # also lets accept try again after it found no descriptor
                    for handler in [h for h in handlers.values() if h.deadline <= now]:
                        self._drop(poller, handler)
                    starved, sweep_at = False, now + 1.0
                if accepting != (not starved and len(handlers) < MAX_CONNECTIONS):
                    accepting = not accepting
                    poller.register(listener, select.POLLIN if accepting else 0)
                for fd, _ in poller.poll(1000):
                    if fd == stop:
                        self._woken.recv(1)
                        return
                    handler = handlers.get(fd)
                    if handler is None:
                        try:
                            request, client_address = self.socket.accept()
                        except OSError as exc:  # the connection failed, or no descriptor was free
                            starved = exc.errno in (errno.EMFILE, errno.ENFILE)
                            continue
                        fd = request.fileno()
                        handler = handlers[fd] = _Handler(request, client_address, self.service)
                        poller.register(fd, select.POLLIN)
                        step = handler.handle
                    else:
                        step = handler.send if handler.unsent else handler.receive
                    try:
                        step()
                    except Exception as exc:
                        if not isinstance(exc, ConnectionError):  # a reset ends quietly
                            self.handle_error(handler.request, handler.client_address)
                        handler.last, handler.unsent = True, memoryview(b"")
                    handler.deadline = time.monotonic() + IDLE_TIMEOUT_S
                    if handler.last and not handler.unsent:
                        self._drop(poller, handler)
                    elif handler.unsent or step == handler.send:
                        poller.register(fd, select.POLLOUT if handler.unsent else select.POLLIN)
        finally:
            if self._done is not None:
                self._done.close()

    def _drop(self, poller: select.poll, handler: _Handler) -> None:
        poller.unregister(handler.request)
        del self._handlers[handler.request.fileno()]
        handler.request.close()

    def shutdown(self) -> None:
        """Stop serve_forever() and return once it has returned."""
        waiter, self._done = socket.socketpair()
        with waiter:
            self._wake.send(b"\0")
            waiter.recv(1)  # end of file once serve_forever() has closed the other end

    def handle_error(self, request: socket.socket, client_address: tuple[str, int]) -> None:
        print(f"Exception while serving {client_address}:", file=sys.stderr)
        traceback.print_exc()

    def server_close(self) -> None:
        for handler in self._handlers.values():
            handler.request.close()
        for sock in (self.socket, self._wake, self._woken):
            sock.close()


def serve(
    host: str,
    port: int,
    directory: LabDirectory,
    persist_path: str | None = None,
) -> RegistryServer:
    """A registry server listening from now, served by serve_forever(); an
    OSError that stops it starting names the address."""
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
    naming the address: a host that cannot be encoded or reached, a reply cut
    short, too long or not UTF-8, and an `ERROR ...` reply (the server could
    not serve the request: retry it)."""
    _check_port(port)
    try:
        # IPv4 only, as the server listens: connect reads an address literal
        # itself and resolves a host name, with no getaddrinfo list to walk
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            try:
                sock.connect((host, port))
            except TypeError as exc:  # a host name the IDNA codec cannot encode
                raise OSError(exc) from exc
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
        try:
            reply = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OSError(f"reply is not UTF-8: {exc}") from exc
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
